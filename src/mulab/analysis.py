"""Per-curve orchestration: ingestion, residual classification, analytic
Iwasawa invariants, cross-checks, and the serializable report.

Analytic mu is reported as the mu-invariant of the p-primary Selmer group
conditional on the main conjecture; the assumption is carried in every
report rather than silently applied.

Every p-isogeny kernel line, computed or supplied, gets its character
from the eigenvalue of Frob_q on it, q the separating prime
(`residual.separating_prime`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .arith import is_probable_prime, poly_monic
from .dirichlet import CharacterExponents
from .elliptic import Curve
from .errors import (
    BadReduction,
    InconsistentAp,
    InvalidModel,
    InvariantViolation,
    MuLabError,
    NotOrdinary,
    ParseError,
    SizeBound,
)
from .mazur_tate import (
    analytic_iwasawa_invariants,
    precision_guard,
    read_theta_cache,
    regularized_Lp,
    theta_cache_key,
    theta_element,
    write_theta_cache,
)
from .modsym import (
    L_VALUE_BITS,
    PERIOD_BITS,
    EigenSymbol,
    build_manin_space,
)
from .padic import mu_lambda_of_polynomial
from .residual import (
    alignment_degree,
    classify_alignment,
    frobenius_roots,
    frobenius_scalar,
    is_kernel_polynomial,
    kernel_polynomials,
    search_characters,
    semisimplification,
    separating_prime,
    sturm_bound,
)

MAIN_CONJECTURE_FLAG = ("analytic mu reported as Selmer mu "
                        "(main conjecture)")

# bound on ell_bound: every prime ell <= it is point-counted for the a_ell
# table, at a cost linear in ell, so a call grows as about ell_bound^1.9.
# analyze of data/curves_11a.json (3 curves) at p = 5 takes 0.45 s at
# 3000, 3.5 s at 10^4 and 18 s at 2 * 10^4 (Xeon, Python 3.11)
MAX_ELL_BOUND = 10**4


@dataclass
class CurveRecord:
    label: str
    ainvs: tuple
    conductor: int
    ap: dict = field(default_factory=dict)
    kernel_polys: dict = field(default_factory=dict)
    source: str = "inline"
    p: int | None = None   # the record's own prime, if it names one

    def curve(self) -> Curve:
        return Curve(*self.ainvs)


def ingest(path: str) -> list[CurveRecord]:
    """Read LMFDB-shaped curve records; validate models and any supplied
    a_ell by point counting at ell <= 20, and parse any kernel_polys."""
    if not os.path.exists(path):
        raise ParseError(f"no such file: {path}")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, list):
        raise ParseError("curve file must contain a list of records")
    out = []
    for i, rec in enumerate(data):
        _check_schema(rec, i)
        try:
            E = Curve(*rec["ainvs"])
        except InvalidModel as exc:
            raise InvalidModel(
                f"{rec['label']}: {exc}") from exc
        N = rec["conductor"]
        if type(N) is not int or N < 1:
            raise ParseError(f"{rec['label']}: conductor must be a "
                             f"positive integer, got {N!r}")
        if not _same_radical(abs(E.discriminant), N):
            raise InvalidModel(
                f"{rec['label']}: the primes of the model's discriminant "
                f"are not those of the conductor {N} "
                "(supply a minimal model)")
        ap = {int(k): v for k, v in rec.get("ap", {}).items()}
        for ell, a in ap.items():
            if ell <= 20 and N % ell != 0 and E.ap(ell) != a:
                raise InconsistentAp(
                    f"{rec['label']}: a_{ell} supplied {a} but point "
                    f"count gives {E.ap(ell)}")
        out.append(CurveRecord(
            label=rec["label"], ainvs=tuple(rec["ainvs"]), conductor=N,
            ap=ap,
            kernel_polys=_kernel_polys(rec["label"],
                                       rec.get("kernel_polys", {})),
            source=path, p=rec.get("p")))
    return out


def _check_schema(rec, i: int) -> None:
    """ParseError naming record i and the field, unless rec is an object
    with a string label, ainvs a list of five integers, p (unless absent
    or null, which both mean no p of its own) an integer, and ap (if
    present) mapping primes in canonical decimal to integers.  The
    conductor and kernel_polys are checked where they are read; bool is
    not an integer here."""
    if not isinstance(rec, dict):
        raise ParseError(f"record {i} is not an object: {rec!r}")
    for key in ("label", "ainvs", "conductor"):
        if key not in rec:
            raise ParseError(f"record missing '{key}': {rec}")
    label = rec["label"]
    if not isinstance(label, str):
        raise ParseError(f"record {i}: label must be a string, got "
                         f"{label!r}")
    ainvs = rec["ainvs"]
    if not (isinstance(ainvs, list) and len(ainvs) == 5
            and all(type(a) is int for a in ainvs)):
        raise ParseError(f"{label}: ainvs must be a list of five "
                         f"integers, got {ainvs!r}")
    if rec.get("p") is not None and type(rec["p"]) is not int:
        # the words of the CLI's check of a record's p, which also bounds
        # an integer p
        raise ParseError(f"{label}: p must be an odd prime, got "
                         f"{rec['p']!r}")
    ap = rec.get("ap", {})
    if not isinstance(ap, dict):
        raise ParseError(f"{label}: ap must map primes to integers, got "
                         f"{ap!r}")
    for key, a in ap.items():
        if not _decimal_prime(key):
            raise ParseError(f"{label}: ap key {key!r} is not a prime "
                             "below 10^24 written in canonical decimal")
        if type(a) is not int:
            raise ParseError(f"{label}: ap[{key!r}] must be an integer, "
                             f"got {a!r}")


def _decimal_prime(key: str) -> bool:
    """Whether key writes a prime below 10^24 in canonical decimal: at
    most 24 digits (below 10^24 is_probable_prime is exact) and no
    leading zero, so no two keys of one mapping name one prime."""
    return (key.isascii() and key.isdigit() and key[0] != "0"
            and len(key) <= 24 and is_probable_prime(int(key)))


def _same_radical(x: int, y: int) -> bool:
    """Whether the positive integers x and y have the same prime
    divisors, by gcds alone: each loses the primes it shares with the
    other, and then 1 must be left of both."""
    for a, g in ((x, y), (y, x)):
        while (g := gcd(a, g)) > 1:
            a //= g
        if a != 1:
            return False
    return True


def _kernel_polys(label: str, raw) -> dict:
    """{p: [[c0, c1, ...], ...]}, p a prime in canonical decimal
    (`_decimal_prime`) and each coefficient an
    integer or a rational string, as {int p: [tuple of Fractions, ...]};
    ParseError for any other shape."""
    if not isinstance(raw, dict):
        raise ParseError(f"{label}: kernel_polys must map p to a list of "
                         f"coefficient lists, got {raw!r}")
    out = {}
    for key, polys in raw.items():
        if not _decimal_prime(key):
            raise ParseError(f"{label}: kernel_polys key {key!r} is not a "
                             "prime below 10^24 written in canonical "
                             "decimal")
        if not isinstance(polys, list) or not all(
                isinstance(k, list) and k for k in polys):
            raise ParseError(f"{label}: kernel_polys[{key!r}] must be a "
                             f"list of coefficient lists, got {polys!r}")
        try:
            out[int(key)] = [tuple(_coefficient(c) for c in k)
                             for k in polys]
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{label}: kernel_polys[{key!r}]: {exc}") \
                from exc
    return out


def _coefficient(c) -> Fraction:
    if isinstance(c, bool) or not isinstance(c, (int, str)):
        raise TypeError(f"coefficient {c!r} is not an integer or a "
                        "rational string")
    return Fraction(c)


def character_name(chars: CharacterExponents, k) -> str:
    """The report name of the character with exponent vector k."""
    cond = chars.conductor(k)
    if cond == 1:
        return "1"
    if k == chars.chi_bar:
        return "chi"
    return f"chr(cond={cond},ord={chars.order(k)},odd={chars.is_odd(k)})"


def _digits(man: int, bits: int) -> str:
    """The report's string of the fixed-point value v = man / 2^bits:
    30 significant digits, rounded half up, trailing zeros stripped (one
    kept after the point), in fixed notation when the leading digit is
    at 10^-9 to 10^29 and as d.ddd e<exponent> outside, as mpmath's
    nstr(v, 30) prints them."""
    sign = "-" if man < 0 else ""
    man = abs(man)
    if not man:
        return "0.0"
    # e: v's decimal exponent, from the digits of floor(v 10^k) >= 1
    # (4/13 > log10 2, so v 10^k >= 2^(bit_length - 1 - bits) 10^k >= 1)
    k = max(0, (bits - man.bit_length() + 1) * 4 // 13 + 1)
    e = len(str(man * 10**k >> bits)) - 1 - k
    num, den = man, 1 << bits
    if e <= 29:
        num *= 10**(29 - e)
    else:
        den *= 10**(e - 29)
    digits = (2 * num + den) // (2 * den)  # v 10^(29 - e), half up
    if digits == 10**30:
        digits, e = digits // 10, e + 1
    digits = str(digits)
    if -10 < e < 30:
        text = "0." + "0" * (-e - 1) + digits if e < 0 \
            else digits[:e + 1] + "." + digits[e + 1:]
        exponent = ""
    else:
        text, exponent = digits[0] + "." + digits[1:], f"e{e:+d}"
    text = text.rstrip("0")
    if text.endswith("."):
        text += "0"
    return sign + text + exponent


class SpaceCache:
    """Manin-symbol spaces keyed by level.  A space keeps what every
    curve with the same a_ell at its match primes shares (phi0 and its
    walk sums, see `EigenSymbol`), so the curves of one isogeny class
    that reach `analyze` through one cache compute those once."""

    def __init__(self):
        self._spaces = {}

    def get(self, N: int):
        if N not in self._spaces:
            self._spaces[N] = build_manin_space(N)
        return self._spaces[N]


def analyze(record: CurveRecord, p: int, N_prec: int = 6,
            layers: int = 3, ell_bound: int = 200,
            cache_dir: str | None = None,
            verify_cache: bool = False,
            spaces: SpaceCache | None = None,
            curve: Curve | None = None) -> dict:
    """Full analysis of one curve at one prime; returns the report dict.
    `curve` is the record's model when the caller holds it already (its
    a_ell are counted once and kept on it); `spaces` holds the Manin
    spaces to share with other calls (a fresh one by default).

    Raises the module errors for genuinely unusable inputs (bad reduction
    at p, non-ordinary p), SizeBound when ell_bound exceeds MAX_ELL_BOUND,
    and InvariantViolation when an internal cross-check fails.
    """
    if p == 2:
        raise ValueError("p must be odd")
    if ell_bound > MAX_ELL_BOUND:
        raise SizeBound(f"ell_bound {ell_bound} exceeds {MAX_ELL_BOUND}, "
                        "the bound on the primes point-counted for a_ell")
    spaces = spaces or SpaceCache()
    E = curve or record.curve()
    N_cond = record.conductor
    if N_cond % p == 0:
        raise BadReduction(
            f"{record.label}: bad reduction at p={p}; the ordinary "
            "hypothesis requires good reduction at p")
    a_p = E.ap(p)
    if a_p % p == 0:
        raise NotOrdinary(f"{record.label}: a_p = {a_p} is 0 mod {p}")

    a_table = {ell: E.ap(ell) for ell in range(2, ell_bound + 1)
               if is_probable_prime(ell) and N_cond % ell != 0 and ell != p}

    report = {
        "label": record.label,
        "p": p,
        "conductor": N_cond,
        "ainvs": list(record.ainvs),
        "a_p": a_p,
        "precision": {"p": p, "N": N_prec, "layers": layers,
                      "ell_bound": ell_bound,
                      "sturm_bound": sturm_bound(N_cond)},
        "assumptions": [MAIN_CONJECTURE_FLAG],
    }

    # residual analysis
    pair = semisimplification(a_table, p, N_cond, ell_bound)
    report["reducible"] = pair is not None
    if pair is not None:
        chars = search_characters(p, N_cond)
        report["ss"] = sorted(character_name(chars, k) for k in pair)
        kernels = record.kernel_polys.get(p)
        if kernels is None:
            q, lines = kernel_polynomials(E, p)
        else:
            q, lines = _supplied_lines(E, kernels, p, record.label)
        line_chars = _lines_at_separating_prime(
            E, q, [lam for _, lam in lines], pair, chars, p, record.label)
        report["kernel_count"] = len(lines)
        report["line_characters"] = [character_name(chars, k)
                                     for k in line_chars]
        if lines:
            cls = classify_alignment(line_chars, chars)
            report["classification"] = cls
            if cls == "aligned":
                aligned_char = next(
                    k for k in line_chars
                    if chars.is_odd(k) and chars.conductor(k) % p == 0)
                n_max, evidence = alignment_degree(
                    a_table, p, N_prec, N_cond, aligned_char, ell_bound)
                report["alignment_degree"] = {
                    "n": n_max, "kind": "congruence-lower-bound",
                    "evidence": evidence}
            else:
                report["alignment_degree"] = {
                    "n": 0, "kind": "not-aligned"}
        else:
            report["classification"] = "reducible-no-kernel-data"
    else:
        report["ss"] = None
        report["classification"] = "irreducible"

    # analytic invariants
    space = spaces.get(N_cond)
    es = EigenSymbol(space, E, N_cond)
    report["normalization"] = {
        "id": "neron",
        "base_symbol_value": str(es.base_value),
        "real_period": _digits(es.period, PERIOD_BITS),
        "l_value": _digits(es.l_value, L_VALUE_BITS),
        "denominator_bound": es.denominator_bound,
        "gamma": 1 + p,
    }
    thetas, layer_invs = [], []
    mu_estimate = 0
    for n in range(0, layers + 1):
        if n >= 1 and not precision_guard(N_prec, mu_estimate, n):
            break
        theta = cached = None
        if cache_dir:
            key = theta_cache_key(record.ainvs, N_cond, p, n, N_prec)
            cached = read_theta_cache(cache_dir, record.label, key)
            if not verify_cache:
                theta = cached
        if theta is None:
            theta = theta_element(es, p, n, N_prec)
            if cache_dir:
                if cached is not None and \
                        (cached.nums, cached.den) != (theta.nums, theta.den):
                    raise InvariantViolation(
                        f"{record.label}: cached theta_{n} differs "
                        "from recomputation")
                write_theta_cache(cache_dir, record.label, theta, key)
        thetas.append(theta)
        if n >= 1:
            layer_invs.append(mu_lambda_of_polynomial(
                regularized_Lp(thetas[n], thetas[n - 1], a_p), p, N_prec))
            mu_estimate = max(mu_estimate, layer_invs[-1][0])
    mus = [m for m, _ in layer_invs]
    if any(b > a for a, b in zip(mus, mus[1:])):
        raise InvariantViolation(
            f"{record.label}: mu along layers not non-increasing: {mus}")
    mu, lam, stab = analytic_iwasawa_invariants(layer_invs)
    report["mu"] = mu
    report["lambda"] = lam
    report["stabilized_at"] = stab
    report["layer_invariants"] = [list(t) for t in layer_invs]

    # Theorem-consistency: congruence evidence degree <= mu
    deg = report.get("alignment_degree", {}).get("n", 0)
    if report.get("classification") == "aligned" and deg > mu:
        raise InvariantViolation(
            f"{record.label}: alignment evidence degree {deg} exceeds "
            f"mu = {mu}")
    report["consistency"] = {"alignment_degree_le_mu": deg <= mu}
    return report


def _supplied_lines(E: Curve, kernels, p: int, label: str):
    """(q, lines) as `kernel_polynomials` returns them, for the supplied
    kernels in their order ((None, []) for none, with no q sought): each
    must pass the checks a computed kernel passes (else ParseError), and
    is taken in monic form, so with denominators only at p, with one
    `frobenius_scalar` call at the separating prime q.  A kernel line is
    an eigenline of Frob_q, so a refusal there, or a scalar that is not a
    root of X^2 - a_q X + q mod p, is InvariantViolation."""
    for i, k in enumerate(kernels):
        if not is_kernel_polynomial(E, p, k):
            raise ParseError(f"{label}: kernel_polys['{p}'][{i}] "
                             f"is not a {p}-isogeny kernel")
    if not kernels:
        return None, []
    q, roots = separating_prime(E, p)
    lines = []
    for k in kernels:
        k = poly_monic(k)
        try:
            lam = frobenius_scalar(E, k, q, p)
        except MuLabError as exc:
            raise InvariantViolation(
                f"{label}: a supplied {p}-isogeny kernel gets no Frob_{q} "
                f"scalar at its separating prime: {exc}") from exc
        if lam not in roots:
            raise InvariantViolation(
                f"{label}: Frob_{q} scalar {lam} on a supplied kernel line "
                f"is neither of the roots {roots}")
        lines.append((k, lam))
    return q, lines


def _lines_at_separating_prime(E: Curve, q: int, scalars, pair,
                               chars: CharacterExponents, p: int,
                               label: str):
    """The character of each kernel line, from lam, the eigenvalue of
    Frob_q on it (scalars), q its separating prime.

    A kernel line is a sub-representation of E[p], so its character is
    phi1 or phi2 of the semisimplification pair; they differ, as
    phi1 phi2 = chi-bar is odd and a square is even.  The line is
    Galois-stable, so Frob_q acts on it by the line's character at q:
    the one of phi1, phi2 whose value at q is lam.  phi1 + phi2 = a_q
    and phi1 phi2 = chi-bar, so {phi1(q), phi2(q)} must be the set of
    the two roots of X^2 - a_q X + q mod p, distinct at q; the pair was
    matched at the primes up to ell_bound only, so this is checked
    before any line is read (none, when there is no line), and
    InvariantViolation raised when it fails."""
    if not scalars:
        return []
    values = [chars.value(k, q) for k in pair]
    roots = frobenius_roots(E.ap(q), q, p)
    if sorted(values) != roots:
        raise InvariantViolation(
            f"{label}: the semisimplification pair takes {values} at the "
            f"separating prime {q}, not the roots {roots} of "
            f"X^2 - a_{q} X + {q} mod {p}")
    return [pair[values.index(lam)] for lam in scalars]


def analyze_many(records, p_of, **kwargs) -> list[dict]:
    """Analyze several records (p chosen per record by p_of) and enforce
    the cross-curve isogeny-class assertions: curves sharing conductor
    and a_ell data must agree in ss and lambda."""
    spaces = kwargs.pop("spaces", None) or SpaceCache()
    reports, by_class = [], {}
    for rec in records:
        E = rec.curve()
        rep = analyze(rec, p_of(rec), spaces=spaces, curve=E, **kwargs)
        reports.append(rep)
        sig = (rec.conductor, rep["p"],
               tuple(E.ap(ell) for ell in (2, 3, 5, 7, 13)
                     if rec.conductor % ell and ell != rep["p"]))
        by_class.setdefault(sig, []).append(rep)
    for sig, group in by_class.items():
        if len(group) < 2:
            continue
        lams = {rep["lambda"] for rep in group}
        sss = {tuple(rep["ss"] or []) for rep in group}
        if len(lams) > 1:
            raise InvariantViolation(
                f"lambda not constant on isogeny class {sig}: {lams}")
        if len(sss) > 1:
            raise InvariantViolation(
                f"semisimplification not constant on class {sig}: {sss}")
    return reports


def render_report(reports: list[dict], fmt: str = "json") -> str:
    """Deterministic serialization (stable key order)."""
    if fmt == "json":
        return json.dumps(reports, sort_keys=True, indent=2)
    if fmt != "table":
        raise ValueError("format must be json or table")
    lines = []
    header = (f"{'label':10} {'p':>2} {'N':>4} {'red':>4} "
              f"{'class':12} {'deg':>3} {'mu':>3} {'lam':>3} {'stab':>4}")
    lines.append(header)
    lines.append("-" * len(header))
    for rep in reports:
        lines.append(
            f"{rep['label']:10} {rep['p']:>2} {rep['conductor']:>4} "
            f"{str(rep['reducible'])[:4]:>4} "
            f"{rep.get('classification', '-'):12} "
            f"{rep.get('alignment_degree', {}).get('n', 0):>3} "
            f"{rep['mu']:>3} {rep['lambda']:>3} "
            f"{rep['stabilized_at']:>4}")
    lines.append("")
    lines.append(f"note: {MAIN_CONJECTURE_FLAG}")
    return "\n".join(lines)
