"""Command-line front end.

Three entry points matching the three verification families:

    mu-lab analyze --curves FILE [--p 5] [--precision 6] [--layers 3]
                   [--ell-bound 200] [--format json|table]
                   [--cache DIR] [--verify-cache] [--config FILE]
    mu-lab lambda-invariants --presentation FILE
    mu-lab lift-lab run SCENARIO

Without --p or a config p, `analyze` uses each record's own "p".
Exit codes: 0 success, 2 invariant violation, 3 input error.
Configuration comes from flags plus an optional TOML-shaped config file;
environment variables are never consulted.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import is_probable_prime
from .errors import (
    InconsistentAp,
    InvalidModel,
    InvariantViolation,
    MuLabError,
    ParseError,
)

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_INPUT = 3

# bound on p^(layers+1), the modular symbols summed into theta_layers; it
# also bounds layers, which sets the precision of the unit root.  Near
# the bound, one CLI run on 11a1 takes 0.2-0.9 s at precision 6 or 100
# (p = 17 with 3 layers, 43 with 2, 3 with 9; Xeon, Python 3.11)
MAX_THETA_TERMS = 10**5
# bound on precision, the p-adic digits carried by theta and the unit
# root: on 11a1 at p = 13 (3 layers) precision 12 and 100 both take
# 0.6 s; at p = 5 with 6 layers, 6 takes 0.3 s and 100 1.1 s
MAX_PRECISION = 100


def load_config(path: str | None) -> dict:
    """Parse a TOML-shaped config file: 'key = value' lines with int,
    bool, or quoted-string values (sections are ignored; keys are
    global)."""
    if not path:
        return {}
    out = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line or line.startswith("["):
                    continue
                if "=" not in line:
                    raise ParseError(f"bad config line: {raw!r}")
                key, val = (s.strip() for s in line.split("=", 1))
                if val.startswith('"') and val.endswith('"'):
                    out[key] = val[1:-1]
                elif val in ("true", "false"):
                    out[key] = val == "true"
                else:
                    try:
                        out[key] = int(val)
                    except ValueError:
                        raise ParseError(
                            f"unsupported config value: {raw!r}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    return out


def _p_error(p, layers: int) -> str | None:
    """Why p cannot be analyzed with this many layers, or None."""
    if type(p) is not int or p == 2 or not is_probable_prime(p):
        return f"p must be an odd prime, got {p!r}"
    terms = 1
    for _ in range(layers + 1):
        terms *= p
        if terms > MAX_THETA_TERMS:
            return (f"p^(layers+1) = {p}^{layers + 1} exceeds "
                    f"{MAX_THETA_TERMS}, the bound on the terms of a theta "
                    "element; lower p or --layers")
    return None


def cmd_analyze(args) -> int:
    from .analysis import analyze_many, ingest, render_report
    from .modsym import MAX_CONDUCTOR
    try:
        cfg = load_config(args.config)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # without a flag or config value, each record's own "p" is used
    p = args.p if args.p is not None else cfg.get("p")
    sizes = {}
    # below these minima analyze ends in NotStabilized on every curve
    # (see mazur_tate.precision_guard)
    for key, flag, default, least, reason in (
            ("precision", args.precision, 6, 4,
             "; layer 2 needs precision >= mu + 4"),
            ("layers", args.layers, 3, 2,
             "; mu and lambda need two consecutive layers"),
            ("ell_bound", args.ell_bound, 200, 1, "")):
        value = flag if flag is not None else cfg.get(key, default)
        if type(value) is not int or value < least:
            print(f"input error: {key} must be an integer >= {least}, "
                  f"got {value!r}{reason}", file=sys.stderr)
            return EXIT_INPUT
        sizes[key] = value
    if sizes["precision"] > MAX_PRECISION:
        print(f"input error: precision {sizes['precision']} exceeds "
              f"{MAX_PRECISION}, the bound on the p-adic digits carried",
              file=sys.stderr)
        return EXIT_INPUT
    if p is not None and (error := _p_error(p, sizes["layers"])):
        print(f"input error: {error}", file=sys.stderr)
        return EXIT_INPUT
    fmt = args.format or cfg.get("format", "json")
    if fmt not in ("json", "table"):
        print(f"input error: format must be json or table, got {fmt!r}",
              file=sys.stderr)
        return EXIT_INPUT
    cache = args.cache or cfg.get("cache")
    if cache is not None and type(cache) is not str:
        print(f"input error: cache must be a directory path, got {cache!r}",
              file=sys.stderr)
        return EXIT_INPUT
    try:
        records = ingest(args.curves)
        for rec in records:
            if rec.conductor > MAX_CONDUCTOR:
                print(f"input error: {rec.label}: conductor "
                      f"{rec.conductor} exceeds {MAX_CONDUCTOR}, the bound "
                      "on the level of a Manin-symbol space",
                      file=sys.stderr)
                return EXIT_INPUT
        if p is None:
            for rec in records:
                if rec.p is None:
                    print("error: --p is required (flag or config)",
                          file=sys.stderr)
                    return EXIT_INPUT
                if error := _p_error(rec.p, sizes["layers"]):
                    print(f"input error: {rec.label}: {error}",
                          file=sys.stderr)
                    return EXIT_INPUT
        reports = analyze_many(
            records, lambda rec: rec.p if p is None else p,
            N_prec=sizes["precision"],
            layers=sizes["layers"], ell_bound=sizes["ell_bound"],
            cache_dir=cache,
            verify_cache=args.verify_cache)
    except (ParseError, InvalidModel, InconsistentAp) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        # the curves file is read by `ingest`; what is left is the cache
        print(f"input error: cache {cache}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MuLabError as exc:
        return _refused(exc)
    print(render_report(reports, fmt))
    return EXIT_OK


def _refused(exc: MuLabError) -> int:
    """Print a library error: exit 2 for a failed cross-check, else 3."""
    if isinstance(exc, InvariantViolation):
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_INPUT


def cmd_lambda_invariants(args) -> int:
    from .iwasawa_modules import graded_ranks, load_presentation, \
        profile_from_ranks
    try:
        pres = load_presentation(args.presentation)
        qs = graded_ranks(pres)
        prof = profile_from_ranks(qs, pres.N)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MuLabError as exc:
        # a refusal of the presentation, such as NotTorsion
        return _refused(exc)
    print(json.dumps({
        "p": pres.p, "N": pres.N, "MT": pres.M,
        "graded_ranks": qs,
        "mu_vector": list(prof.mu_vector),
        "mu": prof.mu, "t": prof.t, "r": prof.r,
    }, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_lift_lab(args) -> int:
    from .liftlab import run_scenario
    try:
        with open(args.scenario) as fh:
            spec = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        out = run_scenario(spec)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MuLabError as exc:
        # a refusal of the scenario, such as a group over the size bound
        return _refused(exc)
    print(json.dumps(out, sort_keys=True, indent=2))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are input errors (exit 3,
    `input error:`) like every other bad input; its subparsers share
    the class."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"input error: {self.prog}: {message}\n"
                              f"{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="mu-lab",
        description="Residually reducible ordinary Galois "
                    "representations: classification, analytic Iwasawa "
                    "invariants, refined mu-invariants, lift laboratory.")
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="classify curves and compute "
                                       "analytic mu/lambda")
    a.add_argument("--curves", required=True)
    a.add_argument("--p", type=int)
    a.add_argument("--precision", type=int)
    a.add_argument("--layers", type=int)
    a.add_argument("--ell-bound", dest="ell_bound", type=int)
    a.add_argument("--format", choices=["json", "table"])
    a.add_argument("--cache")
    a.add_argument("--verify-cache", action="store_true")
    a.add_argument("--config")
    a.set_defaults(func=cmd_analyze)

    b = sub.add_parser("lambda-invariants",
                       help="refined mu-invariants of a presented "
                            "Iwasawa module")
    b.add_argument("--presentation", required=True)
    b.set_defaults(func=cmd_lambda_invariants)

    c = sub.add_parser("lift-lab", help="run a lifting scenario")
    csub = c.add_subparsers(dest="liftcmd", required=True)
    crun = csub.add_parser("run")
    crun.add_argument("scenario")
    crun.set_defaults(func=cmd_lift_lab)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
