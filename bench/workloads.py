"""The benchmark's workloads: input generators, passes of ops, oracles.

A workload is set up once from its seed, then runs numbered passes.  One
caller issues ops in sequence (a closed loop), and every op is a call
into a public `mulab` function, logged with its latency and its output
or error.  After the timed loop each op goes through the workload's
oracle; an op that raised or was rejected counts as failed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from pathlib import Path
from time import perf_counter

from hostspeed import HostClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected"

# the analyze CLI defaults
ANALYZE_ARGS = {"N_prec": 6, "layers": 3, "ell_bound": 200}


class Op:
    __slots__ = ("kind", "key", "latency", "out", "error")

    def __init__(self, kind, key):
        self.kind, self.key = kind, key
        self.latency, self.out, self.error = 0.0, None, None


class OpLog:
    """Times each op; keeps its output for the oracle.  Between ops it lets
    `clock` time the host's speed."""

    def __init__(self, clock: HostClock | None = None):
        self.ops: list[Op] = []
        self.clock = clock or HostClock()

    def call(self, kind, fn, *args, key=None, reraise=False, **kwargs):
        op = Op(kind, key)
        self.ops.append(op)
        t0 = perf_counter()
        try:
            op.out = fn(*args, **kwargs)
        except Exception as exc:  # a refusal is a failed op, not a crash
            op.error = f"{type(exc).__name__}: {exc}"
            if reraise:
                raise
        finally:
            op.latency = perf_counter() - t0
            self.clock.tick()
        return op.out


def report_digest(report: dict) -> str:
    from mulab.analysis import render_report
    return hashlib.sha256(render_report([report]).encode()).hexdigest()


def load_expected(name: str):
    with open(EXPECTED / name) as fh:
        return json.load(fh)


# -- analyze workloads --------------------------------------------------------


def analyze_pass(records, p_of, ops: OpLog):
    """`analyze_many` over the records with a fresh SpaceCache, as one CLI
    call does.  When one curve raises, the rest of the pass resumes after
    it, so a refusal costs one op, not the pass."""
    from mulab import analysis
    spaces = analysis.SpaceCache()
    rest = list(records)
    while rest:
        first = len(ops.ops)
        try:
            analysis.analyze_many(rest, p_of, spaces=spaces, **ANALYZE_ARGS)
            return
        except Exception as exc:  # recorded per op below
            made = ops.ops[first:]
            if not made:
                raise
            if made[-1].error is None:
                # a cross-curve check failed after every curve returned
                for op in made:
                    op.error = f"{type(exc).__name__}: {exc}"
            rest = rest[len(made):]


def check_report(rep: dict, p: int, digests: dict) -> bool:
    """Facts every reducible curve report must satisfy, plus the report
    bytes recorded for its label."""
    deg = rep.get("alignment_degree", {}).get("n", 0)
    return (rep["reducible"] is True and rep["p"] == p and deg <= rep["mu"]
            and (rep.get("classification") != "aligned" or rep["mu"] >= 1)
            and digests.get(rep["label"]) == report_digest(rep))


class _AnalyzeWorkload:
    """Shared by the two analyze workloads: each op is one `analyze` call
    made by `analyze_many`, timed by wrapping the name it looks up."""

    def attach(self, ops: OpLog):
        from mulab import analysis
        analyze = analysis.analyze

        def timed(record, p, **kwargs):
            return ops.call(record.label, analyze, record, p,
                            key=(record.label, p), reraise=True, **kwargs)
        analysis.analyze = timed

    def p_of(self, record) -> int:
        return self.p_of_label[record.label]

    def verdicts(self, ops):
        return [op.error is None and self.check(op.out, op.key)
                for op in ops]


class CorpusAnalyze(_AnalyzeWorkload):
    """The shipped 16-curve corpus at each record's own p.  The seed only
    orders the levels of each pass; curves of one level keep their file
    order, so the same curve builds each shared level's Manin space."""

    name = "corpus-analyze"
    tail_pct = 75
    CORPUS = ROOT / "data" / "corpus_reducible.json"
    ELEVEN_A = {"11a1": 1, "11a2": 2, "11a3": 0}   # mu; lambda = 0

    def setup(self, seed: int):
        from mulab import analysis
        self.seed = seed
        with open(self.CORPUS) as fh:
            self.p_of_label = {r["label"]: r["p"] for r in json.load(fh)}
        self.records = analysis.ingest(str(self.CORPUS))
        self.digests = load_expected("corpus_digests.json")

    def run_pass(self, i: int, ops: OpLog):
        levels: dict[int, list] = {}
        for rec in self.records:
            levels.setdefault(rec.conductor, []).append(rec)
        order = list(levels.values())
        random.Random(f"{self.name}/{self.seed}/{i}").shuffle(order)
        analyze_pass([rec for group in order for rec in group], self.p_of,
                     ops)

    def check(self, rep, key) -> bool:
        label, p = key
        if label in self.ELEVEN_A and (rep["mu"], rep["lambda"]) != \
                (self.ELEVEN_A[label], 0):
            return False
        return check_report(rep, p, self.digests)


# Tate normal forms with a rational torsion point of order 3 or 5 at
# t = u/v, scaled to integral models.
def tate_model(p: int, u: int, v: int) -> tuple:
    if p == 3:
        return (u, 0, v, 0, 0)
    return (v - u, -u * v, -u * v * v, 0, 0)


def c4_and_discriminant(a1, a2, a3, a4, a6):
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3
          - a4 * a4)
    return (b2 * b2 - 24 * b4,
            -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6)


def radical_below(n: int, bound: int):
    """The prime factors of n when every one is below bound, else None."""
    n, primes = abs(n), []
    for q in range(2, bound):
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
    return primes if n == 1 else None


def points_mod(ainvs, q: int) -> int:
    """Points of the reduction mod q, with infinity and any singular
    point."""
    a1, a2, a3, a4, a6 = ainvs
    if q == 2:
        return 1 + sum((y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x
                        - a4 * x - a6) % 2 == 0
                       for x in range(2) for y in range(2))
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    squares = {t * t % q for t in range(1, q)}
    n = 1
    for x in range(q):
        g = (4 * x**3 + b2 * x * x + 2 * b4 * x + b6) % q
        n += 1 if g == 0 else (2 if g in squares else 0)
    return n


def root_number(ainvs, bad_primes) -> int:
    """Global root number of a semistable curve: -prod(-a_q) over the
    multiplicative primes q, with a_q = +1 split, -1 non-split."""
    w = -1
    for q in bad_primes:
        w *= -(q + 1 - points_mod(ainvs, q))
    return w


def tate_pool(box: int, lo: int, hi: int) -> dict[int, list]:
    """Level -> [(p, u, v, ainvs)] over coprime t = u/v with 1 <= |u|,
    v <= box.

    Kept: gcd(c4, disc) = 1 (minimal and semistable, so N = rad disc),
    lo <= N < hi, p not dividing N, root number +1.  The filter is pure
    arithmetic; it never consults the program.
    """
    pool: dict[int, list] = {}
    for p in (3, 5):
        for u in range(-box, box + 1):
            for v in range(1, box + 1):
                if u == 0 or math.gcd(u, v) != 1:
                    continue
                ainvs = tate_model(p, u, v)
                c4, disc = c4_and_discriminant(*ainvs)
                if disc == 0 or math.gcd(c4, disc) != 1:
                    continue
                primes = radical_below(disc, hi)
                if primes is None:
                    continue
                N = math.prod(primes)
                if lo <= N < hi and N % p and \
                        root_number(ainvs, primes) == 1:
                    pool.setdefault(N, []).append((p, u, v, ainvs))
    return pool


class LevelSweep(_AnalyzeWorkload):
    """Generated curves, one per level, each analyzed at its torsion prime
    (so reducible and ordinary by construction); no level is shared.

    Each level keeps its model of least height max(|u|, v), so every seed
    sweeps the same curves and the seed sets the order of the curve file
    and of each pass.  (Drawing the model per seed moved the pass cost by
    more than the metric bounds allow: models of one level differ by up
    to 40 % in cost.)
    """

    name = "level-sweep"
    tail_pct = 50
    BOX = 40
    # five levels, about 9 s a pass; single curves above 160 take up to
    # 17 s each (N = 246, 358), too long for one run
    BAND = (100, 160)

    def curve_file(self, seed: int) -> list[dict]:
        rows = []
        for N, models in sorted(tate_pool(self.BOX, *self.BAND).items()):
            p, u, v, ainvs = min(
                models, key=lambda m: (max(abs(m[1]), m[2]),) + m[:3])
            rows.append({"label": f"N{N}.t{p}.{u}/{v}", "ainvs": list(ainvs),
                         "conductor": N, "p": p})
        random.Random(f"{self.name}/{seed}").shuffle(rows)
        return rows

    def setup(self, seed: int):
        from mulab import analysis
        self.seed = seed
        rows = self.curve_file(seed)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{self.name}-{seed}.json"
        path.write_text(json.dumps(rows, indent=1))
        self.p_of_label = {r["label"]: r["p"] for r in rows}
        self.records = analysis.ingest(str(path))
        self.digests = load_expected("sweep_digests.json")

    def run_pass(self, i: int, ops: OpLog):
        order = list(self.records)
        random.Random(f"{self.name}/{self.seed}/{i}").shuffle(order)
        analyze_pass(order, self.p_of, ops)

    def check(self, rep, key) -> bool:
        return check_report(rep, key[1], self.digests)


# -- refined mu of Lambda-modules ---------------------------------------------


def _zmul(a, b, mod):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % mod
    return out


def _zadd(a, b, mod):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return [(x + y) % mod for x, y in zip(a, b)]


def random_module(shape: random.Random, val: random.Random, p: int,
                  N: int):
    """Relation rows of (+) Lambda/p^i (+) Lambda/(f_j), i <= 3, f_j
    distinguished of degree <= 4, and its mu-vector.  `shape` draws the
    blocks and degrees, `val` the coefficients."""
    blocks, mu_counts = [], {}
    for _ in range(shape.randint(0, 3)):
        i = shape.randint(1, min(3, N - 1))
        blocks.append([p**i])
        mu_counts[i] = mu_counts.get(i, 0) + 1
    for _ in range(shape.randint(0, 2)):
        deg = shape.randint(1, 4)
        blocks.append([val.randrange(p**N) * p % p**N
                       for _ in range(deg)] + [1])
    blocks = blocks or [[1]]
    rows = []
    for i, f in enumerate(blocks):
        row = [[0]] * len(blocks)
        row[i] = f
        rows.append(row)
    t = max(mu_counts, default=0)
    vec = tuple(mu_counts.get(i, 0) for i in range(1, t + 1)) or (0,)
    return rows, vec


def scramble(shape: random.Random, val: random.Random, rows, p: int,
             N: int):
    """Eight random unimodular row and column operations over Z/p^N[T].
    `shape` draws each operation, its rows or columns and the length of
    its multiplier, `val` the multiplier's coefficients."""
    mod = p**N
    rows = [[list(e) for e in r] for r in rows]
    nr, nc = len(rows), len(rows[0])
    for _ in range(8):
        op = shape.randrange(4)
        if op == 0 and nr > 1:
            i, j = shape.sample(range(nr), 2)
            f = [val.randrange(mod) for _ in range(shape.randint(1, 3))]
            rows[i] = [_zadd(a, _zmul(f, b, mod), mod)
                       for a, b in zip(rows[i], rows[j])]
        elif op == 1 and nc > 1:
            i, j = shape.sample(range(nc), 2)
            f = [val.randrange(mod) for _ in range(shape.randint(1, 3))]
            for r in rows:
                r[i] = _zadd(r[i], _zmul(f, r[j], mod), mod)
        elif op == 2 and nr > 1:
            i, j = shape.sample(range(nr), 2)
            rows[i], rows[j] = rows[j], rows[i]
        else:
            i = shape.randrange(nr)
            f = [val.randrange(1, p)] + [val.randrange(mod)
                                         for _ in range(2)]
            rows[i] = [_zmul(f, a, mod) for a in rows[i]]
    return rows


def expected_profile(vec) -> tuple:
    """(mu-vector, mu, t, r) of a module with this mu-vector."""
    if vec == (0,):
        return (0,), 0, 0, 0
    return (vec, sum((i + 1) * m for i, m in enumerate(vec)), len(vec),
            sum(vec))


# Modules come in blocks of SHAPES, one module of each fixed shape: p, the
# blocks and degrees, the scrambling operations and the lengths of their
# multipliers.  The cost of mu_profile follows the shape, so every block
# and every seed costs about the same.  Timed interleaved over 400 modules
# of five seeds, the seeds' median costs spread over 5.2 % with shapes
# drawn per seed, and over 2.6 % with fixed shapes.
SHAPES = 40


def module_specs(seed: int, count: int) -> list:
    """(p, N, M, scrambled rows, expected profile), p in {3, 5}, N = 4.
    The seed orders the shapes of each block and draws every
    coefficient."""
    order_rng = random.Random(f"lambda-modules/{seed}")
    out = []
    for j in range(count):
        if j % SHAPES == 0:
            order = list(range(SHAPES))
            order_rng.shuffle(order)
        shape = random.Random(f"lambda-modules/shape/{order[j % SHAPES]}")
        val = random.Random(f"lambda-modules/{seed}/{j}")
        p, N = shape.choice([3, 5]), 4
        rows, vec = random_module(shape, val, p, N)
        rows = scramble(shape, val, rows, p, N)
        M = max(8, max(len(e) for r in rows for e in r) + 4)
        out.append((p, N, M, rows, expected_profile(vec)))
    return out


def check_profile(prof, expected) -> bool:
    return (prof.mu_vector, prof.mu, prof.t, prof.r) == expected


class LambdaModules:
    """Seeded scrambled modules through `mu_profile`; one op is one
    module.  A pass is one block of SHAPES modules, taken in turn."""

    name = "lambda-modules"
    tail_pct = 95
    BLOCKS = 10

    def setup(self, seed: int):
        from mulab.iwasawa_modules import LambdaPresentation
        self.modules = [(LambdaPresentation(p, N, M, rows), expected)
                        for p, N, M, rows, expected in
                        module_specs(seed, SHAPES * self.BLOCKS)]

    def attach(self, ops: OpLog):
        pass

    def run_pass(self, i: int, ops: OpLog):
        from mulab import iwasawa_modules
        start = (i % self.BLOCKS) * SHAPES
        for pres, expected in self.modules[start:start + SHAPES]:
            ops.call("mu_profile", iwasawa_modules.mu_profile, pres,
                     key=expected)

    def verdicts(self, ops):
        return [op.error is None and check_profile(op.out, op.key)
                for op in ops]


# -- lift laboratory ----------------------------------------------------------


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def trivial_primes(p: int, bound: int = 200) -> list[int]:
    """Primes v < bound with v = 1 mod p and v != 1 mod p^2."""
    return [v for v in range(2, bound)
            if _is_prime(v) and v % p == 1 and v % (p * p) != 1]


def torsor_instances():
    """Criterion-7 instances, |G| <= 24, p in {3, 5}: (name, model, p,
    level, images at that level)."""
    from mulab.group_model import (group_from_matrices,
                                   group_from_permutations, mat_mul)
    S3 = group_from_permutations([(1, 2, 0), (1, 0, 2)])
    Z4 = group_from_permutations([(1, 2, 3, 0)])
    Z5 = group_from_permutations([(1, 2, 3, 4, 0)])
    Z3 = group_from_permutations([(1, 2, 0)])
    SL23 = group_from_matrices([(1, 1, 0, 1), (1, 0, 1, 1)], 3,
                               max_size=24)
    Q8 = group_from_matrices([(0, 1, 2, 0), (1, 1, 1, 2)], 3, max_size=24)
    D4 = group_from_matrices([(0, 1, 2, 0), (1, 0, 0, 2)], 3, max_size=24)
    specs = [
        ("S3/p5", S3, 5, 1, [(0, 4, 1, 4), (0, 1, 1, 0)]),
        ("Z4/p5", Z4, 5, 1, [(2, 0, 0, 1)]),
        ("Z5-unip/p5", Z5, 5, 1, [(1, 1, 0, 1)]),
        ("Z3-unip/p3", Z3, 3, 1, [(1, 1, 0, 1)]),
        ("SL2F3/p3", SL23, 3, 1, list(SL23.elements)),
        ("Q8/p3", Q8, 3, 1, list(Q8.elements)),
        ("D4/p3", D4, 3, 1, list(D4.elements)),
        ("Z3-obstructed/p3", Z3, 3, 2, [(1, 3, 0, 1)]),
        ("Z5-obstructed/p5", Z5, 5, 2, [(1, 5, 0, 1)]),
    ]
    out = []
    for name, G, p, level, gen_images in specs:
        mod = p**level
        if len(gen_images) == len(G):
            images = [tuple(x % mod for x in m) for m in gen_images]
        else:
            images = G.extend_homomorphism(
                gen_images, lambda a, b, mod=mod: mat_mul(a, b, mod))
        out.append((name, G, p, level, images))
    return out


def torsor_law_holds(G, M, p, level, lifts, cob, Z) -> bool:
    """Criterion 7: the obstruction vanishes iff lifts exist, and the lift
    set is one orbit of Z^1 acting simply transitively by twisting."""
    import numpy as np
    from mulab.liftlab import twist
    if (cob is not None) != bool(lifts):
        return False
    if not lifts:
        return True
    if len(lifts) != p**Z.shape[0]:
        return False
    orbit = set()
    for coeffs in itertools.product(range(p), repeat=Z.shape[0]):
        zv = np.zeros((len(G), 3), dtype=np.int64)
        for c, row in zip(coeffs, Z):
            zv = (zv + c * row.reshape(len(G), 3)) % p
        orbit.add(tuple(twist(lifts[0].images, zv, M, p, level)))
    return orbit == {tuple(L.images) for L in lifts}


class LiftLab:
    """Versality sweeps, the shipped scenarios and the criterion-7 torsor
    instances; one op is one call.  Every pass (round) has the same mix:
    four condition types at one trivial prime for p = 3 and one for
    p = 5, three scenarios, and four calls per torsor instance."""

    name = "lift-lab"
    tail_pct = 92.5
    TYPES = ("type1", "type2", "type3", "type4")

    def setup(self, seed: int):
        from mulab.group_model import mat_det
        from mulab.liftlab import AdjointModule, RepresentationModPn
        from mulab.padic import teichmuller
        self.seed = seed
        self.v_choices = {p: trivial_primes(p) for p in (3, 5)}
        self.scenarios = {}
        for path in sorted((ROOT / "data" / "scenarios").glob("*.json")):
            with open(path) as fh:
                self.scenarios[path.name] = json.load(fh)
        self.expected_scenarios = load_expected("scenarios.json")
        self.torsors = []
        for name, G, p, level, images in torsor_instances():
            rho = RepresentationModPn(G, p, level, images)
            M = AdjointModule(G, rho.rhobar(), "ad0", p=p)
            det_t = [teichmuller(mat_det(m, p), p, level + 1)
                     for m in rho.rhobar()]
            self.torsors.append((name, G, p, level, rho, M, det_t))

    def attach(self, ops: OpLog):
        pass

    def jobs(self, i: int):
        rng = random.Random(f"{self.name}/{self.seed}/{i}")
        vs = {3: 7, 5: 11} if i == 0 else \
            {p: rng.choice(self.v_choices[p]) for p in (3, 5)}
        jobs = [("versal", t, vs[p], p) for p in (3, 5) for t in self.TYPES]
        jobs += [("scenario", name) for name in self.scenarios]
        jobs += [("torsor", k) for k in range(len(self.torsors))]
        rng.shuffle(jobs)
        return jobs

    def run_pass(self, i: int, ops: OpLog):
        from mulab import liftlab
        for job in self.jobs(i):
            if job[0] == "versal":
                _, t, v, p = job
                ops.call("versal", liftlab.highly_versal_degree, t, v, p, 4,
                         key=job)
            elif job[0] == "scenario":
                ops.call("scenario", liftlab.run_scenario,
                         self.scenarios[job[1]], key=job)
            else:
                _, G, p, level, rho, M, det_t = self.torsors[job[1]]
                key = (i, job[1])
                ops.call("enumerate_lifts", liftlab.enumerate_lifts, rho,
                         det_t, key=key)
                obs = ops.call("obstruction_class", liftlab.obstruction_class,
                               rho, det_t, M, key=key)
                ops.call("is_coboundary", liftlab.is_coboundary, G, M, obs,
                         key=key)
                ops.call("z1_basis", liftlab.z1_basis, G, M, key=key)

    def check_scenario(self, name: str, out) -> bool:
        want = self.expected_scenarios[name]
        return (out["steps"], out["reached_level"]) == \
            (want["steps"], want["reached_level"])

    def verdicts(self, ops):
        torsor_outputs: dict = {}
        for op in ops:
            if op.kind not in ("versal", "scenario"):
                torsor_outputs.setdefault(op.key, {})[op.kind] = op
        torsor_ok = {}
        for key, calls in torsor_outputs.items():
            _, G, p, level, _, M, _ = self.torsors[key[1]]
            torsor_ok[key] = all(c.error is None for c in calls.values()) \
                and torsor_law_holds(
                    G, M, p, level, calls["enumerate_lifts"].out,
                    calls["is_coboundary"].out, calls["z1_basis"].out)
        out = []
        for op in ops:
            if op.error is not None:
                out.append(False)
            elif op.kind == "versal":
                out.append(op.out == 3)
            elif op.kind == "scenario":
                out.append(self.check_scenario(op.key[1], op.out))
            else:
                out.append(torsor_ok[op.key])
        return out


WORKLOADS = {w.name: w for w in (CorpusAnalyze, LevelSweep, LambdaModules,
                                 LiftLab)}
