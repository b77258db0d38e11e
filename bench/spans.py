"""Span tracing from outside the program.

Each trace point replaces one public function or method of a `mulab`
module where its caller looks it up (for example `analysis.EigenSymbol`,
the name `analyze` resolves at call time).  A span records its name,
start, end and the span that was open when it began; spans stay in
memory until the run writes them out.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# (owner, attribute, span name, kind).  The owner is a module, or
# "module:Class" for a method.  Kinds: "span" records a span; "ok" also
# counts calls that returned; "hit" also counts calls that returned True;
# "count" only counts calls (for hot inner calls where a span would cost
# more than the call).
TRACE_POINTS = [
    ("mulab.analysis", "ingest", "analysis.ingest", "span"),
    ("mulab.analysis", "analyze", "analysis.analyze", "span"),
    ("mulab.elliptic:Curve", "ap", "elliptic.ap", "span"),
    ("mulab.analysis", "semisimplification", "residual.ss", "span"),
    ("mulab.analysis", "kernel_polynomials", "residual.kernels", "span"),
    ("mulab.analysis", "frobenius_scalar", "residual.frobenius", "ok"),
    ("mulab.analysis", "alignment_degree", "residual.alignment_degree",
     "span"),
    ("mulab.analysis:SpaceCache", "get", "modsym.space_get", "count"),
    ("mulab.analysis", "build_manin_space", "modsym.space", "span"),
    ("mulab.analysis", "EigenSymbol", "modsym.eigensymbol", "span"),
    ("mulab.modsym:ManinSymbolSpace", "hecke_matrix", "modsym.hecke",
     "span"),
    ("mulab.modsym", "nullspace", "linalg.nullspace", "span"),
    ("mulab.modsym", "rref", "linalg.rref", "span"),
    ("mulab.linalg", "rref", "linalg.rref", "span"),
    ("mulab.modsym", "real_period", "modsym.period", "span"),
    ("mulab.modsym", "l_value", "modsym.lvalue", "span"),
    ("mulab.analysis", "theta_element", "mazur_tate.theta", "span"),
    ("mulab.modsym:EigenSymbol", "evaluate", "modsym.evaluate", "span"),
    ("mulab.analysis", "regularized_Lp", "mazur_tate.regularize", "span"),
    ("mulab.analysis", "mu_lambda_of_polynomial", "padic.mu_lambda",
     "span"),
    ("mulab.mazur_tate", "mu_lambda_of_polynomial", "padic.mu_lambda",
     "span"),
    ("mulab.iwasawa_modules", "mu_profile", "iwasawa_modules.mu_profile",
     "span"),
    ("mulab.iwasawa_modules", "graded_ranks",
     "iwasawa_modules.graded_ranks", "span"),
    ("mulab.iwasawa_modules:LambdaPresentation", "torsion_certificate",
     "iwasawa_modules.certificate", "span"),
    ("mulab.iwasawa_modules", "smith_rank_over_power_series_field_char_p",
     "iwasawa_modules.fpt_rank", "span"),
    ("mulab.group_model", "group_from_matrices", "group_model.build",
     "span"),
    ("mulab.group_model", "group_from_permutations", "group_model.build",
     "span"),
    ("mulab.liftlab", "highly_versal_degree", "liftlab.versal", "span"),
    ("mulab.liftlab", "membership_up_to_equivalence", "liftlab.membership",
     "hit"),
    ("mulab.liftlab", "solve_modp", "liftlab.solve", "count"),
    ("mulab.liftlab", "rref_modp", "liftlab.rref", "count"),
    ("mulab.liftlab", "z1_basis", "liftlab.cohomology", "span"),
    ("mulab.liftlab", "is_coboundary", "liftlab.cohomology", "span"),
    ("mulab.liftlab", "cohomology", "liftlab.cohomology", "span"),
    ("mulab.liftlab", "enumerate_lifts", "liftlab.lift", "span"),
    ("mulab.liftlab", "obstruction_class", "liftlab.lift", "span"),
    ("mulab.liftlab", "lift_step", "liftlab.lift", "span"),
    ("mulab.liftlab", "run_scenario", "liftlab.scenario", "span"),
]

# per-layer metric -> (statistic, span or counter name); statistics are
# "self" (self seconds), "calls" (span count), "count" (counter) and
# ratios of two counters
LAYER_METRICS = {
    "analysis.ingest_s": ("self", "analysis.ingest"),
    "analysis.analyze_s": ("self", "analysis.analyze"),
    "elliptic.ap_s": ("self", "elliptic.ap"),
    "elliptic.ap_calls": ("calls", "elliptic.ap"),
    "residual.ss_s": ("self", "residual.ss"),
    "residual.kernels_s": ("self", "residual.kernels"),
    "residual.frobenius_s": ("self", "residual.frobenius"),
    "residual.frobenius_calls": ("calls", "residual.frobenius"),
    "residual.frobenius_ok_ratio": ("ratio", "residual.frobenius.ok",
                                    "residual.frobenius"),
    "residual.alignment_degree_s": ("self", "residual.alignment_degree"),
    "modsym.space_s": ("self", "modsym.space"),
    "modsym.space_builds": ("calls", "modsym.space"),
    "modsym.space_reuse_ratio": ("reuse", "modsym.space",
                                 "modsym.space_get"),
    "modsym.eigensymbol_s": ("self", "modsym.eigensymbol"),
    "modsym.hecke_s": ("self", "modsym.hecke"),
    "modsym.hecke_calls": ("calls", "modsym.hecke"),
    "linalg.rref_s": ("self", "linalg.rref"),
    "linalg.nullspace_s": ("self", "linalg.nullspace"),
    "linalg.nullspace_calls": ("calls", "linalg.nullspace"),
    "modsym.period_s": ("self", "modsym.period"),
    "modsym.lvalue_s": ("self", "modsym.lvalue"),
    "mazur_tate.theta_s": ("self", "mazur_tate.theta"),
    "mazur_tate.theta_calls": ("calls", "mazur_tate.theta"),
    "modsym.evaluate_s": ("self", "modsym.evaluate"),
    "modsym.evaluate_calls": ("calls", "modsym.evaluate"),
    "mazur_tate.regularize_s": ("self", "mazur_tate.regularize"),
    "padic.mu_lambda_s": ("self", "padic.mu_lambda"),
    "iwasawa_modules.certificate_s": ("self",
                                      "iwasawa_modules.certificate"),
    "iwasawa_modules.graded_ranks_s": ("self",
                                       "iwasawa_modules.graded_ranks"),
    "iwasawa_modules.fpt_rank_s": ("self", "iwasawa_modules.fpt_rank"),
    "iwasawa_modules.fpt_rank_calls": ("calls",
                                       "iwasawa_modules.fpt_rank"),
    "iwasawa_modules.mu_profile_s": ("self", "iwasawa_modules.mu_profile"),
    "group_model.build_s": ("self", "group_model.build"),
    "liftlab.versal_s": ("self", "liftlab.versal"),
    "liftlab.membership_s": ("self", "liftlab.membership"),
    "liftlab.membership_calls": ("calls", "liftlab.membership"),
    "liftlab.membership_hit_ratio": ("ratio", "liftlab.membership.hit",
                                     "liftlab.membership"),
    "liftlab.solve_calls": ("count", "liftlab.solve"),
    "liftlab.rref_calls": ("count", "liftlab.rref"),
    "liftlab.cohomology_s": ("self", "liftlab.cohomology"),
    "liftlab.lift_s": ("self", "liftlab.lift"),
    "liftlab.scenario_s": ("self", "liftlab.scenario"),
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder.  `install()` swaps every trace point for a wrapper;
    `uninstall()` puts the originals back."""

    def __init__(self, points=TRACE_POINTS):
        self.points = points
        self.spans: list = []      # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name: str, kind: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        if kind == "count":
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if kind == "ok" or (kind == "hit" and out is True):
                counts[f"{name}.{kind}"] += 1
            return out
        return traced

    def install(self):
        for owner, attr, name, kind in self.points:
            target = _resolve(owner)
            original = getattr(target, attr)
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(original, name, kind))

    def uninstall(self):
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def mark(self) -> int:
        """Index of the next span, to slice one segment of the run."""
        return len(self.spans)

    def write(self, path: str):
        """Write the spans as JSON lines: [index, parent, name, start,
        end]."""
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, t0, t1]) + "\n")


def self_times(spans, start: int = 0, stop: int | None = None):
    """(self seconds by name, span count by name, root seconds) for the
    spans in [start, stop).  Root spans are those with no parent; their
    durations add up to the total self time of the segment."""
    stop = len(spans) if stop is None else stop
    child = defaultdict(float)
    for name, t0, t1, parent in spans[start:stop]:
        if parent >= start:
            child[parent] += t1 - t0
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    root = 0.0
    for i in range(start, stop):
        name, t0, t1, parent = spans[i]
        self_s[name] += (t1 - t0) - child[i]
        calls[name] += 1
        if parent < start:
            root += t1 - t0
    return dict(self_s), calls, root


def layer_metrics(self_s, calls, counts) -> dict:
    """Every per-layer metric from self seconds and span counts by span
    name and counter values by counter name.  A layer the workload never
    calls reads 0."""
    out = {}
    for metric, (stat, name, *rest) in LAYER_METRICS.items():
        if stat == "self":
            out[metric] = self_s.get(name, 0.0)
        elif stat == "calls":
            out[metric] = calls.get(name, 0)
        elif stat == "count":
            out[metric] = counts.get(name, 0)
        elif stat == "ratio":
            total = calls.get(rest[0], 0)
            out[metric] = counts.get(name, 0) / total if total else 0.0
        else:  # reuse: 1 - builds / lookups
            lookups = counts.get(rest[0], 0)
            out[metric] = 1 - calls.get(name, 0) / lookups if lookups \
                else 0.0
    return out
