"""One workload in one process: set up, run passes, check, report.

Started by run.py; prints one JSON object on its last stdout line.

    python3 bench/worker.py --workload NAME --seed N --seconds S
                            [--trace 0|1] [--setup-only]
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from hostspeed import HostClock  # noqa: E402
from workloads import OUT, ROOT, WORKLOADS, OpLog  # noqa: E402

SETUP_JOBS = 20         # reference jobs timed right after set-up
TRACED_PASS_JOBS = 10   # reference jobs timed after each traced pair


def import_program():
    """Import mulab from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(ROOT / "src"))
    import mulab
    if not mulab.__file__.startswith(str(ROOT / "src")):
        raise SystemExit(f"mulab imported from {mulab.__file__}, "
                         f"not from {ROOT / 'src'}")


def percentile(sorted_values, pct: float):
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    k = max(1, math.ceil(pct / 100 * n))
    return sorted_values[k - 1], n - k


def summarize(wl, ops, passes: list[tuple[int, int, float]]) -> dict:
    """Run totals and latency statistics, in reference seconds (see
    hostspeed.py).  `passes` holds each pass's first op, first reference
    job and wall time; each pass is scaled by the jobs timed during it, as
    the host's speed changes within seconds.  op_p50_s is the median over
    passes of each pass's median op latency: the corpus's latencies have a
    gap at their median, where a pooled median jumps with single
    samples."""
    ok = wl.verdicts(ops.ops)
    raised = sum(op.error is not None for op in ops.ops)
    attempted = len(ops.ops)
    op_ends = [a for a, _, _ in passes[1:]] + [attempted]
    job_ends = [j for _, j, _ in passes[1:]] + [len(ops.clock.samples)]
    lat, p50s, wall = [], [], 0.0
    for (a, j, pass_wall), b, k in zip(passes, op_ends, job_ends):
        scale = ops.clock.scale(j, k)
        pass_lat = [op.latency * scale for op in ops.ops[a:b]]
        lat += pass_lat
        p50s += [statistics.median(pass_lat)] if pass_lat else []
        wall += pass_wall * scale
    tail, beyond = percentile(sorted(lat), wl.tail_pct)
    errors = sorted({op.error for op in ops.ops if op.error})[:5]
    return {
        "attempted": attempted,
        "failed": attempted - sum(ok),
        "raised": raised,
        "rejected": attempted - sum(ok) - raised,
        "errors": errors,
        "wall_s": sum(w for _, _, w in passes),
        "host_scale": ops.clock.scale(),
        "ops_per_s": sum(ok) / wall,
        "op_p50_s": statistics.median(p50s),
        "op_tail_s": tail,
        "tail_pct": wl.tail_pct,
        "tail_beyond": beyond,
    }


def timed_run(wl, seconds: float) -> dict:
    """Untraced closed loop: whole passes until `seconds` have passed.
    The reference jobs timed between ops are left out of the wall time."""
    ops = OpLog()
    wl.attach(ops)
    passes = []
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        first_op, first_job = len(ops.ops), len(ops.clock.samples)
        spent, t = ops.clock.spent, perf_counter()
        wl.run_pass(len(passes), ops)
        wall = perf_counter() - t - (ops.clock.spent - spent)
        passes.append((first_op, first_job, wall))
    out = summarize(wl, ops, passes)
    out["passes"] = len(passes)
    return out


def traced_run(wl, seed: int, seconds: float) -> dict:
    """Pass 0 once to warm up, then pairs of untraced and traced runs of
    pass 0 until `seconds` have passed, then the set-up once traced.
    Per-layer values are per traced pass plus the set-up's share, times in
    reference seconds.  The reference jobs run between the pairs, never
    inside a span."""
    from spans import Tracer, layer_metrics, self_times

    ops = OpLog(HostClock(interval=math.inf))
    wl.attach(ops)
    tracer = Tracer()
    wl.run_pass(0, ops)
    untraced, traced, segments = [], [], []

    def traced_call(fn, *args):
        counts_before = tracer.counts.copy()
        start = tracer.mark()
        tracer.install()
        t = perf_counter()
        try:
            fn(*args)
        finally:
            t = perf_counter() - t
            tracer.uninstall()
        return t, (start, tracer.mark(), tracer.counts - counts_before)

    t0 = perf_counter()
    while not traced or perf_counter() - t0 < seconds:
        t = perf_counter()
        wl.run_pass(0, ops)
        untraced.append(perf_counter() - t)
        t, seg = traced_call(wl.run_pass, 0, ops)
        traced.append(t)
        segments.append(seg)
        ops.clock.sample(TRACED_PASS_JOBS)
    _, setup_seg = traced_call(wl.setup, seed)

    n = len(segments)
    self_s, calls, counts, root = {}, {}, {}, 0.0
    for i, (start, stop, seg_counts) in enumerate(segments + [setup_seg]):
        per = n if i < n else 1
        s, c, r = self_times(tracer.spans, start, stop)
        for name, v in s.items():
            self_s[name] = self_s.get(name, 0.0) + v / per
        for name, v in c.items():
            calls[name] = calls.get(name, 0) + v / per
        for name, v in seg_counts.items():
            counts[name] = counts.get(name, 0) + v / per
        if i < n:
            root += r / per
    metrics = layer_metrics(self_s, calls, counts)
    pass_s = statistics.median(traced)
    metrics.update({
        "trace.pass_s": pass_s,
        "trace.untraced_pass_s": statistics.median(untraced),
        "trace.overhead_s": pass_s - statistics.median(untraced),
        "trace.coverage": root / statistics.fmean(traced),
        "trace.spans": sum(stop - start for start, stop, _ in segments) / n,
    })
    scale = ops.clock.scale()
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] *= scale
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"trace-{wl.name}-{seed}.jsonl"))
    out = summarize(wl, ops, [(0, 0, sum(untraced) + sum(traced))])
    out["passes"] = n
    out["layers"] = metrics
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_program()
    wl = WORKLOADS[args.workload]()
    wl.setup(args.seed)
    setup_s = perf_counter() - _T0
    clock = HostClock()
    clock.sample(SETUP_JOBS)
    if args.setup_only:
        out = {}
    elif args.trace:
        out = traced_run(wl, args.seed, args.seconds)
    else:
        out = timed_run(wl, args.seconds)
    out["setup_s"] = setup_s * clock.scale()
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
