"""mu-lab benchmark: run one workload (or all) and print every metric.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S]
                         [--trace 0|1]

Each workload runs in its own single-threaded process (bench/worker.py),
one at a time.  With --trace 0 the end-to-end metrics are printed; set-up
time is the median over SETUP_RUNS processes that only set up.  With
--trace 1 the per-layer metrics of a separate traced run are printed.
Times are in reference seconds: scaled by the host's speed, measured in
the same process (bench/hostspeed.py).
The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit status 0 only when every workload ran and its result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import BENCH, ROOT, WORKLOADS

SETUP_RUNS = 5
TIMEOUT_S = 170

# keep numpy's BLAS and OpenMP pools at one thread
SINGLE_THREAD = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class WorkerFailed(RuntimeError):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def worker(workload: str, seed: int, seconds: float, trace: int,
           setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    env = {**os.environ, **SINGLE_THREAD}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload}: no result in {TIMEOUT_S} s") \
            from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{workload}: worker exited {proc.returncode}\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    res = worker(workload, seed, seconds, trace)
    if trace:
        metrics = res["layers"]
    else:
        setups = [res["setup_s"]] + [
            worker(workload, seed, seconds, 0, setup_only=True)["setup_s"]
            for _ in range(SETUP_RUNS - 1)]
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": res["ops_per_s"],
            "op_p50_s": res["op_p50_s"],
            "op_tail_s": res["op_tail_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    return {"res": res, "metrics": metrics}


def print_human(workload: str, out: dict, unit_of: dict):
    res = out["res"]
    print(f"== {workload}: {res['passes']} passes, {res['wall_s']:.2f} s "
          f"timed; times in reference seconds, median factor "
          f"{res['host_scale']:.4g} (hostspeed.py)")
    for name, value in out["metrics"].items():
        note = ""
        if name == "op_tail_s":
            note = (f"  (p{res['tail_pct']}, {res['tail_beyond']} of "
                    f"{res['attempted']} samples beyond)")
        print(f"  {name:34s} {value:14.6g} {unit_of.get(name, '')}{note}")
    ratio = res["failed"] / res["attempted"]
    print(f"  {'failed_ratio':34s} {ratio:14.6g} ratio  "
          f"({res['failed']} failed of {res['attempted']} attempted: "
          f"{res['raised']} raised, {res['rejected']} rejected by the "
          "oracle)")
    verdict = "all outputs correct" if res["failed"] == 0 else "FAILED"
    print(f"  oracle: {verdict}")
    for err in res["errors"]:
        print(f"  error: {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="timed run length (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        spec = load_spec()
        unit_of = {m["name"]: m["unit"]
                   for m in spec["end_to_end"] + spec["per_layer"]}
        names = [w["name"] for w in spec["workloads"]] \
            if args.workload == "all" else [args.workload]
        seconds = args.seconds or spec["run_seconds"]
        results = {name: run_workload(name, args.seed, seconds, args.trace)
                   for name in names}
    except (OSError, KeyError, ValueError, WorkerFailed) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, out in results.items():
        print_human(name, out, unit_of)

    def summary(out):
        res = out["res"]
        return {"correct": res["failed"] == 0,
                "attempted": res["attempted"], "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": unit_of[k]}
                            for k, v in out["metrics"].items()}}
    if len(names) == 1:
        print(json.dumps(summary(results[names[0]])))
    else:
        print(json.dumps({name: summary(out)
                          for name, out in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
