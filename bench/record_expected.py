"""Record the outputs the oracles compare against, from the current
program: per-curve report digests for the corpus and for every model the
level sweep can draw, and the step verdicts of the shipped scenarios.

    python3 bench/record_expected.py

Run it only when a change is meant to alter reports; the digests pin
report bytes, which must otherwise stay identical.
"""

import json
import sys

from workloads import (ANALYZE_ARGS, EXPECTED, ROOT, CorpusAnalyze,
                       LevelSweep, report_digest)


def digests(rows) -> dict:
    from mulab.analysis import CurveRecord, SpaceCache, analyze
    spaces = SpaceCache()
    out = {}
    for r in rows:
        rec = CurveRecord(r["label"], tuple(r["ainvs"]), r["conductor"])
        out[r["label"]] = report_digest(
            analyze(rec, r["p"], spaces=spaces, **ANALYZE_ARGS))
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from mulab.liftlab import run_scenario
    with open(CorpusAnalyze.CORPUS) as fh:
        corpus = json.load(fh)
    expected = {
        "corpus_digests.json": digests(corpus),
        "sweep_digests.json": digests(
            sorted(LevelSweep().curve_file(0), key=lambda r: r["label"])),
        "scenarios.json": {},
    }
    for path in sorted((ROOT / "data" / "scenarios").glob("*.json")):
        with open(path) as fh:
            out = run_scenario(json.load(fh))
        expected["scenarios.json"][path.name] = {
            "steps": out["steps"], "reached_level": out["reached_level"]}
    for name, data in expected.items():
        (EXPECTED / name).write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
