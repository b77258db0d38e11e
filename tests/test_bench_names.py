"""The benchmark's tracer names against the program: every trace point of
`bench/spans.py` is a callable defined in this checkout's `src/mulab`,
every span a per-layer metric reads is recorded by some trace point, and
every per-layer metric of BENCHMARK.json is computed.  A rename in src
then fails here, not only in a benchmark run.  (`test_trace_points.py`
resolves each point by name alone.)"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mulab"


def _load_spans():
    """bench/spans.py, loaded read-only, with bench/ on sys.path while it
    loads."""
    bench = ROOT / "bench"
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_spans_names", bench / "spans.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return module


spans = _load_spans()


def test_trace_points_are_defined_in_src():
    for owner, attr, _, _ in spans.TRACE_POINTS:
        target = spans._resolve(owner)
        module = sys.modules[owner.partition(":")[0]]
        assert Path(module.__file__).resolve().parent == SRC, owner
        fn = getattr(target, attr, None)
        assert callable(fn), (owner, attr)
        source = Path(inspect.getsourcefile(inspect.unwrap(fn))).resolve()
        assert source.parent == SRC, (owner, attr, source)


def test_layer_metrics_read_traced_names():
    recorded = {name for _, _, name, _ in spans.TRACE_POINTS}
    recorded |= {f"{name}.{kind}" for _, _, name, kind in spans.TRACE_POINTS
                 if kind in ("ok", "hit")}
    for metric, (stat, *names) in spans.LAYER_METRICS.items():
        assert set(names) <= recorded, metric


def test_benchmark_layers_are_computed():
    with open(ROOT / "BENCHMARK.json") as fh:
        layers = [m["name"] for m in json.load(fh)["per_layer"]]
    missing = [name for name in layers
               if name not in spans.LAYER_METRICS
               and not name.startswith("trace.")]
    assert missing == []
