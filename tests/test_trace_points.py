"""Every trace point of the benchmark resolves against the program, so a
rename fails here and not only in the benchmark run."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _, _ in spans.TRACE_POINTS],
    ids=lambda x: x)
def test_trace_point_resolves(owner, attr):
    assert callable(getattr(spans._resolve(owner), attr, None))

