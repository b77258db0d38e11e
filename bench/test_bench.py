"""Self-tests for the benchmark's own code.

    python3 -m pytest bench -q

They take about a minute: two end-to-end runs and one real refusal.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import spans  # noqa: E402
import workloads as W  # noqa: E402
from mulab.analysis import CurveRecord, analyze  # noqa: E402
from mulab.elliptic import Curve  # noqa: E402
from mulab.iwasawa_modules import MuProfile  # noqa: E402


def _run(*args, cwd=BENCH.parent):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# -- generators ---------------------------------------------------------------


def test_curve_file_is_seeded():
    sweep = W.LevelSweep()
    a, b = (json.dumps(sweep.curve_file(s)).encode() for s in (1, 1))
    assert a == b
    assert json.dumps(sweep.curve_file(2)).encode() != a


def test_module_specs_are_seeded():
    a, b, c = (json.dumps(W.module_specs(s, 30)).encode()
               for s in (1, 1, 2))
    assert a == b != c


def test_every_block_of_modules_has_the_same_shapes():
    def blocks(seed):
        specs = W.module_specs(seed, 2 * W.SHAPES)
        return [sorted((p, M, len(rows), want)
                       for p, _, M, rows, want in specs[i:i + W.SHAPES])
                for i in (0, W.SHAPES)]
    a, b = blocks(1), blocks(2)
    assert a[0] == a[1] == b[0] == b[1]


def test_pass_schedules_are_seeded():
    schedules = []
    for seed in (1, 1, 2):
        wl = W.LiftLab()
        wl.setup(seed)
        schedules.append([wl.jobs(i) for i in range(3)])
    assert schedules[0] == schedules[1] != schedules[2]
    # the first round always holds (p, v) = (3, 7) and (5, 11)
    assert {(j[3], j[2]) for j in schedules[2][0] if j[0] == "versal"} == \
        {(3, 7), (5, 11)}


def test_trivial_primes():
    assert W.trivial_primes(3)[:4] == [7, 13, 31, 43]
    assert W.trivial_primes(5)[:4] == [11, 31, 41, 61]


def test_root_number_and_point_count():
    assert W.root_number((0, -1, 1, -10, -20), [11]) == 1     # 11a1, rank 0
    assert W.root_number((0, 0, 1, -1, 0), [37]) == -1        # 37a1, rank 1
    E = Curve(1, 0, 0, 1, 1)
    for ell in (3, 5, 7, 11, 13):
        assert W.points_mod(E.ainvs(), ell) == E.count_points(ell)


def test_tate_models_carry_their_torsion():
    for N, models in W.tate_pool(40, *W.LevelSweep.BAND).items():
        for p, _, _, ainvs in models:
            E = Curve(*ainvs)
            assert sorted(E.bad_primes()) == W.radical_below(N, N + 1)
            for ell in (7, 11, 13):
                if N % ell:
                    assert E.count_points(ell) % p == 0


# -- oracles ------------------------------------------------------------------


def test_corpus_oracle_rejects_mu_plus_one():
    wl = W.CorpusAnalyze()
    wl.setup(1)
    rep = analyze(CurveRecord("11a3", (0, -1, 1, 0, 0), 11), 5,
                  **W.ANALYZE_ARGS)
    assert wl.check(rep, ("11a3", 5))
    assert not wl.check({**rep, "mu": rep["mu"] + 1}, ("11a3", 5))


def test_profile_oracle_rejects_wrong_mu_vector():
    expected = W.expected_profile((1, 2))
    assert expected == ((1, 2), 5, 2, 3)
    assert W.check_profile(MuProfile((1, 2), 5, 2, 3), expected)
    assert not W.check_profile(MuProfile((2, 1), 4, 2, 3), expected)


def test_versal_oracle_rejects_degree_two():
    wl = W.LiftLab()
    ops = []
    for degree in (3, 2):
        op = W.Op("versal", ("versal", "type1", 7, 3))
        op.out = degree
        ops.append(op)
    assert wl.verdicts(ops) == [True, False]


def test_refusal_is_a_failed_op_and_the_pass_goes_on(monkeypatch):
    from mulab import analysis
    from mulab.errors import EigenspaceNotRational
    real = analysis.analyze

    def refuse_11a2(record, p, **kwargs):
        if record.label == "11a2":
            raise EigenspaceNotRational("stub refusal")
        return real(record, p, **kwargs)
    monkeypatch.setattr(analysis, "analyze", refuse_11a2)
    wl = W.CorpusAnalyze()
    wl.setup(1)
    wl.records = [r for r in wl.records if r.label.startswith("11a")]
    ops = W.OpLog()
    wl.attach(ops)
    wl.run_pass(0, ops)
    assert sorted(op.kind for op in ops.ops) == ["11a1", "11a2", "11a3"]
    verdicts = dict(zip((op.kind for op in ops.ops), wl.verdicts(ops.ops)))
    assert verdicts == {"11a1": True, "11a2": False, "11a3": True}


def test_known_refusal_at_conductor_77_counts_as_failed(monkeypatch):
    """[-8,0,1,0,0] has root number +1, passes the generator's filter and
    is refused today (EigenspaceNotRational)."""
    ainvs = W.tate_model(3, -8, 1)
    assert ainvs == (-8, 0, 1, 0, 0)
    assert (3, -8, 1, ainvs) in W.tate_pool(40, 60, 100)[77]
    from mulab import analysis
    monkeypatch.setattr(analysis, "analyze", analysis.analyze)  # restored
    ops = W.OpLog()
    W.LevelSweep().attach(ops)
    W.analyze_pass([CurveRecord("N77", ainvs, 77)], lambda r: 3, ops)
    assert len(ops.ops) == 1
    assert ops.ops[0].error.startswith("EigenspaceNotRational")


# -- tracing ------------------------------------------------------------------


def test_self_time_subtracts_children():
    recs = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
            ["b", 5.0, 6.0, 0]]
    self_s, calls, root = spans.self_times(recs)
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert root == 10.0


def test_tracer_restores_every_trace_point():
    tracer = spans.Tracer()
    before = [getattr(spans._resolve(o), a) for o, a, _, _ in tracer.points]
    tracer.install()
    tracer.uninstall()
    after = [getattr(spans._resolve(o), a) for o, a, _, _ in tracer.points]
    assert before == after


def test_reference_job_never_runs_the_program():
    """A program change that sped up the reference job would cancel its
    own gain in reference seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hostspeed; "
         "c = hostspeed.HostClock(); c.sample(3); "
         "assert c.scale() > 0 and 'mulab' not in sys.modules"],
        cwd=BENCH, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# -- end to end ---------------------------------------------------------------


def test_second_seed_runs_end_to_end_with_and_without_tracing():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", "lambda-modules", "--seed", "2",
                    "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0
        assert set(out["metrics"]) == {m["name"] for m in spec[group]}
    layers = {k: v["value"] for k, v in out["metrics"].items()}
    assert layers["iwasawa_modules.fpt_rank_calls"] > 0
    assert 0.9 < layers["trace.coverage"] <= 1.0


def test_fails_without_the_program():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    proc = _run("--workload", "lift-lab", "--seed", "1", "--seconds", "1",
                cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
