"""Tests of the benchmark itself: its gates, its seeding and its tracer.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
from workloads import BENCH, ROOT, WORKLOADS, ComputeWorkload, Program


@pytest.fixture
def prog():
    return Program()


def _failed(loop):
    return sum(o.failed for o in loop.outcomes)


def _project_determinant(prog):
    """Corrupt the program: determinant returns its tangible projection."""
    orig = prog.tropmat.determinant

    def projected(a, cap=prog.tropmat.DEFAULT_DET_CAP):
        return prog.semiring.to_tangible(orig(a, cap))
    tracer.rebind(prog.modules, orig, projected)
    return prog


def _raise_in(fn_name):
    """A program whose tropmat.<fn_name> raises a SupertropicalError."""
    def make():
        prog = Program()

        def boom(*args, **kwargs):
            raise prog.errors.SupertropicalError("injected")
        tracer.rebind(prog.modules, getattr(prog.tropmat, fn_name), boom)
        return prog
    return make


def test_gate_accepts_the_unmodified_program(prog):
    wl = ComputeWorkload(prog, 7)
    assert [o.failed for o in wl.warm_up()] == [0, 0, 0, 0]
    assert _failed(run.Loop().run(wl, calls=3)) == 0


def test_gate_rejects_a_tangible_projected_determinant(prog):
    wl = ComputeWorkload(_project_determinant(prog), 0)
    # The first golden items have ghost determinants.
    assert any(o.failed for o in wl.warm_up())
    assert _failed(run.Loop().run(wl, calls=6)) > 0


def test_corrupted_program_fails_the_run(monkeypatch):
    monkeypatch.setattr(run, "Program", lambda: _project_determinant(Program()))
    rec = run.measure("compute-n6", 0, seconds=0.1, trace=False)
    assert not rec["correct"] and rec["failed"] > 0


def test_raised_supertropical_error_counts_in_failed_frac(monkeypatch):
    monkeypatch.setattr(run, "Program", _raise_in("kleene_star"))
    rec = run.measure("compute-n6", 3, seconds=0.1, trace=False)
    assert not rec["correct"]
    assert rec["failed_frac"] == 1.0


def test_raised_error_in_a_cli_call_fails_all_its_trials(monkeypatch):
    monkeypatch.setattr(run, "Program", _raise_in("classify"))
    wl = WORKLOADS["explore-n4"](run.Program(), 3)
    oc = run.Loop().run(wl, calls=1).outcomes[0]
    assert oc.failed == oc.items == 100


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_the_inputs(prog, name):
    a, b, c = (WORKLOADS[name](prog, s) for s in (1, 1, 2))
    assert a.inputs(0) == b.inputs(0)
    assert a.inputs(0) != c.inputs(0)
    assert a.inputs(0) != a.inputs(1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_outputs(name):
    first = run.Loop().run(WORKLOADS[name](Program(), 5), calls=2)
    second = run.Loop().run(WORKLOADS[name](Program(), 5), calls=2)
    assert [o.digest for o in first.outcomes] == [o.digest for o in second.outcomes]


def test_tracer_and_counter_restore_every_binding(prog):
    before = {id(m): dict(vars(m)) for m in prog.modules}
    checks = dict(prog.lawcheck.CHECKS)
    t, c = tracer.Tracer(prog), tracer.Counter(prog)
    t.install()
    c.install()
    for mod in (prog.pkg, prog.tropmat, prog.lawcheck, prog.cli):
        assert mod.determinant is not before[id(mod)]["determinant"]
    assert prog.semiring.add is not before[id(prog.semiring)]["add"]
    c.uninstall()
    t.uninstall()
    for m in prog.modules:
        assert vars(m) == before[id(m)]
    assert prog.lawcheck.CHECKS == checks


def test_self_times_add_up_to_the_root_spans(prog):
    wl = WORKLOADS["sweep-n5"](prog, 2)
    t = tracer.Tracer(prog)
    t.install()
    try:
        run.Loop().step(wl, 0, t)
    finally:
        t.uninstall()
    self_ms = sum(s[1] for s in t.stats.values())
    root_ms = sum(end - start for name, parent, *_, start, end in t.spans if parent == -1)
    assert self_ms == pytest.approx(root_ms, rel=1e-9)
    assert t.attempts > 0 and t.accepted > 0
    trials = {s[3] for s in t.spans if s[0].startswith("lawcheck.check.")}
    assert len(trials) == wl.trials * len(tracer.CHECK_IDS)


def test_traced_run_reports_every_per_layer_metric(monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    monkeypatch.setitem(run.TRACE_CALLS, "compute-n6", 1)
    rec = run.measure("compute-n6", 1, seconds=0, trace=True)
    assert rec["correct"]
    assert list(rec["metrics"]) == [m["name"] for m in spec["per_layer"]]


def test_untraced_run_reports_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rec = run.measure("compute-n6", 1, seconds=0, trace=False)
    assert rec["correct"]
    assert sorted(rec["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    assert rec["metrics"]["peak_alloc_mb"]["value"] > 0


def _run_in_fresh_process(name, seed):
    subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    path = ROOT / ".bench_out" / f"{name}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))["report_sha256"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_in_two_processes_gives_byte_identical_outputs(name):
    # With --seconds 0 the timed loop makes exactly one call, so both runs
    # make the same calls: warm-up, call 0, its replay and the heap pass.
    first = _run_in_fresh_process(name, 9)
    assert first == _run_in_fresh_process(name, 9)


def test_run_fails_without_the_program():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "compute-n6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120, check=False)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
