"""Benchmark for supertrop: one closed-loop client, one thread, one process.

Run from the root of a checkout:

    python3 bench/run.py --workload compute-n6 --seed 1 --seconds 20 --trace 0

The workloads are described in ``workloads.py``.  A run imports the
program from ``src/``, sets up several times (fresh import, warm-up, and
for compute-n6 the golden-digest check) and reports the median set-up
time, then calls the workload in a closed loop for ``--seconds``.

On a shared host the speed can drift by up to half within seconds, as
other tenants come and go on its cores, and the program and any other
Python code slow down together.  So a run also times a fixed reference job that does not
touch the program, just before and just after every call and every
set-up, and reports each time scaled to a host on which that job takes
``REF_MS``: the drift cancels, and a change in the program's own speed
does not.  The raw
times are kept in the run record.

With ``--trace 0`` it reports the end-to-end metrics: items per second
(checked trials for the lawcheck workloads, matrices for compute-n6),
the median and 90th percentile latency of one call, set-up time, and the
peak heap of a freshly imported program over its first calls (traced by
``tracemalloc`` after the timed loop, above the post-import baseline).
With ``--trace 1`` it runs a fixed number of calls, each untraced and then
traced on the same inputs, the same calls again with the scalar counters
alone, and a kernel scaling table, and reports the per-layer metrics of
``tracer.py`` plus the tracing overhead.

Every call's output is checked (see ``workloads.py``) and its sha256
recorded, in the order the calls were made; call 0 is replayed at the
end and must reproduce its digest byte for byte.  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 when every gate passed, 1 when a gate failed, and 2
when the program could not be loaded.  A record of the run, with every
digest, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import platform
import statistics
import sys
import time
import tracemalloc
from fractions import Fraction

from tracer import Counter, Tracer
from workloads import (
    ROOT,
    WORKLOADS,
    ComputeWorkload,
    Outcome,
    Program,
    ProgramMissing,
    call_rng,
    tie_heavy_matrix,
)

OUT = ROOT / ".bench_out"
SETUP_REPS = 5
# Calls in each phase of a traced run.  Fixed, so the traced counts repeat
# exactly for a given seed and program.
TRACE_CALLS = {"explore-n4": 20, "sweep-n5": 20, "compute-n6": 30}
SCALING_ORDERS = range(4, 9)
SCALING_BUDGET_S = 0.25  # per kernel and order; at least one repetition
SCALING_MAX_REPS = 5
ALLOC_CALLS = 6  # calls of a fresh program whose heap peak is reported
REF_MS = 10.0  # nominal duration of reference(); reported times are scaled to it
_REF_PERMS = tuple(itertools.permutations(range(6)))
_REF_VALUES = tuple(Fraction(i % 9 - 4, 2) for i in range(36))


def reference() -> None:
    """Fixed pure-Python work in the program's style: a max-plus permanent
    of a rational 6x6 table by enumeration, then dict updates."""
    best = None
    for p in _REF_PERMS:
        v = 0
        for r in range(6):
            v += _REF_VALUES[r * 6 + p[r]]
        if best is None or v > best:
            best = v
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i


def ref_ms() -> float:
    t0 = time.perf_counter()
    reference()
    return (time.perf_counter() - t0) * 1000.0


class Loop:
    """Per-call timings, outcomes and digests of one phase."""

    def __init__(self):
        self.durations: list[float] = []
        self.outcomes: list[Outcome] = []

    def step(self, wl, i: int, tracer: Tracer | None = None) -> None:
        """Make call ``i``: time it and check its output."""
        inp = wl.inputs(i)
        if tracer is not None:
            tracer.call = i
            if isinstance(wl, ComputeWorkload):  # one item per call
                tracer.trial = i
        t0 = time.perf_counter()
        out = wl.execute(inp)
        self.durations.append(time.perf_counter() - t0)
        self.outcomes.append(wl.verify(inp, out))

    def run(self, wl, calls: int) -> "Loop":
        """Make calls 0 .. calls-1."""
        for i in range(calls):
            self.step(wl, i)
        return self

    @property
    def items(self) -> int:
        return sum(o.items for o in self.outcomes)

    def items_per_s(self) -> float:
        return self.items / sum(self.durations)


def setup(name: str, seed: int):
    """Set up SETUP_REPS times and keep the last.

    Returns the workload, each set-up's seconds scaled to the reference
    speed, the raw seconds, and the last warm-up's outcomes.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPS):
        before = ref_ms()
        t0 = time.perf_counter()
        wl = WORKLOADS[name](Program(), seed)
        warm = wl.warm_up()
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * REF_MS / ((before + ref_ms()) / 2))
    return wl, scaled, raw, warm


def timed_loop(wl, seconds: float) -> tuple[Loop, list[float], list[float]]:
    """Closed loop for ``seconds``, the reference job timed between calls.

    Returns the loop, each call's ms scaled to the reference speed (by the
    mean of the reference runs just before and just after it), and the
    reference ms.
    """
    loop, refs = Loop(), [ref_ms()]
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        loop.step(wl, i)
        refs.append(ref_ms())
        i += 1
        if time.perf_counter() >= deadline:
            break
    scaled = [d * 1000.0 * REF_MS / ((refs[k] + refs[k + 1]) / 2)
              for k, d in enumerate(loop.durations)]
    return loop, scaled, refs


def replay_first(wl, loop: Loop) -> Outcome:
    """Re-run call 0 and require the same output digest."""
    inp = wl.inputs(0)
    oc = wl.verify(inp, wl.execute(inp))
    if oc.digest != loop.outcomes[0].digest:
        oc.failed = oc.items
        oc.problems.append("call 0 replayed to a different output (not deterministic)")
    return oc


def traced_phases(wl, calls: int):
    """The same calls untraced, traced, and with the scalar counters alone.

    Each traced call directly follows its untraced twin on the same
    inputs, so that a drift of the host's speed cancels in the overhead.
    The counters get a pass of their own so that their cost is not charged
    to the spans' self times.
    """
    plain, traced, counted = Loop(), Loop(), Loop()
    tracer = Tracer(wl.prog)
    for i in range(calls):
        plain.step(wl, i)
        tracer.install()
        try:
            traced.step(wl, i, tracer)
        finally:
            tracer.uninstall()
    counter = Counter(wl.prog)
    counter.install()
    try:
        counted.run(wl, calls=calls)
    finally:
        counter.uninstall()
    for loop, how in ((traced, "under tracing"), (counted, "under the counters")):
        for i, (x, y) in enumerate(zip(plain.outcomes, loop.outcomes)):
            if x.digest != y.digest:
                y.failed = y.items
                y.problems.append(f"call {i} changed its output {how}")
    return plain, traced, counted, tracer.metrics() | counter.metrics(), tracer


def peak_alloc(name: str, seed: int) -> tuple[float, Loop]:
    """Peak MiB allocated by a freshly imported program over its first calls.

    The peak is taken by ``tracemalloc``, started after the import, so it
    is the program's memory (caches such as the n!-sized permutation cache,
    reports, intermediate matrices) and not the interpreter's.  Garbage is
    collected before the first call and after each one, so the peak is what
    the program retains plus the working set of its largest call, however
    the collector's own schedule would have fallen.
    """
    wl = WORKLOADS[name](Program(), seed)
    loop = Loop()
    gc.collect()
    tracemalloc.start()
    try:
        for i in range(ALLOC_CALLS):
            loop.step(wl, i)
            gc.collect()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2.0**20, loop


def scaling_table(prog: Program, seed: int) -> dict[str, tuple[float, int]]:
    """Median ms, and repetitions, of determinant, adjugate and char_poly on
    tie-heavy inputs at each order."""
    kernels = (("tropmat.determinant", prog.pkg.determinant),
               ("tropmat.adjugate", prog.pkg.adjugate),
               ("spectral.char_poly", prog.pkg.char_poly))
    inputs = {n: tie_heavy_matrix(prog, call_rng("scaling", seed, n), n) for n in SCALING_ORDERS}
    out = {}
    for name, fn in kernels:
        for n, a in inputs.items():
            times = []
            while not times or (sum(times) < SCALING_BUDGET_S
                                and len(times) < SCALING_MAX_REPS):
                t0 = time.perf_counter()
                fn(a)
                times.append(time.perf_counter() - t0)
            out[f"{name}.ms.n{n}"] = (statistics.median(times) * 1000.0, len(times))
    return out


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the record written under .bench_out/."""
    wl, setup_times, setup_raw, warm = setup(name, seed)
    samples = {"setup_reps": len(setup_times), "setup_s_raw": setup_raw}
    metrics: dict[str, tuple[float, str, int]] = {}  # name -> (value, unit, samples)
    phases = []
    if not trace:
        loop, scaled, refs = timed_loop(wl, seconds)
        phases.append(loop)
        ms = sorted(scaled)
        q = statistics.quantiles(ms, n=10, method="inclusive") if len(ms) > 1 else ms * 9
        metrics["items_per_s"] = (loop.items / (sum(ms) / 1000.0), "1/s", loop.items)
        metrics["call_ms.p50"] = (statistics.median(ms), "ms", len(ms))
        metrics["call_ms.p90"] = (q[8], "ms", len(ms))
        metrics["setup_s"] = (statistics.median(setup_times), "s", len(setup_times))
        samples.update(calls=len(ms), items=loop.items, items_per_s_raw=loop.items_per_s(),
                       call_ms_raw=[round(d * 1000.0, 3) for d in loop.durations],
                       ref_ms=[round(r, 3) for r in refs])
    else:
        calls = TRACE_CALLS[name]
        plain, traced, counted, layer, tracer = traced_phases(wl, calls)
        phases += [plain, traced, counted]
        metrics = {k: (v, _unit(k), calls) for k, v in layer.items()}
        metrics.update((k, (v, "ms", n)) for k, (v, n) in scaling_table(wl.prog, seed).items())
        untraced_rate, traced_rate = plain.items_per_s(), traced.items_per_s()
        metrics["trace.items_per_s.untraced"] = (untraced_rate, "1/s", plain.items)
        metrics["trace.items_per_s.traced"] = (traced_rate, "1/s", traced.items)
        metrics["trace.overhead_pct"] = (
            (untraced_rate / traced_rate - 1.0) * 100.0, "%", traced.items)
        samples.update(calls=calls, items=traced.items, spans=len(tracer.spans))
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
    later = [replay_first(wl, phases[0])]
    if not trace:
        peak, alloc = peak_alloc(name, seed)
        metrics["peak_alloc_mb"] = (peak, "MiB", ALLOC_CALLS)
        later += alloc.outcomes
    outcomes = warm + [o for p in phases for o in p.outcomes] + later
    attempted = sum(o.items for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "item": wl.item,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        "metric_samples": {k: n for k, (_, _, n) in metrics.items()},
        "samples": samples,
        "counterexamples": sum(o.counterexamples for o in outcomes),
        "problems": [p for o in outcomes for p in o.problems][:20],
        "report_sha256": [o.digest for o in outcomes],
        "python": platform.python_version(),
    }


def _unit(metric: str) -> str:
    if metric.endswith(".calls") or metric.endswith(".attempts"):
        return "count"
    if metric.endswith((".accept_ratio", ".frac_share")):
        return "ratio"
    return "ms"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        rec = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(rec, indent=1) + "\n", encoding="utf-8")
    s = rec["samples"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{s['calls']} calls, {s['items']} {rec['item']}, {s['setup_reps']} set-ups")
    for k, m in rec["metrics"].items():
        print(f"  {k:<48} {m['value']:>14.6g} {m['unit']:<6} n={rec['metric_samples'][k]}")
    print(f"  failed_frac {rec['failed_frac']:.6g} ({rec['failed']}/{rec['attempted']}); "
          f"open-range counterexamples {rec['counterexamples']}; record {path.name}")
    for p in rec["problems"]:
        print(f"  FAIL {p}")
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
