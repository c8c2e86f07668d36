"""Run every workload over several seeds and summarize the end-to-end metrics.

    python3 bench/summarize.py [--runs 10] [--first-seed 1]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, for
every workload in BENCHMARK.json, with seeds first-seed..first-seed+runs-1
and ``--seconds`` set to its run_seconds.  Each run prints one line with every
end-to-end metric, its unit and its sample count.  With two or more runs
per workload it then prints, for each metric, the median, the quartiles
(as ``statistics.quantiles(values, n=4)`` gives them) and their distance
as a share of the median, next to the metric's bound in BENCHMARK.json.
The summary is written to ``.bench_out/summary.json``.  The exit code is
1 if any run failed its correctness or determinism gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for name in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                ok = False
                print(f"{name} seed {seed}: FAILED (exit {proc.returncode})")
                print(proc.stdout + proc.stderr[-2000:])
                continue
            rec = json.loads((OUT / f"{name}-seed{seed}-trace0.json").read_text(encoding="utf-8"))
            parts = []
            for k, m in rec["metrics"].items():
                values.setdefault(k, []).append(m["value"])
                parts.append(f"{k} {m['value']:.6g} {m['unit']} (n={rec['metric_samples'][k]})")
            print(f"{name} seed {seed}: " + ", ".join(parts), flush=True)
        if len(next(iter(values.values()), [])) < 2:
            continue
        summary[name] = {}
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            summary[name][k] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "bound": bounds[k], "values": vs}
            print(f"  {name:<11} {k:<12} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:6.3f}  bound {bounds[k]}", flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
