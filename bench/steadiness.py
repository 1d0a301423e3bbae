"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/steadiness.py --workloads paper-sec4 chains-16 --seeds 1 2 3 4 5

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
prints for each metric the quartile spread (Q3 - Q1) / median over the seeds,
as ``statistics.quantiles(values, n=4)`` gives the quartiles. Raw
(un-normalised) iteration rate and set-up time are listed next to the
host-normalised ones, so the effect of the host probe is visible. The run
length defaults to ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def run_once(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = next(json.loads(line[4:]) for line in lines if line.startswith("raw "))
    row = {k: v["value"] for k, v in result["metrics"].items()}
    row["raw.iter_per_s"] = raw["iter_per_s"]
    row["raw.setup_s"] = raw["setup_s"]
    row["_lines"] = [line for line in lines if line.startswith(("info ", "check "))]
    row["correct"] = result["correct"]
    row["failed"] = result["failed"]
    return row


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads:
        rows = []
        for seed in args.seeds:
            row = run_once(workload, seed, args.seconds)
            rows.append(row)
            print(f"{workload} seed={seed} " + json.dumps(row), flush=True)
        print(f"\n{workload}: {len(rows)} runs, all correct: {all(r['correct'] for r in rows)}")
        for name in rows[0]:
            if name in ("correct", "failed") or name.startswith("_"):
                continue
            values = [r[name] for r in rows]
            bound = bounds.get(name)
            limit = f"  bound {bound}" if bound is not None else ""
            print(f"  {name:16s} median {statistics.median(values):12.6g}  "
                  f"spread {spread(values):.4f}{limit}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
