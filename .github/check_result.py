"""Pass or fail a benchmark run by its result line.

    python3 bench/run.py --workload chains-16 --seconds 2 --trace 0 \
        | python3 .github/check_result.py "smoke run"
    python3 bench/run.py --workload paper-sec4 --seconds 2 --trace 1 \
        | python3 .github/check_result.py "traced run" sampler.acceptance

The last line the run prints must be a JSON object holding
``"correct": true`` and ``"failed": 0``. Each per-layer metric named after
the label must be present in its ``"metrics"`` and read a finite value
other than zero: a layer whose traced name no longer reaches the tracer
reads 0. Otherwise the script exits non-zero with the label and what is
wrong.
"""

import json
import math
import sys

label = sys.argv[1] if len(sys.argv) > 1 else "benchmark run"
required = sys.argv[2:]
lines = sys.stdin.read().splitlines()
last = lines[-1] if lines else ""
try:
    result = json.loads(last)
except json.JSONDecodeError:
    result = None
ok = isinstance(result, dict) and result.get("correct") is True and result.get("failed") == 0
if not ok:
    sys.exit(f"{label} failed: {last}")
metrics = result.get("metrics")
metrics = metrics if isinstance(metrics, dict) else {}
dark = []
for name in required:
    entry = metrics.get(name)
    value = entry.get("value") if isinstance(entry, dict) else None
    if not isinstance(value, (int, float)) or not math.isfinite(value) or value == 0:
        dark.append(f"{name} = {value!r}")
if dark:
    sys.exit(f"{label} failed: per-layer metrics missing or zero: {', '.join(dark)}")
