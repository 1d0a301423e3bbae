"""Pass or fail a benchmark run by its result line.

    python3 bench/run.py --workload chains-16 --seconds 2 --trace 0 \
        | python3 .github/check_result.py "smoke run"

The last line the run prints must be a JSON object holding
``"correct": true`` and ``"failed": 0``. Otherwise the script exits non-zero
with the label and that line.
"""

import json
import sys

label = sys.argv[1] if len(sys.argv) > 1 else "benchmark run"
lines = sys.stdin.read().splitlines()
last = lines[-1] if lines else ""
try:
    result = json.loads(last)
except json.JSONDecodeError:
    result = None
ok = isinstance(result, dict) and result.get("correct") is True and result.get("failed") == 0
sys.exit(0 if ok else f"{label} failed: {last}")
