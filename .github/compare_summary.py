"""Report, field by field, how two summary.json files differ.

    python3 .github/compare_summary.py base/summary.json head/summary.json

Prints a markdown table with one row per field whose values differ: the
field's path, with list indices written ``[*]`` so that the chains of
``chains_meta`` share a row, and the largest relative difference
|a - b| / max(|a|, |b|) over that field's numbers. A value that is not a
number on both sides (a string, a null, a key on one side only) reads
"not both numbers". ``chains_meta[*].wall_clock_s`` is left out: a
chain's wall clock is never the same twice. The script reports and does
not judge: it exits 0 whatever differs.
"""

import json
import math
import re
import sys

IGNORED = {"chains_meta[*].wall_clock_s"}
MISSING = object()


def leaves(value, path=""):
    """(path, value) for every value in the JSON document ``value`` that is
    neither an object nor a list."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def same(a, b) -> bool:
    # json reads a NaN that json wrote; two NaNs are the same value here
    return a == b or (is_number(a) and is_number(b) and math.isnan(a) and math.isnan(b))


def relative_difference(a, b) -> float | None:
    """|a - b| / max(|a|, |b|) of two differing numbers, or None where
    either is not a number."""
    if not (is_number(a) and is_number(b)):
        return None
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def main(base_path: str, head_path: str) -> int:
    with open(base_path, encoding="utf-8") as fh:
        base = dict(leaves(json.load(fh)))
    with open(head_path, encoding="utf-8") as fh:
        head = dict(leaves(json.load(fh)))
    worst: dict = {}
    for path in sorted(base.keys() | head.keys()):
        field = re.sub(r"\[\d+\]", "[*]", path)
        a, b = base.get(path, MISSING), head.get(path, MISSING)
        if field in IGNORED or same(a, b):
            continue
        gap = relative_difference(a, b)
        known = worst.get(field, 0.0)
        worst[field] = None if gap is None or known is None else max(known, gap)
    if not worst:
        print("Equal in every field but " + ", ".join(sorted(IGNORED)) + ".")
        return 0
    print("| field | largest relative difference |")
    print("|---|---:|")
    for field, gap in worst.items():
        print(f"| `{field}` | {'not both numbers' if gap is None else f'{gap:.3g}'} |")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: " + __doc__.splitlines()[2].strip())
    sys.exit(main(sys.argv[1], sys.argv[2]))
