"""Fail if a script imports a private name of the staghmc package.

    python3 .github/check_demo_imports.py demos/*.py

A demo shows the library as a user meets it, so it may import only public
names. The check walks each file's syntax tree, so a name inside a
parenthesised or multi-line ``from staghmc... import (...)`` counts too. It
prints every leading-underscore name imported from staghmc and exits 1 if
there is one. Standard library only.
"""

from __future__ import annotations

import ast
import sys


def private_imports(path: str) -> list[str]:
    """``path:line: module.name`` for each private staghmc name imported."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    return [
        f"{path}:{node.lineno}: {node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "staghmc"
        for alias in node.names
        if alias.name.startswith("_")
    ]


def main(paths: list[str]) -> int:
    found = [line for path in paths for line in private_imports(path)]
    for line in found:
        print(f"private import: {line}")
    if not found:
        print(f"{len(paths)} file(s) import only public staghmc names")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
