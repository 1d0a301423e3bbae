"""Fail if a name that the staghmc package exports has no caller outside the tests.

    python3 .github/check_public_names.py [ROOT]    (default: this repository)

The exported names are those that ``src/staghmc/__init__.py`` imports. A
name is in use if it appears as a name or as an attribute (``x.name``)
in the syntax tree of a package module other than ``__init__.py``, of a
demo (``demos/*.py``) or of a benchmark script (``bench/*.py``); a
definition, an import or an ``__all__`` string does not count. So a public
function that only the tests call fails the check. Prints every unused
export and exits 1 if there is one. Standard library only.
"""

from __future__ import annotations

import ast
import glob
import os
import sys


def exported(root: str) -> list[str]:
    """The names that the package's ``__init__.py`` imports, in order."""
    path = os.path.join(root, "src", "staghmc", "__init__.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def used(paths: list[str]) -> set[str]:
    """Every ``ast.Name`` id and ``ast.Attribute`` attr in ``paths``."""
    found = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def main(root: str) -> int:
    init = os.path.join(root, "src", "staghmc", "__init__.py")
    paths = [
        path
        for pattern in ("src/staghmc/*.py", "demos/*.py", "bench/*.py")
        for path in sorted(glob.glob(os.path.join(root, pattern)))
        if path != init
    ]
    names, seen = exported(root), used(paths)
    unused = [name for name in names if name not in seen]
    for name in unused:
        print(f"exported but used nowhere outside tests/: staghmc.{name}")
    if not unused:
        print(f"all {len(names)} staghmc exports are used in {len(paths)} file(s) outside tests/")
    return 1 if unused else 0


if __name__ == "__main__":
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else here))
