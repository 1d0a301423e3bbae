"""Fail if a public staghmc name has no caller outside the tests.

    python3 .github/check_public_names.py [ROOT]    (default: this repository)

The public names are those that ``src/staghmc/__init__.py`` imports and
those that each package module lists in its ``__all__``. A name is in use
if it appears as a name or as an attribute (``x.name``) in the syntax tree
of a package module other than ``__init__.py`` or of a benchmark script
(``bench/*.py``); a definition, an import or an ``__all__`` string does
not count. The one exception is the criterion oracles, the functions
that README's oracle table (the table headed
``| function | what it computes | criterion |``) names as ``module.name``:
each is kept as an independent reference for the tests. So a public name
that only the tests use fails the check unless README names it there, and
so does an oracle of that table that the package does not make public.
Prints every unused name and exits 1 if one is not an oracle.
Standard library only.
"""

from __future__ import annotations

import ast
import glob
import os
import sys

ORACLE_HEADER = "| function | what it computes | criterion |"


def _tree(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def public(root: str) -> dict[str, str]:
    """Each public name, mapped to where it is public (``staghmc`` or
    ``staghmc.<module>``), in order: the names that the package's
    ``__init__.py`` imports, then each module's ``__all__``."""
    package = os.path.join(root, "src", "staghmc")
    names = {}
    for node in _tree(os.path.join(package, "__init__.py")).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.setdefault(alias.asname or alias.name, "staghmc")
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        for node in _tree(path).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                for name in ast.literal_eval(node.value):
                    names.setdefault(name, f"staghmc.{module}")
    return names


def oracles(root: str) -> list[str]:
    """The ``module.name`` entries of the first column of README's oracle
    table, in order."""
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    start = lines.index(ORACLE_HEADER) + 2  # past the header and its rule
    found = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        found.append(line.split("|")[1].strip().strip("`"))
    return found


def used(paths: list[str]) -> set[str]:
    """Every ``ast.Name`` id and ``ast.Attribute`` attr in ``paths``."""
    found = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def main(root: str) -> int:
    init = os.path.join(root, "src", "staghmc", "__init__.py")
    paths = [
        path
        for pattern in ("src/staghmc/*.py", "bench/*.py")
        for path in sorted(glob.glob(os.path.join(root, pattern)))
        if path != init
    ]
    names, seen = public(root), used(paths)
    allowed = {entry.rsplit(".", 1)[-1]: entry for entry in oracles(root)}
    failed = False
    for name, where in names.items():
        if name in seen:
            continue
        if name in allowed:
            print(f"criterion oracle, used only by tests/: {where}.{name}")
        else:
            print(f"public but used nowhere outside tests/: {where}.{name}")
            failed = True
    for name, entry in allowed.items():
        if name not in names:
            print(f"README's oracle table names {entry}, which staghmc does not make public")
            failed = True
    if not failed:
        print(
            f"all {len(names)} public staghmc names are used in {len(paths)} file(s) "
            f"outside tests/ or are among README's {len(allowed)} criterion oracles"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else here))
