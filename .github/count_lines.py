"""Count the lines of each Python module by kind, and in total.

    python3 .github/count_lines.py [DIR_OR_FILE ...]    (default: src/staghmc)

Every line falls in exactly one column:

* code: a non-blank line outside any docstring that holds a token other
  than a comment;
* doc: a line of a module, class or function docstring (its blank lines
  included), or a line that holds only a comment;
* blank: a blank line outside the docstrings.

Prints a Markdown table, one row per module and a total row, so that CI can
append it to a job summary as is. Standard library only.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

# tokens that make no line a code line on their own
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The 1-based line numbers spanned by every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int, int]:
    """(code, doc, blank) line counts of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    n_code = n_doc = n_blank = 0
    for number, line in enumerate(source.splitlines(), 1):
        if number in docs:
            n_doc += 1
        elif not line.strip():
            n_blank += 1
        elif number in code:
            n_code += 1
        else:
            n_doc += 1
    return n_code, n_doc, n_blank


def modules(paths: list[str]) -> list[str]:
    found = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                found += [os.path.join(root, f) for f in sorted(files) if f.endswith(".py")]
        else:
            found.append(path)
    return found


def main(argv: list[str]) -> int:
    paths = modules(argv or ["src/staghmc"])
    if not paths:
        print("error: no Python modules found", file=sys.stderr)
        return 2
    print("| module | code | doc | blank | total |")
    print("|---|---:|---:|---:|---:|")
    totals = [0, 0, 0]
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            counts = count(fh.read())
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"| {path} | {' | '.join(map(str, counts))} | {sum(counts)} |")
    print(f"| **total** | {' | '.join(map(str, totals))} | {sum(totals)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
