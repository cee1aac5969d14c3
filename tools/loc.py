"""Count the lines of each module of ``src/galpha/`` and ``tests/``, in all and as code.

    python3 tools/loc.py [ROOT ...]

For each checkout ROOT (default: the repository this script belongs to) this
prints one table for ``ROOT/src/galpha/`` and, when ``ROOT/tests/`` exists,
one more for it: one row per module, sorted by name, with its total lines and
its code lines, then the totals.  Code lines leave out docstrings, comments
and blank lines; a docstring is the string literal that opens a module, class
or function body.  The exit code is 2 when a ROOT has no ``src/galpha/``.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def count_lines(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one Python source."""
    docstring_rows = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstring_rows.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start[0] in docstring_rows):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def _table(directory: Path) -> list[str]:
    """The table for one directory: its path, a header, one row per module, the totals."""
    rows, total, code = [f"{directory}", f"{'module':<24} {'lines':>6} {'code':>6}"], 0, 0
    for path in sorted(directory.glob("*.py")):
        lines, code_lines = count_lines(path.read_text(encoding="utf-8"))
        rows.append(f"{path.name:<24} {lines:>6} {code_lines:>6}")
        total, code = total + lines, code + code_lines
    rows.append(f"{'total':<24} {total:>6} {code:>6}")
    return rows


def report(root: Path) -> list[list[str]]:
    """The tables for one checkout: ``src/galpha/``, then ``tests/`` when it exists."""
    package, tests = root / "src" / "galpha", root / "tests"
    if not package.is_dir():
        raise FileNotFoundError(f"{package} is not a directory")
    return [_table(package)] + ([_table(tests)] if tests.is_dir() else [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", type=Path, default=[REPO], help="checkouts to count")
    args = parser.parse_args(argv)
    try:
        blocks = [rows for root in args.roots for rows in report(root)]
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    print("\n\n".join("\n".join(rows) for rows in blocks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
