"""Count raw lines and code lines per module of a Python source tree.

    python3 tools/code_lines.py [DIR]

Walks DIR (default: ``src/`` next to this directory) for ``*.py`` files and
prints one row per module, ``<raw lines> <code lines> <path>``, then the
totals. A code line holds at least one token that is not a comment and does
not lie in a docstring: blank lines, comment-only lines and the lines of
module, class and function docstrings are not counted. A string that spans
several lines counts every line it covers, unless it is a docstring.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_lines(tree: ast.AST) -> set:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple:
    """(raw lines, code lines) of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", nargs="?", default=str(ROOT / "src"), help="source tree to count")
    args = parser.parse_args(argv)
    top = Path(args.dir)
    raw_total = code_total = 0
    for path in sorted(top.rglob("*.py")):
        raw, code = count_lines(path.read_text(encoding="utf-8"))
        raw_total += raw
        code_total += code
        print(f"{raw:6d} {code:6d} {path.relative_to(top).as_posix()}")
    print(f"{raw_total:6d} {code_total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
