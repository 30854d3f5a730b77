"""Count the lines of the degenlab package: per module and in total, the
code lines and all lines.

A code line holds a token other than a comment, the NL of a blank or
comment line, an INDENT or a DEDENT, and lies outside the docstrings of
the module, its classes and its functions.  So blank lines, comment lines
and docstrings count only as lines, while every line of a statement, a
multi-line string that is no docstring included, is a code line.

    python tools/loc.py

counts the *.py files of the package, src/degenlab.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "degenlab"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    """The line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(text: str):
    """(code lines, lines) of Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(text))), len(text.splitlines())


def main() -> int:
    rows = [(path.name, *count(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'code':>6} {'lines':>6}  module")
    for name, code, lines in rows:
        print(f"{code:6} {lines:6}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
