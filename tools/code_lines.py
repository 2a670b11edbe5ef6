"""Count the code lines of a package's Python modules.

A code line is a line that holds some token other than a comment or a
docstring, so blank lines, comment lines and the lines of module, class and
function docstrings do not count; every line of any other string, a
multi-line one too, does.  Counted with the tokenizer, so a ``#`` inside a
string is not a comment.

Usage: ``python3 tools/code_lines.py [DIR]`` (default ``src/hyspa``) prints
the count of each ``*.py`` file in DIR and the total.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token other than a comment or a docstring."""
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT and not (tok.type == tokenize.STRING and tok.start in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/hyspa")
    paths = sorted(root.glob("*.py"))
    if not paths:
        print(f"error: no Python modules in {root}", file=sys.stderr)
        return 1
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:>6,}  {path.name}")
    print(f"{total:>6,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
