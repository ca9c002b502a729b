"""Count lines and code lines of every .py file under each directory given,
by default the repository's src and tests.

A code line is a line that is not blank, not a comment and not part of a
docstring (the leading string of a module, class or function body).

    python3 tools/src_lines.py
    python3 tools/src_lines.py tools perfbench
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by docstrings in the parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(lines, code lines) of one Python source text."""
    lines = source.splitlines()
    skip = docstring_lines(ast.parse(source))
    code = set()
    ignored = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in ignored:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines), len(code - skip)


def main(argv) -> int:
    roots = [Path(arg) for arg in argv[1:]] or [REPO / "src", REPO / "tests"]
    for root in roots:
        if not root.is_dir():
            print(f"src_lines.py: {root} is not a directory", file=sys.stderr)
            return 2
    for root in roots:
        print(root)
        total_lines = total_code = 0
        for path in sorted(root.rglob("*.py")):
            n_lines, n_code = count(path.read_text())
            total_lines += n_lines
            total_code += n_code
            print(f"{n_lines:6d} {n_code:6d}  {path.relative_to(root)}")
        print(f"{total_lines:6d} {total_code:6d}  total (lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
