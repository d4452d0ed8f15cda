"""Count code lines in a package: non-blank lines that are neither comments nor docstrings.

Usage::

    python tools/loc.py [DIR]      # one line per module under DIR (default src), then the total
    python tools/loc.py BASE HEAD  # per module: its lines under BASE, under HEAD and the change

A line counts when ``tokenize`` finds a token on it other than a comment or
layout, and no docstring (the leading string statement of a module, class
or function, found with ``ast``) spans it.  With two directories a module
found under only one of them counts 0 lines under the other.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that docstrings of ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Non-blank lines of ``path`` that are neither comments nor docstrings."""
    source = path.read_text()
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def counts(root: Path) -> dict[str, int]:
    """Code lines of every module under ``root``, keyed by its path relative to ``root``."""
    return {str(path.relative_to(root)): code_lines(path) for path in sorted(root.rglob("*.py"))}


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        base, head = counts(Path(argv[0])), counts(Path(argv[1]))
        rows = [(base.get(name, 0), head.get(name, 0), name) for name in sorted(base.keys() | head.keys())]
        rows.append((sum(base.values()), sum(head.values()), "total"))
        print(f"{'base':>6}  {'head':>6}  {'change':>6}")
        for b, h, name in rows:
            print(f"{b:6d}  {h:6d}  {h - b:+6d}  {name}")
        return 0
    lines = counts(Path(argv[0] if argv else "src"))
    for name, count in lines.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(lines.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
