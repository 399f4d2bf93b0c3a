"""Count the code lines of each module in src/diotuple.

A code line is a non-blank line that holds a token other than a comment or
a docstring; a token spanning several lines, such as a multi-line string,
counts each line it covers.  Docstrings are the string statements that
open a module, class or function body, found with ast.

Run from the repository root, or from anywhere:

    python tools/code_lines.py

It prints one "module count" line per module, sorted by name, then the
total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "diotuple"
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def module_counts(package: Path = PACKAGE) -> dict[str, int]:
    """Code lines per module of the package, by module name."""
    return {path.stem: code_lines(path.read_text())
            for path in sorted(package.glob("*.py"))}


def main() -> int:
    counts = module_counts()
    for name, count in counts.items():
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
