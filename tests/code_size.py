"""The size of the package's source: per file and in all, its lines and its
code lines, the lines that hold code and are not blank, not only a
comment and not part of a docstring (the string that opens a module, a
class or a function).

    python tests/code_size.py [SRC]

counts ``SRC/cgsys/*.py`` (default: the ``src`` folder beside ``tests``)
and prints one line per file and a total, ``lines code_lines path``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set[int]:
    """The line numbers that the docstrings of a module tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """The lines and the code lines of one Python source text."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1)
                        if line not in docstrings)
    return len(text.splitlines()), len(code)


def sizes(src: Path) -> dict[str, tuple[int, int]]:
    """(lines, code lines) per file of ``src/cgsys/*.py``, in name order."""
    return {path.name: count(path.read_text(encoding="utf-8"))
            for path in sorted((src / "cgsys").glob("*.py"))}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0]) if args else Path(__file__).resolve().parents[1] / "src"
    per_file = sizes(src)
    for name, (lines, code) in per_file.items():
        print(f"{lines:6d} {code:6d} {name}")
    print(f"{sum(n for n, _ in per_file.values()):6d} "
          f"{sum(c for _, c in per_file.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
