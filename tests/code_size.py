"""The size of the package's source: per file and in all, its lines and its
code lines, the lines that hold code and are not blank, not only a
comment and not part of a docstring (the string that opens a module, a
class or a function).

    python tests/code_size.py [SRC] [--base BASE]

counts ``SRC/cgsys/*.py`` (default: the ``src`` folder beside ``tests``)
and prints one line per file and a total, ``lines code_lines path``.
With ``--base``, a second source root such as the parent commit's, it
prints each file's code lines as ``base → head name`` instead, ``-`` for
a file that one tree lacks, and the totals so.
"""

from __future__ import annotations

import argparse
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
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="?", type=Path,
                    default=Path(__file__).resolve().parents[1] / "src")
    ap.add_argument("--base", type=Path, help="a source root to compare the code lines with")
    args = ap.parse_args(argv)
    per_file = sizes(args.src)
    if args.base is not None:
        base = sizes(args.base)
        for name in sorted(base.keys() | per_file.keys()):
            print(f"{_code(base, name):>6} → {_code(per_file, name):>6} {name}")
        print(f"{sum(c for _, c in base.values()):6d} → "
              f"{sum(c for _, c in per_file.values()):6d} total")
        return 0
    for name, (lines, code) in per_file.items():
        print(f"{lines:6d} {code:6d} {name}")
    print(f"{sum(n for n, _ in per_file.values()):6d} "
          f"{sum(c for _, c in per_file.values()):6d} total")
    return 0


def _code(per_file, name: str) -> str:
    """A file's code lines, or ``-`` where the tree lacks the file."""
    return str(per_file[name][1]) if name in per_file else "-"


if __name__ == "__main__":
    sys.exit(main())
