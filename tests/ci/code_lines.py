"""Code lines of each module of one or more directories, and their totals.

    python3 tests/ci/code_lines.py [DIR ...]

A code line is a line that holds a token other than a comment, outside the
module, class and function docstrings; a token that spans several lines (a
long string) makes each of them a code line.  Counted with `ast` and
`tokenize` from the standard library, so two counts of one tree agree.
Each `DIR` (its `*.py` files, not its subdirectories) gets its name, a line
per module and its total; the default is the package's `src/cubick3`.
Always exits 0.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "cubick3"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    for root in map(Path, argv or [PACKAGE]):
        counts = {path.name: code_lines(path) for path in sorted(root.glob("*.py"))}
        print(root)
        for name, n in counts.items():
            print(f"{n:6d}  {name}")
        print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
