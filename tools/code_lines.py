"""Count code lines per module of src/refmatch and in total.

A code line holds at least one token outside comments and docstrings;
blank lines do not count.  Usage: python tools/code_lines.py [CHECKOUT [BASE]]
(default CHECKOUT: the checkout this file is in).  Given BASE as well, it
prints each module's count in CHECKOUT and in BASE and the difference
CHECKOUT - BASE; a module one side lacks counts 0 there.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def module_lines(root: Path) -> dict[str, int]:
    """Code lines of each module of ``root``/src/refmatch, with their "total"."""
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted((root / "src" / "refmatch").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


if __name__ == "__main__":
    if len(sys.argv) > 3:
        sys.exit(__doc__)
    roots = [Path(arg) for arg in sys.argv[1:]] or [Path(__file__).resolve().parents[1]]
    tables = [module_lines(root) for root in roots]
    names = sorted(set().union(*tables) - {"total"}) + ["total"]
    if len(tables) == 2:
        print(f"{'':<16} {'CHECKOUT':>8} {'BASE':>8} {'diff':>6}")
    for name in names:
        counts = [table.get(name, 0) for table in tables]
        if len(counts) == 2:
            print(f"{name:<16} {counts[0]:>8} {counts[1]:>8} {counts[0] - counts[1]:>+6}")
        else:
            print(f"{name:<16} {counts[0]:>5}")
