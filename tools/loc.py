"""Count the lines of code under src/, per file and in total.

A line counts when it holds a token other than a comment and is not part
of a module, class or function docstring.  Blank lines, comment-only
lines and docstring lines do not count.

    python3 tools/loc.py [ROOT] [--against OTHER]

ROOT defaults to the src/ directory next to this file's parent.  With
--against OTHER, another source tree such as the src/ of an older
checkout, each file and the total get three columns: the count in OTHER
(before), in ROOT (after) and their difference; a file missing from one
tree counts 0 there.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> int:
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def _counts(root: Path) -> dict[Path, int]:
    return {path.relative_to(root): count_lines(path.read_text())
            for path in sorted(root.rglob("*.py"))}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="loc.py", description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--against", type=Path, metavar="OTHER",
                        help="print before (OTHER), after (ROOT) and delta per file")
    args = parser.parse_args(argv)
    after = _counts(args.root)
    if args.against is None:
        for path, lines in after.items():
            print(f"{lines:6d}  {path}")
        print(f"{sum(after.values()):6d}  total")
        return 0
    before = _counts(args.against)
    rows = [(before.get(path, 0), after.get(path, 0), path)
            for path in sorted(before.keys() | after.keys())]
    rows.append((sum(before.values()), sum(after.values()), "total"))
    for old, new, name in rows:
        print(f"{old:6d} {new:6d} {new - old:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
