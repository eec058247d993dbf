#!/usr/bin/env python3
"""Count the lines of ordmixed's modules, without the published reference
data (``published.py``).

    python scripts/code_lines.py TREE               # one checkout
    python scripts/code_lines.py TREE_A TREE_B      # two, with B - A

A tree is a checkout holding ``src/ordmixed``. For each module, and in
total, the script prints two counts:

- code: the lines that hold a token of code, read by ``tokenize``, less
  every line of a docstring (a string literal that opens a module, class
  or function body, found by ``ast``); comments and blank lines hold no
  such token;
- wc: every line of the file, as ``wc -l`` counts them.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

SKIPPED = {"published.py"}  # reference data, not code
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The lines of ``source`` with a token of code that is not part of a
    docstring."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def counts(tree: Path) -> dict[str, tuple[int, int]]:
    """(code, wc) of each module of the tree's ``src/ordmixed``."""
    out = {}
    for path in sorted((tree / "src" / "ordmixed").glob("*.py")):
        if path.name not in SKIPPED:
            source = path.read_text()
            out[path.name] = (code_lines(source), source.count("\n"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", type=Path, help="TREE, or TREE_A TREE_B")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one tree or two")
    tables = [counts(tree) for tree in args.trees]
    names = sorted(set().union(*tables))
    rows = [(name, [t.get(name, (0, 0)) for t in tables]) for name in names]
    rows.append(("total", [tuple(map(sum, zip(*t.values()))) for t in tables]))
    if len(tables) == 1:
        print(f"{'module':<16}{'code':>8}{'wc':>8}")
        for name, ((code, wc),) in rows:
            print(f"{name:<16}{code:>8}{wc:>8}")
        return 0
    print(f"{'module':<16}{'code A':>8}{'code B':>8}{'B - A':>7}{'wc A':>8}{'wc B':>8}{'B - A':>7}")
    for name, ((c0, w0), (c1, w1)) in rows:
        print(f"{name:<16}{c0:>8}{c1:>8}{c1 - c0:>+7}{w0:>8}{w1:>8}{w1 - w0:>+7}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
