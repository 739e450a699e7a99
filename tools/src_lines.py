#!/usr/bin/env python3
"""Count the non-blank lines of a tree's ``src/bcfusion/*.py`` as code or as docs.

A line is *docs* when it lies inside a module, class or function docstring
(found with ``ast``) or holds nothing but a comment (found with
``tokenize``); every other non-blank line is *code*.  A code line with a
trailing comment is code.  Usage::

    python3 tools/src_lines.py [TREE ...]

prints ``code docs total`` for each tree (by default the checkout this
script sits in), and for each tree after the first its difference from the
first, in all and for every file whose counts moved.  Two trees, parent
first, give a change's net ``src/`` delta::

    python3 tools/src_lines.py ../parent .
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


def count_lines(source: str) -> tuple[int, int]:
    """(code, docs) non-blank line counts of one module's source."""
    lines = source.splitlines()
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip():
            docs.add(tok.start[0])
    nonblank = {n for n, line in enumerate(lines, start=1) if line.strip()}
    return len(nonblank - docs), len(nonblank & docs)


def count_tree(tree: Path) -> dict[str, tuple[int, int]]:
    """File name -> (code, docs) for every ``src/bcfusion/*.py`` of ``tree``."""
    files = sorted((tree / "src" / "bcfusion").glob("*.py"))
    if not files:
        raise SystemExit(f"error: {tree}: no src/bcfusion/*.py files")
    return {f.name: count_lines(f.read_text(encoding="utf-8")) for f in files}


def total(counts: dict[str, tuple[int, int]]) -> tuple[int, int]:
    return sum(c for c, _ in counts.values()), sum(d for _, d in counts.values())


def row(name: str, code: int, docs: int, sign: str = "") -> str:
    return f"{name:<24} {code:{sign}6d} {docs:{sign}6d} {code + docs:{sign}6d}"


def main(argv: list[str]) -> int:
    trees = [Path(t) for t in argv] or [Path(__file__).resolve().parent.parent]
    counts = [count_tree(t) for t in trees]
    print(f"{'tree':<24} {'code':>6} {'docs':>6} {'total':>6}")
    for tree, c in zip(trees, counts):
        print(row(str(tree), *total(c)))
    base = counts[0]
    for tree, c in zip(trees[1:], counts[1:]):
        code, docs = (b - a for a, b in zip(total(base), total(c)))
        print(row(f"delta {tree}", code, docs, "+"))
        for name in sorted(set(base) | set(c)):
            (a_code, a_docs), (b_code, b_docs) = base.get(name, (0, 0)), c.get(name, (0, 0))
            if (a_code, a_docs) != (b_code, b_docs):
                print(row(f"  {name}", b_code - a_code, b_docs - a_docs, "+"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
