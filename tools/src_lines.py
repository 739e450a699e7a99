#!/usr/bin/env python3
"""Count the non-blank lines of a tree's ``src/bcfusion/*.py`` as code or as docs,
and its settable surface as parameters.

A line is *docs* when it lies inside a module, class or function docstring
(found with ``ast``) or holds nothing but a comment (found with
``tokenize``); every other non-blank line is *code*.  A code line with a
trailing comment is code.  *params* counts the parameters of every function
and method, nested ones included, but ``self`` and ``cls``, plus the
annotated fields of every ``@dataclass`` class.  Usage::

    python3 tools/src_lines.py [TREE ...]

prints ``code docs total params`` for each tree (by default the checkout
this script sits in), and for each tree after the first its difference from
the first, in all and for every file whose counts moved.  Two trees, parent
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether ``node`` is decorated ``@dataclass`` or ``@dataclasses.dataclass``,
    called or not."""
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(dec, "id", getattr(dec, "attr", None)) == "dataclass":
            return True
    return False


def count_params(source: str) -> int:
    """The parameters of one module's functions and methods, but ``self`` and
    ``cls``, plus the annotated fields of its dataclasses."""
    n = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            names = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                     if p is not None]
            n += sum(name not in ("self", "cls") for name in names)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            n += sum(isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)
                     for st in node.body)
    return n


def count_tree(tree: Path) -> dict[str, tuple[int, int, int]]:
    """File name -> (code, docs, params) for every ``src/bcfusion/*.py`` of ``tree``."""
    files = sorted((tree / "src" / "bcfusion").glob("*.py"))
    if not files:
        raise SystemExit(f"error: {tree}: no src/bcfusion/*.py files")
    texts = {f.name: f.read_text(encoding="utf-8") for f in files}
    return {name: (*count_lines(text), count_params(text)) for name, text in texts.items()}


def total(counts: dict[str, tuple[int, int, int]]) -> tuple[int, int, int]:
    return tuple(sum(column) for column in zip(*counts.values()))


def row(name: str, code: int, docs: int, params: int, sign: str = "") -> str:
    return (f"{name:<24} {code:{sign}6d} {docs:{sign}6d} {code + docs:{sign}6d} "
            f"{params:{sign}6d}")


def main(argv: list[str]) -> int:
    trees = [Path(t) for t in argv] or [Path(__file__).resolve().parent.parent]
    counts = [count_tree(t) for t in trees]
    print(f"{'tree':<24} {'code':>6} {'docs':>6} {'total':>6} {'params':>6}")
    for tree, c in zip(trees, counts):
        print(row(str(tree), *total(c)))
    base = counts[0]
    for tree, c in zip(trees[1:], counts[1:]):
        print(row(f"delta {tree}", *(b - a for a, b in zip(total(base), total(c))), sign="+"))
        for name in sorted(set(base) | set(c)):
            before, after = base.get(name, (0, 0, 0)), c.get(name, (0, 0, 0))
            if before != after:
                print(row(f"  {name}", *(b - a for a, b in zip(before, after)), sign="+"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
