"""The repository's measuring scripts under ``tools/``."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bcfusion import tensor

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_lines = load_tool("src_lines")
same_seed_hashes = load_tool("same_seed_hashes")

# docs (9): the module docstring (2), three whole-line comments, the class,
# method and coroutine docstrings (1 + 2 + 1; a blank docstring line is not
# counted).  code (8): the import with its trailing comment, the class, the
# string assignment, the def, the return, the async def and the two-line
# string assignment.
FIXTURE = '''"""A module
docstring."""

# a whole-line comment
import os  # a trailing comment leaves the line code


class A:
    """A class docstring."""

    x = "a string that is no docstring"

    def f(self):
        """A method docstring

        over two non-blank lines."""
        # an indented comment
        return os.sep
    # a comment after the body


async def g():
    \'\'\'A coroutine docstring.\'\'\'
    s = """a multi-line string
    that is code"""
'''


# params (14): the dataclass fields a, b and c (an unannotated class attribute
# is no field), scaled's by and twice, make's a, rest and named (cls is not
# counted), the called-decorator dataclass's x, __init__'s y and z, the nested
# inner's w, and free's p and q; Plain's annotation is no field and the
# methods' self is not counted.
PARAMS_FIXTURE = '''from dataclasses import dataclass, field
import dataclasses


@dataclass
class Spec:
    a: int
    b: float = 0.0
    c: list = field(default_factory=list)
    NOTE = "no field"

    def scaled(self, by, *, twice=False):
        return self.a * by

    @classmethod
    def make(cls, a, *rest, **named):
        return cls(a)


@dataclasses.dataclass(frozen=True)
class Frozen:
    x: int


class Plain:
    y: int

    def __init__(self, y, /, z=1):
        def inner(w):
            return w
        self.y = inner(y) + z


def free(p, q=2):
    return p + q
'''


def write_tree(root, files):
    package = root / "src" / "bcfusion"
    package.mkdir(parents=True)
    for name, text in files.items():
        (package / name).write_text(text, encoding="utf-8")
    return root


class TestSrcLines:
    def test_fixture_counts(self):
        assert src_lines.count_lines(FIXTURE) == (8, 9)

    def test_params_fixture_counts(self):
        assert src_lines.count_params(PARAMS_FIXTURE) == 14
        assert src_lines.count_params(FIXTURE) == 0  # f(self) and g()

    def test_two_trees_print_the_delta_in_all_and_per_file(self, tmp_path, capsys):
        parent = write_tree(tmp_path / "parent", {"a.py": FIXTURE, "b.py": "x = 1\n"})
        change = write_tree(tmp_path / "change", {"a.py": FIXTURE + "# one more\ny = 2\n",
                                                   "b.py": "x = 1\n", "c.py": '"""New."""\n',
                                                   "d.py": PARAMS_FIXTURE})
        assert src_lines.main([str(parent), str(change)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["tree", "code", "docs", "total", "params"]
        assert lines[1].split() == [str(parent), "9", "9", "18", "0"]
        assert lines[2].split() == [str(change), "34", "11", "45", "14"]
        assert lines[3].split() == ["delta", str(change), "+25", "+2", "+27", "+14"]
        assert [line.split() for line in lines[4:]] == [["a.py", "+1", "+1", "+2", "+0"],
                                                         ["c.py", "+0", "+1", "+1", "+0"],
                                                         ["d.py", "+24", "+0", "+24", "+14"]]

    def test_a_tree_without_the_package_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no src/bcfusion"):
            src_lines.main([str(tmp_path)])


def unbound_rule():
    """A rule whose closure cell was never bound."""
    def rule(g):
        return never
    if False:
        never = None
    return rule


class TestSavedBytes:
    def test_counts_each_array_once_wherever_a_rule_holds_it(self):
        a, b, c, d = (np.zeros(n) for n in (1, 2, 4, 8))  # 8, 16, 32 and 64 bytes
        nested = (b, [c, (d, a)])
        rules = [lambda g: a, lambda g: (nested, a, 1.5), unbound_rule()]
        tape = tensor.Tape()
        for rule in rules:
            tape.record((), tensor.Slot(np.dtype(np.float64)), rule)
        assert same_seed_hashes.saved_bytes(tape) == 8 + 16 + 32 + 64
