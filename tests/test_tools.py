"""The repository's measuring scripts under ``tools/``."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_lines = load_tool("src_lines")

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


def write_tree(root, files):
    package = root / "src" / "bcfusion"
    package.mkdir(parents=True)
    for name, text in files.items():
        (package / name).write_text(text, encoding="utf-8")
    return root


class TestSrcLines:
    def test_fixture_counts(self):
        assert src_lines.count_lines(FIXTURE) == (8, 9)

    def test_two_trees_print_the_delta_in_all_and_per_file(self, tmp_path, capsys):
        parent = write_tree(tmp_path / "parent", {"a.py": FIXTURE, "b.py": "x = 1\n"})
        change = write_tree(tmp_path / "change", {"a.py": FIXTURE + "# one more\ny = 2\n",
                                                   "b.py": "x = 1\n", "c.py": '"""New."""\n'})
        assert src_lines.main([str(parent), str(change)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["tree", "code", "docs", "total"]
        assert lines[1].split() == [str(parent), "9", "9", "18"]
        assert lines[2].split() == [str(change), "10", "11", "21"]
        assert lines[3].split() == ["delta", str(change), "+1", "+2", "+3"]
        assert [line.split() for line in lines[4:]] == [["a.py", "+1", "+1", "+2"],
                                                         ["c.py", "+0", "+1", "+1"]]

    def test_a_tree_without_the_package_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no src/bcfusion"):
            src_lines.main([str(tmp_path)])
