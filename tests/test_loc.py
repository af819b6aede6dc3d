"""The line counter in tools/loc.py."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parent.parent / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)


def test_comments_and_blanks_do_not_count():
    source = "# header\n\nx = 1  # trailing comment\n\n    \n# footer\n"
    assert loc.count_lines(source) == 1


def test_docstrings_of_every_scope_do_not_count():
    source = '''"""Module
docstring."""


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return 1


async def g():
    """Coroutine docstring."""
'''
    # class A:, def f(self):, return 1, async def g():
    assert loc.count_lines(source) == 4


def test_multiline_code_and_other_strings_count():
    source = '''def f():
    x = 1
    """not the first statement, so not a docstring"""
    return (x +
            2)


TEXT = """a
multiline
literal"""
'''
    # def, x = 1, the string, both lines of the return, three of TEXT
    assert loc.count_lines(source) == 8


def test_main_reports_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text('"""Doc."""\nx = 1\ny = 2\n')
    (tmp_path / "b.py").write_text("# only a comment\nz = 3\n")
    assert loc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["1", "b.py"], ["2", str(Path("pkg") / "a.py")], ["3", "total"]]


def test_against_reports_before_after_and_delta(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        (root / "pkg").mkdir(parents=True)
    (old / "pkg" / "a.py").write_text("x = 1\ny = 2\nz = 3\n")
    (new / "pkg" / "a.py").write_text("x = 1\n")
    (old / "gone.py").write_text("w = 0\n")
    (new / "added.py").write_text('"""Doc."""\nv = 1\nu = 2\n')
    assert loc.main([str(new), "--against", str(old)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["0", "2", "+2", "added.py"], ["1", "0", "-1", "gone.py"],
        ["3", "1", "-2", str(Path("pkg") / "a.py")], ["4", "3", "-1", "total"]]
