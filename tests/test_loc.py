"""``tools/loc.py`` counts total and code lines per module of ``src/galpha/`` and ``tests/``."""

from pathlib import Path

from conftest import load_script

TOOL = Path(__file__).resolve().parents[1] / "tools" / "loc.py"

# 13 lines; code lines are 5, 7, 9, 10, 12 and 13 (the one-line def keeps its code)
_MODULE = '''"""Module docstring,
over two lines."""

# a comment
import os

class A:
    """Class docstring."""
    x = """not a docstring,
but code"""

    def f(self): """Inline docstring."""
    def g(self): return os.sep  # trailing comment
'''


def _load_tool():
    return load_script(TOOL, "loc")


def test_counts_of_a_known_module():
    assert _load_tool().count_lines(_MODULE) == (13, 6)


def test_report_of_a_small_tree(tmp_path, capsys):
    tool = _load_tool()
    package = tmp_path / "src" / "galpha"
    package.mkdir(parents=True)
    (package / "b.py").write_text(_MODULE)
    (package / "a.py").write_text("\n\nx = 1\n")
    (package / "notes.txt").write_text("not a module\n")
    assert tool.main([str(tmp_path)]) == 0
    package_rows = [["module", "lines", "code"], ["a.py", "3", "1"], ["b.py", "13", "6"], ["total", "16", "7"]]
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == str(package)
    assert [row.split() for row in rows[1:]] == package_rows
    # with tests/ a second table follows, after one blank line
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_c.py").write_text("def test():\n    pass\n")
    assert tool.main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split() for row in rows[1:5]] == package_rows and rows[5] == ""
    assert rows[6] == str(tests)
    assert [row.split() for row in rows[7:]] == [
        ["module", "lines", "code"], ["test_c.py", "2", "2"], ["total", "2", "2"],
    ]


def test_a_root_without_the_package_exits_2(tmp_path, capsys):
    assert _load_tool().main([str(tmp_path)]) == 2
    assert "is not a directory" in capsys.readouterr().err
