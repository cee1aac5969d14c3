"""``tools/cli_diff.py`` reports every difference between two checkouts' CLI runs."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import load_script

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_diff.py"


def _load_tool():
    return load_script(TOOL, "cli_diff")


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode("utf-8"))
    return root


_MAP = "alpha_m,alpha_f,radius,stable\n0,0,1,1\n0,0.5,2.5,0\n0,1,inf,0\n"


def test_identical_trees_have_no_lines(tmp_path):
    tool = _load_tool()
    files = {"stability.csv": _MAP, "manifest.txt": "p = 3\n"}
    assert tool.compare_trees(_tree(tmp_path / "a", files), _tree(tmp_path / "b", files)) == []


def test_numeric_csv_change_is_summarized(tmp_path):
    tool = _load_tool()
    old = _tree(tmp_path / "a", {"stability.csv": _MAP, "manifest.txt": "p = 3\n", "sub/x.txt": "x"})
    changed = _MAP.replace("2.5,0", "2.5000000000000004,0").replace("0,0,1,1", "0,0,1.25,1")
    new = _tree(tmp_path / "b", {"stability.csv": changed, "manifest.txt": "p = 4\n", "extra.csv": "t\n"})
    assert tool.compare_trees(old, new) == [
        "extra.csv: only in the change",
        "manifest.txt: p 3 -> 4",
        "stability.csv: 2 of 3 rows differ in 1 columns (radius); largest relative change 0.2 "
        "(radius), largest absolute change 0.25 (radius), largest |value| in those columns 2.5",
        "sub/x.txt: only in the parent",
    ]


def test_manifest_keys_that_changed_are_listed(tmp_path):
    tool = _load_tool()
    old = "p = 3\nrecovered_c = 0.4166666666763889\nversion = 0.1.0\n"
    new = "p = 3\nrecovered_c = 0.4166666666666667\nrho_inf = 0.5\n"
    assert tool.manifest_changes(old.encode(), new.encode()) == (
        "recovered_c 0.4166666666763889 -> 0.4166666666666667; "
        "rho_inf (absent) -> 0.5; version 0.1.0 -> (absent)"
    )
    # a line that is not ``key = value``, or a change of layout only, is a byte difference
    assert tool.manifest_changes(b"p = 3\n", b"p: 3\n") is None
    assert tool.manifest_changes(b"p = 3\n", b"p = 3") is None
    a = _tree(tmp_path / "a", {"manifest.txt": "p = 3\n"})
    b = _tree(tmp_path / "b", {"manifest.txt": "p = 3"})
    assert tool.compare_trees(a, b) == ["manifest.txt: bytes differ (6 -> 5 bytes)"]


def test_csv_of_another_shape_is_a_byte_difference(tmp_path):
    tool = _load_tool()
    old = _tree(tmp_path / "a", {"stability.csv": _MAP})
    for changed in (_MAP + "1,1,1,1\n", _MAP.replace("radius", "rho"), _MAP.replace("inf", "big")):
        new = _tree(tmp_path / "b", {"stability.csv": changed})
        line = tool.compare_trees(old, new)[0]
        assert line.startswith("stability.csv: bytes differ ("), line


def test_inf_to_finite_is_an_infinite_relative_change(tmp_path):
    tool = _load_tool()
    summary = tool.csv_changes(_MAP.encode(), _MAP.replace("inf", "7").encode())
    assert "largest relative change inf (radius)" in summary


def test_moves_between_inf_and_finite_are_counted(tmp_path):
    tool = _load_tool()
    old = _MAP + "1,1,inf,0\n"
    new = old.replace("inf", "7").replace("2.5,0", "inf,0")
    summary = tool.csv_changes(old.encode(), new.encode())
    assert summary.endswith("; 2 cells inf -> finite; 1 cell finite -> inf")
    assert "cells" not in tool.csv_changes(_MAP.encode(), _MAP.replace("2.5", "3").encode())


def test_moves_to_and_from_nan_are_counted(tmp_path):
    tool = _load_tool()
    header = "branch,rho,max_eig_inf\n"
    summary = tool.csv_changes((header + "main,0,nan\n").encode(), (header + "main,0,inf\n").encode())
    assert summary.endswith("largest |value| in those columns 0; 1 cell nan -> inf")
    old = header + "main,nan,1\nmain,2,inf\nmain,nan,nan\n"
    new = header + "main,0.5,nan\nmain,nan,nan\nmain,nan,nan\n"
    assert tool.csv_changes(old.encode(), new.encode()).endswith(
        "; 1 cell nan -> finite; 2 cells finite -> nan; 1 cell inf -> nan")


def test_runs_differ_in_output_and_exit_code():
    tool = _load_tool()
    old = {"stdout": b"wrote 3 rows\n", "stderr": b"", "exit code": 0}
    new = {"stdout": b"", "stderr": b'{"status": "error"}\n', "exit code": 3}
    assert tool.compare_runs(old, new) == [
        "stdout differs (change ends: '')",
        "stderr differs (change ends: '{\"status\": \"error\"}')",
        "exit code 0 -> 3",
    ]
    assert tool.compare_runs(old, dict(old)) == []


_MAIN = """\
import sys
from pathlib import Path
out = Path(sys.argv[sys.argv.index("--out") + 1])
out.mkdir()
(out / "trajectory.csv").write_text("t,re_u_1,im_u_1\\n0,1,0\\n0.5,{value},0\\n")
print("wrote trajectory.csv")
sys.exit({code})
"""


def _checkout(root, value, code):
    """A stand-in checkout whose ``python -m galpha`` writes one small trajectory."""
    return _tree(root, {"src/galpha/__init__.py": "", "src/galpha/__main__.py": _MAIN.format(value=value, code=code)})


def test_main_runs_both_checkouts(tmp_path, monkeypatch, capsys):
    tool = _load_tool()
    monkeypatch.setattr(tool, "CASES", [("integrate-defaults", ["integrate"])])
    same = [_checkout(tmp_path / name, 0.5, 0) for name in ("a", "b")]
    assert tool.main([str(root) for root in same]) == 0
    assert capsys.readouterr().out == "integrate-defaults: identical  (galpha integrate)\n"

    other = _checkout(tmp_path / "c", 0.75, 3)
    assert tool.main([str(same[0]), str(other)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "integrate-defaults: DIFFERS  (galpha integrate)",
        "  exit code 0 -> 3",
        "  trajectory.csv: 1 of 2 rows differ in 1 columns (re_u_1); largest relative change 0.33 "
        "(re_u_1), largest absolute change 0.25 (re_u_1), largest |value| in those columns 1",
    ]


def test_a_run_that_times_out_reads_as_its_own_exit_code(tmp_path, monkeypatch, capsys):
    """A side that never ends is killed after ``TIMEOUT_S``; the case then differs."""
    tool = _load_tool()
    monkeypatch.setattr(tool, "CASES", [("integrate-defaults", ["integrate"])])
    monkeypatch.setattr(tool, "TIMEOUT_S", 2.0)
    endless = _tree(tmp_path / "a", {"src/galpha/__init__.py": "",
                                     "src/galpha/__main__.py": "import time\ntime.sleep(60)\n"})
    ends = _checkout(tmp_path / "b", 0.5, 0)
    assert tool.main([str(endless), str(ends)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "integrate-defaults: DIFFERS  (galpha integrate)",
        "  stdout differs (change ends: 'wrote trajectory.csv')",
        "  exit code timed out -> 0",
        "  trajectory.csv: only in the change",
    ]


def test_a_root_without_the_package_exits_2_before_any_run(tmp_path, monkeypatch, capsys):
    tool = _load_tool()

    def run_case(*args):
        raise AssertionError("a case ran")

    monkeypatch.setattr(tool, "run_case", run_case)
    ends, typo = _checkout(tmp_path / "b", 0.5, 0), tmp_path / "typo"
    for roots in ([typo, ends], [ends, typo]):
        assert tool.main([str(root) for root in roots]) == 2
        assert capsys.readouterr().err.splitlines() == [f"{typo / 'src' / 'galpha' / '__init__.py'} does not exist"]


def test_write_golden_records_each_case(tmp_path, monkeypatch, capsys):
    tool = _load_tool()
    monkeypatch.setattr(tool, "CASES", [("integrate-defaults", ["integrate"])])
    root = _checkout(tmp_path / "a", 0.5, 3)
    tool.write_golden(tmp_path / "golden.json", root)
    record = json.loads((tmp_path / "golden.json").read_text())
    assert record == {"numpy": np.__version__, "cases": {"integrate-defaults": {
        "argv": "integrate",
        "stdout": hashlib.sha256(b"wrote trajectory.csv\n").hexdigest(),
        "stderr": hashlib.sha256(b"").hexdigest(),
        "exit code": 3,
        "files": {"trajectory.csv": hashlib.sha256(b"t,re_u_1,im_u_1\n0,1,0\n0.5,0.5,0\n").hexdigest()},
    }}}
    assert capsys.readouterr().out == f"wrote {tmp_path / 'golden.json'} (1 cases, numpy {np.__version__})\n"


def test_write_golden_takes_no_checkout(tmp_path, capsys):
    tool = _load_tool()
    with pytest.raises(SystemExit) as exc:
        tool.main(["--write-golden", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("error: --write-golden takes no checkout")
