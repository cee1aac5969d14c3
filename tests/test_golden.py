"""Every ``tools/cli_diff.py`` case prints and writes the bytes pinned in ``tests/golden.json``.

The cases run in process, each in a fresh working directory with ``--out
out``, as the tool runs them.  ``python3 tools/cli_diff.py --write-golden``
regenerates the digests; a change that moves output regenerates them and
names each changed case in CHANGES.md.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from galpha import cli

from conftest import load_script

TOOL = load_script(Path(__file__).resolve().parents[1] / "tools" / "cli_diff.py", "cli_diff")
GOLDEN = json.loads(TOOL.GOLDEN.read_text(encoding="utf-8"))


def test_golden_holds_every_case_once():
    assert list(GOLDEN["cases"]) == [name for name, _ in TOOL.CASES]
    assert [case["argv"] for case in GOLDEN["cases"].values()] == [" ".join(argv) for _, argv in TOOL.CASES]


@pytest.mark.parametrize("name, argv", TOOL.CASES, ids=[name for name, _ in TOOL.CASES])
def test_case_bytes_are_golden(name, argv, tmp_path, monkeypatch):
    if name.startswith(TOOL.LAPACK_CASES) and np.__version__ != GOLDEN["numpy"]:
        pytest.skip(f"LAPACK-dependent bytes are pinned for numpy {GOLDEN['numpy']}, not {np.__version__}")
    monkeypatch.chdir(tmp_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main([*argv, "--out", "out"])
        except SystemExit as exc:  # argparse's own refusal
            code = exc.code
    run = {"stdout": stdout.getvalue().encode(), "stderr": stderr.getvalue().encode(), "exit code": code}
    got, want = TOOL.digests(run, tmp_path / "out"), dict(GOLDEN["cases"][name])
    del want["argv"]
    differ = [key for key in ("stdout", "stderr", "exit code") if got[key] != want[key]]
    differ += [f"file {f}" for f in sorted(got["files"].keys() | want["files"].keys())
               if got["files"].get(f) != want["files"].get(f)]
    assert not differ, f"case {name} differs from tests/golden.json in: {', '.join(differ)}"
