"""``tools/bench_pairs.py`` alternates the sides of each pair and reports medians, IQRs and wins."""

import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

# stands in for perfbench/run.py: logs its side and seed, then prints a
# result line with the norm_wall_s of that seed
FAKE_RUN = """\
import json, sys
side, log, values, correct = sys.argv[1:5]
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(log, "a") as fh:
    fh.write(f"{side} {seed}\\n")
print("noise")
value = json.loads(values)[seed - 1]
print(json.dumps({"correct": correct == "1", "metrics": {"norm_wall_s": {"value": value, "unit": "s"}}}))
"""


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(tmp_path, side, values, correct=True):
    """A directory with a BENCHMARK.json whose command is the fake run."""
    root = tmp_path / side
    root.mkdir()
    (root / "fake_run.py").write_text(FAKE_RUN)
    command = [sys.executable, "fake_run.py", side, str(tmp_path / "log.txt"), json.dumps(values),
               "1" if correct else "0"]
    (root / "BENCHMARK.json").write_text(json.dumps({"command": command, "run_seconds": 25}))
    return root


def test_pairs_alternate_which_side_runs_first(tmp_path):
    tool = _load_tool()
    parent = _checkout(tmp_path, "parent", [1.0] * 4)
    change = _checkout(tmp_path, "change", [0.9] * 4)
    records = tool.run_pairs(parent, change, "plane-scan", 4)
    assert [r["seed"] for r in records] == [1, 2, 3, 4]
    assert (tmp_path / "log.txt").read_text().split("\n")[:-1] == [
        "parent 1", "change 1", "change 2", "parent 2", "parent 3", "change 3", "change 4", "parent 4",
    ]


def test_report_gives_medians_iqrs_and_wins(tmp_path, capsys):
    tool = _load_tool()
    parent = _checkout(tmp_path, "parent", [1.0, 1.2, 1.1, 1.3, 0.9])
    change = _checkout(tmp_path, "change", [0.8, 1.0, 1.2, 1.0, 0.8])
    code = tool.main([str(parent), str(change), "--workload", "plane-scan", "--pairs", "5"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1].split() == ["1", "1.0000", "0.8000", "0.800"]
    assert out[-3] == "parent median 1.1000 s, quartiles 1.0000 .. 1.2000 s, IQR 0.2000 s"
    assert out[-2] == "change median 1.0000 s, quartiles 0.8000 .. 1.0000 s, IQR 0.2000 s"
    assert out[-1] == "change/parent medians -9.1%, change wins 4 of 5 pairs"


def test_a_run_that_is_not_correct_fails_the_pairs(tmp_path, capsys):
    tool = _load_tool()
    parent = _checkout(tmp_path, "parent", [1.0, 1.0])
    change = _checkout(tmp_path, "change", [0.5, 0.5], correct=False)
    code = tool.main([str(parent), str(change), "--workload", "march", "--pairs", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[1:] == ["   1  FAILED", "   2  FAILED"]
