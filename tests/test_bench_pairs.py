"""``tools/bench_pairs.py`` alternates the sides of each pair, records every run and compares every metric."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_script

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# stands in for perfbench/run.py: logs its checkout and arguments, then plays
# the run that runs.json of its checkout gives for the workload and seed: an
# exit with a message on stderr, or its printed lines and a result line of
# the given metrics
FAKE_RUN = """\
import json, pathlib, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open("../log.txt", "a") as fh:
    fh.write(pathlib.Path.cwd().name + " " + " ".join(sys.argv[1:]) + "\\n")
run = json.loads(pathlib.Path("runs.json").read_text())[args["--workload"]][int(args["--seed"]) - 1]
print("noise")
print("\\n".join(run.get("printed", [])))
if "exit" in run:
    sys.exit(run["exit"])
metrics = {name: {"value": value, "unit": "s"} for name, value in run["metrics"].items()}
print(json.dumps({"correct": run.get("correct", True), "metrics": metrics}))
"""


@pytest.fixture
def tool(tmp_path, monkeypatch):
    module = load_script(ROOT / "tools" / "bench_pairs.py", "bench_pairs")
    monkeypatch.setattr(module, "REPO", tmp_path)  # BENCH_<tag>.json goes here
    return module


def _e2e(scale=1.0, **overrides):
    """One run's end-to-end metrics, times scaled."""
    return {"metrics": {"setup_s": 0.16, "norm_wall_s": 1.5 * scale, "norm_items_per_s": 400.0 / scale,
                        "peak_rss_mb": 50.0, "pass_ratio": 1.0, **overrides}}


def _checkout(tmp_path, side, runs, **spec):
    """A git checkout whose BENCHMARK.json command is the fake run; ``runs[workload][seed - 1]`` is one run.

    A workload not in ``runs`` plays the runs of the first one given."""
    root = tmp_path / side
    root.mkdir()
    (root / "fake_run.py").write_text(FAKE_RUN)
    (root / "runs.json").write_text(json.dumps({w: runs.get(w, next(iter(runs.values()))) for w in WORKLOADS}))
    (root / "BENCHMARK.json").write_text(json.dumps({**SPEC, "command": [sys.executable, "fake_run.py"], **spec}))
    git = ["git", "-C", str(root), "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "."], check=True)
    subprocess.run([*git, "commit", "-q", "-m", side], check=True)
    return root


def _run(tool, capsys, parent, change, *args):
    """Exit code, stdout lines and the record of one call."""
    code = tool.main([str(parent), str(change), "t", *args])
    out = capsys.readouterr().out.splitlines()
    path = tool.REPO / "BENCH_t.json"
    return code, out, json.loads(path.read_text()) if path.exists() else None


def _metric_lines(out):
    """The summary's metric lines, split, keyed by (workload, metric)."""
    lines, workload = {}, None
    for line in out:
        if not line.startswith("  "):
            workload = line.split(":")[0]
        else:
            lines[(workload, line.split()[0])] = line.split()[1:]
    return lines


def test_pairs_alternate_which_side_runs_first_within_every_workload(tmp_path, tool, capsys):
    parent = _checkout(tmp_path, "parent", {"plane-scan": [_e2e()] * 3})
    change = _checkout(tmp_path, "change", {"plane-scan": [_e2e(0.9)] * 3})
    code, _, _ = _run(tool, capsys, parent, change, "--pairs", "3")
    assert code == 0
    log = [line.split()[:5:2] for line in (tmp_path / "log.txt").read_text().splitlines()]
    assert log == [
        [side, workload, seed]
        for workload in WORKLOADS
        for side, seed in [("parent", "1"), ("change", "1"), ("change", "2"), ("parent", "2"),
                           ("parent", "3"), ("change", "3")]
    ]


def test_the_record_keeps_both_revisions_and_every_result_line(tmp_path, tool, capsys):
    parent = _checkout(tmp_path, "parent", {"march": [_e2e(), _e2e(1.2)]})
    change = _checkout(tmp_path, "change", {"march": [_e2e(0.5), _e2e(0.7)]})
    code, _, record = _run(tool, capsys, parent, change, "--workload", "march", "--pairs", "2")
    assert code == 0
    revisions = [subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True,
                                check=True).stdout.strip() for root in (parent, change)]
    assert record["revision"] == dict(zip(("parent", "change"), revisions))
    assert (record["tag"], record["seconds"], record["trace"]) == ("t", SPEC["run_seconds"], 0)
    assert list(record["workloads"]) == ["march"]
    pairs = record["workloads"]["march"]["pairs"]
    assert [list(p) for p in pairs] == [["seed", "parent", "change"], ["seed", "change", "parent"]]
    unit = {name: {"value": value, "unit": "s"} for name, value in _e2e(0.7)["metrics"].items()}
    assert pairs[1]["change"] == {"exit_code": 0, "result": {"correct": True, "metrics": unit}}
    assert record["workloads"]["march"]["median"]["parent"]["norm_wall_s"] == pytest.approx(1.65)
    assert record["workloads"]["march"]["median"]["change"]["norm_wall_s"] == pytest.approx(0.9)


def test_a_failed_run_is_recorded_with_its_stderr_tail(tmp_path, tool, capsys):
    parent = _checkout(tmp_path, "parent", {"plane-scan": [_e2e(), _e2e()]})
    change = _checkout(tmp_path, "change", {"plane-scan": [_e2e(), {"exit": "worker failed"}]})
    code, out, record = _run(tool, capsys, parent, change, "--workload", "plane-scan", "--pairs", "2")
    assert code == 1
    assert record["workloads"]["plane-scan"]["pairs"][1]["change"] == {"exit_code": 1, "error": "worker failed"}
    assert out[0] == "plane-scan seed 2 change FAILED: worker failed"


def test_a_run_that_is_not_correct_fails_and_medians_and_wins_skip_failed_runs(tmp_path, tool, capsys):
    parent = _checkout(tmp_path, "parent", {"march": [_e2e(2.0), _e2e(), _e2e(), _e2e(), {"exit": "boom"}]})
    change = _checkout(tmp_path, "change", {
        "march": [_e2e(), _e2e(0.5), _e2e(), {**_e2e(0.1), "correct": False}, _e2e(0.1)],
    })
    code, out, record = _run(tool, capsys, parent, change, "--workload", "march", "--pairs", "5")
    assert code == 1
    assert out[:2] == ["march seed 4 change FAILED: exit code 0, correct False",
                       "march seed 5 parent FAILED: boom"]
    medians = record["workloads"]["march"]["median"]
    assert medians["parent"]["norm_wall_s"] == pytest.approx(1.5)  # 3.0, 1.5, 1.5, 1.5
    assert medians["change"]["norm_wall_s"] == pytest.approx(1.125)  # 1.5, 0.75, 1.5, 0.15
    # seeds 1 and 2 won, seed 3 a tie
    assert _metric_lines(out)[("march", "norm_wall_s")][-3:] == ["2", "of", "3"]


def test_the_trace_flag_is_passed_on(tmp_path, tool, capsys):
    parent = _checkout(tmp_path, "parent", {"scheme-check": [_e2e()]})
    change = _checkout(tmp_path, "change", {"scheme-check": [_e2e()]})
    _run(tool, capsys, parent, change, "--workload", "scheme-check", "--pairs", "1", "--trace", "1")
    args = ["--workload", "scheme-check", "--seed", "1", "--seconds", f"{SPEC['run_seconds']:g}", "--trace", "1"]
    assert (tmp_path / "log.txt").read_text().splitlines() == [" ".join([side, *args]) for side in ("parent", "change")]


def test_per_layer_metrics_are_summarised_without_bounds(tmp_path, tool, capsys):
    layers = {"stability.scan_s": 0.4, "stability.linalg_eigvals_calls": 1, "integrator.heat.steps": 200}
    slower = {**layers, "stability.scan_s": 0.9, "integrator.heat.steps": 100}
    parent = _checkout(tmp_path, "parent", {"plane-scan": [{"metrics": layers}] * 2})
    change = _checkout(tmp_path, "change", {"plane-scan": [{"metrics": slower}] * 2})
    code, out, _ = _run(tool, capsys, parent, change, "--workload", "plane-scan", "--pairs", "2", "--trace", "1")
    assert code == 0
    assert "WORSE" not in "\n".join(out) and "MISSING" not in "\n".join(out)
    lines = _metric_lines(out)
    assert lines[("plane-scan", "stability.scan_s")] == ["0.4", "(0)", "->", "0.9", "(0)", "s", "+125.0%",
                                                         "wins", "0", "of", "2"]
    assert lines[("plane-scan", "stability.linalg_eigvals_calls")][-5:] == ["+0.0%", "wins", "0", "of", "2"]
    assert lines[("plane-scan", "integrator.heat.steps")][-5:] == ["-50.0%", "wins", "0", "of", "2"]


def test_medians_iqrs_and_wins_with_ties_for_neither_side(tmp_path, tool, capsys):
    before, after = [1.0, 1.2, 1.1, 1.3, 0.9], [0.8, 1.0, 1.2, 1.0, 0.8]
    parent = _checkout(tmp_path, "parent", {"plane-scan": [_e2e(norm_wall_s=v) for v in before]})
    change = _checkout(tmp_path, "change", {"plane-scan": [_e2e(norm_wall_s=v) for v in after]})
    code, out, _ = _run(tool, capsys, parent, change, "--workload", "plane-scan", "--pairs", "5")
    assert code == 0
    lines = _metric_lines(out)
    assert lines[("plane-scan", "norm_wall_s")] == ["1.1", "(0.2)", "->", "1", "(0.2)", "s", "-9.1%",
                                                    "wins", "4", "of", "5"]
    assert lines[("plane-scan", "pass_ratio")][-5:] == ["+0.0%", "wins", "0", "of", "5"]


def test_a_faster_change_passes_every_bound(tmp_path, tool, capsys):
    parent = _checkout(tmp_path, "parent", {"plane-scan": [_e2e()]})
    change = _checkout(tmp_path, "change", {"plane-scan": [_e2e(0.5)]})
    code, out, _ = _run(tool, capsys, parent, change, "--pairs", "1")
    assert code == 0
    lines = _metric_lines(out)
    assert list(lines) == [(w, m["name"]) for w in WORKLOADS for m in SPEC["end_to_end"]]
    assert lines[("plane-scan", "norm_wall_s")] == ["1.5", "(0)", "->", "0.75", "(0)", "s", "-50.0%",
                                                    "wins", "1", "of", "1"]
    assert lines[("march", "norm_items_per_s")][-5:] == ["+100.0%", "wins", "1", "of", "1"]


def _printed(wall_s, speed):
    """The lines of an untraced perfbench/run.py around its as-measured wall_s and speed."""
    return {"printed": [
        f"  {'norm_wall_s':<40} {2.0 * wall_s:>16.6g} s",
        "as measured (each call at its median time):",
        f"  {'setup_s':<40} {0.2:>16.6g} s",
        f"  {'wall_s':<40} {wall_s:>16.6g} s",
        f"  {'items_per_s':<40} {50.0:>16.6g} 1/s",
        f"  {'speed / reference speed':<40} {speed:>16.6g} (kernel parts eig, solve)",
        f"  {'kernel part eig':<40} {0.01:>16.6g} s",
    ]}


def test_as_measured_wall_and_speed_are_kept_and_shown_without_bounds(tmp_path, tool, capsys):
    # a normalized gain that is only a lower speed reading: the as-measured
    # wall time barely moves while the speed falls, and neither row is bounded
    parent = _checkout(tmp_path, "parent", {"plane-scan": [{**_e2e(), **_printed(0.488, 0.94)}] * 2})
    change = _checkout(tmp_path, "change", {"plane-scan": [{**_e2e(0.76), **_printed(0.457, 0.5)}] * 2})
    code, out, record = _run(tool, capsys, parent, change, "--workload", "plane-scan", "--pairs", "2")
    assert code == 0
    pairs = record["workloads"]["plane-scan"]["pairs"]
    assert [p[side]["as_measured"] for p in pairs for side in ("parent", "change")] == [
        {"wall_s": 0.488, "speed": 0.94}, {"wall_s": 0.457, "speed": 0.5}] * 2
    medians = record["workloads"]["plane-scan"]["median"]
    assert (medians["parent"]["as_measured.speed"], medians["change"]["as_measured.speed"]) == (0.94, 0.5)
    lines = _metric_lines(out)
    assert list(lines)[-2:] == [("plane-scan", "as_measured.wall_s"), ("plane-scan", "as_measured.speed")]
    assert lines[("plane-scan", "as_measured.wall_s")][-5:] == ["-6.4%", "wins", "2", "of", "2"]
    assert lines[("plane-scan", "as_measured.speed")] == ["0.94", "(0)", "->", "0.5", "(0)", "ratio", "-46.8%",
                                                          "wins", "0", "of", "2"]
    assert "WORSE" not in "\n".join(out)


def test_a_metric_past_its_bound_is_worse_in_its_own_direction(tmp_path, tool, capsys):
    parent = _checkout(tmp_path, "parent", {"plane-scan": [_e2e()]})
    # peak_rss_mb +11% against 10% (lower is better), pass_ratio -1% against 0.5%
    # (higher is better); setup_s +19% is within 25%, norm_items_per_s +20% is better
    worse = _e2e(peak_rss_mb=55.5, pass_ratio=0.99, setup_s=0.19, norm_items_per_s=480.0)
    change = _checkout(tmp_path, "change", {"plane-scan": [_e2e()], "march": [worse]})
    code, out, _ = _run(tool, capsys, parent, change, "--pairs", "1")
    assert code == 1
    marked = [key for key, line in _metric_lines(out).items() if "WORSE" in line]
    assert marked == [("march", "peak_rss_mb"), ("march", "pass_ratio")]
    assert _metric_lines(out)[("march", "pass_ratio")][-3:] == ["WORSE", "(bound", "0.5%)"]


def test_a_missing_metric_fails(tmp_path, tool, capsys):
    parent = _checkout(tmp_path, "parent", {"scheme-check": [_e2e()]})
    partial = _e2e()
    del partial["metrics"]["norm_wall_s"]
    change = _checkout(tmp_path, "change", {"scheme-check": [partial]})
    code, out, _ = _run(tool, capsys, parent, change, "--workload", "scheme-check", "--pairs", "1")
    assert code == 1
    assert [key for key, line in _metric_lines(out).items() if line == ["MISSING"]] == [
        ("scheme-check", "norm_wall_s")]


def test_a_regression_exits_1(tmp_path, tool, capsys):
    parent = _checkout(tmp_path, "parent", {"march": [_e2e()]})
    change = _checkout(tmp_path, "change", {"march": [_e2e(1.3)]})
    code, out, _ = _run(tool, capsys, parent, change, "--workload", "march", "--pairs", "1")
    assert code == 1
    assert f"  {'norm_wall_s':<34} 1.5 (0) -> 1.95 (0) s  +30.0%  wins 0 of 1  WORSE (bound 25.0%)" in out
    assert _run(tool, capsys, parent, parent, "--workload", "march", "--pairs", "1")[0] == 0


@pytest.mark.parametrize("field, change_spec", [
    ("run_seconds", {"run_seconds": 10}),
    ("command", {"command": [sys.executable, "-X", "dev", "fake_run.py"]}),
    ("workload names", {"workloads": SPEC["workloads"][:2]}),
])
def test_checkouts_benchmarked_differently_exit_2_before_any_run(tmp_path, tool, capsys, field, change_spec):
    parent = _checkout(tmp_path, "parent", {"march": [_e2e()]})
    change = _checkout(tmp_path, "change", {"march": [_e2e()]}, **change_spec)
    assert tool.main([str(parent), str(change), "t"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"the checkouts are benchmarked differently: {field} ")
    assert not (tmp_path / "log.txt").exists() and not (tmp_path / "BENCH_t.json").exists()


@pytest.mark.parametrize("inside", [False, True], ids=["beside", "inside-a-work-tree"])
def test_a_checkout_that_is_not_a_git_work_tree_has_a_null_revision(tmp_path, tool, capsys, inside):
    change = _checkout(tmp_path, "change", {"march": [_e2e()]})
    archive = (change if inside else tmp_path) / "archive"  # as ``git archive`` leaves it
    shutil.copytree(change, archive, ignore=shutil.ignore_patterns(".git", "archive"))
    code, _, record = _run(tool, capsys, archive, change, "--workload", "march", "--pairs", "1")
    assert code == 0
    assert record["revision"] == {"parent": None, "change": tool.git_revision(change)}
    assert len(record["revision"]["change"]) == 40


def test_a_checkout_without_benchmark_json_exits_2_before_any_run(tmp_path, tool, capsys):
    parent = _checkout(tmp_path, "parent", {"march": [_e2e()]})
    (tmp_path / "empty").mkdir()
    assert tool.main([str(parent), str(tmp_path / "empty"), "t"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"{tmp_path / 'empty' / 'BENCHMARK.json'} does not exist"]
    assert not (tmp_path / "log.txt").exists() and not (tmp_path / "BENCH_t.json").exists()


def _gains(tool, before, after):
    """The plane-scan metrics that ``summary`` marks GAIN, for pairs whose norm_wall_s read
    ``before`` and ``after`` (norm_items_per_s is its inverse; the other metrics tie)."""
    def run(v):
        metrics = _e2e(norm_wall_s=v, norm_items_per_s=600.0 / v)["metrics"]
        return {"exit_code": 0, "result": {"correct": True, "metrics": {k: {"value": x} for k, x in metrics.items()}}}

    pairs = [{"seed": seed, "parent": run(b), "change": run(a)} for seed, (b, a) in enumerate(zip(before, after), 1)]
    lines, failed, gains = tool.summary("plane-scan", pairs, SPEC, 0)
    assert not failed
    assert [metric for (_, metric), line in _metric_lines(lines).items() if line[-1] == "GAIN"] == gains
    return gains


@pytest.mark.parametrize("n, gain", [(9, False), (10, True)])
def test_a_gain_needs_ten_pairs(tool, n, gain):
    before = [1.0 + 0.01 * i for i in range(n)]
    assert _gains(tool, before, [v - 0.2 for v in before]) == (["norm_wall_s", "norm_items_per_s"] if gain else [])


@pytest.mark.parametrize("lost, gain", [(1, True), (2, False)])
def test_a_gain_needs_nine_tenths_of_the_pairs_won(tool, lost, gain):
    before = [1.0 + 0.01 * i for i in range(10)]
    after = [v + 0.01 if i < lost else v - 0.2 for i, v in enumerate(before)]
    assert _gains(tool, before, after) == (["norm_wall_s", "norm_items_per_s"] if gain else [])


@pytest.mark.parametrize("spread, gain", [(1.0, False), (0.02, True)])
def test_a_gain_needs_the_medians_apart_by_more_than_the_parents_iqr(tool, spread, gain):
    # every pair is won, by 0.1 s; the parent's IQR is the spread of its two values
    before = [1.0, 1.0 + spread] * 5
    assert ("norm_wall_s" in _gains(tool, before, [v - 0.1 for v in before])) == gain


def test_the_record_lists_the_gains_of_each_workload(tmp_path, tool, capsys):
    before = [1.0 + 0.01 * i for i in range(10)]
    parent = _checkout(tmp_path, "parent", {"plane-scan": [_e2e(norm_wall_s=v) for v in before]})
    change = _checkout(tmp_path, "change", {"plane-scan": [_e2e(norm_wall_s=v - 0.2) for v in before]})
    code, out, record = _run(tool, capsys, parent, change, "--workload", "plane-scan", "--pairs", "10")
    assert code == 0
    assert _metric_lines(out)[("plane-scan", "norm_wall_s")][-5:] == ["wins", "10", "of", "10", "GAIN"]
    assert record["workloads"]["plane-scan"]["gain"] == ["norm_wall_s"]
