"""``tools/bench_compare.py`` holds each end-to-end median against its bound."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_compare.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(tag, scale=1.0, **overrides):
    """A hand-built BENCH record: every workload at the same medians, times scaled."""
    median = {"setup_s": 0.16, "norm_wall_s": 1.5 * scale, "norm_items_per_s": 400.0 / scale,
              "peak_rss_mb": 50.0, "pass_ratio": 1.0}
    workloads = {}
    for w in SPEC["workloads"]:
        workloads[w["name"]] = {"runs": [], "median": {**median, **overrides.get(w["name"], {})}}
    return {"tag": tag, "workloads": workloads}


def test_a_faster_change_passes_every_bound():
    tool = _load_tool()
    lines, failed = tool.compare(_record("parent"), _record("change", scale=0.5), SPEC)
    assert not failed
    assert len(lines) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    wall = next(line for line in lines if line.startswith("plane-scan") and "norm_wall_s" in line)
    assert wall.split()[2:] == ["1.5", "->", "0.75", "s", "-50.0%"]


def test_a_metric_past_its_bound_is_worse_in_its_own_direction():
    tool = _load_tool()
    change = _record("change", march={"peak_rss_mb": 55.5, "pass_ratio": 0.99, "setup_s": 0.19})
    lines, failed = tool.compare(_record("parent"), change, SPEC)
    assert failed
    worse = sorted(line.split()[1] for line in lines if "WORSE" in line)
    # peak_rss_mb +11% against 10%, pass_ratio -1% against 0.5%; setup_s +19% is within 25%
    assert worse == ["pass_ratio", "peak_rss_mb"]
    assert all(line.startswith("march") for line in lines if "WORSE" in line)


def test_a_missing_metric_fails():
    tool = _load_tool()
    change = _record("change")
    del change["workloads"]["scheme-check"]["median"]["norm_wall_s"]
    lines, failed = tool.compare(_record("parent"), change, SPEC)
    assert failed
    assert [line.split() for line in lines if "MISSING" in line] == [["scheme-check", "norm_wall_s", "MISSING"]]


def test_main_reads_two_records_and_exits_1_on_a_regression(tmp_path, capsys):
    tool = _load_tool()
    parent, change = tmp_path / "BENCH_a.json", tmp_path / "BENCH_b.json"
    parent.write_text(json.dumps(_record("a")), encoding="utf-8")
    change.write_text(json.dumps(_record("b", scale=1.3)), encoding="utf-8")
    assert tool.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "a -> b (medians over seeds)"
    assert "norm_wall_s       1.5 -> 1.95 s  +30.0%  WORSE (bound 25.0%)" in out
    assert tool.main([str(parent), str(parent)]) == 0
