"""``tools/bench_record.py`` keeps each run's result line and the medians over seeds."""

import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_run(value, exit_code=0):
    # stands in for perfbench/run.py: a few lines, then the result line
    line = json.dumps({"correct": True, "metrics": {"norm_wall_s": {"value": value, "unit": "s"}}})
    return [sys.executable, "-c", f"import sys; print('noise'); print({line!r}); sys.exit({exit_code})"]


def test_run_workload_keeps_the_result_line(tmp_path):
    tool = _load_tool()
    run = tool.run_workload(tmp_path, _fake_run(2.5), "plane-scan", 7, 25)
    assert run == {
        "seed": 7,
        "exit_code": 0,
        "result": {"correct": True, "metrics": {"norm_wall_s": {"value": 2.5, "unit": "s"}}},
    }


def test_run_workload_records_a_failed_run(tmp_path):
    tool = _load_tool()
    command = [sys.executable, "-c", "import sys; sys.exit('worker failed')"]
    run = tool.run_workload(tmp_path, command, "march", 1, 25)
    assert run == {"seed": 1, "exit_code": 1, "error": "worker failed"}


def test_medians_over_seeds_skip_failed_runs(tmp_path):
    tool = _load_tool()
    runs = [tool.run_workload(tmp_path, _fake_run(v), "march", s, 25) for s, v in enumerate((3.0, 1.0, 2.0))]
    runs.append({"seed": 9, "exit_code": 1, "error": "boom"})
    assert tool.medians(runs) == {"norm_wall_s": 2.0}


def test_run_workload_passes_the_trace_flag(tmp_path):
    tool = _load_tool()
    echo = [sys.executable, "-c", "import json, sys; print(json.dumps({'argv': sys.argv[1:]}))"]
    run = tool.run_workload(tmp_path, echo, "plane-scan", 2, 25, trace=1)
    assert run["result"]["argv"] == ["--workload", "plane-scan", "--seed", "2", "--seconds", "25", "--trace", "1"]
