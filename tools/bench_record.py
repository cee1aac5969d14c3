"""Run every benchmark workload and keep the results as ``BENCH_<tag>.json``.

    python3 tools/bench_record.py TAG [--root CHECKOUT] [--trace 0|1]

For each workload named in the checkout's ``BENCHMARK.json`` and each of the
seeds 1, 2 and 3, this runs ``python3 perfbench/run.py --workload W --seed S
--seconds N --trace K`` in the checkout (default: the repository this script
belongs to), with N the benchmark's ``run_seconds`` and K the ``--trace``
given here (0, the default, for end-to-end metrics; 1 for per-layer ones),
and keeps the last line of its output, the result line.  ``BENCH_<tag>.json``
goes to the root of the repository this script belongs to.  It also records
the git revision of the checkout (``+dirty`` if tracked files have
uncommitted changes), the date, the Python and numpy versions of the
interpreter that ran the benchmark, the CPU count and, per workload, the
median of every metric over the seeds.  The exit code is 1 if any run
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from statistics import median

REPO = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def git_revision(root: Path) -> str:
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    revision = git("rev-parse", "HEAD")
    return revision + "+dirty" if git("status", "--porcelain", "--untracked-files=no") else revision


def interpreter_versions(python: str) -> dict:
    probe = "import json, platform, numpy; print(json.dumps([platform.python_version(), numpy.__version__]))"
    out = subprocess.run([python, "-c", probe], capture_output=True, text=True, check=True).stdout
    py, np = json.loads(out)
    return {"python": py, "numpy": np}


def run_workload(
    root: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int = 0
) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
            "--trace", str(trace)]
    print(" ".join(argv), file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        return {"seed": seed, "exit_code": proc.returncode, "error": tail}
    return {"seed": seed, "exit_code": proc.returncode, "result": result}


def medians(runs: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, metric in run.get("result", {}).get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
    return {name: median(vals) for name, vals in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tag", help="file name part: writes BENCH_<tag>.json")
    parser.add_argument("--root", type=Path, default=REPO, help="checkout to benchmark")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="passed to perfbench/run.py")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    record = {
        "tag": args.tag,
        "revision": git_revision(root),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **interpreter_versions(spec["command"][0]),
        "cpu_count": os.cpu_count(),
        "seconds": seconds,
        "trace": args.trace,
        "workloads": {},
    }
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_workload(root, spec["command"], workload, seed, seconds, args.trace) for seed in SEEDS]
        failed |= any("error" in run or run["exit_code"] for run in runs)
        record["workloads"][workload] = {"runs": runs, "median": medians(runs)}

    out = REPO / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
