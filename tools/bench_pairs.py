"""Run one benchmark workload in two checkouts as alternating pairs and compare ``norm_wall_s``.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N

For each seed 1..N this runs ``perfbench/run.py --workload W --seed S`` once
in each checkout, with the command and ``run_seconds`` of that checkout's
``BENCHMARK.json``, by ``bench_record.run_workload``.  The parent runs
first for odd seeds and the change for even ones, so that drift of the
machine weighs on both sides alike.  It prints each pair's ``norm_wall_s``
and their ratio, then the median, the quartiles and the interquartile range
of each side, the relative change of the median and the number of pairs the
change wins (lower ``norm_wall_s``).  The exit
code is 1 if any run failed or did not report ``"correct": true``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_record import run_workload  # noqa: E402

METRIC = "norm_wall_s"


def run_pairs(parent: Path, change: Path, workload: str, pairs: int) -> list[dict]:
    """One ``{"seed", "parent", "change"}`` record of runs per seed, sides alternating."""
    def run(root: Path, seed: int) -> dict:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        return run_workload(root, spec["command"], workload, seed, spec["run_seconds"])

    roots = {"parent": parent, "change": change}
    records = []
    for seed in range(1, pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        records.append({"seed": seed, **{side: run(roots[side], seed) for side in order}})
    return records


def passed(run: dict) -> bool:
    return run.get("exit_code") == 0 and run.get("result", {}).get("correct") is True


def value(run: dict) -> float:
    return run["result"]["metrics"][METRIC]["value"]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(records: list[dict]) -> tuple[list[str], bool]:
    """Report lines for the pairs, and whether every run passed."""
    lines = [f"seed  parent {METRIC}  change {METRIC}  change/parent"]
    before, after = [], []
    for r in records:
        if not (passed(r["parent"]) and passed(r["change"])):
            lines.append(f"{r['seed']:>4}  FAILED")
            continue
        before.append(value(r["parent"]))
        after.append(value(r["change"]))
        lines.append(f"{r['seed']:>4}  {before[-1]:>18.4f}  {after[-1]:>18.4f}  {after[-1] / before[-1]:>13.3f}")
    if before:
        for side, values in (("parent", before), ("change", after)):
            q1, q3 = quartiles(values)
            lines.append(f"{side} median {median(values):.4f} s, quartiles {q1:.4f} .. {q3:.4f} s, "
                         f"IQR {q3 - q1:.4f} s")
        wins = sum(a < b for a, b in zip(after, before))
        lines.append(f"change/parent medians {median(after) / median(before) - 1.0:+.1%}, "
                     f"change wins {wins} of {len(before)} pairs")
    return lines, len(before) == len(records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10, help="number of seeds, 1..N")
    args = parser.parse_args(argv)
    records = run_pairs(args.parent.resolve(), args.change.resolve(), args.workload, args.pairs)
    lines, ok = report(records)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
