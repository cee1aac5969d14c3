"""Compare two benchmark records metric by metric against the benchmark's bounds.

    python3 tools/bench_compare.py PARENT.json CHANGE.json

PARENT.json and CHANGE.json are ``BENCH_<tag>.json`` records written by
``tools/bench_record.py`` (``--trace 0``).  For each workload and each
end-to-end metric of the repository's ``BENCHMARK.json`` this prints the
parent's median over seeds, the change's median and the relative change,
and marks the metric WORSE when the change is worse than the parent by more
than the metric's bound (a share of the parent's median, in the direction
the metric calls worse).  A metric missing from either record is marked
MISSING.  The exit code is 1 if any metric is WORSE or MISSING.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def compare(parent: dict, change: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines for every (workload, end-to-end metric), and whether any failed."""
    lines, failed = [], False
    for workload in (w["name"] for w in spec["workloads"]):
        before = parent["workloads"].get(workload, {}).get("median", {})
        after = change["workloads"].get(workload, {}).get("median", {})
        for metric in spec["end_to_end"]:
            name, unit, bound = metric["name"], metric["unit"], metric["bound"]
            label = f"{workload:<13} {name:<17}"
            if name not in before or name not in after:
                lines.append(f"{label} MISSING")
                failed = True
                continue
            old, new = before[name], after[name]
            rel = (new - old) / old
            worse = rel > bound if metric["better"] == "lower" else rel < -bound
            mark = f"  WORSE (bound {bound:.1%})" if worse else ""
            lines.append(f"{label} {old:.6g} -> {new:.6g} {unit}  {rel:+.1%}{mark}")
            failed |= worse
    return lines, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="BENCH_*.json of the parent commit")
    parser.add_argument("change", type=Path, help="BENCH_*.json of the change")
    args = parser.parse_args(argv)

    records = [json.loads(path.read_text(encoding="utf-8")) for path in (args.parent, args.change)]
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    lines, failed = compare(*records, spec)
    print(f"{records[0]['tag']} -> {records[1]['tag']} (medians over seeds)")
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
