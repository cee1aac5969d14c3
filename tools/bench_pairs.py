"""Run the benchmark in two checkouts as alternating pairs, record every run and compare every metric.

    python3 tools/bench_pairs.py PARENT CHANGE TAG [--workload W] [--pairs N] [--trace 0|1]

Both checkouts must be benchmarked alike: if a checkout has no
``BENCHMARK.json``, this prints its path, and if their ``BENCHMARK.json``
differ in ``command``, ``run_seconds`` or the workload names, this prints
the field; either way it exits 2 before any run.  For every workload (or
only W) and each seed 1..N (default 3) it runs ``perfbench/run.py
--workload W --seed S --seconds R --trace K`` once in each checkout, with
the benchmark's command and ``run_seconds`` R and the ``--trace`` K given
here (0, the default, for the end-to-end metrics; 1 for the per-layer
ones).  The parent runs first for odd seeds and the change for even ones,
so that drift of the machine weighs on both sides alike.  A run passes when
it exits 0 and its last line of output, the result line, says ``"correct":
true``.

``BENCH_<TAG>.json`` goes to the root of the repository this script belongs
to.  It holds the git revision of each checkout (``+dirty`` if tracked files
have uncommitted changes, null for a checkout that is not a git work tree,
such as a ``git archive`` copy), the date, the Python and numpy versions of
the interpreter that ran the benchmark, the CPU count, every run (its exit
code and result line, or the last line of its stderr, and the ``wall_s`` and
``speed / reference speed`` that an untraced run prints as measured above
its result line) and, per workload, each side's median of every metric over
its passed runs.

For every metric the runs report this prints each side's median and
interquartile range over its passed runs, the relative change of the medians
and how many pairs the change wins among those where both runs passed (in the
direction the change's ``BENCHMARK.json`` calls better; a tie is no win).  An
end-to-end metric is marked WORSE when the change is worse than the parent by
more than the metric's bound (a share of the parent's median), MISSING when a
side has no median of it, and GAIN when it meets the rule for claiming a
gain: at least ``GAIN_PAIRS`` pairs where both runs passed, the change wins
at least nine tenths of them, and the medians differ in the better direction
by more than the parent's interquartile range.  The record lists the GAIN
metrics of each workload under ``gain``.  A per-layer metric has no bound,
and neither have the as-measured rows ``as_measured.wall_s`` and
``as_measured.speed``, which show how much of a normalized change came from
the speed reading.  Every run
that did not pass is listed as FAILED.  The exit code is 1 if any run failed
or any metric is WORSE or MISSING.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from statistics import median, quantiles

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: Lines that an untraced ``perfbench/run.py`` prints above its result line,
#: as measured before the normalization to the reference speed: by their
#: label there, their key in a run's ``as_measured``, their unit and the
#: better direction of their summary row ``as_measured.<key>``, which has no
#: bound.
AS_MEASURED = {"wall_s": ("wall_s", "s", "lower"), "speed / reference speed": ("speed", "ratio", "higher")}
#: Fewest pairs where both runs passed on which an end-to-end metric can be a GAIN.
GAIN_PAIRS = 10


def git_revision(root: Path) -> str | None:
    """HEAD of the work tree at ``root``, or None when ``root`` is not the top of one (a ``git archive`` copy)."""
    def git(*args):
        # the ceiling keeps git from taking the revision of a work tree that holds ``root``
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        return subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, check=True, env=env
        ).stdout.strip()

    try:
        revision = git("rev-parse", "HEAD")
    except subprocess.CalledProcessError:
        return None
    return revision + "+dirty" if git("status", "--porcelain", "--untracked-files=no") else revision


def interpreter_versions(python: str) -> dict:
    probe = "import json, platform, numpy; print(json.dumps([platform.python_version(), numpy.__version__]))"
    out = subprocess.run([python, "-c", probe], capture_output=True, text=True, check=True).stdout
    py, np = json.loads(out)
    return {"python": py, "numpy": np}


def benchmarked_as(spec: dict) -> dict:
    """The fields of a ``BENCHMARK.json`` that two compared checkouts must share."""
    return {"command": spec["command"], "run_seconds": spec["run_seconds"],
            "workload names": [w["name"] for w in spec["workloads"]]}


def run_workload(root: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
            "--trace", str(trace)]
    print(" ".join(argv), f"(in {root})", file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        run = {"exit_code": proc.returncode, "result": json.loads(lines[-1])}
    except (IndexError, json.JSONDecodeError):
        return {"exit_code": proc.returncode, "error": (proc.stderr.strip().splitlines() or [""])[-1]}
    measured = as_measured(lines[:-1])
    if measured:
        run["as_measured"] = measured
    return run


def as_measured(lines: list[str]) -> dict[str, float]:
    """The ``AS_MEASURED`` values among a run's output lines, by their key."""
    out = {}
    for line in lines:
        label, _, rest = line.strip().partition("  ")
        if label in AS_MEASURED and rest.split():
            out[AS_MEASURED[label][0]] = float(rest.split()[0])
    return out


def passed(run: dict) -> bool:
    return run["exit_code"] == 0 and run.get("result", {}).get("correct") is True


def values(run: dict) -> dict:
    """The metrics of a run's result line, then its as-measured values."""
    measured = {f"as_measured.{key}": value for key, value in run.get("as_measured", {}).items()}
    return {**{name: metric["value"] for name, metric in run["result"]["metrics"].items()}, **measured}


def collect(runs: list[dict]) -> dict[str, list[float]]:
    """Every metric's values over the runs that passed."""
    out: dict[str, list[float]] = {}
    for run in filter(passed, runs):
        for name, value in values(run).items():
            out.setdefault(name, []).append(value)
    return out


def iqr(vals: list[float]) -> float:
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = quantiles(vals, n=4, method="inclusive")
    return q3 - q1


def summary(workload: str, pairs: list[dict], spec: dict, trace: int) -> tuple[list[str], bool, list[str]]:
    """Report lines for one workload's pairs, whether any run failed or metric is WORSE or MISSING,
    and the metrics marked GAIN."""
    lines, failed, gains = [], False, []
    for pair in pairs:
        for side in SIDES:
            run = pair[side]
            if not passed(run):
                why = run["error"] if "error" in run else \
                    f"exit code {run['exit_code']}, correct {run['result'].get('correct')}"
                lines.append(f"{workload} seed {pair['seed']} {side} FAILED: {why}")
                failed = True
    both = [(values(p["parent"]), values(p["change"])) for p in pairs if passed(p["parent"]) and passed(p["change"])]
    lines.append(f"{workload}: parent median (IQR) -> change median (IQR), change, pairs won by the change")
    bounded = {} if trace else {m["name"]: m for m in spec["end_to_end"]}
    known = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    known.update({f"as_measured.{key}": {"unit": unit, "better": better}
                  for key, unit, better in AS_MEASURED.values()})
    sides = {side: collect([p[side] for p in pairs]) for side in SIDES}
    for name in {**bounded, **sides["parent"], **sides["change"]}:
        label = f"  {name:<34}"
        if name not in sides["parent"] or name not in sides["change"]:
            lines.append(f"{label} MISSING")
            failed |= name in bounded
            continue
        before, after = sides["parent"][name], sides["change"][name]
        old, new = median(before), median(after)
        rel = (new - old) / old if old else (0.0 if new == old else math.copysign(math.inf, new - old))
        sign = -1 if known.get(name, {}).get("better") == "higher" else 1
        wins = sum(sign * (p[name] - c[name]) > 0 for p, c in both if name in p and name in c)
        unit = known.get(name, {}).get("unit", "")
        line = (f"{label} {old:.6g} ({iqr(before):.3g}) -> {new:.6g} ({iqr(after):.3g}) {unit}  "
                f"{rel:+.1%}  wins {wins} of {len(both)}")
        if name in bounded:
            bound = bounded[name]["bound"]
            worse = sign * rel > bound
            line += f"  WORSE (bound {bound:.1%})" if worse else ""
            failed |= worse
            if len(both) >= GAIN_PAIRS and 10 * wins >= 9 * len(both) and sign * (old - new) > iqr(before):
                line += "  GAIN"
                gains.append(name)
        lines.append(line)
    return lines, failed, gains


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("tag", help="file name part: writes BENCH_<tag>.json")
    parser.add_argument("--workload", help="only this workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=3, help="number of seeds, 1..N")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="passed to perfbench/run.py")
    args = parser.parse_args(argv)

    roots = {side: getattr(args, side).resolve() for side in SIDES}
    specs = {}
    for side in SIDES:
        path = roots[side] / "BENCHMARK.json"
        if not path.is_file():
            print(f"{path} does not exist", file=sys.stderr)
            return 2
        specs[side] = json.loads(path.read_text(encoding="utf-8"))
    parent_as, change_as = (benchmarked_as(specs[side]) for side in SIDES)
    for field, value in parent_as.items():
        if change_as[field] != value:
            print(f"the checkouts are benchmarked differently: {field} {value} vs {change_as[field]}",
                  file=sys.stderr)
            return 2
    spec = specs["change"]
    workloads = change_as["workload names"]
    if args.workload is not None and args.workload not in workloads:
        parser.error(f"--workload {args.workload} is not one of {', '.join(workloads)}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    command, seconds = spec["command"], spec["run_seconds"]
    record = {
        "tag": args.tag,
        "revision": {side: git_revision(roots[side]) for side in SIDES},
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **interpreter_versions(command[0]),
        "cpu_count": os.cpu_count(),
        "seconds": seconds,
        "trace": args.trace,
        "workloads": {},
    }
    failed = False
    for workload in [args.workload] if args.workload else workloads:
        pairs = []
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            pairs.append({"seed": seed, **{side: run_workload(roots[side], command, workload, seed, seconds,
                                                              args.trace) for side in order}})
        lines, bad, gains = summary(workload, pairs, spec, args.trace)
        record["workloads"][workload] = {
            "pairs": pairs,
            "median": {side: {name: median(vals) for name, vals in collect([p[side] for p in pairs]).items()}
                       for side in SIDES},
            "gain": gains,
        }
        print("\n".join(lines), flush=True)
        failed |= bad

    out = REPO / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
