"""Run a fixed list of ``galpha`` invocations in two checkouts and diff what they print and write.

    python3 tools/cli_diff.py PARENT_ROOT [CHANGE_ROOT]

Each invocation of ``CASES`` runs as ``python3 -m galpha ...`` once per
checkout, with ``PYTHONPATH=<root>/src``, in a fresh working directory and
with ``--out out``, so that both runs see the same relative paths.
CHANGE_ROOT defaults to the repository this script belongs to.  A run that
takes longer than ``TIMEOUT_S`` is killed and reads as the exit code
``timed out``, so an endless run shows as a difference rather than hanging
the tool.  For each case this compares stdout, stderr, the exit code and
every file under the output directory byte for byte.  For a CSV file that differs in its numbers
only, it prints how many rows changed, in which columns, the largest
relative and absolute change, the largest finite |value| of the parent's
changed columns (the scale of that absolute change), and how many cells
moved between inf and a finite value, or to or from nan, when any did.  For
a ``manifest.txt`` of ``key = value`` lines it prints each key that changed,
with its old and new value.  The exit code is 1 on any difference, and 2,
before any run, when a root has no ``src/galpha/__init__.py``.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Seconds one run may take; the slowest case, a default stability map, takes a few.
TIMEOUT_S = 120.0

CASES = [
    ("integrate-defaults", ["integrate"]),
    ("integrate-heat-200", ["integrate", "--heat-n", "200", "--tau", "0.01"]),
    ("integrate-heat-1000", ["integrate", "--heat-n", "1000", "--rho-inf", "0.5", "--tau", "0.005"]),
    ("integrate-imaginary-lambda", ["integrate", "--lambda", "0,2.75", "--tau", "1", "--t-end", "200"]),
    ("integrate-overflow-mid-march", ["integrate", "--lambda", "1e150", "--tau", "0.1"]),
    ("integrate-overflow-initial", ["integrate", "--lambda", "1e200", "--tau", "0.1"]),
    ("stability-map-equal-gamma", ["stability-map", "--variant", "equal-gamma"]),
    ("stability-map-remark-one", ["stability-map", "--variant", "remark-one"]),
    ("rho-curve", ["rho-curve", "--n-rho", "11"]),
    *((f"order-check-p{p}", ["order-check", "--p", str(p), "--recover-c"]) for p in range(2, 7)),
    ("integrate-remark-one", ["integrate", "--variant", "remark-one", "--alpha-m", "0.5", "--alpha-f", "0.3"]),
    ("integrate-remark-one-alpha-f-zero",
     ["integrate", "--variant", "remark-one", "--alpha-m", "0.5", "--alpha-f", "0"]),
    # configuration errors: exit 2 and one JSON line on stderr
    ("integrate-alpha-m-alone", ["integrate", "--alpha-m", "0.9"]),
    ("order-check-rho-inf-at-p2", ["order-check", "--p", "2", "--rho-inf", "0.5"]),
    ("integrate-p12", ["integrate", "--p", "12"]),
    ("integrate-rho-inf-1-alt2", ["integrate", "--rho-inf", "1", "--branch", "alt2"]),
    ("integrate-p4-remark-one", ["integrate", "--p", "4", "--variant", "remark-one"]),
    ("stability-map-grid-n-1", ["stability-map", "--grid-n", "1"]),
    ("stability-map-alpha-range-reversed",
     ["stability-map", "--grid-n", "2", "--alpha-min", "1", "--alpha-max", "0"]),
    ("rho-curve-n-rho-1", ["rho-curve", "--n-rho", "1"]),
    ("stability-map-t-max-1e308",
     ["stability-map", "--grid-n", "2", "--t-samples", "2", "--t-max", "1e308"]),
    # alpha_f = 0 cells with alpha_m <= 0.083, whose monic cubic leaves the double range
    ("stability-map-t-max-1e307",
     ["stability-map", "--grid-n", "3", "--alpha-min", "0", "--alpha-max", "0.08", "--t-max", "1e307"]),
    # numerical failure: exit 3, the T -> inf limit refused by LAPACK
    ("stability-map-subnormal-axis",
     ["stability-map", "--grid-n", "4", "--alpha-min", "1e-320", "--alpha-max", "1e-300"]),
    # the remark-one closure's pole 2 + 3 alpha_f = 0 on the alpha_f axis: that column reads inf
    ("stability-map-remark-one-pole",
     ["stability-map", "--variant", "remark-one", "--grid-n", "4", "--alpha-min=-2", "--alpha-max", "0"]),
    # a stage shift c1 + sigma*lambda that overflows: exit 3, refused as not finite
    ("order-check-shift-overflow", ["order-check", "--p", "7", "--alpha-m=-1e300", "--alpha-f", "1e300"]),
    # remark-one weights that overflow: exit 2, refused as not finite
    ("integrate-remark-one-alpha-f-1e200",
     ["integrate", "--variant", "remark-one", "--alpha-m", "1", "--alpha-f", "1e200"]),
    # huge parameters whose scan arithmetic overflows: exit 0, no numpy warning
    ("stability-map-alpha-1e150-1e160",
     ["stability-map", "--grid-n", "2", "--alpha-min", "1e150", "--alpha-max", "1e160"]),
    # an alpha range wider than a double holds: exit 2, refused before the axis is built
    ("stability-map-alpha-span-overflow",
     ["stability-map", "--grid-n", "4", "--alpha-min=-1e308", "--alpha-max", "1e308"]),
    # an overflowing cubic on a later band of the map: exit 2, ahead of band 1's refused G(inf)
    ("stability-map-overflow-after-degenerate-band",
     ["stability-map", "--alpha-min", "1e-320", "--alpha-max", "1e300"]),
    # an exact solution exp(-lambda t_end) that overflows: exit 2, refused before the march
    ("integrate-exact-overflow", ["integrate", "--lambda=-710", "--t-end", "1", "--tau", "1"]),
    ("order-check-exact-overflow", ["order-check", "--lambda=-400"]),
    # 1e300 steps, more than a trajectory list can hold: exit 2, refused before the march
    ("integrate-tau-1e-300", ["integrate", "--tau", "1e-300", "--t-end", "1"]),
]


def run_case(root: Path, argv: list[str], workdir: Path) -> dict:
    """Run ``galpha ARGV --out out`` from ``root``'s sources inside ``workdir``.

    A run killed after ``TIMEOUT_S`` seconds has the exit code ``"timed out"``.
    """
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "galpha", *argv, "--out", "out"],
            cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        return {"stdout": exc.stdout or b"", "stderr": exc.stderr or b"", "exit code": "timed out"}
    return {"stdout": proc.stdout, "stderr": proc.stderr, "exit code": proc.returncode}


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


#: Moves of a cell between kinds of value that ``csv_changes`` counts.
MOVES = ("inf -> finite", "finite -> inf", "nan -> inf", "nan -> finite", "finite -> nan", "inf -> nan")


def _kind(x: float) -> str:
    return "nan" if math.isnan(x) else "inf" if math.isinf(x) else "finite"


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b))


def csv_changes(old: bytes, new: bytes) -> str | None:
    """A summary of how two CSV files with the same shape differ in their numbers.

    Returns None when they differ in their header, their row count or any
    non-numeric cell; the caller then reports a plain byte difference.
    """
    try:
        rows_a = list(csv.reader(io.StringIO(old.decode("utf-8"))))
        rows_b = list(csv.reader(io.StringIO(new.decode("utf-8"))))
    except UnicodeDecodeError:
        return None
    if not rows_a or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return None
    header = rows_a[0]
    rows, columns, largest = 0, set(), dict.fromkeys(header, 0.0)
    rel, rel_col, diff, diff_col = 0.0, "", 0.0, ""
    moved = dict.fromkeys(MOVES, 0)
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        if len(row_a) != len(header) or len(row_b) != len(header):
            return None
        changed = False
        for name, cell_a, cell_b in zip(header, row_a, row_b):
            a, b = _number(cell_a), _number(cell_b)
            if a is None or b is None:
                if cell_a != cell_b:
                    return None
                continue
            if math.isfinite(a):
                largest[name] = max(largest[name], abs(a))
            if cell_a == cell_b:
                continue
            changed = True
            columns.add(name)
            r = _relative(a, b)
            if r > rel:
                rel, rel_col = r, name
            d = abs(b - a) if math.isfinite(a) and math.isfinite(b) else math.inf
            if d > diff:
                diff, diff_col = d, name
            move = f"{_kind(a)} -> {_kind(b)}"
            if move in moved:
                moved[move] += 1
        rows += changed
    names = [name for name in header if name in columns]
    shown = ", ".join(names[:4]) + (f" and {len(names) - 4} more" if len(names) > 4 else "")
    return (
        f"{rows} of {len(rows_a) - 1} rows differ in {len(names)} columns ({shown}); "
        f"largest relative change {rel:.2g} ({rel_col}), largest absolute change "
        f"{diff:.2g} ({diff_col}), largest |value| in those columns "
        f"{max((largest[name] for name in names), default=0.0):.3g}"
        + "".join(f"; {n} cell{'s' * (n != 1)} {move}" for move, n in moved.items() if n)
    )


def _manifest_entries(text: bytes) -> dict[str, str] | None:
    try:
        lines = text.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return None
    pairs = [line.split(" = ", 1) for line in lines]
    return dict(pairs) if all(len(pair) == 2 for pair in pairs) else None


def manifest_changes(old: bytes, new: bytes) -> str | None:
    """``key old -> new`` for each changed key of two ``key = value`` manifests.

    A key on one side only shows ``(absent)`` on the other.  Returns None when
    either file has a line that is not ``key = value``, or when the entries
    are equal (the files then differ in their layout only).
    """
    a, b = _manifest_entries(old), _manifest_entries(new)
    if a is None or b is None:
        return None
    changed = [
        f"{key} {a.get(key, '(absent)')} -> {b.get(key, '(absent)')}"
        for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)
    ]
    return "; ".join(changed) or None


def compare_trees(old: Path, new: Path) -> list[str]:
    """One line for each file that is missing on one side or differs in its bytes."""
    files_a = {p.relative_to(old) for p in old.rglob("*") if p.is_file()} if old.is_dir() else set()
    files_b = {p.relative_to(new) for p in new.rglob("*") if p.is_file()} if new.is_dir() else set()
    lines = []
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            lines.append(f"{rel}: only in the parent")
        elif rel not in files_a:
            lines.append(f"{rel}: only in the change")
        else:
            a, b = (old / rel).read_bytes(), (new / rel).read_bytes()
            if a != b:
                summary = (
                    csv_changes(a, b) if rel.suffix == ".csv"
                    else manifest_changes(a, b) if rel.name == "manifest.txt" else None
                )
                lines.append(f"{rel}: {summary or f'bytes differ ({len(a)} -> {len(b)} bytes)'}")
    return lines


def compare_runs(old: dict, new: dict) -> list[str]:
    """One line for each of stdout, stderr and the exit code that differs."""
    lines = []
    for key in ("stdout", "stderr", "exit code"):
        if old[key] != new[key]:
            if key == "exit code":
                lines.append(f"exit code {old[key]} -> {new[key]}")
            else:
                tail = new[key].decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
                lines.append(f"{key} differs (change ends: {tail[0]!r})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, nargs="?", default=REPO, help="checkout of the change")
    args = parser.parse_args(argv)
    for root in (args.parent, args.change):
        package = root / "src" / "galpha" / "__init__.py"
        if not package.is_file():
            print(f"{package} does not exist", file=sys.stderr)
            return 2

    differs = False
    with tempfile.TemporaryDirectory(prefix="cli_diff-") as tmp:
        for name, case in CASES:
            results = [run_case(root, case, Path(tmp) / side / name)
                       for side, root in (("parent", args.parent), ("change", args.change))]
            lines = compare_runs(*results) + compare_trees(
                *(Path(tmp) / side / name / "out" for side in ("parent", "change"))
            )
            differs |= bool(lines)
            print(f"{name}: {'DIFFERS' if lines else 'identical'}  (galpha {' '.join(case)})")
            for line in lines:
                print(f"  {line}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
