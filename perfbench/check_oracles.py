"""Show that every perfbench oracle fires: one perturbed output is one failed op.

    python3 perfbench/check_oracles.py

Runs one iteration of each workload (the plane scan on a 40x40 grid, one
radius cell per order), checks that no op fails apart from the recorded
known failures, then perturbs one output per oracle and checks that exactly
one more op fails.  Exits 1 if an oracle stays silent.  Takes about 10 s.
"""

from __future__ import annotations

import contextlib
import dataclasses
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src/ on the path)


@contextlib.contextmanager
def edited(path: Path, edit):
    original = path.read_text()
    path.write_text(edit(original))
    try:
        yield
    finally:
        path.write_text(original)


def edit_line(index: int, field: int, change):
    """Edit one CSV field of one line (0 = header)."""

    def edit(text):
        lines = text.split("\n")
        cells = lines[index].split(",")
        cells[field] = change(cells[field])
        lines[index] = ",".join(cells)
        return "\n".join(lines)

    return edit


def failing(ops, known, override=None) -> int:
    """Ops that fail outside ``known``; ``override`` maps an op name to a stand-in result."""
    override = override or {}
    return sum(
        1 for op in ops
        if op.name not in known and op.failures(override.get(op.name, op.result))
    )


def main() -> int:
    out = ROOT / ".perfbench-out" / "check-oracles"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cases = []  # (oracle, ops, known, perturbation context or override)

    scan = workloads.PlaneScan(seed=7, out=out / "scan", grid_n=40, radius_cells=16)
    ops = scan.iteration()
    csv = out / "scan" / "stability.csv"
    step = 1.5 / 39
    deep = 1 + round(1.2 / step) * 40 + round(0.8 / step)  # (1.2, 0.8): deep inside the region
    lines = csv.read_text().split("\n")
    cell = next(1 + int(k) for k in scan.cells if lines[1 + int(k)].split(",")[2] != "inf")
    cases += [
        ("plane-scan stable flags", ops, set(), edited(csv, edit_line(deep, 3, lambda s: "0"))),
        ("plane-scan radii", ops, set(),
         edited(csv, edit_line(cell, 2, lambda s: repr(float(s) * (1 + 1e-5) + 1e-5)))),
    ]

    march = workloads.March(seed=7, out=out / "march")
    ops = march.iteration()
    bump = edit_line(-2, 1, lambda s: repr(float(s) + 1e-6))  # last row; the text ends in "\n"
    cases += [
        ("march heat modal", ops, set(), edited(out / "march" / "heat" / "trajectory.csv", bump)),
        ("march dense modal", ops, set(), edited(out / "march" / "dense.csv", bump)),
    ]

    check = workloads.SchemeCheck(seed=7, out=out / "scheme", cells_per_order=1)
    ops = check.iteration()
    known = check.KNOWN_FAILURES
    by_name = {op.name: op for op in ops}
    radius = ops[0]
    code, stdout = by_name["order-check p=3"].result
    manifest = out / "scheme" / "order-3" / "manifest.txt"
    cases += [
        ("scheme-check radius", ops, known,
         {radius.name: dataclasses.replace(radius.result, radius=radius.result.radius * (1 + 1e-5))}),
        ("scheme-check order-check exit code", ops, known, {"order-check p=3": (3, stdout)}),
        ("scheme-check order-check slope", ops, known,
         {"order-check p=3": (code, stdout.replace("slope: 2.9986", "slope: 2.8500"))}),
        ("scheme-check recover_C", ops, known,
         edited(manifest, lambda t: "\n".join(
             f"recovered_c = {float(line.split(' = ')[1]) + 1e-7!r}" if line.startswith("recovered_c") else line
             for line in t.split("\n")))),
        ("scheme-check rho-curve rows", ops, known,
         edited(out / "scheme" / "rho" / "rho_curves.csv", lambda t: t.rsplit("\n", 2)[0] + "\n")),
    ]

    silent = 0
    for oracle, ops, known, perturbation in cases:
        clean = failing(ops, known)
        if isinstance(perturbation, dict):
            perturbed = failing(ops, known, perturbation)
        else:
            with perturbation:
                perturbed = failing(ops, known)
        fires = clean == 0 and perturbed == 1
        silent += not fires
        print(f"{oracle:<38} clean: {clean} failed, perturbed: {perturbed} failed -> "
              f"{'fires' if fires else 'DOES NOT FIRE'}")
    shutil.rmtree(out, ignore_errors=True)
    return 1 if silent else 0


if __name__ == "__main__":
    sys.exit(main())
