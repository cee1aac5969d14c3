"""galpha benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload plane-scan|march|scheme-check \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; galpha is imported from ``src/`` there.
The measured work runs in a child process (``worker.py``) with BLAS/OpenMP
pinned to one thread.  Set-up time is the median over several fresh child
processes, since imports happen once per process.  ``setup_s``,
``norm_wall_s`` and ``norm_items_per_s`` are taken at the reference speed of
``calibrate.py`` (see ``worker.py``); the times as measured are printed
above the result line.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it print every metric with its unit, the run environment, the
ROADMAP baseline comparison and any failed oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import monotonic

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
WORKLOADS = ("plane-scan", "march", "scheme-check")
#: BLAS/OpenMP threads of the measured process (at most nproc; 1 is steadiest).
BLAS_THREADS = 1
#: Fresh processes that only set up, on top of the measured one; half run
#: before it and half after, so set-up is sampled at both ends of the run.
SETUP_REPEATS = 6
#: Every run must end within this many seconds.
DEADLINE_S = 175.0

END_TO_END = {
    "setup_s": "s",
    "norm_wall_s": "s",
    "norm_items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

#: North-star figures from ROADMAP.md (one run each, 2-core sandbox), and how
#: to read the same quantity from a result.  Traced figures need --trace 1.
ROADMAP_FIGURES = [
    ("plane-scan", False, "stability-map wall", 15.5, "s", lambda r: r["wall_s"]),
    ("plane-scan", True, "eigvals per T sample, 40k cells", 365.0, "ms",
     lambda r: 1e3 * r["layers"]["stability.linalg_eigvals_s"] / r["layers"]["stability.linalg_eigvals_calls"]),
    ("plane-scan", True, "solve per T sample, 40k cells", 52.0, "ms",
     lambda r: 1e3 * r["layers"]["stability.linalg_solve_s"] / r["layers"]["stability.linalg_solve_calls"]),
    ("march", True, "heat n=1000 step (p50)", 2.8, "ms", lambda r: r["layers"]["integrator.heat.step_ms_p50"]),
    ("march", True, "dense m=100 step (p50)", 15.0, "ms", lambda r: r["layers"]["integrator.dense.step_ms_p50"]),
    ("scheme-check", True, "recover_C at p=3", 88.0, "ms", lambda r: 1e3 * r["recover_C_s"][1]),
    ("scheme-check", True, "recover_C at p=6", 900.0, "ms", lambda r: 1e3 * r["recover_C_s"][4]),
]
#: A figure reproduces when measured / ROADMAP lies in this band.
REPRODUCE_BAND = (0.8, 1.25)


def layer_unit(name: str) -> str:
    if name.endswith("_ms_p50") or name.endswith("_ms_p95"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith("coverage"):
        return "ratio"
    return "count"


def run_child(cmd: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: worker ran past the deadline")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def baseline_lines(workload: str, result: dict, traced: bool) -> list[str]:
    lines = []
    for name, needs_trace, label, figure, unit, read in ROADMAP_FIGURES:
        if name != workload or needs_trace != traced:
            continue
        measured = read(result)
        ratio = measured / figure
        verdict = "reproduces" if REPRODUCE_BAND[0] <= ratio <= REPRODUCE_BAND[1] else "does not reproduce"
        lines.append(f"  {label}: ROADMAP {figure:g} {unit}, measured {measured:.4g} {unit} (x{ratio:.2f}): {verdict}")
    if workload == "plane-scan" and not traced:
        lines.append("  tier-1 wall time (ROADMAP 43 s) is not a workload: its main cost is this plane scan")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = monotonic() + DEADLINE_S
    base = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    setup_only = base + ["--setup-only"]
    setups = [run_child(setup_only, deadline) for _ in range(SETUP_REPEATS // 2)]
    result = run_child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups.append(result)
    setups += [run_child(setup_only, deadline) for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]

    env = result["env"]
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, mpmath {env['mpmath']}, "
        f"nproc {env['nproc']}, usable cpus {env['cpus_usable']}, BLAS/OpenMP threads {env['blas_threads']}"
    )
    print(f"closed loop, one caller: {result['iterations']} untraced iterations, "
          f"{result['attempted']} ops, {result['failed']} failed")

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in result["layers"].items()}
    else:
        values = {
            "setup_s": median(s["norm_setup_s"] for s in setups),
            "norm_wall_s": result["norm_wall_s"],
            "norm_items_per_s": result["norm_items_per_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "pass_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}"
              if isinstance(metric["value"], float) else f"  {name:<40} {metric['value']:>16} {metric['unit']}")
    if not args.trace:
        print("as measured (each call at its median time):")
        print(f"  {'setup_s':<40} {median(s['setup_s'] for s in setups):>16.6g} s")
        print(f"  {'wall_s':<40} {result['wall_s']:>16.6g} s")
        print(f"  {'items_per_s':<40} {result['items_per_s']:>16.6g} 1/s")
        print(f"  {'speed / reference speed':<40} {result['speed']:>16.6g} "
              f"(kernel parts {', '.join(result['kernel_used'])})")
        for name, value in result["kernel_parts_s"].items():
            print(f"  {'kernel part ' + name:<40} {value:>16.6g} s")
        for name, (value, unit) in result["details"].items():
            print(f"  {name:<40} {value:>16.6g} {unit}")
    else:
        print(f"spans of the last traced iteration: {result['spans_file']}")
        coverage = result["layers"]["trace.span_coverage"]
        if coverage < 0.9:
            print(f"warning: spans cover {coverage:.1%} of traced wall time, below 90%")
        if result["varying_counts"]:
            print(f"warning: counts differ between traced iterations: {result['varying_counts']}")
    lines = baseline_lines(args.workload, result, bool(args.trace))
    if lines:
        print("baseline against the ROADMAP north star:")
        print("\n".join(lines))
    if result["known_failure_ops"]:
        print(f"known failures, counted in 'failed' (ops {', '.join(result['known_failure_ops'])}):")
        for msg in result["known_failures"]:
            print(f"  {msg}")
    for msg in result["unexpected_failures"][:20]:
        print(f"FAILED {msg}")

    correct = not result["unexpected_failures"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
