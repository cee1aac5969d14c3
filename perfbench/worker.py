"""Measured child process of ``perfbench/run.py``; not meant to be run by hand.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Times its own set-up (imports plus input construction), then runs workload
iterations until at least ``--seconds`` have passed, checks every op with
its oracle, and prints one JSON object as its last line.  With ``--trace 1``
iterations alternate untraced and traced, so the trace overhead is measured
in the same process.

While an untraced iteration runs, ``calibrate.Sampler`` interrupts it every
``SAMPLE_INTERVAL`` seconds for one pass of the reference kernel, and the
call times leave those passes out.  The ``norm_*`` metrics rescale each
call's time by the kernel's reference time over its median time in the
passes during the call (or the ``NEAREST`` passes nearest to it, for a short
call): they are times at the reference speed of the machine, so a slow
spell of a shared host, which slows the kernel as much, cancels out.
Set-up time is rescaled by kernel passes run right after it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from tracing import KINDS, Tracer, install, layer_metrics, percentile_ms

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench-out"
#: A run takes the median of at least this many iterations (traced runs:
#: one untraced, one traced).  A plane-scan iteration takes 13-15 s.
MIN_ITERATIONS = 2
#: Seconds between kernel passes during an untraced iteration, and the
#: least number of passes that rescale one call.
SAMPLE_INTERVAL = 0.03
NEAREST = 8
#: Kernel parts and passes that rescale the set-up time (imports are mostly
#: Python bytecode).
SETUP_PARTS = ("python",)
SETUP_PASSES = 20
#: Step durations pooled over traced iterations for the p50/p95 metrics.
STEP_SPANS = {f"integrator.{kind}.step": kind for kind in KINDS}


def run_iterations(bench, kernel, trace: bool, seconds: float) -> list[dict]:
    """Closed loop: the next iteration starts when the previous one returned.

    An untraced record also holds each call's interval and the kernel passes
    sampled during the iteration.
    """
    import workloads
    from calibrate import Sampler

    tracer = Tracer()
    records = []
    start = perf_counter()
    while len(records) < MIN_ITERATIONS or perf_counter() - start < seconds:
        traced = trace and len(records) % 2 == 1
        record = {"traced": traced}
        if traced:
            restore = install(tracer)
            try:
                ops = bench.iteration()
            finally:
                restore()
        else:
            sampler = workloads.clock = Sampler(kernel, bench.KERNEL_PARTS, SAMPLE_INTERVAL)
            try:
                with sampler:
                    ops = bench.iteration()
            finally:
                workloads.clock = workloads.CallClock()
            if len(sampler.calls) != len(ops):
                raise RuntimeError(f"{len(ops)} ops but {len(sampler.calls)} timed calls")
            record.update(calls=sampler.calls, samples=sampler.samples)
        record.update(ops=ops, wall=sum(op.seconds for op in ops))
        if not records:
            # Peak memory of the measured calls, read before any oracle has run.
            record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            record["layers"], record["durations"] = layer_metrics(tracer, record["wall"])
            record["spans"] = tracer.spans
            tracer.reset()
        # Oracles run after the timed calls, with the original functions restored.
        record["failures"] = [(op.name, op.failures()) for op in ops]
        records.append(record)
    return records


def merge_layers(records: list[dict]) -> tuple[dict, list[str]]:
    """Median of each per-layer metric over traced iterations.

    Counts (ints) must repeat exactly; the names of any that do not are returned.
    """
    layers = [r["layers"] for r in records]
    merged, varying = {}, []
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if len(set(values)) == 1:
            merged[name] = values[0]
            continue
        merged[name] = median(values)
        if isinstance(values[0], int):
            varying.append(name)
    for span, kind in STEP_SPANS.items():
        pooled = [d for r in records for d in r["durations"].get(span, [])]
        merged[f"integrator.{kind}.step_ms_p50"] = percentile_ms(pooled, 50)
        merged[f"integrator.{kind}.step_ms_p95"] = percentile_ms(pooled, 95)
    return merged, varying


def passes_near(samples: list, start: float, end: float) -> list[dict]:
    """Kernel passes during [start, end], or the NEAREST ones to it if fewer."""
    during = [times for t, times in samples if start <= t <= end]
    if len(during) >= NEAREST:
        return during
    mid = (start + end) / 2.0
    return [times for _, times in sorted(samples, key=lambda s: abs(s[0] - mid))[:NEAREST]]


def typical_ops(records: list[dict], scale=None) -> list:
    """Every call at its median time over the iterations.

    Medians drop the short slow bursts a shared machine adds.  With ``scale``,
    each call's time is first multiplied by ``scale(passes near the call)``.
    """
    def seconds(r, i):
        if scale is None:
            return r["ops"][i].seconds
        return r["ops"][i].seconds * scale(passes_near(r["samples"], *r["calls"][i]))

    return [
        dataclasses.replace(op, seconds=median(seconds(r, i) for r in records))
        for i, op in enumerate(records[0]["ops"])
    ]


def wall_and_rate(ops: list) -> tuple[float, float]:
    item_ops = [op for op in ops if op.items]
    return sum(op.seconds for op in ops), sum(op.items for op in item_ops) / sum(op.seconds for op in item_ops)


def summarize(bench, records: list[dict], reference_s: dict[str, float], workload: str) -> dict:
    known = getattr(bench, "KNOWN_FAILURES", set())
    failed = [(name, msgs) for r in records for name, msgs in r["failures"] if msgs]
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    measured = typical_ops(plain)
    wall_s, items_per_s = wall_and_rate(measured)
    parts = bench.KERNEL_PARTS
    reference = sum(reference_s[p] for p in parts)

    def scale(passes):
        return reference / sum(median(t[p] for t in passes) for p in parts)

    norm_wall_s, norm_items_per_s = wall_and_rate(typical_ops(plain, scale))
    every_pass = [times for r in plain for _, times in r["samples"]]
    kernel_parts = {name: median(t[name] for t in every_pass) for name in parts}
    result = {
        "iterations": len(plain),
        "wall_s": wall_s,
        "items_per_s": items_per_s,
        "norm_wall_s": norm_wall_s,
        "norm_items_per_s": norm_items_per_s,
        "speed": reference / sum(kernel_parts[p] for p in parts),
        "kernel_parts_s": kernel_parts,
        "kernel_used": list(parts),
        "details": bench.details(measured),
        "attempted": sum(len(r["ops"]) for r in records),
        "failed": len(failed),
        "unexpected_failures": [m for name, msgs in failed if name not in known for m in msgs],
        "known_failures": sorted({m for name, msgs in failed if name in known for m in msgs}),
        "known_failure_ops": sorted(known),
        "peak_rss_mb": records[0]["peak_rss_mb"],
    }
    if traced:
        layers, varying = merge_layers(traced)
        layers["trace.overhead_s"] = median(r["wall"] for r in traced) - median(r["wall"] for r in plain)
        result["layers"] = layers
        result["varying_counts"] = varying
        recover = [r["durations"].get("orderlab.recover_C", []) for r in traced]
        result["recover_C_s"] = [median(col) for col in zip(*recover)]
        spans_path = OUT_ROOT / f"{workload}-spans.json"
        spans_path.write_text(json.dumps(traced[-1]["spans"]), encoding="utf-8")
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    out = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import galpha

    if not Path(galpha.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"galpha imported from {galpha.__file__}, outside {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    bench = workloads.WORKLOADS[args.workload](args.seed, out)
    setup_s = perf_counter() - t0
    # Imported only now, so that its numpy import stays inside the set-up time.
    import calibrate

    kernel = calibrate.Kernel()
    passes = [kernel.run(SETUP_PARTS) for _ in range(SETUP_PASSES)]
    setup = {
        "setup_s": setup_s,
        "norm_setup_s": setup_s * sum(calibrate.REFERENCE_S[p] for p in SETUP_PARTS)
        / sum(median(t[p] for t in passes) for p in SETUP_PARTS),
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    out.mkdir(parents=True, exist_ok=True)
    try:
        records = run_iterations(bench, kernel, args.trace == 1, args.seconds)
        result = summarize(bench, records, calibrate.REFERENCE_S, args.workload)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    result.update(setup)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
