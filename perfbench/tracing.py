"""Span recorder that times galpha's layers from outside the package.

Nothing under ``src/`` is edited.  :func:`install` replaces each public entry
point at the name its caller looks it up (``galpha.cli.scan_region``,
``galpha.integrator.step``, the ``numpy.linalg`` functions as seen from
``galpha.stability``, ...) with a wrapper that records a span, and returns a
function that puts the originals back.  Spans stay in memory as
``[name, start, end, parent_index]`` and are written out once, at the end of
a run; self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import dataclasses
import math
import os
from collections import Counter, defaultdict
from time import perf_counter

KINDS = ("heat", "dense", "scalar")
SUBCOMMANDS = ("integrate", "stability-map", "rho-curve", "order-check")


class Tracer:
    """In-memory spans with parents, plus counters recorded at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.last_kind = "scalar"  # problem kind of the latest march, for its CSV write

    def wrap(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call's args."""

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            record = [label, perf_counter(), 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(label, args, out)
            return out

        return traced

    def reset(self):
        self.spans = []
        self.counts.clear()  # cleared in place: install() hooks hold this Counter


class _Proxy:
    """Forward every attribute to ``target`` except the overridden ones."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def problem_kind(problem) -> str:
    """``heat``, ``dense`` or ``scalar`` from a LinearProblem's description."""
    word = problem.description.split(" ", 1)[0]
    return word if word in KINDS else "dense"


def install(tracer: Tracer):
    """Patch the traced entry points; returns a callable that restores them."""
    import numpy as np

    from galpha import amplification, cli, integrator, numkit, orderlab, stability

    wrap = tracer.wrap
    counts = tracer.counts

    def count_linalg(label, args, out):
        matrices = int(np.prod(np.shape(args[0])[:-2], dtype=np.int64))
        counts[label + "_matrices"] += max(matrices, 1)
        arrays = list(args) + [out]
        counts["stability.kernel_bytes_computed"] += sum(np.asarray(a).nbytes for a in arrays)

    def count_map(label, args, smap):
        counts["stability.cells"] += int(smap.radius.size)
        counts["stability.stable_cells"] += int(smap.stable.sum())
        counts["stability.repeated_root_cells"] += int(smap.repeated_root.sum())
        counts["stability.pole_cells"] += int(np.isinf(smap.radius).sum())

    def count_bytes(label, args, out):
        counts[label[: -len("_write")] + "_bytes"] += os.path.getsize(args[1])

    march = integrator.integrate

    def traced_integrate(params, problem, *args, **kwargs):
        kind = tracer.last_kind = problem_kind(problem)
        problem = dataclasses.replace(
            problem,
            apply=wrap(f"integrator.{kind}.apply", problem.apply),
            shifted_solve=wrap(f"integrator.{kind}.solve", problem.shifted_solve),
        )
        return wrap(f"integrator.{kind}.march", march)(
            params, problem, *args, **kwargs
        )

    traj_csv = wrap(
        lambda trajectory, path: f"integrator.{tracer.last_kind}.csv_write",
        integrator.write_trajectory_csv,
        count_bytes,
    )
    linalg = _Proxy(
        np.linalg,
        eigvals=wrap("stability.linalg_eigvals", np.linalg.eigvals, count_linalg),
        solve=wrap("stability.linalg_solve", np.linalg.solve, count_linalg),
    )
    limit = "amplification.limit"
    patches = [
        (cli, "main", wrap(lambda argv: f"cli.{argv[0]}", cli.main)),
        (cli, "scan_region", wrap("stability.scan", cli.scan_region, count_map)),
        (cli, "write_stability_csv", wrap("stability.csv_write", cli.write_stability_csv, count_bytes)),
        (cli, "integrate", traced_integrate),
        (cli, "write_trajectory_csv", traj_csv),
        (cli, "measure_order", wrap("orderlab.measure_order", cli.measure_order)),
        (cli, "recover_C", wrap("orderlab.recover_C", cli.recover_C)),
        (orderlab, "integrate", traced_integrate),
        (integrator, "integrate", traced_integrate),
        (integrator, "write_trajectory_csv", traj_csv),
        (
            integrator,
            "step",
            wrap(lambda params, problem, state: f"integrator.{problem_kind(problem)}.step", integrator.step),
        ),
        (stability, "np", _Proxy(np, linalg=linalg)),
        (stability, "worst_case_radius", wrap("stability.radius", stability.worst_case_radius)),
        (stability, "amplification_matrix", wrap("amplification.matrix", stability.amplification_matrix)),
        (stability, "limit_matrix_zero", wrap(limit, stability.limit_matrix_zero)),
        (stability, "limit_matrix_inf", wrap(limit, stability.limit_matrix_inf)),
        (stability, "numkit", _Proxy(numkit, eigenvalues=wrap("numkit.eig", numkit.eigenvalues))),
        (amplification, "build_lr", wrap("amplification.build", amplification.build_lr)),
        (amplification, "numkit", _Proxy(numkit, solve=wrap("numkit.solve", numkit.solve))),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    for obj, attr, value in patches:
        setattr(obj, attr, value)

    def restore():
        for obj, attr, value in saved:
            setattr(obj, attr, value)

    return restore


def _span_totals(spans):
    """Per span name: calls, total seconds, self seconds, and durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
    durations = defaultdict(list)
    top = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]
        durations[name].append(end - start)
        if parent is None:
            top += end - start
    return calls, total, self_s, durations, top


def layer_metrics(tracer: Tracer, wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced iteration, and its span durations by name.

    ``step_ms_p50``/``step_ms_p95`` are left at 0 here: the caller pools the
    step durations of every traced iteration before taking percentiles.
    """
    calls, total, self_s, durations, top = _span_totals(tracer.spans)
    m = {}
    for op in ("eigvals", "solve"):
        name = f"stability.linalg_{op}"
        m[name + "_calls"] = calls[name]
        m[name + "_matrices"] = tracer.counts[name + "_matrices"]
        m[name + "_s"] = total[name]
    m["stability.kernel_bytes_computed"] = tracer.counts["stability.kernel_bytes_computed"]
    m["stability.scan_s"] = total["stability.scan"]
    m["stability.scan_self_s"] = self_s["stability.scan"]
    m["stability.csv_write_s"] = total["stability.csv_write"]
    m["stability.csv_bytes"] = tracer.counts["stability.csv_bytes"]
    for key in ("cells", "stable_cells", "repeated_root_cells", "pole_cells"):
        m[f"stability.{key}"] = tracer.counts[f"stability.{key}"]
    for name in ("stability.radius", "amplification.build", "amplification.matrix",
                 "amplification.limit", "numkit.solve", "numkit.eig",
                 "orderlab.measure_order", "orderlab.recover_C"):
        m[name + "_calls"] = calls[name]
        m[name + "_s"] = total[name]
    for kind in KINDS:
        base = f"integrator.{kind}"
        m[base + ".steps"] = calls[base + ".step"]
        m[base + ".step_s"] = total[base + ".step"]
        m[base + ".step_ms_p50"] = 0.0
        m[base + ".step_ms_p95"] = 0.0
        for op in ("solve", "apply"):
            m[f"{base}.{op}_calls"] = calls[f"{base}.{op}"]
            m[f"{base}.{op}_s"] = total[f"{base}.{op}"]
        m[base + ".step_self_s"] = self_s[base + ".step"]
        m[base + ".csv_write_s"] = total[base + ".csv_write"]
        m[base + ".csv_bytes"] = tracer.counts[base + ".csv_bytes"]
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}_s"] = total[f"cli.{sub}"]
    m["cli.self_s"] = sum(self_s[f"cli.{sub}"] for sub in SUBCOMMANDS)
    m["trace.span_coverage"] = top / wall if wall > 0 else 0.0
    return m, durations


def percentile_ms(values, q) -> float:
    """Nearest-rank percentile of durations in seconds, reported in ms."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1000.0 * ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]
