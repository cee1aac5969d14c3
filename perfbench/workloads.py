"""The three perfbench workloads: seeded inputs, timed calls and output oracles.

Each workload issues its calls one after the other from a single process (a
closed loop with one caller).  ``iteration()`` returns one :class:`Op` per
call; every op is timed on its own, and its oracle runs afterwards, outside
the timed region.  Each oracle reaches its expected value by a path other
than the one it checks.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from galpha import amplification, cli, integrator, schemes, stability
from galpha.errors import DegenerateParams, PoleAtRho, SingularAtT

#: Radius oracle tolerance, relative; admits ~1e-7 changes from a new spectrum path.
RADIUS_RTOL = 1e-6
#: Modal oracle tolerance on a march, relative to the largest initial value.
#: Round-off alone reaches ~2e-10 on the heat rod, whose |A| is ~4e6.
MODAL_RTOL = 1e-8
#: ``order-check`` slopes must lie within this distance of the design order p.
SLOPE_TOL = 0.1
#: ``recover_C`` must land within this distance of the tabulated C(p).
C_TOL = 1e-8


@dataclass
class Op:
    """One timed call and what its oracle needs.

    ``result`` is the call's return value, or the exception it raised.
    ``items`` is the work the op adds to the workload's ``items_per_s``.
    """

    name: str
    seconds: float
    result: Any
    verify: Callable[[Any], list[str]]
    items: int = 0

    def failures(self, result=None) -> list[str]:
        result = self.result if result is None else result
        if isinstance(result, Exception):
            return [f"{self.name}: raised {type(result).__name__}: {result}"]
        try:
            problems = self.verify(result)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        return [f"{self.name}: {msg}" for msg in problems]


class CallClock:
    """Clock of the timed calls.

    ``worker.py`` puts a speed sampler in its place, whose clock leaves out
    the sampler's own time and which keeps each call's interval.
    """

    def now(self) -> float:
        return perf_counter()

    def record(self, start: float, end: float) -> None:
        pass


clock = CallClock()


def timed(fn, *args) -> tuple[float, Any]:
    start = clock.now()
    try:
        result = fn(*args)
    except Exception as exc:  # a failed call is a failed op, reported by its oracle
        result = exc
    end = clock.now()
    clock.record(start, end)
    return end - start, result


def run_cli(argv) -> tuple[int, str]:
    """``galpha <argv>`` in-process; returns the exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def reference_radius(params, samples) -> float:
    """Worst radius from per-sample ``numpy.linalg.eigvals`` of G(T).

    For p = 3 the closed-form limit matrices join the samples, as they do in
    the scan.  A singular one-step matrix or an undefined limit gives inf.
    """
    try:
        mats = [amplification.amplification_matrix(params, t) for t in samples]
        if params.p == 3:
            mats.append(amplification.limit_matrix_zero(params))
            if params.variant is schemes.Variant.EQUAL_GAMMA:
                mats.append(amplification.limit_matrix_inf(params))
    except (SingularAtT, DegenerateParams):
        return math.inf
    return max(float(np.abs(np.linalg.eigvals(m)).max()) for m in mats)


def radius_mismatch(got: float, ref: float) -> str | None:
    if math.isinf(got) and math.isinf(ref):
        return None
    if math.isinf(got) or math.isinf(ref) or abs(got - ref) > RADIUS_RTOL * max(1.0, abs(ref)):
        return f"radius {got!r} vs reference {ref!r}"
    return None


def dilate(mask: np.ndarray) -> np.ndarray:
    """Cells equal to, or one grid step (8-neighbourhood) from, a True cell."""
    n, m = mask.shape
    padded = np.pad(mask, 1)
    out = np.zeros_like(mask)
    for dx in range(3):
        for dy in range(3):
            out |= padded[dx:dx + n, dy:dy + m]
    return out


def modal_values(params, lam, tau, coeffs, times) -> np.ndarray:
    """Modal oracle: each mode of u' + A u = 0 advances by G(lambda_k tau)^n.

    ``lam`` holds eigenvalues of A and ``coeffs`` the initial modal weights.
    Row r of the result holds every mode's value after n_r = round(t_r / tau)
    steps, so the oracle follows each recorded t rather than a step count.
    """
    T = np.asarray(lam, dtype=float) * tau
    G = np.array([amplification.amplification_matrix(params, t) for t in T])
    stack = (-T[:, None]) ** np.arange(params.p) * np.asarray(coeffs)[:, None]
    out, done = [], 0
    for n in np.rint(np.asarray(times) / tau).astype(int):
        for _ in range(n - done):
            stack = np.einsum("kij,kj->ki", G, stack)
        done = n
        out.append(stack[:, 0])
    return np.array(out)


def read_trajectory(path) -> tuple[np.ndarray, np.ndarray]:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 0], rows[:, 1::2] + 1j * rows[:, 2::2]


def trajectory_mismatch(path, tau, reference: Callable[[np.ndarray], np.ndarray]) -> list[str]:
    t, u = read_trajectory(path)
    n = np.rint(t / tau)
    if np.any(np.abs(t - n * tau) > 1e-9 * tau):
        return ["recorded t is not a whole number of steps"]
    ref = reference(t)
    err = float(np.abs(u - ref).max()) / float(np.abs(ref[0]).max())
    if not err <= MODAL_RTOL:
        return [f"modal oracle: relative error {err:.3e} > {MODAL_RTOL:g}"]
    return []


class PlaneScan:
    """``galpha stability-map`` with its defaults (200x200 cells, 48 real T)."""

    #: Parts of the reference kernel that match this workload's work.
    KERNEL_PARTS = ("stacked_eig",)

    def __init__(self, seed: int, out: Path, grid_n: int = 200, radius_cells: int = 128):
        self.out = out
        self.grid_n = grid_n
        self.argv = ["stability-map", "--out", str(out)]
        if grid_n != 200:
            self.argv += ["--grid-n", str(grid_n)]
        rng = np.random.default_rng(seed)
        self.cells = rng.choice(grid_n * grid_n, size=min(radius_cells, grid_n**2), replace=False)
        self._reference: dict[int, float] = {}

    def iteration(self) -> list[Op]:
        seconds, result = timed(run_cli, self.argv)
        return [Op("stability-map", seconds, result, self.verify, items=self.grid_n**2)]

    def verify(self, result) -> list[str]:
        code, _ = result
        if code != 0:
            return [f"exit code {code}"]
        n = self.grid_n
        rows = np.loadtxt(self.out / "stability.csv", delimiter=",", skiprows=1, ndmin=2)
        if rows.shape != (n * n, 4):
            return [f"stability.csv has shape {rows.shape}, expected {(n * n, 4)}"]
        problems = []
        am, af, radius, stable = rows.T
        closed = np.array([schemes.in_stability_region(a, f) for a, f in zip(am, af)]).reshape(n, n)
        flags = (stable == 1.0).reshape(n, n)
        stray = int(((flags != closed) & ~(dilate(closed) & dilate(~closed))).sum())
        if stray:
            problems.append(f"{stray} stable flags differ from in_stability_region off the boundary")
        samples = stability.default_t_samples()
        for k in self.cells:
            if k not in self._reference:
                params = schemes.make_scheme(3, am[k], af[k])
                self._reference[k] = reference_radius(params, samples)
            bad = radius_mismatch(float(radius[k]), self._reference[k])
            if bad:
                problems.append(f"cell ({am[k]!r}, {af[k]!r}): {bad}")
        for name in ("stability.plot", "manifest.txt"):
            if not (self.out / name).is_file():
                problems.append(f"{name} missing")
        return problems

    @staticmethod
    def details(ops: list[Op]) -> dict[str, tuple[float, str]]:
        (op,) = ops
        return {"map_cells_per_s": (op.items / op.seconds, "1/s")}


class March:
    """A CLI heat-rod march and a library march of a seeded dense SPD problem."""

    #: Parts of the reference kernel that match this workload's work.
    KERNEL_PARTS = ("dense_solve", "format", "python")

    HEAT_N, HEAT_TAU, T_END = 1000, 0.005, 1.0
    DENSE_M, DENSE_TAU = 100, 0.01

    def __init__(self, seed: int, out: Path):
        self.out = out
        self.heat_argv = [
            "integrate", "--heat-n", str(self.HEAT_N), "--rho-inf", "0.5",
            "--tau", repr(self.HEAT_TAU), "--t-end", repr(self.T_END), "--out", str(out / "heat"),
        ]
        self.params = schemes.make_scheme(3, *schemes.params_from_rho(0.5))
        rng = np.random.default_rng(seed)
        m = self.DENSE_M
        self.q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        # SPD spectrum spanning exactly four decades, 1 .. 1e4.
        self.lam = np.sort(10.0 ** rng.uniform(0.0, 4.0, m))
        self.lam[0], self.lam[-1] = 1.0, 1e4
        a = (self.q * self.lam) @ self.q.T
        self.problem = integrator.dense_problem((a + a.T) / 2.0)
        self.u0 = rng.standard_normal(m)
        self._refs: dict[tuple[str, bytes], np.ndarray] = {}

    def _dense(self) -> Path:
        trajectory = integrator.integrate(self.params, self.problem, self.u0, self.DENSE_TAU, self.T_END)
        path = self.out / "dense.csv"
        integrator.write_trajectory_csv(trajectory, path)
        return path

    def iteration(self) -> list[Op]:
        heat_s, heat = timed(run_cli, self.heat_argv)
        dense_s, dense = timed(self._dense)
        return [
            Op("heat", heat_s, heat, self.verify_heat, items=round(self.T_END / self.HEAT_TAU)),
            Op("dense", dense_s, dense, self.verify_dense, items=round(self.T_END / self.DENSE_TAU)),
        ]

    def heat_reference(self, times) -> np.ndarray:
        key = ("heat", times.tobytes())
        if key not in self._refs:
            n = self.HEAT_N
            h = 1.0 / (n + 1)
            k = np.arange(1, n + 1)
            modes = np.sin(np.pi * np.outer(k, k) * h)  # row k: sin(k pi x_j), symmetric
            lam = 4.0 / h**2 * np.sin(k * np.pi * h / 2.0) ** 2
            coeffs = modes @ np.sin(np.pi * k * h) * (2.0 / (n + 1))
            self._refs[key] = modal_values(self.params, lam, self.HEAT_TAU, coeffs, times) @ modes
        return self._refs[key]

    def dense_reference(self, times) -> np.ndarray:
        key = ("dense", times.tobytes())
        if key not in self._refs:
            coeffs = self.q.T @ self.u0
            self._refs[key] = modal_values(self.params, self.lam, self.DENSE_TAU, coeffs, times) @ self.q.T
        return self._refs[key]

    def verify_heat(self, result) -> list[str]:
        code, _ = result
        if code != 0:
            return [f"exit code {code}"]
        return trajectory_mismatch(self.out / "heat" / "trajectory.csv", self.HEAT_TAU, self.heat_reference)

    def verify_dense(self, path) -> list[str]:
        return trajectory_mismatch(path, self.DENSE_TAU, self.dense_reference)

    @staticmethod
    def details(ops: list[Op]) -> dict[str, tuple[float, str]]:
        heat, dense = ops
        return {
            "heat_steps_per_s": (heat.items / heat.seconds, "1/s"),
            "dense_steps_per_s": (dense.items / dense.seconds, "1/s"),
        }


class SchemeCheck:
    """Single-cell radii for p = 2..11, ``order-check --recover-c`` for p = 2..6, ``rho-curve``."""

    #: Parts of the reference kernel that match this workload's work.
    KERNEL_PARTS = ("python", "small_numpy")

    RADIUS_ORDERS = range(2, 12)
    CHECK_ORDERS = range(2, 7)
    N_RHO = 101  # rho-curve default
    #: Failures present at the seed, recorded rather than dropped.  At the CLI
    #: default (alpha_m, alpha_f) = (1.0, 0.75) the p = 4..6 equal-gamma
    #: schemes are unstable (worst radius 1.49, 2.83, 4.99), yet order-check
    #: exits 0 with slopes of about -29.9, -108.6 and -179.0.
    KNOWN_FAILURES = {f"order-check p={p}" for p in (4, 5, 6)}

    def __init__(self, seed: int, out: Path, cells_per_order: int = 8):
        self.out = out
        rng = np.random.default_rng(seed)
        self.cells = []
        for p in self.RADIUS_ORDERS:
            # Latin hypercube: one cell in each of n strata of alpha_m and of
            # alpha_f's share of (0.5, alpha_m), so every seed covers the box
            # evenly and the work of an iteration hardly depends on the seed.
            n = cells_per_order
            x = (rng.permutation(n) + rng.uniform(size=n)) / n
            y = (rng.permutation(n) + rng.uniform(size=n)) / n
            for xi, yi in zip(x, y):
                # alpha_f <= alpha_m keeps gamma_1 > 0, so no pole on T > 0.
                am = 0.6 + 0.7 * float(xi)
                af = 0.5 + (am - 0.5) * float(yi)
                self.cells.append(schemes.make_scheme(p, am, af))
        self.order_argv = {
            p: ["order-check", "--p", str(p), "--recover-c", "--out", str(out / f"order-{p}")]
            for p in self.CHECK_ORDERS
        }
        self.rho_argv = ["rho-curve", "--out", str(out / "rho")]
        self._radius_ref: dict[int, float] = {}
        self._rho_ref = None

    def iteration(self) -> list[Op]:
        ops = []
        for i, params in enumerate(self.cells):
            seconds, report = timed(stability.worst_case_radius, params)
            name = f"radius p={params.p} cell {i}"
            ops.append(Op(name, seconds, report, partial(self.verify_radius, i), items=1))
        for p, argv in self.order_argv.items():
            seconds, result = timed(run_cli, argv)
            ops.append(Op(f"order-check p={p}", seconds, result, partial(self.verify_order, p)))
        seconds, result = timed(run_cli, self.rho_argv)
        ops.append(Op("rho-curve", seconds, result, self.verify_rho))
        return ops

    def verify_radius(self, i, report) -> list[str]:
        if i not in self._radius_ref:
            self._radius_ref[i] = reference_radius(self.cells[i], stability.default_t_samples())
        bad = radius_mismatch(float(report.radius), self._radius_ref[i])
        return [bad] if bad else []

    def verify_order(self, p, result) -> list[str]:
        code, stdout = result
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        slope = float(stdout.split("fitted order slope:", 1)[1].split()[0])
        if not abs(slope - p) <= SLOPE_TOL:
            problems.append(f"slope {slope} not within {SLOPE_TOL} of p={p}")
        manifest = dict(
            line.split(" = ", 1)
            for line in (self.out / f"order-{p}" / "manifest.txt").read_text().splitlines()
        )
        recovered = float(manifest["recovered_c"])
        if not abs(recovered - float(schemes.c_of_p(p))) <= C_TOL:
            problems.append(f"recovered C {recovered!r} vs tabulated {float(schemes.c_of_p(p))!r}")
        return problems

    def rho_reference(self) -> list[tuple]:
        """Expected (branch, rho, alpha_m, alpha_f, max |eig(Ainf)|) per row; None at poles."""
        if self._rho_ref is None:
            rows = []
            for branch in schemes.RhoBranch:
                for k in range(self.N_RHO):
                    rho = k / (self.N_RHO - 1)
                    try:
                        am, af = schemes.params_from_rho(rho, branch)
                    except PoleAtRho:
                        rows.append((branch.value, rho, None, None, None))
                        continue
                    ainf = amplification.limit_matrix_inf(schemes.make_scheme(3, am, af))
                    rows.append((branch.value, rho, am, af, float(np.abs(np.linalg.eigvals(ainf)).max())))
            self._rho_ref = rows
        return self._rho_ref

    def verify_rho(self, result) -> list[str]:
        code, _ = result
        if code != 0:
            return [f"exit code {code}"]
        lines = (self.out / "rho" / "rho_curves.csv").read_text().splitlines()[1:]
        expected = self.rho_reference()
        if len(lines) != len(expected):
            return [f"{len(lines)} rows, expected {len(expected)}"]
        for line, (branch, rho, am, af, eig) in zip(lines, expected):
            cells = line.split(",")
            ok = cells[0] == branch and float(cells[1]) == rho
            if am is None:
                ok = ok and cells[6] == "1"
            else:
                got = [float(c) for c in (cells[2], cells[3], cells[5])]
                ok = ok and cells[6] == "0" and np.allclose(got, [am, af, eig], rtol=1e-12, atol=1e-12)
            if not ok:
                return [f"row {line!r} does not match {branch} at rho={rho}"]
        return []

    @staticmethod
    def details(ops: list[Op]) -> dict[str, tuple[float, str]]:
        radius = [op for op in ops if op.items]
        return {
            "radius_cells_per_s": (len(radius) / sum(op.seconds for op in radius), "1/s"),
            "order_check_s": (sum(op.seconds for op in ops if op.name.startswith("order-check")), "s"),
        }


WORKLOADS = {"plane-scan": PlaneScan, "march": March, "scheme-check": SchemeCheck}

