"""Empirical order measurement and recovery of the gamma-rule constants.

Two independent instruments live here:

* :func:`measure_order` integrates the scalar test equation over a ladder of
  step sizes and fits the global-error slope on a log-log plot.  It exercises
  the actual stepping code.
* :func:`recover_C` treats the constant in the closure rule
  gamma_j = C(p) + alpha_m - alpha_f as an unknown and recovers it from the
  amplification matrix alone: the principal eigenvalue of G(T) must match
  exp(-T) to order p + 1 exactly when C takes its tabulated value, so the
  scaled defect E(C) = [principal eig - exp(-T)] / T^(p+1) crosses zero there.
  The defect also carries a term linear in T (from the next error order), so
  the probe T must be tiny for the root to land within 1e-8 of the true
  constant; the default probe T = 1e-10 pushes that bias to ~1e-11 and the
  whole evaluation runs in extended precision (mpmath) because the signal
  sits T^(p+1) below the eigenvalues themselves.

recover_C never calls the integrator.  The two instruments share only the
one-step layout (``amplification.one_step_tableau``), which the tests pin
against hand-written matrices, so each still confirms the other.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import nan

import numpy as np
from mpmath import mp

from .amplification import fill_tableau, one_step_tableau
from .errors import AllAtRoundoff, NoRoot
from .integrator import integrate, scalar_problem
from .schemes import SchemeParams, c_of_p

__all__ = [
    "ROUNDOFF_FLOOR",
    "ConvergenceReport",
    "measure_order",
    "error_functional",
    "recover_C",
    "write_convergence_csv",
]

#: Final-time errors at or below this are treated as round-off noise.
ROUNDOFF_FLOOR = 1e-13


@dataclass(frozen=True)
class ConvergenceReport:
    """Error ladder and fitted order for one scheme/problem combination.

    ``slope`` is the least-squares slope of log2(error) against log2(tau)
    over the points above the round-off floor; ``slope_window`` holds the
    pairwise slopes between consecutive ladder points (nan where either
    error sits at the floor).
    """

    taus: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float
    slope_window: tuple[float, ...]


def measure_order(params: SchemeParams, lam, t_end: float, taus) -> ConvergenceReport:
    """Fit the global-error order for u' + lam*u = 0, u(0) = 1.

    ``taus`` must be strictly decreasing.  Raises :class:`AllAtRoundoff`
    when fewer than two ladder points rise above the round-off floor.
    """
    taus = tuple(float(t) for t in taus)
    if len(taus) < 2:
        raise ValueError("need at least two step sizes")
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise ValueError("step sizes must be strictly decreasing")
    exact = cmath.exp(-complex(lam) * t_end)
    problem = scalar_problem(lam)
    errors = []
    for tau in taus:
        trajectory = integrate(params, problem, 1.0, tau, t_end)
        errors.append(abs(trajectory[-1][1][0] - exact))
    errors = tuple(errors)

    kept = [(t, e) for t, e in zip(taus, errors) if e > ROUNDOFF_FLOOR]
    if len(kept) < 2:
        raise AllAtRoundoff(
            f"{len(kept)} of {len(errors)} errors above floor {ROUNDOFF_FLOOR}"
        )
    log_t = np.log2([t for t, _ in kept])
    log_e = np.log2([e for _, e in kept])
    slope = float(np.polyfit(log_t, log_e, 1)[0])

    window = []
    for i in range(len(taus) - 1):
        if errors[i] > ROUNDOFF_FLOOR and errors[i + 1] > ROUNDOFF_FLOOR:
            window.append(
                float(np.log2(errors[i] / errors[i + 1]) / np.log2(taus[i] / taus[i + 1]))
            )
        else:
            window.append(nan)
    return ConvergenceReport(taus, errors, slope, tuple(window))


def _defect_mp(p, c, am, af, t):
    """E(C) as an mpf, inside an active extended-precision context."""
    gammas = [c + am - af] * (p - 1)
    L, R = (
        fill_tableau(entries, t, mp.zeros(p, p))
        for entries in one_step_tableau(p, am, af, gammas, one=mp.mpf(1))
    )
    G = L**-1 * R
    eigs = mp.eig(G, left=False, right=False)
    target = mp.exp(-t)
    principal = min(eigs, key=lambda z: (abs(z - target), -mp.re(z)))
    return mp.re(principal - target) / t ** (p + 1)


def _dps_for(p: int) -> int:
    # The defect signal sits ~T^(p+1) below the eigenvalues; at T = 1e-10
    # that is 10*(p+1) digits, plus ~40 guard digits for the eigensolver.
    return 40 + 10 * (p + 1)


def error_functional(
    p: int,
    c: float,
    alpha_m: float = 1.0,
    alpha_f: float = 0.75,
    probe_t: float = 1e-10,
) -> float:
    """Scaled principal-eigenvalue defect E(C); zero at the tabulated constant."""
    with mp.workdps(_dps_for(p)):
        return float(_defect_mp(p, mp.mpf(c), mp.mpf(alpha_m), mp.mpf(alpha_f), mp.mpf(probe_t)))


def recover_C(
    p: int,
    alpha_m: float = 1.0,
    alpha_f: float = 0.75,
    probe_t: float = 1e-10,
) -> float:
    """Root of E(C) on [0, 1]: the closure constant, recovered not assumed.

    Designed for p = 2 .. 6; larger orders run but push the extended
    precision (and the runtime) up, so treat those results as experimental.
    Raises :class:`NoRoot` when E does not change sign on [0, 1].
    """
    if p < 2:
        raise ValueError(f"order p must be >= 2, got {p}")
    with mp.workdps(_dps_for(p)):
        am, af, t = mp.mpf(alpha_m), mp.mpf(alpha_f), mp.mpf(probe_t)

        def f(c):
            return _defect_mp(p, c, am, af, t)

        # Bracket on a coarse grid, then refine by regula falsi (Illinois).
        grid = [mp.mpf(k) / 10 for k in range(11)]
        vals = [f(c) for c in grid]
        bracket = None
        for (a, fa), (b, fb) in zip(zip(grid, vals), zip(grid[1:], vals[1:])):
            if fa == 0:
                return float(a)
            if mp.sign(fa) != mp.sign(fb):
                bracket = (a, b, fa, fb)
                break
        if bracket is None:
            if vals[-1] == 0:
                return float(grid[-1])
            raise NoRoot(f"defect keeps sign {mp.sign(vals[0])} across [0, 1] for p={p}")

        a, b, fa, fb = bracket
        side = 0
        for _ in range(100):
            x = b - fb * (b - a) / (fb - fa)
            fx = f(x)
            if fx == 0 or abs(b - a) < mp.mpf("1e-11"):
                return float(x)
            if mp.sign(fx) == mp.sign(fb):
                b, fb = x, fx
                if side == 1:
                    fa /= 2
                side = 1
            else:
                a, fa = x, fx
                if side == -1:
                    fb /= 2
                side = -1
        return float((a + b) / 2)


def write_convergence_csv(report: ConvergenceReport, path) -> None:
    """Write ``tau,error,pairwise_slope`` rows (slope field empty on row 0)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tau,error,pairwise_slope\n")
        for i, (tau, err) in enumerate(zip(report.taus, report.errors)):
            if i == 0 or report.slope_window[i - 1] != report.slope_window[i - 1]:
                slope_cell = ""
            else:
                slope_cell = f"{report.slope_window[i - 1]:.17g}"
            fh.write(f"{tau:.17g},{err:.17g},{slope_cell}\n")
