"""Empirical order measurement and recovery of the gamma-rule constants.

Two independent instruments live here:

* :func:`measure_order` integrates the scalar test equation over a ladder of
  step sizes and fits the global-error slope on a log-log plot.  It exercises
  the actual stepping code.
* :func:`recover_C` treats the constant in the closure rule
  gamma_j = C(p) + alpha_m - alpha_f as an unknown and recovers it from the
  one-step matrices alone.  The principal root mu = exp(-T) of
  det(R(T) - mu L(T)) = rho(mu) + T sigma(mu) is of order p when the T^k
  coefficients C_k of rho(exp(-T)) + T sigma(exp(-T)) vanish for k <= p
  (Hairer, Norsett & Wanner, Solving ODEs I, III.2).  With equal gammas
  C_0 .. C_(p-1) vanish identically and C_p is affine in the common gamma,
  so C is its exact root, read from the Fraction coefficients of
  :func:`~galpha.amplification.char_poly`.

:func:`error_functional`, the scaled defect [principal eig - exp(-T)] /
T^(p+1) from ``mp.eig`` of G at a probe T, crosses zero at the same C by
another solver (eigenvalues of the matrices, not coefficients of the
polynomial) and is the tests' oracle for recover_C.  The probe carries a
bias linear in T (from the next error order); the default T = 1e-10 keeps
it at ~1e-11, and the eigenvalues run in extended precision (mpmath)
because the signal sits T^(p+1) below the matrix entries.

recover_C never calls the integrator.  The two instruments share only the
one-step layout (``amplification.one_step_tableau``), which the tests pin
against hand-written matrices, so each still confirms the other.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, nan

import numpy as np
from mpmath import mp

from .amplification import char_poly, fill_tableau, one_step_tableau
from .errors import AllAtRoundoff
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
    L, R = (
        fill_tableau(entries, t, mp.zeros(p, p))
        for entries in one_step_tableau(p, am, af, [c + am - af] * (p - 1), one=mp.mpf(1))
    )
    eigs = mp.eig(L**-1 * R, left=False, right=False)
    target = mp.exp(-t)
    principal = min(eigs, key=lambda z: (abs(z - target), -mp.re(z)))
    return mp.re(principal - target) / t ** (p + 1)


def _dps_for(p: int) -> int:
    # The signal sits ~T^(p+1) below the O(1) matrix entries; at T = 1e-10
    # that is 10*(p+1) digits, plus ~40 guard digits for the arithmetic.
    return 40 + 10 * (p + 1)


def _check_probe(probe_t: float) -> None:
    if probe_t == 0 or not isfinite(probe_t):
        raise ValueError(f"probe_t must be finite and nonzero, got {probe_t}")


def error_functional(
    p: int,
    c: float,
    alpha_m: float = 1.0,
    alpha_f: float = 0.75,
    probe_t: float = 1e-10,
) -> float:
    """Scaled principal-eigenvalue defect E(C); zero at the tabulated constant.

    Raises ``ValueError`` for a ``probe_t`` that is 0, nan or infinite.
    """
    _check_probe(probe_t)
    with mp.workdps(_dps_for(p)):
        return float(_defect_mp(p, mp.mpf(c), mp.mpf(alpha_m), mp.mpf(alpha_f), mp.mpf(probe_t)))


def recover_C(p: int, alpha_m: float = 1.0, alpha_f: float = 0.75) -> float:
    """The closure constant C(p), recovered from the one-step matrices, not assumed.

    With every gamma equal to g, the order condition p! C_p(g) =
    sum_j rho_j (-j)^p + p sum_j sigma_j (-j)^(p-1) is affine in g (every
    gamma sits in the last column), so its root is g* = C_p(0) / (C_p(0) -
    C_p(1)), exact in Fractions, and C = g* - alpha_m + alpha_f.

    Raises ``ValueError`` for p < 2 or a non-finite ``alpha_m`` or ``alpha_f``.
    """
    if p < 2:
        raise ValueError(f"order p must be >= 2, got {p}")
    if not (isfinite(alpha_m) and isfinite(alpha_f)):
        raise ValueError(f"alpha_m and alpha_f must be finite, got {alpha_m} and {alpha_f}")
    am, af = Fraction(alpha_m), Fraction(alpha_f)

    def order_condition(g):
        rho, sigma = char_poly(p, am, af, [g] * (p - 1), Fraction(1))
        return sum(r * (-j) ** p + p * s * (-j) ** (p - 1) for j, (r, s) in enumerate(zip(rho, sigma)))

    c0, c1 = order_condition(Fraction(0)), order_condition(Fraction(1))
    return float(c0 / (c0 - c1) - am + af)


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
