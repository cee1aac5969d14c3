"""Empirical order measurement and recovery of the gamma-rule constants.

Two independent instruments live here:

* :func:`measure_order` integrates the scalar test equation over a ladder of
  step sizes and fits the global-error slope on a log-log plot.  It exercises
  the actual stepping code, in one march of the whole ladder: a diagonal
  problem whose column k has rate lambda * tau_k / tau_0, marched with step
  tau_0, has the T = lambda tau_k of the scalar march at tau_k.  Column k is
  read at its own step count t_end / tau_k and then dropped.  Where every
  tau_k / tau_0 is a power of two (every CLI ladder) the scaling is exact,
  and each error is bit for bit the one a march at tau_k alone gives.
* :func:`recover_C` treats the constant in the closure rule
  gamma_j = C(p) + alpha_m - alpha_f as an unknown and recovers it from the
  one-step matrices alone.  The principal root mu = exp(-T) of
  det(R(T) - mu L(T)) = rho(mu) + T sigma(mu) is of order p when the T^k
  coefficients C_k of rho(exp(-T)) + T sigma(exp(-T)) vanish for k <= p
  (:func:`~galpha.amplification.order_condition`).  With equal gammas
  C_0 .. C_(p-1) vanish identically and C_p is affine in the common gamma,
  so C is its exact root, read from the Fraction coefficients of
  :func:`~galpha.amplification.char_poly`.

The tests check recover_C against an independent oracle, the ``mp.eig``
defect of the principal eigenvalue (``tests/oracles.py``).

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

from . import integrator
from .amplification import char_poly, order_condition
from .errors import AllAtRoundoff, StateOverflow, StepSingular
# Not called here: perfbench/tracing.py patches this name in this module.
from .integrator import integrate  # noqa: F401
from .schemes import SchemeParams

__all__ = [
    "ROUNDOFF_FLOOR",
    "ConvergenceReport",
    "measure_order",
    "recover_C",
    "write_convergence_csv",
]

#: Final-time errors at or below this are treated as round-off noise.
ROUNDOFF_FLOOR = 1e-13

# The largest x whose exp(x) is a finite double.
_EXP_MAX = float(np.log(np.finfo(np.float64).max))


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

    ``taus`` must be strictly decreasing.  Raises ``ValueError`` before any
    march where lam is not finite, where the exact solution exp(-lam t_end)
    overflows, or where some tau fails :func:`~galpha.integrator.step_count`
    (checked in ladder order), and :class:`AllAtRoundoff` when fewer than
    two ladder points rise above the round-off floor.

    The ladder is marched once, as one diagonal problem (see the module
    docstring), and no trajectory is kept.  A march refusal is the one that
    ``integrate`` at the first failing tau raises, with its message.  On a
    ladder whose ratios tau_k / tau_0 are not powers of two, lam * tau_k /
    tau_0 is rounded, and the errors can move in their last digits.
    """
    taus = tuple(float(t) for t in taus)
    if len(taus) < 2:
        raise ValueError("need at least two step sizes")
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise ValueError("step sizes must be strictly decreasing")
    lam = complex(lam)
    exact = _exact_decay(lam, t_end)
    counts = [integrator.step_count(tau, t_end) for tau in taus]
    errors = tuple(abs(u - exact) for u in _ladder_values(params, lam, taus, counts))

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


def _ladder_values(params: SchemeParams, lam: complex, taus, counts) -> list:
    """u at step counts[k] of the march at taus[k], for every k, from one march.

    Column k of the diagonal problem has rate lam * (taus[k] / taus[0]) and
    every step is taus[0]; the column is read at step counts[k] and dropped.
    The error raised is the one of the first tau whose own march fails: an
    initial state that overflows (column 0 holds the largest values, so it
    names taus[0]), a refused stage shift (known before the march: the
    columns ahead of it march to their ends first, and it reads as step 1),
    or a state that is not finite when its column ends.
    """
    # scaled part by part, so that a power-of-two ratio scales lam exactly
    ratios = np.array(taus) / taus[0]
    rates = np.empty(len(taus), dtype=complex)
    rates.real, rates.imag = lam.real * ratios, lam.imag * ratios
    state = integrator.init_state(integrator.scalar_problem(rates), np.ones(len(rates)), params.p, taus[0])
    c1, sigma = integrator.stage_shift(params, taus[0])
    live, refused = len(rates), None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(rates)):
            try:
                integrator.scalar_problem(rates[k:k + 1]).shifted_solve(c1, sigma, 1.0)
            except StepSingular as exc:
                live, refused = k, exc
                break
        state = integrator.StateVector(state.stack[:, :live], taus[0])
        values, n = [], 0
        for k in range(live):
            problem = integrator.scalar_problem(rates[k:live])
            while n < counts[k]:
                state = integrator.step(params, problem, state)
                n += 1
            if not np.isfinite(state.stack[:, 0]).all():
                # the column marched alone steps bit for bit as it did here
                column = integrator.scalar_problem(rates[k:k + 1])
                start = integrator.init_state(column, np.ones(1), params.p, taus[0])
                s = integrator._first_nonfinite_step(params, column, start, counts[k])
                raise StateOverflow(f"step {s} of {counts[k]}: the state is not finite at tau={taus[k]}")
            values.append(state.stack[0, 0])
            state = integrator.StateVector(state.stack[:, 1:], taus[0])
    if refused is not None:
        raise type(refused)(f"step 1 of {counts[live]}: {refused}") from refused
    return values


def _exact_decay(lam: complex, t_end: float) -> complex:
    """exp(-lam t_end), the exact u(t_end) of u' + lam u = 0, u(0) = 1.

    The one overflow rule of the exact solution, for :func:`measure_order`
    and the ``integrate`` command alike: where a finite t_end takes it out of
    the double range (or makes its phase -Im(lam) t_end infinite), this
    raises ``ValueError`` naming lam and t_end, before any march starts.  A
    lam that is not finite is refused first, with the message of
    :func:`~galpha.integrator.scalar_problem`.  A t_end that is not finite
    gives nan; ``integrate`` refuses it by its own rule.
    """
    if not cmath.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    if not isfinite(t_end):
        return complex(nan)
    exponent = -lam * t_end
    if exponent.real > _EXP_MAX or not isfinite(exponent.imag):
        raise ValueError(f"the exact solution exp(-lambda t_end) overflows at lambda={lam}, t_end={t_end}")
    return cmath.exp(exponent)


def recover_C(p: int) -> float:
    """The closure constant C(p), recovered from the one-step matrices, not assumed.

    With every gamma equal to g, the order condition C_p(g)
    (:func:`~galpha.amplification.order_condition`) is affine in g, since
    every gamma sits in the last column, so its root is g* = C_p(0) /
    (C_p(0) - C_p(1)), exact in Fractions, and C = g* - alpha_m + alpha_f.
    The root does not depend on (alpha_m, alpha_f); this takes (1, 3/4).

    Raises ``ValueError`` for p < 2 (from :func:`~galpha.amplification.one_step_tableau`).
    """
    am, af = Fraction(1), Fraction(3, 4)
    c0, c1 = (order_condition(*char_poly(p, am, af, [g] * (p - 1)), p) for g in (0, 1))
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
