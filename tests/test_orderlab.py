"""Tests for order measurement and recovery of the closure constant."""

import math
from fractions import Fraction

import pytest

from galpha.amplification import char_poly, order_condition
from galpha.orderlab import (
    ROUNDOFF_FLOOR,
    ConvergenceReport,
    measure_order,
    recover_C,
    write_convergence_csv,
)
from galpha.schemes import Variant, c_of_p, make_scheme, params_from_rho

from oracles import error_functional

TAUS = [2.0**-k for k in range(3, 9)]


def test_second_order_baseline():
    report = measure_order(make_scheme(2, 0.5, 0.5), 1.0, 1.0, TAUS)
    assert report.slope == pytest.approx(2.0, abs=0.1)


def test_third_order_equal_gamma():
    params = make_scheme(3, *params_from_rho(0.5))
    report = measure_order(params, 1.0, 2.0, TAUS)
    assert report.slope == pytest.approx(3.0, abs=0.1)
    assert len(report.errors) == len(TAUS)
    assert all(e > 0 for e in report.errors)


def test_third_order_remark_one():
    params = make_scheme(3, 2.0 / 3.0, 1.0 / 3.0, Variant.REMARK_ONE)
    report = measure_order(params, 1.0, 1.0, TAUS)
    assert report.slope == pytest.approx(3.0, abs=0.1)


def test_final_time_superconvergence_at_unit_horizon():
    """At lambda * t_end = 1 the tau^3 term of the final-time error cancels.

    The equal-gamma leading error coefficient is proportional to
    (lambda*t - 1) at the final time, so the fitted slope jumps to ~4 there.
    Anchoring this keeps the lambda*t_end dependence from regressing silently.
    """
    params = make_scheme(3, *params_from_rho(0.5))
    report = measure_order(params, 1.0, 1.0, TAUS)
    assert 3.6 <= report.slope <= 4.4
    # away from the cancellation horizon the generic order shows
    assert measure_order(params, 1.0, 2.0, TAUS).slope == pytest.approx(3.0, abs=0.1)


def test_slope_invariant_under_problem_rescale():
    """(lambda, t_end) -> (2*lambda, t_end/2) leaves the fitted slope alone."""
    params = make_scheme(3, *params_from_rho(0.5))
    a = measure_order(params, 1.0, 2.0, TAUS).slope
    b = measure_order(params, 2.0, 1.0, TAUS).slope
    assert abs(a - b) <= 0.05


def test_pairwise_window_brackets_the_fit():
    params = make_scheme(3, *params_from_rho(0.5))
    report = measure_order(params, 1.0, 2.0, TAUS)
    assert len(report.slope_window) == len(TAUS) - 1
    assert min(report.slope_window) <= report.slope <= max(report.slope_window)


# --- closure-constant recovery ------------------------------------------------------


@pytest.mark.parametrize("p", range(2, 12))
def test_recover_is_the_tabulated_constant_exactly(p):
    """The root of the exact order condition is C(p), bit for bit."""
    assert recover_C(p) == float(c_of_p(p))


@pytest.mark.parametrize("alpha_m, alpha_f", [(1.0, 0.75), (0.9, 0.6), (1.2, 0.8)])
@pytest.mark.parametrize("p", range(2, 12))
def test_order_condition_root_is_the_constant_at_every_cell(p, alpha_m, alpha_f):
    """recover_C's root g* = C_p(0) / (C_p(0) - C_p(1)) gives C(p) exactly at
    any (alpha_m, alpha_f), not only its fixed cell (1, 3/4): in Fractions,
    without sympy."""
    am, af = Fraction(alpha_m), Fraction(alpha_f)
    c0, c1 = (order_condition(*char_poly(p, am, af, [g] * (p - 1)), p) for g in (0, 1))
    assert c0 / (c0 - c1) - am + af == c_of_p(p)


@pytest.mark.parametrize("p", range(2, 12))
def test_order_conditions_of_the_equal_gamma_pencil(p):
    """With every gamma equal to g, C_0 .. C_(p-1) vanish identically and
    p! C_p(g) = -p (p-1) (g - C(p) - alpha_m + alpha_f): recover_C's root is
    C(p) at every (alpha_m, alpha_f), and its slope never vanishes."""
    sympy = pytest.importorskip("sympy")
    am, af, g = sympy.symbols("alpha_m alpha_f g")
    rho, sigma = char_poly(p, am, af, [g] * (p - 1))
    for k in range(p):
        assert sympy.expand(order_condition(rho, sigma, k)) == 0
    c = sympy.Rational(c_of_p(p).numerator, c_of_p(p).denominator)
    assert sympy.expand(math.factorial(p) * order_condition(rho, sigma, p) + p * (p - 1) * (g - c - am + af)) == 0


@pytest.mark.parametrize("p", range(2, 7))
def test_recovered_constant_is_the_root_of_the_eigen_defect(p):
    """The mp.eig defect E, an independent path, changes sign across recover_C(p)."""
    c = recover_C(p)
    below, at, above = (error_functional(p, c + d) for d in (-1e-9, 0.0, 1e-9))
    assert below * above < 0
    assert abs(at) < min(abs(below), abs(above))


def test_error_functional_sign_structure():
    """E(C) decreases through zero at the tabulated constant."""
    c_star = float(c_of_p(3))
    cs = [c_star - 0.08, c_star - 0.03, c_star + 0.03, c_star + 0.08]
    vals = [error_functional(3, c) for c in cs]
    assert vals[0] > 0 > vals[-1]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert abs(error_functional(3, c_star)) < abs(vals[1])


# --- CSV output -----------------------------------------------------------------------


def test_write_convergence_csv(tmp_path):
    params = make_scheme(2, 0.5, 0.5)
    report = measure_order(params, 1.0, 1.0, TAUS[:4])
    path = tmp_path / "convergence.csv"
    write_convergence_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,error,pairwise_slope"
    assert len(lines) == 1 + 4
    # first data row has no pairwise slope
    assert lines[1].endswith(",")
    row = lines[2].split(",")
    assert float(row[0]) == report.taus[1]
    assert float(row[1]) == report.errors[1]
    assert float(row[2]) == pytest.approx(report.slope_window[0])


def test_write_convergence_csv_blanks_nan_windows(tmp_path):
    report = ConvergenceReport(
        taus=(0.2, 0.1, 0.05),
        errors=(1e-3, 1.25e-4, 5e-14),
        slope=3.0,
        slope_window=(3.0, math.nan),
    )
    path = tmp_path / "convergence.csv"
    write_convergence_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[2].split(",")[2] != ""
    assert lines[3].split(",")[2] == ""


def test_measured_slope_at_the_floor_is_nan_and_blank(tmp_path):
    """At tau = 1e-3 the error, 8.9e-15, sits below the round-off floor: the
    pairwise slope into it is nan, and its CSV cell stays empty."""
    params = make_scheme(3, *params_from_rho(0.5))
    report = measure_order(params, 1.0, 1.0, (0.25, 0.125, 1e-3))
    assert report.errors[2] <= ROUNDOFF_FLOOR < report.errors[1]
    assert report.slope_window[0] == pytest.approx(3.137, abs=1e-3)
    assert math.isnan(report.slope_window[1])
    path = tmp_path / "convergence.csv"
    write_convergence_csv(report, path)
    cells = [line.split(",")[2] for line in path.read_text().splitlines()[1:]]
    assert cells == ["", f"{report.slope_window[0]:.17g}", ""]
