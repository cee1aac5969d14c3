"""Tests for order measurement and recovery of the closure constant."""

import math

import numpy as np
import pytest

from galpha.errors import AllAtRoundoff, NoRoot
from galpha.orderlab import (
    ROUNDOFF_FLOOR,
    ConvergenceReport,
    error_functional,
    measure_order,
    recover_C,
    write_convergence_csv,
)
from galpha.schemes import Variant, c_of_p, make_scheme, params_from_rho

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


def test_all_errors_at_roundoff():
    params = make_scheme(3, *params_from_rho(0.5))
    with pytest.raises(AllAtRoundoff):
        measure_order(params, 0.0, 1.0, TAUS)  # exact solution is constant


def test_measure_order_validation():
    params = make_scheme(3, 0.9, 0.6)
    with pytest.raises(ValueError):
        measure_order(params, 1.0, 1.0, [0.1])
    with pytest.raises(ValueError):
        measure_order(params, 1.0, 1.0, [0.1, 0.2])
    # 1.3 is 10.4 steps of 0.125: the errors would be taken at the wrong time
    with pytest.raises(ValueError, match="whole number of steps"):
        measure_order(params, 1.0, 1.3, [0.125, 0.0625])


# --- closure-constant recovery ------------------------------------------------------


def test_recover_constant_p2():
    assert abs(recover_C(2) - 0.5) <= 1e-8


def test_recover_constant_p3():
    assert abs(recover_C(3) - 5.0 / 12.0) <= 1e-8


def test_recover_constant_p4():
    assert abs(recover_C(4) - float(c_of_p(4))) <= 1e-8


def test_recover_is_independent_of_alpha_choice():
    values = [
        recover_C(3, alpha_m=1.0, alpha_f=0.75),
        recover_C(3, alpha_m=0.9, alpha_f=0.6),
        recover_C(3, alpha_m=1.2, alpha_f=0.8),
    ]
    assert max(values) - min(values) <= 1e-8


def test_recover_rejects_low_order():
    with pytest.raises(ValueError):
        recover_C(1)


# Returned by the grid bracket and Illinois search over mp.eig that the
# two-determinant root replaced; the closed form reproduces them bit for bit.
PINNED_C = {
    (2, 1.0, 0.75): 0.5000000000145833,
    (3, 1.0, 0.75): 0.4166666666763889,
    (4, 1.0, 0.75): 0.33333333333791665,
    (5, 1.0, 0.75): 0.25833333333332636,
    (6, 1.0, 0.75): 0.19999999999677381,
    (7, 1.0, 0.75): 0.16269841269348387,
    (3, 0.9, 0.6): 0.41666666667480556,
    (3, 1.2, 0.8): 0.4166666666829722,
}


@pytest.mark.parametrize("p, alpha_m, alpha_f", sorted(PINNED_C))
def test_recover_matches_pinned_values(p, alpha_m, alpha_f):
    assert recover_C(p, alpha_m=alpha_m, alpha_f=alpha_f) == PINNED_C[p, alpha_m, alpha_f]


@pytest.mark.parametrize("p", range(2, 7))
def test_recovered_constant_is_the_root_of_the_eigen_defect(p):
    """The mp.eig defect E, an independent path, changes sign across recover_C(p)."""
    c = recover_C(p)
    below, at, above = (error_functional(p, c + d) for d in (-1e-9, 0.0, 1e-9))
    assert below * above < 0
    assert abs(at) < min(abs(below), abs(above))


def test_recover_reports_a_root_outside_the_unit_interval():
    # at this probe the equal-gamma root sits at C = 1.5
    with pytest.raises(NoRoot, match="outside"):
        recover_C(3, alpha_m=1.0, alpha_f=1.5, probe_t=100.0)


@pytest.mark.parametrize("probe_t", [0.0, math.nan, math.inf, -math.inf])
def test_bad_probe_is_rejected(probe_t):
    with pytest.raises(ValueError, match="probe_t"):
        recover_C(3, probe_t=probe_t)
    with pytest.raises(ValueError, match="probe_t"):
        error_functional(3, 0.4, probe_t=probe_t)


def test_negative_probe_is_a_valid_t():
    assert abs(recover_C(3, probe_t=-1e-10) - 5.0 / 12.0) <= 1e-8
    assert error_functional(3, 0.3, probe_t=-1e-10) * error_functional(3, 0.5, probe_t=-1e-10) < 0


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
