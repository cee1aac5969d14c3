"""Tests for scheme parameter construction and the closure rules."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from galpha.amplification import char_poly, order_condition
from galpha.errors import GalphaError, OutOfTable, PoleAtRho, VariantUnsupported
from galpha.schemes import (
    RhoBranch,
    SchemeParams,
    Variant,
    c_of_p,
    closure_gammas,
    in_stability_region,
    make_scheme,
    params_from_rho,
    remark_one_gammas,
)

TABLE = {
    2: Fraction(1, 2),
    3: Fraction(5, 12),
    4: Fraction(1, 3),
    5: Fraction(31, 120),
    6: Fraction(1, 5),
    7: Fraction(41, 252),
    8: Fraction(1, 7),
    9: Fraction(31, 240),
    10: Fraction(1, 9),
    11: Fraction(61, 660),
}


@pytest.mark.parametrize("p,expected", sorted(TABLE.items()))
def test_tabulated_constants(p, expected):
    assert c_of_p(p) == expected


@pytest.mark.parametrize("p", sorted(TABLE))
def test_constants_match_bernoulli_closed_form(p):
    """C(p) = (1 - B_{p-1}) / (p - 1), Bernoulli numbers from mpmath with B_1 = +1/2."""
    b = Fraction(1, 2) if p == 2 else Fraction(*mpmath.bernfrac(p - 1))
    assert c_of_p(p) == (1 - b) / (p - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 8, 11])
def test_equal_gamma_closure(p):
    params = make_scheme(p, 0.9, 0.6)
    assert params.variant is Variant.EQUAL_GAMMA
    assert len(params.gammas) == p - 1
    target = float(c_of_p(p)) + 0.9 - 0.6
    assert all(g == pytest.approx(target, abs=1e-15) for g in params.gammas)
    assert params.gamma1 == params.gammas[0]


def test_remark_one_gammas_pass_the_closure_check():
    g1, g2 = remark_one_gammas(0.9, 0.6)
    assert SchemeParams(3, 0.9, 0.6, (g1, g2), Variant.REMARK_ONE).gammas == (g1, g2)


def test_remark_one_reference_point():
    # At (alpha_m, alpha_f) = (2/3, 1/3) the distinct weights are (2/3, 5/6).
    g1, g2 = remark_one_gammas(2.0 / 3.0, 1.0 / 3.0)
    assert g1 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert g2 == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_remark_one_meets_the_third_order_conditions():
    """C_0 .. C_3 = 0 to 1e-12 on random cells, and gamma_1 (2 + 3 alpha_f) = 3 alpha_m."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        am, af = rng.uniform(0.3, 1.3, size=2)
        g1, g2 = make_scheme(3, am, af, Variant.REMARK_ONE).gammas
        rho, sigma = char_poly(3, am, af, [g1, g2])
        for q in range(4):
            assert abs(order_condition(rho, sigma, q)) <= 1e-12
        assert g1 * (2.0 + 3.0 * af) == pytest.approx(3.0 * am, rel=1e-15)


def test_remark_one_gammas_of_arrays_keep_the_pole():
    # a scalar on the pole is refused; per-cell arrays keep the plain floating-point result
    with np.errstate(divide="ignore", invalid="ignore"):
        g1, g2 = remark_one_gammas(np.ones(2), np.array([-2.0 / 3.0, 0.6]))
    assert not np.isfinite(g1[0]) and np.isfinite(g1[1])


@pytest.mark.parametrize("error", [OutOfTable, VariantUnsupported, PoleAtRho])
def test_configuration_errors_are_value_errors(error):
    """A caller that treats bad input as ValueError needs no case for them."""
    assert issubclass(error, ValueError) and issubclass(error, GalphaError)


@pytest.mark.parametrize(
    "p,variant",
    [(2, Variant.EQUAL_GAMMA), (3, Variant.EQUAL_GAMMA), (3, Variant.REMARK_ONE), (7, Variant.EQUAL_GAMMA)],
)
def test_closure_gammas_on_arrays_match_make_scheme(p, variant):
    rng = np.random.default_rng(5)
    am, af = rng.uniform(0.3, 1.3, size=(2, 6))
    gammas = closure_gammas(p, am, af, variant)
    assert len(gammas) == p - 1
    for k in range(am.size):
        params = make_scheme(p, am[k], af[k], variant)
        assert tuple(g[k] for g in gammas) == params.gammas


def test_closure_gammas_p3_constant_is_five_twelfths():
    # the plane scan used to hard-code 5/12; the table value is the same double
    assert float(c_of_p(3)) == 5.0 / 12.0
    assert closure_gammas(3, 0.9, 0.6) == (5.0 / 12.0 + 0.9 - 0.6,) * 2


def test_equal_gamma_meets_the_third_order_conditions_exactly():
    """At MAIN rho_inf = 1/2, (29/36, 5/9), C_0 .. C_3 = 0 and C_4 = 7/108 exactly;
    the remark-one relation gamma_1 (2 + 3 alpha_f) = 3 alpha_m does not hold."""
    am, af = Fraction(29, 36), Fraction(5, 9)
    assert params_from_rho(0.5) == pytest.approx((float(am), float(af)), abs=1e-15)
    g = c_of_p(3) + am - af
    rho, sigma = char_poly(3, am, af, [g, g])
    assert [order_condition(rho, sigma, q) for q in range(5)] == [0, 0, 0, 0, Fraction(7, 108)]
    assert g * (2 + 3 * af) - 3 * am == Fraction(1, 36)


def test_main_branch_endpoints():
    assert params_from_rho(1.0) == pytest.approx((7.0 / 12.0, 0.5), abs=1e-15)
    assert params_from_rho(0.0) == pytest.approx((13.0 / 12.0, 0.5), abs=1e-15)
    assert params_from_rho(0.5) == pytest.approx((29.0 / 36.0, 5.0 / 9.0), abs=1e-15)


def test_alt1_meets_main_at_rho_zero():
    assert params_from_rho(0.0, RhoBranch.ALT1) == pytest.approx(
        params_from_rho(0.0, RhoBranch.MAIN), abs=1e-15
    )


def test_alt2_at_rho_zero():
    am, af = params_from_rho(0.0, RhoBranch.ALT2)
    assert af == pytest.approx((5.0 + math.sqrt(7.0)) / 4.0, abs=1e-15)
    assert am == pytest.approx((22.0 + 3.0 * math.sqrt(7.0)) / 12.0, abs=1e-15)


def _branch_formulas(rho, branch):
    """(alpha_m, alpha_f) of each branch, its formulas written out alone."""
    one_plus_sq = (rho + 1.0) ** 2
    if branch is RhoBranch.MAIN:
        am = (13.0 + 20.0 * rho - 5.0 * rho**2) / (12.0 * one_plus_sq)
        af = (1.0 + 3.0 * rho) / (2.0 * one_plus_sq)
    elif branch is RhoBranch.ALT1:
        am = (-13.0 - 31.0 * rho + rho**2 - 5.0 * rho**3) / (12.0 * one_plus_sq * (rho - 1.0))
        af = (1.0 + 3.0 * rho) / (2.0 * one_plus_sq)
    elif branch is RhoBranch.ALT2:
        root = math.sqrt(7.0 + 18.0 * rho**2)
        am = (22.0 - 12.0 * rho + 5.0 * rho**2 + 3.0 * root) / (12.0 * (1.0 - rho**2))
        af = (5.0 + root) / (4.0 * (1.0 - rho**2))
    else:
        root = math.sqrt(7.0 + 18.0 * rho**2)
        am = (22.0 + 12.0 * rho + 5.0 * rho**2 - 3.0 * root) / (12.0 * (1.0 - rho**2))
        af = (5.0 - root) / (4.0 * (1.0 - rho**2))
    return am, af


def test_branches_are_their_formulas_bit_for_bit():
    """MAIN and ALT1 share one alpha_f, ALT2 and ALT3 one signed formula: both
    give bit for bit the four formulas written out, at 10 001 rho in [0, 1]."""
    for k in range(10_001):
        rho = k / 10_000
        for branch in RhoBranch:
            if branch is RhoBranch.MAIN or rho < 1.0:
                assert params_from_rho(rho, branch) == _branch_formulas(rho, branch), (rho, branch)


@pytest.mark.parametrize("branch", [RhoBranch.ALT1, RhoBranch.ALT2, RhoBranch.ALT3])
def test_alt_branches_evaluate_just_below_the_pole(branch):
    am, af = params_from_rho(1.0 - 1e-6, branch)
    assert math.isfinite(am) and math.isfinite(af)


def test_region_predicate_corner_and_boundaries():
    # the corner and the edges belong to the (closed) region
    assert in_stability_region(7.0 / 12.0, 0.5)
    assert in_stability_region(1.0, 0.5)
    assert in_stability_region(1.0, 1.0 - 1.0 / 12.0)
    # just outside along each constraint
    assert not in_stability_region(7.0 / 12.0 - 1e-12, 0.5)
    assert not in_stability_region(1.0, 0.5 - 1e-12)
    assert not in_stability_region(1.0, 1.0 - 1.0 / 12.0 + 1e-9)
    assert not in_stability_region(0.5, 0.5)


def test_main_branch_curve_stays_inside_region():
    for rho in np.linspace(0.0, 1.0, 101):
        am, af = params_from_rho(float(rho))
        assert in_stability_region(am, af), f"rho={rho}: ({am}, {af}) left the region"
