"""Tests for the one-step matrices, their limits, and local-error tools."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from mpmath import mp

from galpha import numkit
from galpha.amplification import (
    amplification_matrix,
    build_lr,
    char_poly,
    fill_tableau,
    limit_matrix_inf,
    limit_matrix_zero,
    one_step_tableau,
    order_condition,
)
from galpha.errors import SingularAtT
from galpha.schemes import Variant, c_of_p, closure_gammas, make_scheme, params_from_rho

from conftest import assert_spectrum, closed_form_g3, one_step_matrices
from oracles import TooShort, characteristic_recurrence_residual


# --- matrix layout -----------------------------------------------------------


def test_one_step_matrices_p2_literal():
    am, af, g, t = 0.8, 0.6, 0.7, 0.9
    L, R = one_step_matrices(2, am, af, (g,), t)
    assert np.allclose(L, [[1.0, -g], [af * t, am]], atol=0)
    assert np.allclose(R, [[1.0, 1.0 - g], [(af - 1.0) * t, am - 1.0]], atol=0)


def test_one_step_matrices_p4_literal():
    am, af, g, t = 0.9, 0.7, 0.45, 1.3
    L, R = one_step_matrices(4, am, af, (g, g, g), t)
    L_expected = [
        [1.0, 0.0, 0.0, -g / 6.0],
        [0.0, 1.0, 0.0, -g / 2.0],
        [0.0, 0.0, 1.0, -g],
        [0.0, 0.0, af * t / 2.0, am / 2.0],
    ]
    R_expected = [
        [1.0, 1.0, 0.5, (1.0 - g) / 6.0],
        [0.0, 1.0, 1.0, (1.0 - g) / 2.0],
        [0.0, 0.0, 1.0, 1.0 - g],
        [-t, -1.0 - t, -1.0 + (af - 1.0) * t / 2.0, (am - 1.0) / 2.0],
    ]
    assert np.allclose(L, L_expected, atol=1e-15)
    assert np.allclose(R, R_expected, atol=1e-15)


@pytest.mark.parametrize("t", [0.5, 1e3, -0.25 + 1.7j])
@pytest.mark.parametrize("variant", [Variant.EQUAL_GAMMA, Variant.REMARK_ONE])
def test_p3_matches_hand_written_entries(t, variant):
    params = make_scheme(3, 0.85, 0.58, variant)
    g1, g2 = params.gammas
    G = amplification_matrix(params, t)
    expected = closed_form_g3(0.85, 0.58, g1, g2, t)
    assert np.allclose(G, expected, rtol=1e-13, atol=1e-13)


def test_build_lr_uses_scheme_gammas():
    params = make_scheme(3, 0.85, 0.58, Variant.REMARK_ONE)
    L, R = build_lr(params, 0.4)
    L2, R2 = one_step_matrices(3, 0.85, 0.58, params.gammas, 0.4)
    assert np.array_equal(L, L2)
    assert np.array_equal(R, R2)


@pytest.mark.parametrize("p", range(2, 12))
def test_singular_at_the_pole(p):
    """L(T*) is refused at the pole T* = -alpha_m / (gamma_1 alpha_f) and
    solved a relative 1e-6 away from it."""
    params = make_scheme(p, 0.9, 0.6)
    t_pole = -params.alpha_m / (params.gamma1 * params.alpha_f)
    with pytest.raises(SingularAtT):
        amplification_matrix(params, t_pole)
    assert np.isfinite(amplification_matrix(params, t_pole * (1.0 + 1e-6))).all()


# --- characteristic polynomial ------------------------------------------------


@pytest.mark.parametrize("p", range(2, 12))
def test_char_poly_is_the_determinant(p):
    """rho(mu) + T sigma(mu) = det(R(T) - mu L(T)) at random complex mu and T."""
    rng = np.random.default_rng(p)
    am, af = rng.uniform(0.3, 1.5, 2)
    gammas = tuple(rng.uniform(-0.5, 1.5, p - 1))
    rho, sigma = char_poly(p, am, af, gammas)
    assert rho.shape == sigma.shape == (p + 1,)
    assert np.isrealobj(rho) and np.isrealobj(sigma)
    powers = np.arange(p + 1)
    for _ in range(6):
        mu, t = rng.normal(size=2) + 1j * rng.normal(size=2)
        t *= 10.0 ** rng.uniform(-2, 3)
        L, R = one_step_matrices(p, am, af, gammas, t)
        expected = np.linalg.det(R - mu * L)
        terms = np.concatenate([rho * mu**powers, t * sigma * mu**powers])
        got = terms.sum()
        assert abs(got - expected) <= 1e-12 * np.abs(terms).sum()
        # the leading coefficient is the pole factor (-1)^p (p-2)! det L(T)
        lead = rho[p] + t * sigma[p]
        expected_lead = (-1) ** p * (am + gammas[0] * af * t) / factorial(p - 2)
        assert lead == pytest.approx(expected_lead, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("variant", [Variant.EQUAL_GAMMA, Variant.REMARK_ONE])
def test_char_poly_per_cell_arrays_match_scalar_calls(variant):
    am = np.array([0.9, 1.2, 0.6, 1.4])
    af = np.array([0.6, 0.0, 0.55, 1.3])
    gammas = closure_gammas(3, am, af, variant)
    rho, sigma = char_poly(3, am, af, gammas)
    assert rho.shape == sigma.shape == (4, am.size)
    for k in range(am.size):
        one = char_poly(3, am[k], af[k], [g[k] for g in gammas])
        assert np.allclose(rho[:, k], one[0], rtol=1e-15, atol=1e-15)
        assert np.allclose(sigma[:, k], one[1], rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("p", range(2, 12))
def test_char_poly_arrays_match_scalar_calls_bit_for_bit(p):
    """Per-cell arrays give the scalar calls' bits, and the mu^p coefficients
    are the pole factor's terms (-1)^p alpha_m/(p-2)! and (-1)^p gamma_1 alpha_f/(p-2)!."""
    rng = np.random.default_rng(100 + p)
    am, af = rng.uniform(0.0, 1.5, (2, 9))
    gammas = tuple(rng.uniform(-0.5, 1.5, (p - 1, 9)))
    rho, sigma = char_poly(p, am, af, gammas)
    assert rho.dtype == sigma.dtype == np.float64
    for k in range(am.size):
        one = char_poly(p, am[k], af[k], [g[k] for g in gammas])
        assert np.array_equal(rho[:, k], one[0]) and np.array_equal(sigma[:, k], one[1])
    assert np.array_equal(rho[p], (-1) ** p * am / factorial(p - 2))
    assert np.array_equal(sigma[p], (-1) ** p * gammas[0] * af / factorial(p - 2))


@pytest.mark.parametrize("p", range(2, 12))
def test_char_poly_exact_order_of_equal_gamma_schemes(p):
    """Fraction input gives exact Fractions; the equal-gamma closure has C_0 .. C_p = 0."""
    one = Fraction(1)
    for am, af in [(Fraction(3, 4), Fraction(1, 2)), (one, Fraction(3, 5)), (Fraction(7, 5), Fraction(2, 3))]:
        gammas = [c_of_p(p) + am - af] * (p - 1)
        rho, sigma = char_poly(p, am, af, gammas)
        assert all(type(c) is Fraction for c in [*rho, *sigma])
        assert [order_condition(rho, sigma, q) for q in range(p + 1)] == [0] * (p + 1)
        assert order_condition(rho, sigma, p + 1) != 0


def test_char_poly_takes_its_number_type_from_its_inputs():
    """With no knob, MAIN at rho_inf = 1/2, (29/36, 5/9) with gamma = 2/3, gives
    Fraction coefficients with C_0 .. C_3 exactly 0 (float weights would leave
    C_1 = 2.2e-16 and C_2 = 4.4e-16), and mpmath input gives mpf coefficients."""
    am, af, g = Fraction(29, 36), Fraction(5, 9), Fraction(2, 3)
    rho, sigma = char_poly(3, am, af, [g, g])
    assert all(type(c) is Fraction for c in [*rho, *sigma])
    assert [order_condition(rho, sigma, q) for q in range(4)] == [0, 0, 0, 0]
    with mp.workdps(30):
        am, af, g = (mp.mpf(x.numerator) / x.denominator for x in (am, af, g))
        rho, sigma = char_poly(3, am, af, [g, g])
        assert all(type(c) is mp.mpf for c in [*rho, *sigma])
        assert all(abs(order_condition(rho, sigma, q)) <= mp.mpf(10) ** -28 for q in range(4))


@pytest.mark.parametrize(
    "p,am,af,constant",
    [
        (2, Fraction(3, 4), Fraction(1, 2), Fraction(1, 12)),
        (4, Fraction(1), Fraction(3, 5), Fraction(11, 300)),
        (5, Fraction(1), Fraction(3, 5), Fraction(-719, 86400)),
        (6, Fraction(1), Fraction(3, 5), Fraction(37, 25200)),
    ],
)
def test_char_poly_exact_error_constant(p, am, af, constant):
    """C_{p+1}/sigma(1) in exact arithmetic (0.0833, 0.0367, -0.00832, 0.00147 in floats)."""
    rho, sigma = char_poly(p, am, af, [c_of_p(p) + am - af] * (p - 1))
    assert order_condition(rho, sigma, p + 1) / sum(sigma) == constant


@pytest.mark.parametrize("p", range(2, 12))
def test_char_poly_in_extended_precision_is_the_determinant(p):
    """With mpmath input, rho(mu) + T sigma(mu) is mp.det(R - mu L) to 50 digits."""
    rng = np.random.default_rng(200 + p)
    with mp.workdps(50):
        am, af, *gammas = (mp.mpf(x) for x in rng.uniform(-0.5, 1.5, p + 1))
        rho, sigma = char_poly(p, am, af, gammas)
        tab_l, tab_r = one_step_tableau(p, am, af, gammas)
        for _ in range(4):
            mu, t = (mp.mpc(*rng.normal(size=2)) for _ in range(2))
            t *= 10 ** rng.uniform(-2, 3)
            L = fill_tableau(tab_l, t, mp.zeros(p, p))
            R = fill_tableau(tab_r, t, mp.zeros(p, p))
            terms = [r * mu**j for j, r in enumerate(rho)] + [t * s * mu**j for j, s in enumerate(sigma)]
            assert abs(mp.fsum(terms) - mp.det(R - mu * L)) <= mp.mpf(10) ** -40 * mp.fsum(map(abs, terms))


def test_char_poly_roots_are_the_limit_spectra():
    # T -> 0: G -> A0, whose spectrum is the roots of rho; T -> inf: the roots
    # of sigma are the spectrum of Ainf (at a point without double roots:
    # np.roots splits a double root by ~sqrt(eps))
    params = make_scheme(3, 0.9, 0.6)
    rho, sigma = char_poly(3, params.alpha_m, params.alpha_f, params.gammas)
    assert_spectrum(np.roots(rho[::-1]), numkit.eigenvalues(limit_matrix_zero(params)), tol=1e-12)
    assert_spectrum(np.roots(sigma[::-1]), numkit.eigenvalues(limit_matrix_inf(params)), tol=1e-12)


# --- spectral accuracy of the principal root ---------------------------------


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_principal_eigenvalue_order(p):
    """|principal eigenvalue - exp(-T)| shrinks like T^(p+1)."""
    params = make_scheme(p, 1.0, 0.75)

    def err(t):
        eigs = numkit.eigenvalues(amplification_matrix(params, t))
        target = np.exp(-t)
        return np.abs(eigs - target).min()

    t1, t2 = 0.2, 0.1
    slope = np.log2(err(t1) / err(t2)) / np.log2(t1 / t2)
    # at least order p + 1; some parameter points do better (the next
    # coefficient can be tiny there, e.g. p = 5 at these alphas)
    assert p + 0.5 <= slope <= p + 2.5, f"p={p}: slope {slope}"


# --- limit matrices -----------------------------------------------------------


def test_limit_zero_is_the_small_t_limit():
    params = make_scheme(3, 0.9, 0.6, Variant.REMARK_ONE)
    A0 = limit_matrix_zero(params)
    assert np.allclose(amplification_matrix(params, 1e-9), A0, atol=1e-8)


def test_limit_inf_is_the_large_t_limit():
    params = make_scheme(3, 0.9, 0.6)
    Ainf = limit_matrix_inf(params)
    # rtol=0: the default relative slack (1e-5) would hide a wrong O(1) entry
    assert np.allclose(amplification_matrix(params, 1e12), Ainf, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("p", range(2, 12))
def test_g_is_the_pole_weighted_mean_of_its_limits(p):
    """T enters only the last rows of L and R, so by Sherman-Morrison
    G(T) = (alpha_m G(0) + gamma_1 alpha_f T G(inf)) / (alpha_m + gamma_1 alpha_f T),
    with G(0) solved from the T = 0 tableau and G(inf) from its last-row
    T-coefficients.  At p = 3 both are the closed-form limit matrices."""
    rng = np.random.default_rng(p)

    def solved(tab_l, tab_r):
        return np.linalg.solve(*(fill_tableau(tab, 0.0, np.zeros((p, p))) for tab in (tab_l, tab_r)))

    for _ in range(20):
        am = rng.uniform(0.6, 1.3)
        af = rng.uniform(0.5, am)
        params = make_scheme(p, am, af)
        tab_l, tab_r = one_step_tableau(p, am, af, params.gammas)
        g0 = solved(tab_l, tab_r)
        ginf = solved(*(
            {(i, j): (c1 if i == p - 1 else c0, 0.0) for (i, j), (c0, c1) in tab.items()}
            for tab in (tab_l, tab_r)
        ))
        b = params.gamma1 * af
        for t in (1e-3, 0.7, 5.0, 1e3, 1e6, 2.0 + 3.0j):
            g = amplification_matrix(params, t)
            mean = (am * g0 + b * t * ginf) / (am + b * t)
            assert np.abs(g - mean).max() <= 1e-13 * max(1.0, np.abs(g).max())
        if p == 3:
            for got, closed in ((g0, limit_matrix_zero(params)), (ginf, limit_matrix_inf(params))):
                assert np.abs(got - closed).max() <= 1e-13 * max(1.0, np.abs(closed).max())


def test_limit_zero_spectrum_at_corner(eig_match):
    # (7/12, 1/2) is the rho_inf = 1 design point
    A0 = limit_matrix_zero(make_scheme(3, 7.0 / 12.0, 0.5))
    root = np.sqrt(3.0)
    eig_match(
        numkit.eigenvalues(A0),
        [1.0, (-2.0 + 1j * root) / 7.0, (-2.0 - 1j * root) / 7.0],
        tol=1e-12,
    )


def test_limit_zero_block_invariants():
    """Eigenvalue 1 plus a 2x2 block with trace/det linear in the parameters."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        am, af = rng.uniform(0.55, 1.3, size=2)
        params = make_scheme(3, am, af)
        eigs = sorted(numkit.eigenvalues(limit_matrix_zero(params)), key=lambda z: abs(z - 1.0))
        assert abs(eigs[0] - 1.0) <= 1e-10
        pair = eigs[1:]
        g1 = params.gamma1
        assert pair[0] + pair[1] == pytest.approx(2.0 - (g1 + 1.0) / am, abs=1e-10)
        assert pair[0] * pair[1] == pytest.approx(1.0 - g1 / am, abs=1e-10)


def test_limit_inf_spectrum_at_design_points(eig_match):
    am, af = params_from_rho(0.5)
    eig_match(
        numkit.eigenvalues(limit_matrix_inf(make_scheme(3, am, af))),
        [-0.5, -0.5, -0.2],
        tol=1e-12,
    )
    eig_match(
        numkit.eigenvalues(limit_matrix_inf(make_scheme(3, 7.0 / 12.0, 0.5))),
        [0.0, -1.0, -1.0],
        tol=1e-12,
    )


def test_limit_inf_trailing_eigenvalue_is_exact():
    params = make_scheme(3, 1.1, 0.8)
    Ainf = limit_matrix_inf(params)
    eta1 = 1.0 - 1.0 / params.gamma1
    assert np.min(np.abs(numkit.eigenvalues(Ainf) - eta1)) <= 1e-13
    # third column is (0, 0, eta1): the exact-eigenvalue structure
    assert Ainf[0, 2] == 0.0 and Ainf[1, 2] == 0.0 and Ainf[2, 2] == eta1


def test_limit_inf_is_real():
    assert limit_matrix_inf(make_scheme(3, 1.1, 0.8)).dtype == np.float64


def test_limit_inf_block_radius_floor_is_one_third():
    """No equal-gamma p=3 scheme has a stiff-limit radius below 1/3.

    The leading 2x2 block of Ainf depends on alpha_f alone, with trace
    2 - 3/(2 af) and determinant 1 - 1/(2 af).  Its roots are complex with
    modulus sqrt(det) > 1/3 for af > 9/16 and real otherwise, meeting in the
    double root -1/3 at af = 9/16.
    """
    for af in (-0.7, 0.3, 0.5625, 0.8, 1.9):
        blocks = [limit_matrix_inf(make_scheme(3, am, af))[:2, :2] for am in (0.6, 0.9, 1.3)]
        assert all(np.array_equal(blocks[0], b) for b in blocks[1:])
        block = blocks[0]
        trace, det = 2.0 - 1.5 / af, 1.0 - 0.5 / af
        assert block[0, 0] + block[1, 1] == pytest.approx(trace, abs=1e-14)
        assert block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0] == pytest.approx(det, abs=1e-14)

    step = 1.0 / 1600.0
    af_grid = [k * step for k in range(-1600, 4801) if k != 0]  # alpha_f in [-1, 3]
    radii = np.array(
        [
            np.abs(numkit.eigenvalues(limit_matrix_inf(make_scheme(3, 0.9, af))[:2, :2])).max()
            for af in af_grid
        ]
    )
    assert radii.min() >= 1.0 / 3.0 - 1e-12
    k = int(radii.argmin())
    assert abs(af_grid[k] - 9.0 / 16.0) <= step
    # a double root is ill-conditioned: its computed modulus is off by ~sqrt(eps)
    assert radii[k] == pytest.approx(1.0 / 3.0, abs=1e-7)


@pytest.mark.parametrize("am,af", [(0.9, 0.6), (0.5, 0.3), (1.2, 0.55), (0.7, 1.1)])
def test_limit_inf_is_the_remark_one_large_t_limit(am, af):
    """The closed form holds for distinct gammas: against G(1e40) in 50 digits."""
    params = make_scheme(3, am, af, Variant.REMARK_ONE)
    Ainf = limit_matrix_inf(params)
    with mp.workdps(50):
        tab_l, tab_r = one_step_tableau(3, mp.mpf(am), mp.mpf(af), [mp.mpf(g) for g in params.gammas])
        t = mp.mpf(10) ** 40
        G = fill_tableau(tab_l, t, mp.zeros(3, 3)) ** -1 * fill_tableau(tab_r, t, mp.zeros(3, 3))
        for i in range(3):
            for j in range(3):
                assert abs(Ainf[i, j] - G[i, j]) <= 1e-15 * max(1, abs(G[i, j]))


# --- characteristic recurrence ------------------------------------------------


@pytest.mark.parametrize("p", range(2, 12))
def test_recurrence_annihilates_powers_of_g(p):
    params = make_scheme(p, 0.9, 0.6)
    t = 0.8
    G = amplification_matrix(params, t)
    v = np.array([(-t) ** j for j in range(p)], dtype=complex)
    seq = []
    for _ in range(p + 9):
        seq.append(v[0])
        v = G @ v
    tol = 1e-10 * np.abs(seq).max()
    assert characteristic_recurrence_residual(params, t, seq) <= tol


def test_recurrence_detects_foreign_sequence():
    params = make_scheme(3, 0.9, 0.6)
    residual = characteristic_recurrence_residual(params, 0.8, np.ones(8))
    # the value the principal-minor construction of det(mu I - G) gave
    assert residual == pytest.approx(0.6430868167202575, rel=1e-12)


def test_recurrence_raises_at_the_pole():
    params = make_scheme(3, 0.9, 0.55)
    t_pole = -params.alpha_m / (params.gamma1 * params.alpha_f)
    with pytest.raises(SingularAtT):
        characteristic_recurrence_residual(params, t_pole, np.ones(8))


def test_recurrence_needs_p_plus_one_values():
    params = make_scheme(3, 0.9, 0.6)
    with pytest.raises(TooShort):
        characteristic_recurrence_residual(params, 0.8, [1.0, 0.9, 0.8])


def test_recurrence_refuses_a_sequence_that_is_not_1d():
    params = make_scheme(3, 0.9, 0.6)
    with pytest.raises(ValueError, match=r"1-D, got shape \(10, 10\)"):
        characteristic_recurrence_residual(params, 0.8, np.ones((10, 10)))


# --- order conditions ------------------------------------------------------------


@pytest.mark.parametrize("p", range(2, 7))
def test_order_condition_is_the_taylor_coefficient(p):
    """C_q is the T^q coefficient of rho(exp(-T)) + T sigma(exp(-T)), by sympy's series."""
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(300 + p)
    am, af, *gammas = (Fraction(int(n), 16) for n in rng.integers(1, 33, p + 1))
    rho, sigma = char_poly(p, am, af, gammas)
    t = sympy.Symbol("T")
    series = sum(
        (sympy.Rational(r) + t * sympy.Rational(s)) * sympy.exp(-j * t) for j, (r, s) in enumerate(zip(rho, sigma))
    )
    taylor = sympy.Poly(sympy.series(series, t, 0, p + 3).removeO(), t)
    for q in range(p + 3):
        assert order_condition(rho, sigma, q) == Fraction(str(taylor.coeff_monomial(t**q)))


def test_recurrence_residual_of_the_exact_solution_tends_to_c4_over_alpha_m():
    """For u_n = exp(-T n) the recurrence residual is C_4 T^4 / alpha_m to
    leading order: 7/(108 alpha_m) at MAIN rho_inf = 1/2, and 37/456 for
    remark-one at (1, 3/5), where its C_4 is 37/456."""
    t = 2.5e-3
    u = np.exp(-t * np.arange(4))
    am, af = params_from_rho(0.5)
    main = make_scheme(3, am, af)
    assert characteristic_recurrence_residual(main, t, u) / t**4 == pytest.approx(7 / (108 * am), rel=1e-2)
    remark = make_scheme(3, 1.0, 0.6, Variant.REMARK_ONE)
    am, af = Fraction(1), Fraction(3, 5)
    g1 = 3 * am / (2 + 3 * af)
    g2 = (10 - 9 * af - 36 * af**2 + 6 * am + 36 * am * af) / (12 + 18 * af)
    assert remark.gammas == pytest.approx((float(g1), float(g2)), rel=1e-15)
    assert order_condition(*char_poly(3, am, af, [g1, g2]), 4) == Fraction(37, 456)
    assert characteristic_recurrence_residual(remark, t, u) / t**4 == pytest.approx(37 / 456, rel=1e-2)
