"""Property tests over random orders, parameters and T (hypothesis)."""

import cmath
import math
import tempfile
import warnings
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from galpha import stability
from galpha.amplification import amplification_matrix, char_poly
from galpha.errors import AllAtRoundoff, GalphaError
from galpha.integrator import init_state, integrate, scalar_problem, step
from galpha.orderlab import ROUNDOFF_FLOOR, measure_order
from galpha.schemes import RhoBranch, Variant, make_scheme
from galpha.stability import default_t_samples, scan_region, worst_case_radius

from conftest import check_exit_contract, cubic_roots, last, one_step_matrices

# Derandomized and without an example database, so every run checks the same
# examples.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

orders = st.integers(min_value=2, max_value=11)
alphas = st.floats(min_value=0.5, max_value=1.4)
moduli = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)


@PROPERTY
@given(
    p=orders,
    am=alphas,
    af=alphas,
    gammas=st.lists(st.floats(min_value=-1.0, max_value=2.0), min_size=10, max_size=10),
    modulus=moduli,
    angle=st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_det_l_is_the_pole_factor(p, am, af, gammas, modulus, angle):
    """(p-2)! det L(T) = alpha_m + gamma_1 alpha_f T: the scan's pole guard for every p."""
    t = modulus * cmath.exp(1j * angle)
    g = gammas[: p - 1]
    L, _ = one_step_matrices(p, am, af, g, t)
    expected = am + g[0] * af * t
    scale = abs(am) + abs(g[0] * af * t)
    assert abs(np.linalg.det(L) * factorial(p - 2) - expected) <= 1e-12 * scale


@PROPERTY
@given(
    p=orders,
    am=alphas,
    data=st.data(),
    modulus=moduli,
    angle=st.floats(min_value=-np.pi / 3, max_value=np.pi / 3),
)
def test_scalar_step_is_g_times_state(p, am, data, modulus, angle):
    # alpha_f <= alpha_m keeps gamma_1 > 0, so Re T > 0 stays off the pole
    af = data.draw(st.floats(min_value=0.5, max_value=am))
    params = make_scheme(p, am, af)
    t = modulus * cmath.exp(1j * angle)
    problem = scalar_problem(t)
    state = init_state(problem, 1.0, p, 1.0)
    stepped = step(params, problem, state)
    G, u = amplification_matrix(params, t), state.stack[:, 0]
    # G's entries reach ~(p-2)! at high order, so round-off scales with |G| |u|
    scale = max(1.0, (np.abs(G) @ np.abs(u)).max())
    assert np.abs(stepped.stack[:, 0] - G @ u).max() <= 1e-12 * scale


def _errors_per_tau(params, lam, t_end, taus):
    """measure_order's errors from one ``integrate`` per tau, or the error of the first tau that fails."""
    exact = cmath.exp(-lam * t_end)
    try:
        return tuple(abs(last(integrate(params, scalar_problem(lam), 1.0, tau, t_end))[1][0] - exact) for tau in taus)
    except (ValueError, GalphaError) as exc:
        return exc


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    p=st.integers(min_value=2, max_value=7),
    am=alphas,
    af=alphas,
    z=st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
    tau0=st.sampled_from([0.05, 0.1, 0.125, 0.2, 0.25, 0.5]),
    n0=st.integers(min_value=1, max_value=8),
    halvings=st.integers(min_value=1, max_value=6),
)
# c1 + sigma*lambda vanishes at tau_2 only: tau_0 and tau_1 march first
@example(p=3, am=0.9, af=0.6, z=complex(-0.9 / (0.43 * 0.0625) * 0.25), tau0=0.25, n0=1, halvings=2)
# ... and at tau_1 only, where tau_0's march overflows first
@example(p=2, am=0.25, af=2.0, z=160 + 0j, tau0=0.25, n0=800, halvings=1)
# an unstable scheme overflows at the finest tau only, then at the two finest
@example(p=6, am=1.0, af=0.75, z=3 + 0j, tau0=0.125, n0=24, halvings=5)
@example(p=6, am=1.0, af=0.75, z=6 + 0j, tau0=0.125, n0=48, halvings=5)
def test_ladder_march_is_one_integrate_per_tau(p, am, af, z, tau0, n0, halvings):
    """On a power-of-two ladder, with lambda = z / t_end (so |lambda| t_end <= 50),
    measure_order's one march gives the errors of ``integrate`` at each tau bit
    for bit, or raises the same error with the same message."""
    params = make_scheme(p, am, af)
    t_end = n0 * tau0
    lam, taus = z / t_end, [tau0 / 2**k for k in range(halvings + 1)]
    want = _errors_per_tau(params, lam, t_end, taus)
    try:
        got = measure_order(params, lam, t_end, taus).errors
    except AllAtRoundoff as exc:
        kept = sum(e > ROUNDOFF_FLOOR for e in want)
        assert kept < 2 and str(exc) == f"{kept} of {len(taus)} errors above floor {ROUNDOFF_FLOOR}"
        return
    except (ValueError, GalphaError) as exc:
        got = exc
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got == want


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    variant=st.sampled_from(list(Variant)),
    n_am=st.integers(min_value=2, max_value=4),
    n_af=st.integers(min_value=2, max_value=4),
    lo=st.floats(min_value=0.0, max_value=1.0),
    width=st.floats(min_value=0.05, max_value=1.0),
    n_t=st.integers(min_value=2, max_value=6),
)
def test_scan_equals_per_cell_radius(variant, n_am, n_af, lo, width, n_t):
    am_axis, af_axis = np.linspace(lo, lo + width, n_am), np.linspace(lo, lo + width, n_af)
    samples = default_t_samples(n_t, 1e-3, 1e6)
    smap = scan_region(am_axis, af_axis, variant, t_samples=samples)
    for i, am in enumerate(am_axis):
        for j, af in enumerate(af_axis):
            report = worst_case_radius(make_scheme(3, float(am), float(af), variant), samples)
            assert report.radius == smap.radius[i, j]
            assert report.repeated_unit_root == smap.repeated_root[i, j]


@PROPERTY
@given(p=orders, am=alphas, af=alphas)
def test_char_poly_is_affine_in_the_common_gamma(p, am, af):
    """With equal gammas g, every coefficient of rho and sigma (char_poly, in
    exact Fractions) is affine in g, and so is every order condition read
    from them: recover_C's root."""
    am, af = Fraction(am), Fraction(af)
    (rho0, sigma0), (rho_half, sigma_half), (rho1, sigma1) = (
        char_poly(p, am, af, [g] * (p - 1)) for g in (Fraction(0), Fraction(1, 2), Fraction(1))
    )
    assert (2 * rho_half == rho0 + rho1).all()
    assert (2 * sigma_half == sigma0 + sigma1).all()


@st.composite
def real_cubics(draw):
    """(c3, c2, c1, c0) of a real cubic and its drawn (root, multiplicity) pairs.

    Simple roots: three real roots or a real root and a conjugate pair, with
    moduli 10**e for e in [-100, 150] at least 10**0.1 apart; a common shift
    of e keeps the constant term within 1e-300..1e300.  Their coefficients
    are the exact ones rounded once to float.  Double and triple roots are
    m 2**k with m < 128, so that the float coefficients are exact and the
    drawn roots are the exact roots of the float cubic; their moduli lie
    between about 1e-97 and 1e104.
    """
    kind = draw(st.sampled_from(["real", "pair", "double", "triple"]))
    sign = [draw(st.sampled_from([-1, 1])) for _ in range(3)]
    if kind in ("double", "triple"):
        k = draw(st.integers(-320, 310))  # |x^2 y| stays within 2**-997..2**997
        x = sign[0] * draw(st.integers(1, 127)) * mp.ldexp(1, k)
        # |y/x| >= 2 or <= 1/2 keeps the simple root well conditioned
        j = draw(st.integers(8, 30)) * draw(st.sampled_from([-1, 1]))
        y = sign[1] * draw(st.integers(1, 127)) * mp.ldexp(1, k + j)
        roots = [(x, 3)] if kind == "triple" else [(x, 2), (y, 1)]
    else:
        e = sorted(draw(st.lists(st.floats(-100.0, 150.0), min_size=3, max_size=3)))
        for k in (1, 2):
            e[k] = max(e[k], e[k - 1] + 0.1)
        e = draw(st.permutations(e))
        if kind == "pair":
            e[2] = e[1]  # the pair's second root; the third drawn modulus goes unused
        total = sum(e)
        mods = [mp.mpf(10) ** (x - max(0.0, total - 300.0) / 3 + max(0.0, -300.0 - total) / 3) for x in e]
        if kind == "real":
            roots = [(s * m, 1) for s, m in zip(sign, mods)]
        else:
            pair = mods[1] * mp.expj(draw(st.floats(0.1, np.pi - 0.1)))
            roots = [(sign[0] * mods[0], 1), (pair, 1), (mp.conj(pair), 1)]
    r1, r2, r3 = (r for r, m in roots for _ in range(m))
    with mp.workdps(50):
        coeffs = [1, -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3]
        return [float(mp.re(c)) for c in coeffs], roots


def _exact_roots(coeffs, roots):
    """Roots of the float cubic at 50 digits: mpmath.polyroots for simple
    drawn roots, the drawn roots themselves for exact repeated ones."""
    if any(m > 1 for _, m in roots):
        return [complex(r) for r, m in roots for _ in range(m)]
    with mp.workdps(50):
        # Durand-Kerner stops on an absolute correction: scale the largest root to 1
        scale = max(abs(r) for r, _ in roots)
        monic = [mp.mpf(c) / coeffs[0] / scale**k for k, c in enumerate(coeffs)]
        guess = [r / scale for r, _ in roots]
        found = mp.polyroots(monic, maxsteps=100, extraprec=20, cleanup=False, roots_init=guess)
        return [complex(z * scale) for z in found]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cubic=real_cubics())
def test_real_cubic_kernel_matches_extended_precision(cubic):
    """The largest-modulus root to 1e-14 relative, each simple root to
    1e-12 max|root|, and a root of multiplicity m to 10 eps**(1/m) max|root|."""
    coeffs, roots = cubic
    exact = _exact_roots(coeffs, roots)
    got = list(cubic_roots(*coeffs[::-1]))
    big = max(abs(r) for r in exact)
    if max(roots, key=lambda rm: abs(rm[0]))[1] == 1:
        assert abs(max(abs(g) for g in got) - big) <= 1e-14 * big
    for x in exact:
        mult = min(roots, key=lambda rm: abs(complex(rm[0]) - x))[1]
        tol = 1e-12 if mult == 1 else 10 * np.finfo(float).eps ** (1 / mult)
        k = min(range(len(got)), key=lambda i: abs(got[i] - x))
        assert abs(got.pop(k) - x) <= tol * big


def _repeat_flag_kernels(c0, c1, c2, c3):
    """(radius, repeated) of one cubic, folded from ``_roots_radius(*_cubic_roots)`` and ``_cubic_radius``."""
    valid = np.ones(1, dtype=bool)
    radius, repeated = np.zeros(1), np.zeros(1, dtype=bool)
    roots = stability._cubic_roots(c0, c1, c2, c3)
    stability._fold(*stability._roots_radius(*roots), radius, repeated, valid)
    yield radius, repeated
    radius, repeated = np.zeros(1), np.zeros(1, dtype=bool)
    stability._fold(*stability._cubic_radius(c0, c1, c2, c3), radius, repeated, valid)
    yield radius, repeated


@PROPERTY
@given(
    unit=st.sampled_from([-1.0, 1.0]),
    third=st.floats(min_value=-0.9, max_value=0.9),
    apart=st.booleans(),
)
def test_cubic_repeat_flag_separates_a_double_unit_root_from_a_close_pair(unit, third, apart):
    """A double root at +-1 is flagged; a conjugate pair on the unit circle 1e-6 apart is not.

    Both the roots folded through ``_roots_radius`` and the scan's radius-only kernel."""
    pair = unit * np.exp([5e-7j, -5e-7j]) if apart else [unit, unit]
    c3, c2, c1, c0 = (np.array([c]) for c in np.poly([*pair, third]).real)
    for radius, repeated in _repeat_flag_kernels(c0, c1, c2, c3):
        assert radius[0] == pytest.approx(1.0, abs=1e-7)
        assert repeated[0] == (not apart)


@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("windows", [0.9, 1.1])
@PROPERTY
@given(unit=st.sampled_from([-1.0, 1.0]), distance=st.floats(min_value=1.0, max_value=1.9))
def test_cubic_repeat_flag_window_is_one_repeat_window(windows, conjugate, unit, distance):
    """Two roots at +-1 that are 0.9 REPEAT_WINDOW apart are flagged and two
    1.1 windows apart are not, for a real pair astride the circle and for a
    conjugate pair on it.  The third root sits ``distance`` from the pair, on
    the far side of 0.  On the pair's side the rounding of the coefficients
    alone moves the float cubic's pair (50-digit roots) by up to 0.3 windows."""
    half = windows * stability.REPEAT_WINDOW / 2.0
    if conjugate:
        pair = unit * np.exp([1j * np.arcsin(half), -1j * np.arcsin(half)])
    else:
        pair = unit * np.array([1.0 + half, 1.0 - half])
    c3, c2, c1, c0 = (np.array([c]) for c in np.poly([*pair, unit * (1.0 - distance)]).real)
    for radius, repeated in _repeat_flag_kernels(c0, c1, c2, c3):
        assert radius[0] == pytest.approx(np.abs(pair).max(), abs=1e-8)
        assert repeated[0] == (windows < 1.0)


# |x| log-uniform in [1e-300, 1e300], of either sign
signed_magnitudes = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=-300.0, max_value=300.0),
)
# every order with equal gammas, and both closures at p = 3
orders_and_closures = st.one_of(
    st.tuples(orders, st.just(Variant.EQUAL_GAMMA)),
    st.tuples(st.just(3), st.sampled_from(list(Variant))),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    scheme=orders_and_closures,
    am=signed_magnitudes,
    af=signed_magnitudes,
    ts=st.lists(st.floats(min_value=-4.0, max_value=308.0).map(lambda e: 10.0**e), min_size=1, max_size=5),
)
def test_radius_is_a_galpha_error_or_not_nan_without_warnings(scheme, am, af, ts):
    """From any parameters and T set, worst_case_radius either raises galpha's
    own ValueError (not numpy's LinAlgError) or a GalphaError, or returns a
    radius that is not nan; no warning escapes."""
    p, variant = scheme
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = worst_case_radius(make_scheme(p, am, af, variant), ts)
        except (ValueError, GalphaError) as exc:
            assert not isinstance(exc, np.linalg.LinAlgError)
            return
    assert not np.isnan(report.radius)


# --- the CLI from any numbers -------------------------------------------------------

NUMBERS = st.sampled_from([
    0.0, 1.0, -1.0, 0.5, 0.75, -2 / 3, 1e-320, -1e-320, 1e-300, -1e-300, 1e300, 1e308, -1e308,
    math.nan, math.inf, -math.inf,
])
# each end time over each step size is at most 1e4 steps, more steps than a
# list holds (refused) or not finite, so no march runs long
TAUS = st.sampled_from([0.0, -1.0, 0.25, 0.5, 1.0, 1e300, 1e308, 1e-300, 1e-320, math.nan, math.inf, -math.inf])
T_ENDS = st.sampled_from([0.0, -1.0, 0.5, 1.0, 2.0, 1e-320, math.nan, math.inf, -math.inf])
SCHEME_OPTIONS = {
    "p": st.integers(1, 12),
    "alpha-m": NUMBERS,
    "alpha-f": NUMBERS,
    "rho-inf": NUMBERS,
    "branch": st.sampled_from([b.value for b in RhoBranch]),
    "lambda": st.one_of(NUMBERS, st.tuples(NUMBERS, NUMBERS).map(lambda z: f"{z[0]},{z[1]}")),
    "variant": st.sampled_from([v.value for v in Variant]),
}
SUBCOMMANDS = {
    "integrate": dict(SCHEME_OPTIONS, **{"heat-n": st.integers(1, 4), "kappa": NUMBERS, "tau": TAUS,
                                         "t-end": T_ENDS}),
    "stability-map": {"grid-n": st.integers(1, 4), "alpha-min": NUMBERS, "alpha-max": NUMBERS,
                      "t-samples": st.integers(1, 3), "t-min": NUMBERS, "t-max": NUMBERS,
                      "variant": SCHEME_OPTIONS["variant"]},
    "rho-curve": {"n-rho": st.integers(1, 5)},
    "order-check": dict(SCHEME_OPTIONS, **{"t-end": T_ENDS, "tau-start": TAUS, "n-halvings": st.integers(0, 2),
                                           "recover-c": st.just(None)}),
}


def _argv(subcommand, options):
    """``subcommand`` and its drawn options, each as ``--opt=value`` (a bare flag for None)."""
    return [subcommand, *(f"--{k}" if v is None else f"--{k}={v}" for k, v in options.items())]


cli_argvs = st.one_of(*(
    st.fixed_dictionaries({}, optional=options).map(lambda o, sub=sub: _argv(sub, o))
    for sub, options in SUBCOMMANDS.items()
))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=cli_argvs)
def test_cli_exits_cleanly_from_any_numbers(argv):
    """Every subcommand, from any numbers, meets the CLI's exit contract, and
    argparse refuses none of the drawn values."""
    with tempfile.TemporaryDirectory() as tmp:
        code, _, payload = check_exit_contract(argv, tmp)
    assert code == 0 or payload is not None
