"""Tests for worst-case radius evaluation and parameter-plane scanning."""

import tracemalloc
import warnings

import numpy as np
import pytest
from mpmath import mp

from galpha import numkit, stability
from galpha.amplification import (
    amplification_matrix,
    char_poly,
    fill_tableau,
    limit_matrix_inf,
    limit_matrix_zero,
    one_step_elimination,
    one_step_tableau,
    pole_factor,
)
from galpha.errors import SingularAtT
from galpha.schemes import (
    RhoBranch,
    Variant,
    closure_gammas,
    in_stability_region,
    make_scheme,
    params_from_rho,
)
from galpha.stability import (
    RADIUS_TOL,
    RadiusReport,
    StabilityMap,
    default_t_samples,
    rho_curve,
    scan_region,
    worst_case_radius,
    write_stability_csv,
)

from conftest import assert_spectrum, cubic_roots
from oracles import verify_rho_control


def _axis(n):
    """n points over [0, 1.5], the CLI's default map range."""
    return np.linspace(0.0, 1.5, n)


def _ray(angle, n=16):
    """Log-spaced samples along the ray arg(T) = angle (off-axis diagnostics)."""
    return default_t_samples(n) * complex(np.cos(angle), np.sin(angle))


# --- sample sets ---------------------------------------------------------------


def test_default_t_samples():
    samples = default_t_samples()
    assert samples.shape == (48,)
    assert samples[0] == pytest.approx(1e-4)
    assert samples[-1] == pytest.approx(1e8)
    assert np.all(np.diff(samples) > 0)
    assert np.isrealobj(samples)


def test_default_t_samples_stays_a_fresh_writable_array_after_radius_calls():
    """The scan keeps its own read-only default set: a caller's copy is theirs
    to write, and writing it moves no radius."""
    params = make_scheme(5, 1.0, 0.6)
    before = worst_case_radius(params)
    first, second = default_t_samples(), default_t_samples()
    assert first.flags.writeable and not np.shares_memory(first, second)
    first[:] = 1.0
    assert np.array_equal(default_t_samples(), second)
    assert worst_case_radius(params) == before


# --- worst-case radius ----------------------------------------------------------


@pytest.mark.parametrize("p,variant", [(p, Variant.EQUAL_GAMMA) for p in range(2, 12)] + [(3, Variant.REMARK_ONE)])
def test_no_t_samples_is_the_default_set_bit_for_bit(p, variant):
    rng = np.random.default_rng(p)
    am = rng.uniform(0.6, 1.3)
    params = make_scheme(p, am, rng.uniform(0.5, am), variant)
    assert worst_case_radius(params) == worst_case_radius(params, default_t_samples())


@pytest.mark.parametrize("amf", [(29.0 / 36.0, 5.0 / 9.0), (1.0, 0.6), (0.75, 0.55)])
def test_radius_inside_region(amf):
    report = worst_case_radius(make_scheme(3, *amf))
    # the T -> 0 limit always contributes the consistency eigenvalue 1
    assert report.radius == pytest.approx(1.0, abs=1e-9)
    assert not report.repeated_unit_root
    assert report.stable


def test_radius_outside_region():
    report = worst_case_radius(make_scheme(3, 0.5, 0.5))
    assert report.radius > 1.3
    assert not report.stable


def test_corner_point_has_repeated_unit_root():
    # At (7/12, 1/2) the stiff-limit matrix carries a defective double
    # eigenvalue at -1, so the strict reading of power-boundedness rejects
    # this single boundary point even though the closed-form inequalities
    # admit it.  The scan grid never lands exactly there.
    report = worst_case_radius(make_scheme(3, 7.0 / 12.0, 0.5))
    assert report.radius == pytest.approx(1.0, abs=1e-12)
    assert report.repeated_unit_root
    assert not report.stable
    assert in_stability_region(7.0 / 12.0, 0.5)


def test_rays_near_imaginary_axis_destabilize():
    """Real-axis stability does not extend to rotated T rays (not A-stable)."""
    params = make_scheme(3, *params_from_rho(0.5))
    assert worst_case_radius(params).stable
    report = worst_case_radius(params, _ray(1.5))
    assert report.radius > 1.05


A0_DESIGNS = {
    "main-0.34": (params_from_rho(0.34), Variant.EQUAL_GAMMA),
    "main-0.5": (params_from_rho(0.5), Variant.EQUAL_GAMMA),
    "main-0.9": (params_from_rho(0.9), Variant.EQUAL_GAMMA),
    "alt1-0.5": (params_from_rho(0.5, RhoBranch.ALT1), Variant.EQUAL_GAMMA),
    "equal-gamma": ((1.0, 0.6), Variant.EQUAL_GAMMA),
    "remark-one": ((0.9, 0.6), Variant.REMARK_ONE),
}


@pytest.mark.parametrize("design", sorted(A0_DESIGNS))
def test_third_order_designs_are_a0_stable_not_a_stable(design):
    """Dahlquist's second barrier: an A-stable LMM has order <= 2.

    So "unconditionally stable" for p = 3 means stable on the real half-line
    T >= 0 (A0-stability), and a ray just inside the right half-plane finds a
    radius above 1.
    """
    amf, variant = A0_DESIGNS[design]
    params = make_scheme(3, *amf, variant)
    assert worst_case_radius(params).stable
    report = worst_case_radius(params, _ray(0.999 * np.pi / 2, n=64))
    assert report.radius > 1.0 + 1e-3


def test_singular_sample_marks_unstable_p2():
    params = make_scheme(2, 0.5, 1.5)  # gamma = -1/2
    t_pole = -params.alpha_m / (params.gamma1 * params.alpha_f)
    report = worst_case_radius(params, [t_pole])
    assert report.radius == np.inf
    assert not report.stable


def test_singular_sample_marks_unstable_p3():
    params = make_scheme(3, 0.5, 1.2)  # gamma_1 < 0 puts a pole on the real axis
    t_pole = -params.alpha_m / (params.gamma1 * params.alpha_f)
    report = worst_case_radius(params, [t_pole])
    assert report.radius == np.inf
    assert not report.stable


def test_singular_sample_marks_unstable_p4():
    # (p-2)! det L(T) = alpha_m + gamma_1 alpha_f T for every p, so the scan
    # kernel's pole guard covers orders other than 3 as well
    params = make_scheme(4, 0.5, 1.2)  # gamma_1 < 0 puts a pole on the real axis
    t_pole = -params.alpha_m / (params.gamma1 * params.alpha_f)
    report = worst_case_radius(params, [t_pole])
    assert report.radius == np.inf
    assert not report.stable


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("alpha_m", [0.25, 0.5, 0.9, 0.99])
def test_alpha_f_zero_is_a_pole_of_the_tinf_limit(alpha_m, variant):
    """At alpha_f = 0, (p-2)! det L(T) = alpha_m for every T, so every
    sample's G(T) is finite; but the T -> inf pair has determinant
    gamma_1 alpha_f = 0 and the largest root grows like T, so the radius is inf."""
    params = make_scheme(3, alpha_m, 0.0, variant)

    def radius(t):
        return float(np.abs(numkit.eigenvalues(amplification_matrix(params, t))).max())

    assert np.isfinite([radius(t) for t in default_t_samples()]).all()
    assert radius(1e8) / radius(1e5) == pytest.approx(1e3, rel=1e-4)
    assert worst_case_radius(params).radius == np.inf


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
def test_radius_matches_per_sample_eigenvalues(p):
    """Every order runs the scan kernel; numkit on G(T) sample by sample agrees,
    at p = 3 together with the closed-form limit matrices (G(0) decides the
    first three equal-gamma p = 3 radii, G(inf) the fourth and three of the
    remark-one ones)."""
    samples = default_t_samples()
    equal_gamma = [(1.0, 0.75), (0.8, 0.6), (1.3, 0.55), (0.5, 0.5)]
    designs = [(am, af, Variant.EQUAL_GAMMA) for am, af in equal_gamma]
    if p == 3:
        remark_one = [(0.5, 0.3), (0.9, 0.6), (1.2, 0.55), (0.7, 1.1)]
        designs += [(am, af, Variant.REMARK_ONE) for am, af in remark_one]
    for am, af, variant in designs:
        params = make_scheme(p, am, af, variant)
        matrices = [amplification_matrix(params, t) for t in samples]
        if p == 3:
            matrices += [limit_matrix_zero(params), limit_matrix_inf(params)]
        expected = max(float(np.abs(numkit.eigenvalues(m)).max()) for m in matrices)
        report = worst_case_radius(params, samples)
        assert report.radius == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_alpha_f_zero_reads_inf_below_the_overflow_of_the_cubic():
    # alpha_f = 0: the radius grows like T, and T -> inf is the pole
    assert worst_case_radius(make_scheme(3, 1.0, 0.0), [1e300]).radius == np.inf


def test_alpha_m_zero_is_a_pole_of_the_t0_limit():
    # det L(T) = gamma_1 alpha_f T: every positive sample is finite, T = 0 is the pole
    params = make_scheme(3, 0.0, 0.6)
    per_sample = max(
        float(np.abs(numkit.eigenvalues(amplification_matrix(params, t))).max())
        for t in default_t_samples()
    )
    assert np.isfinite(per_sample)
    assert worst_case_radius(params).radius == np.inf


@pytest.mark.parametrize("samples", [_ray(1.3), _ray(0.999 * np.pi / 2, n=64)])
@pytest.mark.parametrize("design", sorted(A0_DESIGNS))
def test_p3_complex_samples_match_per_sample_eigenvalues(design, samples):
    """Complex T at p = 3 take eigvals of the one-step matrices; numkit on G(T)
    sample by sample, and on the limit matrices, agrees."""
    amf, variant = A0_DESIGNS[design]
    params = make_scheme(3, *amf, variant)
    matrices = [amplification_matrix(params, t) for t in samples]
    matrices += [limit_matrix_zero(params), limit_matrix_inf(params)]
    expected = max(float(np.abs(numkit.eigenvalues(m)).max()) for m in matrices)
    report = worst_case_radius(params, samples)
    assert report.radius == pytest.approx(expected, rel=1e-12, abs=0.0)


KNOWN_CUBIC_ROOTS = [
    (3.0, 1.0, 1e-12),  # the remaining quadratic needs the cancellation-free form
    (-2e150, 0.5, 0.25),  # unscaled, Cardano's (Q/2)^2 overflows
    (1e-100, -3e-101, 2e-102),
    (0.9 + 0.3j, 0.9 - 0.3j, -0.2),
    (1e-12, 1j, -1j),  # the one real root is the small one: deflate by -a - mu1
    (2.0, -1e-9, 1e-9),
    (0.5, 0.5, 0.5),  # triple root: pp = qq = 0
    (0.0, 0.0, 0.0),
]


@pytest.mark.parametrize("roots", KNOWN_CUBIC_ROOTS)
def test_cubic_roots_of_known_polynomials(roots):
    c3, c2, c1, c0 = -1.7 * np.poly(roots).real
    got = list(cubic_roots(*(np.array(c) for c in (c0, c1, c2, c3))))
    for want in roots:
        k = min(range(len(got)), key=lambda i: abs(got[i] - want))
        assert abs(got.pop(k) - want) <= 1e-14 * abs(want)


W = stability.REPEAT_WINDOW

#: Cubics with exactly two root moduli within REPEAT_WINDOW of 1, in each
#: pairing of the kernel's slots (|x1|, |x2|, |q/x2|) that can hold them, with
#: those slots and the repeated flag, then controls with moduli 1 +- 2 W.
NEAR_UNIT_CUBICS = [
    ((-2.0, 1.0 + 0.3 * W, 1.0 - 0.3 * W), (1, 2), True),  # the real pair (x2, x3)
    ((-2.0, 1.0 + 0.9 * W, -1.0 + 0.9 * W), (1, 2), False),
    ((1.0 + 0.3 * W, 1.0 - 0.3 * W, 0.3), (0, 1), True),  # the pair (x1, x2)
    ((1.0 + 0.5 * W, -1.0 + 0.5 * W, 0.3), (0, 1), False),
    ((np.exp(1j), np.exp(-1j), 0.5), (1, 2), False),  # a complex pair beside a real root
    ((1.0 + 2.0 * W, 1.0 - 2.0 * W, 0.3), (), False),
    ((-2.0, 1.0 + 2.0 * W, 1.0 - 2.0 * W), (), False),
    ((np.exp(1j) * (1.0 + 2.0 * W), np.exp(-1j) * (1.0 + 2.0 * W), 0.5), (), False),
]


@pytest.mark.parametrize("d", range(2, 7))
def test_two_near_one_is_the_count_rule_on_every_pattern(d):
    """The running masks flag exactly the columns where at least two of the d
    rows hold, on all 2**d patterns, from an array or a list of rows."""
    mask = ((np.arange(2**d)[None, :] >> np.arange(d)[:, None]) & 1) == 1
    before = mask.copy()
    expected = mask.sum(axis=0) >= 2
    np.testing.assert_array_equal(stability._two_near_one(mask), expected)
    np.testing.assert_array_equal(stability._two_near_one(list(mask)), expected)
    np.testing.assert_array_equal(mask, before)


@pytest.mark.parametrize("roots, slots, repeated", NEAR_UNIT_CUBICS)
def test_cubic_radius_with_two_moduli_near_one_is_the_roots_folded(roots, slots, repeated):
    c3, c2, c1, c0 = (np.array([c]) for c in -1.7 * np.poly(roots).real)
    re, im = stability._cubic_roots(c0, c1, c2, c3)
    assert tuple(np.flatnonzero(np.abs(np.hypot(re, im)[:, 0] - 1.0) <= W)) == slots
    _assert_radius_kernel_is_the_roots_folded(c0, c1, c2, c3)
    assert stability._cubic_radius(c0, c1, c2, c3)[1].tolist() == [repeated]


def _assert_radius_kernel_is_the_roots_folded(c0, c1, c2, c3):
    """``_cubic_radius`` gives bit for bit the (radius, repeated) of ``_roots_radius(*_cubic_roots)``."""
    radius, repeated = stability._cubic_radius(c0, c1, c2, c3)
    expected_radius, expected_repeated = stability._roots_radius(*stability._cubic_roots(c0, c1, c2, c3))
    np.testing.assert_array_equal(radius, expected_radius)
    np.testing.assert_array_equal(repeated, expected_repeated)


@pytest.mark.parametrize("roots", KNOWN_CUBIC_ROOTS)
def test_cubic_radius_of_known_polynomials_is_the_roots_folded(roots):
    c3, c2, c1, c0 = -1.7 * np.poly(roots).real
    _assert_radius_kernel_is_the_roots_folded(*(np.array([c]) for c in (c0, c1, c2, c3)))


def test_cubic_radius_of_a_mixed_block_is_each_cubic_alone():
    """Near-unit cubics, whose roots the kernel takes from their own
    coefficients, and far ones in one (samples, cells) block: each cell is
    bit for bit its single-cubic call and the roots folded."""
    half = [w * stability.REPEAT_WINDOW / 2.0 for w in (0.9, 1.1)]
    cubics = [(1.0, 1.0, -0.5)]  # a double unit root
    cubics += [(1.0 + h, 1.0 - h, -0.5) for h in half]  # a real pair astride the circle
    cubics += [(np.exp(1j * np.arcsin(h)), np.exp(-1j * np.arcsin(h)), -0.5) for h in half]
    cubics += KNOWN_CUBIC_ROOTS + [roots for roots, _, _ in NEAR_UNIT_CUBICS]
    coeffs = np.array([np.poly(roots).real for roots in cubics]).T  # (4, cells)
    block = np.stack([-1.7 * coeffs, 0.3 * coeffs], axis=1)[::-1]  # c0 .. c3, (samples, cells)
    _assert_radius_kernel_is_the_roots_folded(*block)
    radius, repeated = stability._cubic_radius(*block)
    assert repeated[:, :5].tolist() == [[True, True, False, True, False]] * 2
    for k in np.ndindex(radius.shape):
        single = [np.array([c[k]]) for c in block]
        assert (radius[k], repeated[k]) == tuple(x[0] for x in stability._cubic_radius(*single))
        assert (radius[k], repeated[k]) == tuple(
            x[0] for x in stability._roots_radius(*stability._cubic_roots(*single))
        )


def _pairwise_flag(re, im):
    """The repeated-unit-root flag by the pairwise test over every spectrum."""
    mods = np.hypot(re, im)
    near_one = np.abs(mods - 1.0) <= stability.REPEAT_WINDOW
    flag = np.zeros(mods.shape[1:], dtype=bool)
    for i in range(1, len(mods)):
        for j in range(i):
            dre, dim = re[i] - re[j], im[i] - im[j]
            flag |= (dre * dre + dim * dim <= stability.REPEAT_WINDOW**2) & near_one[i] & near_one[j]
    return flag


@pytest.mark.parametrize("d", range(2, 12))
def test_roots_radius_is_the_pairwise_test_over_every_spectrum(d):
    """The pair test, run only where two moduli lie near 1, flags exactly the
    spectra that the test over all of them flags; the radius is the largest modulus."""
    rng = np.random.default_rng(d)
    angles = rng.uniform(-np.pi, np.pi, (d, 6, 50))
    mods = rng.uniform(0.5, 1.5, (d, 6, 50))
    near = rng.random((d, 6, 50)) < 0.3  # about a third of the roots on the circle
    mods[near] = 1.0 + rng.uniform(-1.0, 1.0, near.sum()) * stability.REPEAT_WINDOW
    re, im = mods * np.cos(angles), mods * np.sin(angles)
    # the second root of some spectra within a window of the first, both on the circle
    close = rng.random((6, 50)) < 0.2
    re[1, close] = re[0, close] * (1.0 + 3e-8)
    im[1, close] = im[0, close]
    radius, repeated = stability._roots_radius(re, im)
    np.testing.assert_array_equal(repeated, _pairwise_flag(re, im))
    np.testing.assert_array_equal(radius, np.hypot(re, im).max(axis=0))
    assert repeated.any() and not repeated.all()


def test_roots_radius_of_a_double_unit_root_beside_a_huge_one_warns_nothing():
    """The pair distance to a root of modulus 1e300 overflows to inf: no flag
    and no numpy warning for that pair, the double unit root flagged."""
    re, im = np.array([[1.0], [1.0], [1e300]]), np.zeros((3, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radius, repeated = stability._roots_radius(re, im)
    assert radius.tolist() == [1e300] and repeated.tolist() == [True]


def test_cubic_radius_beyond_the_double_range_is_inf_without_warnings():
    """A cubic whose monic coefficients overflow (c2 / c3 = 1e310), and one whose
    bound 1.5e308 has no finite power-of-two scale, read radius inf, not nan;
    the finite cubic beside them keeps its radius."""
    c0, c1, c2, c3 = (np.array(c) for c in zip((0.0, 0.0, 1e10, 1e-300), (0.0, 0.0, -1.5e308, 1.0),
                                               (-1.0, 1.0, 1.0, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radius, repeated = stability._cubic_radius(c0, c1, c2, c3)
    assert radius[:2].tolist() == [np.inf, np.inf]
    assert radius[2] == stability._roots_radius(*stability._cubic_roots(c0[2:], c1[2:], c2[2:], c3[2:]))[0][0]
    assert repeated.tolist() == [False, False, False]


@pytest.mark.parametrize(
    "p, alpha_m, alpha_f",
    [(2, 1e-300, 1e-300), (3, 1e-300, 1e-300), (4, 1e-300, 1e-300), (7, 1e-300, 1e-300), (3, 1.0, 1e-200)],
)
def test_tiny_parameters_give_a_finite_radius_without_overflow_warnings(p, alpha_m, alpha_f):
    """Spectra with roots near 1e300 take no pair test, so nothing squares them."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = worst_case_radius(make_scheme(p, alpha_m, alpha_f))
    assert 1e199 < report.radius < np.inf
    assert not report.stable


def test_remark_one_pole_column_reads_inf_like_any_pole():
    """On the remark-one closure's pole 2 + 3 alpha_f = 0 the weights are not
    finite; those cells fail the pole rule and read radius inf without a
    numpy warning, and LAPACK, which would refuse them, gets zeros there."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smap = scan_region(np.array([0.5, 1.0]), np.array([-2.0 / 3.0, 0.6]), Variant.REMARK_ONE)
    assert smap.radius[:, 0].tolist() == [np.inf, np.inf]
    assert np.isfinite(smap.radius[:, 1]).all()
    assert not smap.stable[:, 0].any()


def _one_real_root(c0, c1, c2, c3):
    """Where the depressed monic cubic's discriminant qq^2/4 + pp^3/27 is positive.

    The kernel takes Cardano on these cells and the trigonometric form on the
    others.  It scales the cubic by a power of two first, which leaves the
    sign of each operation's result as it is here."""
    a, b, d = c2 / c3, c1 / c3, c0 / c3
    a3 = a / 3.0
    pp = b - a * a3
    qq = d - a3 * b + 2.0 * a3 * a3 * a3
    return qq * qq / 4.0 + pp * pp * pp / 27.0 > 0.0


@pytest.mark.parametrize("variant", list(Variant))
def test_cubic_radius_on_the_default_map_is_the_roots_folded(variant):
    """Every sample of the default 200 x 200 map, T = 0 included, with both branches taken."""
    am, af = (x.ravel() for x in np.meshgrid(_axis(200), _axis(200), indexing="ij"))
    gammas = closure_gammas(3, am, af, variant)
    rho, sigma = char_poly(3, am, af, gammas)
    one_real = three_real = 0
    for t in np.concatenate(([0.0], default_t_samples())):
        c0, c1, c2 = rho[:3] + t * sigma[:3]
        det, valid = pole_factor(am, gammas[0] * af * t)
        c3 = np.where(valid, -det, 1.0)
        _assert_radius_kernel_is_the_roots_folded(c0, c1, c2, c3)
        one = _one_real_root(c0, c1, c2, c3)
        one_real += int(one.sum())
        three_real += int((~one).sum())
    assert one_real > 0 and three_real > 0


def _p3_cells():
    """Random cells of both closures, alpha_f = 0 cells, and cells one grid
    step (of the default 200-cell axis) on either side of each region edge."""
    rng = np.random.default_rng(11)
    h = 1.5 / 199
    cells = [(float(am), float(af)) for am, af in rng.uniform(0.0, 1.5, (10, 2))]
    cells += [(am, 0.0) for am in (0.3, 0.8, 1.1155778894472361, 1.4)]
    for am in rng.uniform(0.7, 1.4, 3):
        am = float(am)
        cells += [(am, 0.5 - h), (am, 0.5 + h), (am, am - 1 / 12 - h), (am, am - 1 / 12 + h)]
    for af in rng.uniform(0.5, 0.5 + 1 / 12, 2):
        cells += [(7 / 12 - h, float(af)), (7 / 12 + h, float(af))]
    return [(am, af, v) for am, af in cells for v in Variant]


@pytest.mark.parametrize("am,af,variant", _p3_cells())
def test_p3_roots_match_per_sample_eigenvalues(am, af, variant):
    """Each cubic root of rho + T sigma is an eigenvalue of G(T) (numkit, per sample)."""
    params = make_scheme(3, am, af, variant)
    rho, sigma = char_poly(3, am, af, params.gammas)
    samples = default_t_samples()
    det = am + params.gamma1 * af * samples
    c0, c1, c2 = rho[:3, None] + samples * sigma[:3, None]
    roots = cubic_roots(c0, c1, c2, -det)
    checked = 0
    for t, got in zip(samples, roots):
        try:
            expected = numkit.eigenvalues(amplification_matrix(params, t))
        except SingularAtT:
            continue
        radius = float(np.abs(expected).max())
        assert_spectrum(got, expected, tol=1e-10 * max(1.0, radius))
        checked += 1
    assert checked >= 46


def test_p3_largest_root_at_alpha_f_zero_matches_extended_precision():
    # remark-one, alpha_f = 0, T = 1e8: one root near -2.1e8 and two of order
    # 1; Cardano with Newton on all three roots returned 0.330 +- 0.060i for
    # the small pair, deflation recovers 0.167 and 0.493
    am, af, t = 1.1155778894472361, 0.0, 1e8
    params = make_scheme(3, am, af, Variant.REMARK_ONE)
    with mp.workdps(50):
        one = mp.mpf(1)
        tab_l, tab_r = one_step_tableau(3, mp.mpf(am), mp.mpf(af), [mp.mpf(g) for g in params.gammas])
        G = fill_tableau(tab_l, t * one, mp.zeros(3, 3)) ** -1 * fill_tableau(tab_r, t * one, mp.zeros(3, 3))
        exact = [complex(e) for e in mp.eig(G)[0]]
    exact_radius = max(abs(e) for e in exact)
    assert exact_radius == pytest.approx(2.12349849906667e8, rel=1e-14)

    rho, sigma = char_poly(3, am, af, params.gammas)
    roots = cubic_roots(*(rho[:3] + t * sigma[:3]), -(am + params.gamma1 * af * t))
    assert np.abs(roots).max() == pytest.approx(exact_radius, rel=1e-14, abs=0.0)
    small = sorted((e for e in exact if abs(e) < 1.0), key=abs)
    assert_spectrum(sorted(roots, key=abs)[:2], small, tol=1e-12)


@pytest.mark.parametrize("samples", [default_t_samples(15, 1e-3, 1e7), _ray(1.3, 6)])
@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("ncell", [7, 39, 40, 41, 95])
def test_blocked_scan_equals_single_cell_calls(monkeypatch, p, ncell, samples):
    """Blocking T samples changes no bit.  With a block of 40 pairs, 7 cells
    take 5 samples per block (the last block partial), 39 to 95 cells one
    sample per block, and a single cell all samples at once."""
    monkeypatch.setattr(stability, "_BLOCK_PAIRS", 40)
    rng = np.random.default_rng(ncell)
    am, af = rng.uniform(0.0, 1.5, (2, ncell))
    gammas = closure_gammas(p, am, af)
    radius, repeated = stability._scan_cells(p, am, af, gammas, samples)
    for k in range(ncell):
        report = worst_case_radius(make_scheme(p, float(am[k]), float(af[k])), samples)
        assert report.radius == radius[k]
        assert report.repeated_unit_root == repeated[k]


def test_real_samples_take_the_real_eigensolver(monkeypatch):
    """Real T (and the T -> inf limit) reach eigvals as float64 stacks,
    complex T as complex128; the spectra agree to round-off."""
    dtypes, eigvals = [], np.linalg.eigvals

    def recording_eigvals(a):
        dtypes.append(a.dtype)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
    rng = np.random.default_rng(3)
    am, af = rng.uniform(0.6, 1.4, (2, 9))
    for p in (3, 4):
        elimination = one_step_elimination(p, am, af, closure_gammas(p, am, af))
        t = default_t_samples(5)[:, None]
        valid = np.ones((5, 9), dtype=bool)
        radius = [stability._sample_spectra(None, elimination, ts, valid)[0] for ts in (t, t + 0j)]
        assert np.abs(radius[0] - radius[1]).max() <= 1e-13 * radius[1].max()
    assert dtypes == [np.float64, np.complex128] * 2
    dtypes.clear()
    scan_region(_axis(3), _axis(3), Variant.EQUAL_GAMMA)
    assert dtypes == [np.float64]


def _seeded_cell(p):
    """A seeded equal-gamma scheme of order p with 0.6 <= alpha_m <= 1.3, 0.5 <= alpha_f <= alpha_m."""
    rng = np.random.default_rng(p)
    am = rng.uniform(0.6, 1.3)
    return make_scheme(p, am, rng.uniform(0.5, am))


@pytest.mark.parametrize("p", range(2, 12))
def test_sample_spectra_match_per_sample_eigenvalues(monkeypatch, p):
    """Each sample's spectrum of G(T) from the elimination is, to round-off,
    numkit's eigenvalues of amplification_matrix (LAPACK's solve of L G = R),
    sample by sample, on the real axis (not at p = 3, whose real samples take
    the cubic) and on a complex ray."""
    spectra, eigvals = [], np.linalg.eigvals

    def recording_eigvals(a):
        spectra.append(eigvals(a))
        return spectra[-1]

    monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
    params = _seeded_cell(p)
    ray = default_t_samples(16, 1e-3, 1e6) * np.exp(0.3j)
    for samples in [ray] if p == 3 else [default_t_samples(), ray]:
        spectra.clear()
        worst_case_radius(params, samples)
        samples = np.concatenate(([0.0], samples)) if p == 3 else samples  # T = 0 leads at p = 3
        assert spectra[0].shape == (samples.size, 1, p)
        for t, got in zip(samples, spectra[0][:, 0]):
            expected = numkit.eigenvalues(amplification_matrix(params, t))
            assert_spectrum(got, expected, tol=1e-12 * max(1.0, np.abs(expected).max()))


@pytest.mark.parametrize("p", range(8, 12))
def test_high_order_radius_matches_extended_precision(p):
    """At p = 8..11 the worst radius over the 48 default samples is within
    1e-14 relative of the one from 50-digit ``mp.eig`` of L^-1 R.

    ``mp.eig`` runs only at the samples whose radius by LAPACK's solve route
    (numkit's eigenvalues of amplification_matrix) lies within 1e-9 relative
    of that route's maximum.  A true maximum left out of them would leave
    ``exact`` short of the scan's radius by more than about 1e-9 relative,
    and fail the test, not pass it."""
    params = _seeded_cell(p)
    samples = default_t_samples()
    reference = np.array([np.abs(numkit.eigenvalues(amplification_matrix(params, t))).max() for t in samples])
    worst = samples[reference >= reference.max() * (1.0 - 1e-9)]
    with mp.workdps(50):
        tab_l, tab_r = one_step_tableau(
            p, mp.mpf(params.alpha_m), mp.mpf(params.alpha_f), [mp.mpf(g) for g in params.gammas])
        exact = float(max(
            max(abs(e) for e in mp.eig(fill_tableau(tab_l, t, mp.zeros(p, p)) ** -1
                                       * fill_tableau(tab_r, t, mp.zeros(p, p)), left=False, right=False))
            for t in map(mp.mpf, worst)))
    report = worst_case_radius(params)
    assert report.radius == pytest.approx(exact, rel=1e-14, abs=0.0)
    assert not report.repeated_unit_root


# --- plane scans ----------------------------------------------------------------


def test_scan_matches_single_cell_calls():
    am_axis = af_axis = _axis(12)
    samples = default_t_samples(16, 1e-3, 1e6)
    smap = scan_region(am_axis, af_axis, Variant.EQUAL_GAMMA, t_samples=samples)
    rng = np.random.default_rng(2)
    for _ in range(8):
        i = int(rng.integers(0, 12))
        j = int(rng.integers(0, 12))
        report = worst_case_radius(
            make_scheme(3, float(am_axis[i]), float(af_axis[j])), samples
        )
        assert report.radius == smap.radius[i, j]
        assert report.repeated_unit_root == smap.repeated_root[i, j]


@pytest.mark.parametrize("variant", list(Variant))
def test_complex_ray_scan_matches_single_cell_calls(variant):
    """On a complex ray the grid reads its elimination in per-cell arrays and
    a single cell in Python floats; both give the same bits."""
    am_axis = af_axis = _axis(12)
    samples = default_t_samples(16, 1e-3, 1e6) * np.exp(0.3j)
    smap = scan_region(am_axis, af_axis, variant, t_samples=samples)
    for i, am in enumerate(am_axis.tolist()):
        for j, af in enumerate(af_axis.tolist()):
            report = worst_case_radius(make_scheme(3, am, af, variant), samples)
            assert report.radius == smap.radius[i, j]
            assert report.repeated_unit_root == smap.repeated_root[i, j]


def test_scan_classification_tracks_closed_form():
    am_axis = af_axis = _axis(40)
    smap = scan_region(am_axis, af_axis, Variant.EQUAL_GAMMA)
    closed = np.array(
        [[in_stability_region(am, af) for af in af_axis] for am in am_axis]
    )
    agreement = (smap.stable == closed).mean()
    assert agreement >= 0.97


def test_remark_one_scan_has_more_stable_cells():
    axis = _axis(24)
    samples = default_t_samples(24, 1e-4, 1e6)
    eq = scan_region(axis, axis, Variant.EQUAL_GAMMA, t_samples=samples)
    rm = scan_region(axis, axis, Variant.REMARK_ONE, t_samples=samples)
    assert rm.stable.sum() > eq.stable.sum()


def test_scan_of_an_empty_grid():
    smap = scan_region(_axis(0), _axis(3), Variant.EQUAL_GAMMA)
    assert smap.radius.shape == smap.repeated_root.shape == (0, 3)


def test_scan_axes_and_shapes():
    smap = scan_region(_axis(5), _axis(7), Variant.EQUAL_GAMMA, t_samples=default_t_samples(4))
    assert smap.alpha_m.shape == (5,)
    assert smap.alpha_f.shape == (7,)
    assert smap.radius.shape == (5, 7)
    assert smap.repeated_root.shape == (5, 7)
    assert smap.stable.dtype == bool


def _one_cell(am, af, variant, samples):
    """(radius, repeated) of one cell by worst_case_radius; on the remark-one
    pole, which make_scheme refuses, by the one-cell scan that it runs."""
    if variant is Variant.REMARK_ONE and 2.0 + 3.0 * af == 0.0:
        radius, repeated = stability._scan_cells(3, np.array([am]), np.array([af]), variant, samples)
        return radius[0], repeated[0]
    report = worst_case_radius(make_scheme(3, am, af, variant), samples)
    return report.radius, report.repeated_unit_root


@pytest.mark.parametrize("samples", [default_t_samples(7, 1e-3, 1e7), _ray(1.3, 5)])
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("block, n_m, n_f", [
    (12, 7, 4),  # bands of 3, 3 and 1 rows: the last band is partial
    (3, 3, 4),  # a row of 4 cells is longer than a band; each row is its own band
])
def test_banded_scan_equals_single_cell_calls(monkeypatch, block, n_m, n_f, variant, samples):
    """Bands of grid rows change no bit, on either closure: the alpha_f axis
    -2, -4/3, -2/3, 0 holds the remark-one pole 2 + 3 alpha_f = 0, whose
    column reads inf."""
    monkeypatch.setattr(stability, "_BLOCK_PAIRS", block)
    am_axis, af_axis = np.linspace(0.2, 1.4, n_m), np.linspace(-2.0, 0.0, n_f)
    assert 2.0 + 3.0 * af_axis[2] == 0.0
    smap = scan_region(am_axis, af_axis, variant, t_samples=samples)
    for i, am in enumerate(am_axis.tolist()):
        for j, af in enumerate(af_axis.tolist()):
            assert (smap.radius[i, j], smap.repeated_root[i, j]) == _one_cell(am, af, variant, samples)
    if variant is Variant.REMARK_ONE:
        assert smap.radius[:, 2].tolist() == [np.inf] * n_m


def test_overflowing_cubic_on_a_later_band_is_refused_before_g_inf(monkeypatch):
    """Every band takes its samples before any band takes G(inf).  With 16
    cells a band, only the last of the four bands holds a cubic that
    overflows at T = 1e8, and LAPACK refuses G(inf) on every band (its
    alpha_f = 1e-320 column); the overflow is still the error raised."""
    monkeypatch.setattr(stability, "_BLOCK_PAIRS", 16)
    axis = np.linspace(1e-320, 1e300, 8)
    with pytest.raises(ValueError, match=r"^T = 1e\+08 overflows the coefficients of the cubic rho \+ T sigma$"):
        scan_region(axis, axis)


def test_scan_memory_is_set_by_the_band_not_the_grid(tmp_path, monkeypatch):
    """With 512-cell bands, tracemalloc's peak over scan_region and
    write_stability_csv grows by less than 2x from a 32 x 64 to a 128 x 64
    grid: only the radius and repeated-root maps span the grid."""
    monkeypatch.setattr(stability, "_BLOCK_PAIRS", 512)
    samples = default_t_samples(4)

    def peak(n_m):
        tracemalloc.start()
        try:
            write_stability_csv(scan_region(_axis(n_m), _axis(64), t_samples=samples), tmp_path / "map.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # first calls allocate lazily; keep that out of both peaks
    assert peak(128) / peak(32) < 2.0


@pytest.mark.parametrize("repeated", [False, True])
@pytest.mark.parametrize(
    "radius", [1.0, 1.0 + RADIUS_TOL, np.nextafter(1.0 + RADIUS_TOL, 2.0), np.inf, np.nan]
)
def test_report_and_map_share_the_stable_rule(radius, repeated):
    """One rule for one cell and for a map; a report's verdict is a Python bool."""
    report = RadiusReport(float(radius), repeated)
    smap = StabilityMap(np.zeros(1), np.zeros(1), np.array([[radius]]), np.array([[repeated]]))
    assert type(report.stable) is bool
    assert report.stable == smap.stable[0, 0] == (radius <= 1.0 + RADIUS_TOL and not repeated)


# --- rho_inf design control ------------------------------------------------------


@pytest.mark.parametrize("rho", [0.4, 0.5, 0.8, 1.0])
def test_rho_control_above_one_third(rho):
    assert abs(verify_rho_control(rho)) <= 1e-10


@pytest.mark.parametrize(
    "rho,expected",
    [(0.0, 1.0), (0.2, 0.3)],
)
def test_rho_control_defect_below_one_third(rho, expected):
    # the third stiff-limit eigenvalue (1-rho)/(1+3*rho) dominates here
    assert verify_rho_control(rho) == pytest.approx(expected, abs=1e-12)


def test_rho_control_alt2_alt3_above_one_third():
    # Above 1/3 a stiff-limit radius of rho_inf is attainable (main/alt1 reach
    # it), and the paper says the third-order method controls dissipation as
    # the second-order one does.  alt2/alt3 miss it at every sample.  Whether
    # they are meant as rho_inf designs, or their formulas carry a slip, needs
    # the paper's text; until then this known defect stays a failing check.
    misses = []
    for branch in (RhoBranch.ALT2, RhoBranch.ALT3):
        for rho in (0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            defect = verify_rho_control(rho, branch)
            if abs(defect) > 1e-10:
                misses.append(f"{branch.value}@{rho}:{defect:+.3f}")
    assert not misses, f"{len(misses)} misses: " + ", ".join(misses)


def test_rho_curve_main_branch():
    points = rho_curve(RhoBranch.MAIN, 11)
    assert len(points) == 11
    assert [p.rho for p in points] == pytest.approx(np.linspace(0, 1, 11))
    assert all(not p.pole for p in points)
    assert all(p.inside_region for p in points)


@pytest.mark.parametrize("branch", [RhoBranch.ALT1, RhoBranch.ALT2, RhoBranch.ALT3])
def test_rho_curve_alt_branches_flag_the_pole(branch):
    points = rho_curve(branch, 5)
    assert [p.pole for p in points] == [False, False, False, False, True]
    last = points[-1]
    assert last.alpha_m is None and last.alpha_f is None and last.inside_region is None


@pytest.mark.parametrize("branch", list(RhoBranch))
def test_rho_curve_max_eig_inf_is_what_verify_rho_control_measures(branch):
    for point in rho_curve(branch, 11):
        if point.pole:
            assert point.max_eig_inf is None
        else:
            assert point.max_eig_inf - point.rho == verify_rho_control(point.rho, branch)


# --- CSV output -------------------------------------------------------------------


def test_write_stability_csv(tmp_path):
    smap = scan_region(_axis(3), _axis(4), Variant.EQUAL_GAMMA, t_samples=default_t_samples(4))
    path = tmp_path / "stability.csv"
    write_stability_csv(smap, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "alpha_m,alpha_f,radius,stable"
    assert len(lines) == 1 + 3 * 4
    first = lines[1].split(",")
    assert float(first[0]) == smap.alpha_m[0]
    assert float(first[1]) == smap.alpha_f[0]
    assert first[3] in {"0", "1"}

    # rewriting produces identical bytes
    second = tmp_path / "again.csv"
    write_stability_csv(smap, second)
    assert second.read_bytes() == path.read_bytes()


def test_write_stability_csv_bytes(tmp_path):
    """17 significant digits per value, ``inf`` for an unbounded radius, 0/1 for stable."""
    smap = StabilityMap(
        alpha_m=np.array([0.1, 2.0 / 3.0]),
        alpha_f=np.array([0.0, 0.5, 1e-20]),
        radius=np.array([[0.5, np.inf, 1.0 + 1e-10], [1.0, 0.1 + 0.2, 1e8 / 3.0]]),
        repeated_root=np.array([[False, False, False], [True, False, False]]),
    )
    path = tmp_path / "stability.csv"
    write_stability_csv(smap, path)
    assert path.read_bytes() == (
        b"alpha_m,alpha_f,radius,stable\n"
        b"0.10000000000000001,0,0.5,1\n"
        b"0.10000000000000001,0.5,inf,0\n"
        b"0.10000000000000001,9.9999999999999995e-21,1.0000000001,1\n"
        b"0.66666666666666663,0,1,0\n"
        b"0.66666666666666663,0.5,0.30000000000000004,1\n"
        b"0.66666666666666663,9.9999999999999995e-21,33333333.333333332,0\n"
    )
