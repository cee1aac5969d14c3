"""Property tests over random orders, parameters and T (hypothesis)."""

import cmath
from math import factorial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from galpha.amplification import amplification_matrix, build_lr_from_gammas
from galpha.integrator import StateVector, init_state, scalar_problem, step
from galpha.orderlab import _pencil_det
from galpha.schemes import Variant, make_scheme
from galpha.stability import GridSpec, default_t_samples, scan_region, worst_case_radius

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
    L, _ = build_lr_from_gammas(p, am, af, g, t)
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


@PROPERTY
@given(
    p=orders,
    tau=moduli,
    ratio=moduli,
    data=st.data(),
)
def test_rescale_round_trip(p, tau, ratio, data):
    """Rescaling to another step size and back returns the stack to 1e-14."""
    parts = st.floats(min_value=-1e3, max_value=1e3)
    entries = data.draw(st.lists(parts, min_size=4 * p, max_size=4 * p))
    stack = np.reshape(entries, (p, 2, 2)) @ [1.0, 1j]
    state = StateVector(stack, tau)
    back = state.rescale(tau * ratio).rescale(tau)
    assert back.tau == state.tau
    assert np.all(np.abs(back.stack - state.stack) <= 1e-14 * np.abs(state.stack))


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
    grid = GridSpec(lo, lo + width, n_am, lo, lo + width, n_af)
    samples = default_t_samples(n_t, 1e-3, 1e6)
    smap = scan_region(variant, grid, t_samples=samples)
    am_axis, af_axis = grid.axes()
    for i, am in enumerate(am_axis):
        for j, af in enumerate(af_axis):
            report = worst_case_radius(make_scheme(3, float(am), float(af), variant), samples)
            assert report.radius == smap.radius[i, j]
            assert report.repeated_unit_root == smap.repeated_root[i, j]


@PROPERTY
@given(
    p=orders,
    am=alphas,
    af=alphas,
    t_modulus=moduli,
    t_angle=st.floats(min_value=-np.pi, max_value=np.pi),
    mu_modulus=st.floats(min_value=-1.0, max_value=1.0).map(lambda e: 10.0**e),
    mu_angle=st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_pencil_det_is_affine_in_the_common_gamma(p, am, af, t_modulus, t_angle, mu_modulus, mu_angle):
    """D(g) = det(R(T) - mu L(T)) with equal gammas g is affine in g: recover_C's closed form."""
    with mp.workdps(40):
        t = mp.mpc(t_modulus * cmath.exp(1j * t_angle))
        mu = mp.mpc(mu_modulus * cmath.exp(1j * mu_angle))
        d0, half, d1 = (
            _pencil_det(p, mp.mpf(g), mp.mpf(am), mp.mpf(af), t, mu) for g in (0, 0.5, 1)
        )
        scale = max(abs(d0), abs(d1))
        assert abs(half - (d0 + d1) / 2) <= 1e-12 * scale
