"""Tests for state handling, the implicit step, and the integration driver."""

import dataclasses
import itertools
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from mpmath import mp

from galpha import integrator, numkit
from galpha.amplification import (
    amplification_matrix,
    fill_tableau,
    one_step_elimination,
    one_step_tableau,
)
from galpha.errors import SolveFailed, StateOverflow, StepSingular
from galpha.integrator import (
    LinearProblem,
    StateVector,
    dense_problem,
    heat_problem,
    init_state,
    integrate,
    scalar_problem,
    stage_shift,
    step,
    write_trajectory_csv,
)
from galpha.schemes import Variant, make_scheme, params_from_rho
from galpha.stability import worst_case_radius

from conftest import last, region_draws
from oracles import characteristic_recurrence_residual


# --- state vector ---------------------------------------------------------------


def test_state_vector_accessors():
    state = StateVector([[1.0, 2.0], [0.3, 0.4], [0.05, 0.06]], 0.5)
    assert state.order == 3
    assert state.dim == 2
    assert np.array_equal(state.value, [1.0, 2.0])


# --- initial state ----------------------------------------------------------------


def test_init_state_scalar_decay():
    state = init_state(scalar_problem(1.0), 1.0, 3, 0.1)
    assert np.allclose(state.stack[:, 0], [1.0, -0.1, 0.01], atol=0)


def test_init_state_zero_lambda():
    state = init_state(scalar_problem(0.0), 2.5, 3, 0.1)
    assert np.array_equal(state.stack[:, 0], [2.5, 0.0, 0.0])


def test_init_state_diagonal_matrix():
    state = init_state(dense_problem(np.diag([1.0, 2.0])), [1.0, 1.0], 2, 1.0)
    assert np.allclose(state.stack, [[1.0, 1.0], [-1.0, -2.0]], atol=0)


def test_init_state_scales_by_tau_first_where_a_alone_overflows():
    """A^2 u0 = -1e616 overflows, (lambda tau)^2 = -1e16 does not: the block is
    taken tau-first.  A diagonal column keeps the bits of its own scalar start."""
    state = init_state(scalar_problem(1e308j), 1.0, 3, 1e-300)
    assert np.array_equal(state.stack[:, 0], [1.0, -1e8j, -1e16])
    pair = init_state(scalar_problem(np.array([1e308j, 3e290])), [1.0, 1.0], 3, 1e-300)
    assert np.array_equal(pair.stack[:, 1], init_state(scalar_problem(3e290), 1.0, 3, 1e-300).stack[:, 0])


# --- the implicit step --------------------------------------------------------------


def test_scalar_step_is_amplification_multiply():
    """The stepped state equals G(lambda*tau) @ state for scalar problems."""
    rng = np.random.default_rng(20240607)
    draws = region_draws(rng, 20)
    for k, (am, af) in enumerate(draws):
        p = int(rng.integers(2, 6))
        variant = Variant.REMARK_ONE if (p == 3 and k % 3 == 0) else Variant.EQUAL_GAMMA
        params = make_scheme(p, am, af, variant)
        t = 10.0 ** rng.uniform(-3, 3)
        if k % 4 == 0:
            t *= np.exp(1j * rng.uniform(-np.pi / 3, np.pi / 3))
        state = init_state(scalar_problem(t), 1.0, p, 1.0)
        stepped = step(params, scalar_problem(t), state)
        expected = amplification_matrix(params, t) @ state.stack[:, 0]
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(stepped.stack[:, 0] - expected).max() <= 1e-12 * scale


@pytest.mark.parametrize("p", range(6, 12))
def test_high_order_scalar_step_is_amplification_multiply(p):
    # G(T) = L^-1 R is ill-conditioned from p = 8 on: on these draws the
    # double-precision G @ state is off by up to 7.4e-11 at p = 11 from a
    # 50-digit one, and the step by up to 2.9e-11
    bound = 1e-12 if p <= 7 else 1e-9
    rng = np.random.default_rng(20240607 + p)
    for k, (am, af) in enumerate(region_draws(rng, 20)):
        params = make_scheme(p, am, af)
        t = 10.0 ** rng.uniform(-3, 3)
        if k % 4 == 0:
            t *= np.exp(1j * rng.uniform(-np.pi / 3, np.pi / 3))
        state = init_state(scalar_problem(t), 1.0, p, 1.0)
        stepped = step(params, scalar_problem(t), state)
        expected = amplification_matrix(params, t) @ state.stack[:, 0]
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(stepped.stack[:, 0] - expected).max() <= bound * scale


@pytest.mark.parametrize("t", [1e1, 1e3, 1e5])
def test_stiff_scalar_march_follows_extended_precision(t):
    """A stiff march's error is the scheme's transient from the exact-derivative
    start, not round-off: every u_n of the double march lies within 1e-9 max|u|
    of the same march G(T)^n U0 in 60 digits (off by 6.1e-16, 6.2e-13 and
    1.4e-11 at T = 1e1, 1e3 and 1e5)."""
    params = make_scheme(3, *params_from_rho(0.5))
    tau = 0.1
    lam = t / tau
    got = np.array([u[0] for _, u in integrate(params, scalar_problem(lam), 1.0, tau, 1.0)])
    with mp.workdps(60):
        gammas = [mp.mpf(g) for g in params.gammas]
        tab_l, tab_r = one_step_tableau(3, mp.mpf(params.alpha_m), mp.mpf(params.alpha_f), gammas)
        big_t = mp.mpf(lam) * mp.mpf(tau)
        G = fill_tableau(tab_l, big_t, mp.zeros(3, 3)) ** -1 * fill_tableau(tab_r, big_t, mp.zeros(3, 3))
        state = mp.matrix([(-big_t) ** j for j in range(3)])
        expected = [complex(state[0])]
        for _ in range(len(got) - 1):
            state = G * state
            expected.append(complex(state[0]))
    expected = np.array(expected)
    assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max()


@pytest.mark.parametrize("p", range(2, 12))
def test_one_apply_per_step(p):
    calls = {"apply": 0}
    inner = dense_problem(np.array([[2.0, 0.5], [0.5, 1.0]]))

    def counting_apply(v):
        calls["apply"] += 1
        return inner.apply(v)

    problem = LinearProblem(2, counting_apply, inner.shifted_solve)
    params = make_scheme(p, *region_draws(np.random.default_rng(p), 1)[0])
    state = init_state(inner, [1.0, -1.0], p, 0.1)
    for _ in range(5):
        state = step(params, problem, state)
    assert calls["apply"] == 5


def test_step_zero_lambda_is_identity():
    params = make_scheme(3, *params_from_rho(0.5))
    state = init_state(scalar_problem(0.0), 3.0, 3, 0.1)
    stepped = step(params, scalar_problem(0.0), state)
    assert np.array_equal(stepped.stack, state.stack)


def test_single_step_accuracy():
    params = make_scheme(3, *params_from_rho(0.5))
    state = init_state(scalar_problem(1.0), 1.0, 3, 0.1)
    stepped = step(params, scalar_problem(1.0), state)
    assert abs(stepped.value[0] - np.exp(-0.1)) < 1e-4


def _vstack_step(params, problem, state):
    """The new stack of one step, stacked by ``np.vstack`` from the step's plan."""
    p, tau = params.p, state.tau
    M, c, d, k, s = integrator._plan(p, params.alpha_m, params.alpha_f, params.gammas)
    rows = np.einsum("ij,jm->im", M, state.stack.view(float)).view(state.stack.dtype)
    ladder, (r0u, r1u) = rows[:p - 1], rows[p - 1:]
    x = problem.shifted_solve(d, s * tau, r0u + tau * problem.apply(r1u - k * ladder[-1]))
    return np.vstack([ladder - c[:, None] * x, x])


@pytest.mark.parametrize("p", range(2, 12))
def test_real_stack_stepped_with_complex_lambda_is_the_vstack(p):
    """A solve that widens the dtype gets the complex stack of ``np.vstack``,
    bit for bit, and no ComplexWarning: the imaginary part is not dropped."""
    params = make_scheme(p, 1.0, 0.75)
    problem = scalar_problem(1 + 2j)
    state = StateVector(np.random.default_rng(p).standard_normal((p, 1)), 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stepped = step(params, problem, state)
        expected = _vstack_step(params, problem, state)
    assert stepped.stack.dtype == expected.dtype == np.complex128
    assert stepped.stack.tobytes() == expected.tobytes()
    assert np.any(stepped.stack.imag != 0.0)


@pytest.mark.parametrize("p", range(2, 12))
@pytest.mark.parametrize(
    "problem, u0",
    [
        (scalar_problem(1 + 2j), 1.0),
        (dense_problem([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]), [1.0, 0.5, -0.25]),
        (heat_problem(5), np.linspace(0.1, 0.5, 5)),
    ],
    ids=["scalar", "dense", "heat"],
)
def test_step_returns_a_fresh_c_ordered_stack_and_keeps_its_input(p, problem, u0):
    """The new stack is the vstack of the step bit for bit, C-ordered with shape
    (p, m) in the input's dtype; the input state's stack is left as it was."""
    params = make_scheme(p, 1.0, 0.75)
    state = init_state(problem, u0, p, 0.05)
    before = state.stack.copy()
    stepped = step(params, problem, state)
    assert state.stack.tobytes() == before.tobytes()
    assert stepped.stack.flags.c_contiguous
    assert stepped.stack.shape == (p, problem.dim)
    assert stepped.stack.dtype == state.stack.dtype
    assert stepped.tau == state.tau
    assert not np.shares_memory(stepped.stack, state.stack)
    assert stepped.stack.tobytes() == _vstack_step(params, problem, state).tobytes()


def test_one_implicit_solve_per_step():
    calls = {"solve": 0}
    inner = scalar_problem(2.0)

    def counting_solve(c1, sigma, b):
        calls["solve"] += 1
        return inner.shifted_solve(c1, sigma, b)

    problem = LinearProblem(1, inner.apply, counting_solve)
    params = make_scheme(3, *params_from_rho(0.5))
    rows = integrate(params, problem, 1.0, 0.1, 1.0)
    assert calls["solve"] == 0  # the march steps as its rows are taken
    last(rows)
    assert calls["solve"] == 10


def test_failed_solve_reports_step_index():
    calls = {"n": 0}
    inner = scalar_problem(1.0)

    def failing_solve(c1, sigma, b):
        calls["n"] += 1
        if calls["n"] >= 4:
            raise RuntimeError("boom")
        return inner.shifted_solve(c1, sigma, b)

    problem = LinearProblem(1, inner.apply, failing_solve)
    params = make_scheme(3, 0.9, 0.6)
    with pytest.raises(SolveFailed, match="step 4 of 10"):
        last(integrate(params, problem, 1.0, 0.1, 1.0))


POLE_CELLS = [(2, 0.5, 1.2), (3, 0.5, 1.2), (4, 0.4, 1.3), (6, 0.3, 1.0), (11, 0.2, 0.9)]


@pytest.mark.parametrize("delta", [0.0, 1e-13, 1e-11, 1e-9])
@pytest.mark.parametrize("p, alpha_m, alpha_f", POLE_CELLS)
def test_scalar_march_is_singular_where_the_scan_finds_the_pole(p, alpha_m, alpha_f, delta):
    """gamma_1 < 0 puts the pole T* = -alpha_m / (gamma_1 alpha_f) on T > 0;
    a march at lambda tau = T* (1 + delta) fails exactly where the scan
    reports radius inf."""
    params = make_scheme(p, alpha_m, alpha_f)
    assert params.gamma1 < 0.0
    t = -params.alpha_m / (params.gamma1 * params.alpha_f) * (1.0 + delta)
    pole = worst_case_radius(params, [t]).radius == np.inf
    assert pole == (delta < 1e-12)
    if pole:
        with pytest.raises(StepSingular):
            last(integrate(params, scalar_problem(t), 1.0, 1.0, 1.0))
    else:
        last(integrate(params, scalar_problem(t), 1.0, 1.0, 1.0))


def test_scalar_march_at_the_pole_raises_after_another_shift_was_kept():
    """The scalar problem keeps the denominator of its last shift only, and
    no refused shift: a march at the pole raises on its first step however
    often it is tried, between marches of another shift."""
    params = make_scheme(3, *params_from_rho(0.5))
    c1, sigma = _march_shift(params, 0.1)
    problem = scalar_problem(-c1 / sigma)
    fresh = list(integrate(params, scalar_problem(-c1 / sigma), 1.0, 0.05, 0.5))
    for _ in range(2):
        kept = list(integrate(params, problem, 1.0, 0.05, 0.5))
        assert len(kept) == len(fresh) == 11
        assert all(u.tobytes() == v.tobytes() for (_, u), (_, v) in zip(kept, fresh))
        with pytest.raises(StepSingular, match="step 1 of 5"):
            last(integrate(params, problem, 1.0, 0.1, 0.5))


def test_one_scalar_problem_marches_every_order_like_a_fresh_one():
    """The kept denominator is keyed on the whole shift (c1, sigma): one
    problem marched across p = 2..11 and two step sizes, one march after
    the other, gives each march bit for bit."""
    shared = scalar_problem(1 + 2j)
    for p in range(2, 12):
        params = make_scheme(p, 1.0, 0.75)
        for tau in (0.1, 0.05):
            expected = list(integrate(params, scalar_problem(1 + 2j), 1.0, tau, 0.5))
            got = list(integrate(params, shared, 1.0, tau, 0.5))
            assert [t for t, _ in got] == [t for t, _ in expected]
            assert all(u.tobytes() == v.tobytes() for (_, u), (_, v) in zip(got, expected)), (p, tau)


def test_scalar_shift_that_overflows_is_refused_as_not_finite():
    """c1 + sigma*lambda = inf did not vanish: the refusal says it is not
    finite, and like a pole it is not kept, so every call raises again."""
    problem = scalar_problem(1.0)
    for _ in range(2):
        with pytest.raises(StepSingular, match=r"stage shift is not finite: c1 \+ sigma\*lambda = \(inf\+0j\)"):
            problem.shifted_solve(1e308, 1e308, np.array([1.0]))
        assert problem.shifted_solve(2.0, 0.0, np.array([4.0])).tolist() == [2.0]
    with pytest.raises(StepSingular, match="vanishes"):
        problem.shifted_solve(1.0, -1.0, np.array([1.0]))


def test_dense_problem_singular_shift():
    problem = dense_problem([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(StepSingular):
        problem.shifted_solve(-2.0, 1.0, np.array([1.0, 1.0]))
    # a failed factorization is not cached: the next call raises again
    with pytest.raises(StepSingular):
        problem.shifted_solve(-2.0, 1.0, np.array([1.0, 1.0]))
    assert np.allclose(problem.shifted_solve(1.0, 1.0, np.array([2.0, 3.0])), [1.0, 1.0])


def _march_shift(params, tau):
    """The (c1, sigma) that ``step`` passes to ``shifted_solve`` for this scheme and tau."""
    seen = []
    inner = scalar_problem(1.0)

    def recording_solve(c1, sigma, b):
        seen.append((c1, sigma))
        return inner.shifted_solve(c1, sigma, b)

    step(params, LinearProblem(1, inner.apply, recording_solve), init_state(inner, 1.0, params.p, tau))
    return seen[0]


def test_dense_singular_shift_surfaces_with_step_index():
    params = make_scheme(3, *params_from_rho(0.5))
    c1, sigma = _march_shift(params, 0.1)
    problem = dense_problem(np.diag([-c1 / sigma, 1.0]))
    with pytest.raises(StepSingular, match="step 1 of 5"):
        last(integrate(params, problem, [1.0, 1.0], 0.1, 0.5))


def test_dense_march_factors_once(monkeypatch):
    calls, inv = [], np.linalg.inv

    def counting_inv(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    params = make_scheme(3, *params_from_rho(0.5))
    problem = dense_problem(np.diag([1.0, 2.0, 3.0]) + 0.1)
    last(integrate(params, problem, np.ones(3), 0.1, 1.0))
    assert calls == [(3, 3)]
    last(integrate(params, problem, np.ones(3), 0.05, 1.0))  # a new tau is a new shift
    assert calls == [(3, 3)] * 2


def test_reused_dense_problem_matches_fresh_objects():
    """One problem object marched with other taus and schemes: bit for bit a fresh one."""
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 6))
    a = m @ m.T + np.eye(6) + 1j * np.diag(rng.standard_normal(6))
    u0 = rng.standard_normal(6)
    main = make_scheme(3, *params_from_rho(0.5))
    runs = [(main, 0.1), (main, 0.05), (make_scheme(4, 1.0, 0.75), 0.1), (main, 0.1)]
    shared = dense_problem(a)
    for params, tau in runs:
        reused = list(integrate(params, shared, u0, tau, 0.5))
        fresh = list(integrate(params, dense_problem(a), u0, tau, 0.5))
        assert [t for t, _ in reused] == [t for t, _ in fresh]
        assert all(u.tobytes() == v.tobytes() for (_, u), (_, v) in zip(reused, fresh))


def test_dense_cache_under_concurrent_marches(monkeypatch):
    """Threads marching one problem, two per shift, each get their own shift's result."""
    rng = np.random.default_rng(12)
    m = rng.standard_normal((8, 8))
    a, u0 = m @ m.T + np.eye(8), rng.standard_normal(8)
    params = make_scheme(3, *params_from_rho(0.5))
    taus = [0.1, 0.05, 0.1, 0.05, 0.02, 0.02]
    expected = {tau: last(integrate(params, dense_problem(a), u0, tau, 0.2))[1] for tau in taus}
    inv = np.linalg.inv

    def slow_inv(a):
        time.sleep(1e-3)  # lets other threads run while an inverse is being built
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", slow_inv)
    shared, results = dense_problem(a), [None] * len(taus)

    def march(i):
        results[i] = [last(integrate(params, shared, u0, taus[i], 0.2))[1] for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=march, args=(i,)) for i in range(len(taus))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for tau, finals in zip(taus, results):
        assert all(u.tobytes() == expected[tau].tobytes() for u in finals)


def _rotation(seed, n):
    """A seeded random orthogonal n x n matrix."""
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]


def test_dense_march_is_g_power_on_each_mode():
    """Modal oracle: A = Q diag(lambda) Q^T advances mode k by G(lambda_k tau) per step."""
    params = make_scheme(3, *params_from_rho(0.5))
    q, lam, tau = _rotation(21, 12), np.logspace(0, 4, 12), 0.01
    problem = dense_problem(q * lam @ q.T)
    u0 = np.random.default_rng(22).standard_normal(12)
    G = np.array([amplification_matrix(params, t) for t in lam * tau])
    weights = (init_state(problem, u0, 3, tau).stack @ q).T  # row k: mode k of each block
    trajectory = list(integrate(params, problem, u0, tau, 0.5))
    scale = max(np.abs(u).max() for _, u in trajectory)
    for count, (_, u) in enumerate(trajectory):
        if count:
            weights = np.einsum("kij,kj->ki", G, weights)
        assert np.abs(u - q @ weights[:, 0]).max() <= 1e-11 * scale, count


def test_dense_singular_shift_on_a_rotated_matrix():
    params = make_scheme(3, *params_from_rho(0.5))
    c1, sigma = _march_shift(params, 0.1)
    q = _rotation(23, 3)
    problem = dense_problem(q * [-c1 / sigma, 1.0, 2.0] @ q.T)
    with pytest.raises(StepSingular, match="step 1 of"):
        last(integrate(params, problem, np.ones(3), 0.1, 0.5))


def test_dense_problem_copies_its_matrix():
    """Writing into the caller's array after construction changes no march."""
    params = make_scheme(3, *params_from_rho(0.5))
    a = np.array([[1.0, 0.5], [0.0, 2.0]], dtype=complex)
    problem = dense_problem(a)
    first = list(integrate(params, problem, [1.0, 1.0], 0.1, 1.0))
    a[0, 0] = 5.0
    second = list(integrate(params, problem, [1.0, 1.0], 0.1, 1.0))
    assert len(first) == len(second) == 11
    assert all(u.tobytes() == v.tobytes() for (_, u), (_, v) in zip(first, second))


def test_march_builds_tableau_once_per_scheme(monkeypatch):
    calls = []

    def counting_elimination(p, *args):
        calls.append(p)
        return one_step_elimination(p, *args)

    monkeypatch.setattr(integrator, "one_step_elimination", counting_elimination)
    integrator._plan.cache_clear()
    for params in (make_scheme(3, *params_from_rho(0.5)), make_scheme(5, 1.1, 0.8)):
        last(integrate(params, scalar_problem(1.0), 1.0, 0.1, 1.0))
        last(integrate(params, dense_problem(np.diag([1.0, 2.0])), [1.0, 1.0], 0.05, 1.0))
    assert calls == [3, 5]


# --- dense problems and decoupling ----------------------------------------------------


def test_diagonal_system_decouples_exactly():
    """A diagonal matrix must reproduce the scalar runs bit for bit."""
    lams = [0.7, 2.3]
    params = make_scheme(3, *params_from_rho(0.5))
    coupled = list(integrate(params, dense_problem(np.diag(lams)), [1.0, 1.0], 0.2, 1.0))
    for j, lam in enumerate(lams):
        single = integrate(params, scalar_problem(lam), 1.0, 0.2, 1.0)
        for (t_c, u_c), (t_s, u_s) in zip(coupled, single):
            assert t_c == t_s
            assert u_c[j] == u_s[0]


def test_scalar_problem_of_an_array_marches_each_column_bit_for_bit():
    """A 1-D array of lambdas is the diagonal system: each column of its
    march is the scalar march of its own lambda, bit for bit."""
    lams = [0.7, complex(2.3, -1.0), complex(0.0, 3.5)]
    params = make_scheme(4, 1.0, 0.75)
    problem = scalar_problem(lams)
    assert problem.dim == 3 and problem.description == "scalar 3 lambdas"
    coupled = list(integrate(params, problem, np.ones(3), 0.125, 1.0))
    for j, lam in enumerate(lams):
        single = integrate(params, scalar_problem(lam), 1.0, 0.125, 1.0)
        assert [u[j] for _, u in coupled] == [u[0] for _, u in single]


def test_stage_shift_is_the_shift_of_each_solve():
    params = make_scheme(5, 1.0, 0.75)
    base, shifts = scalar_problem(1.0), []

    def shifted_solve(c1, sigma, b):
        shifts.append((c1, sigma))
        return base.shifted_solve(c1, sigma, b)

    problem = dataclasses.replace(base, shifted_solve=shifted_solve)
    last(integrate(params, problem, 1.0, 0.1, 0.3))
    assert shifts == [stage_shift(params, 0.1)] * 3


def test_trajectory_satisfies_characteristic_recurrence():
    params = make_scheme(3, 0.9, 0.6)
    tau, lam = 0.3, 1.0
    trajectory = integrate(params, scalar_problem(lam), 1.0, tau, 18.0)
    values = np.array([u[0] for _, u in trajectory])
    residual = characteristic_recurrence_residual(params, lam * tau, values)
    assert residual <= 1e-10 * np.abs(values).max()


# --- heat problem -----------------------------------------------------------------------


def test_heat_problem_applies_second_difference():
    problem = heat_problem(3)
    e1 = np.array([1.0, 0.0, 0.0])
    # h = 1/4, so kappa / h^2 = 16
    assert np.allclose(problem.apply(e1), [32.0, -16.0, 0.0], atol=0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_heat_problem_eigenpairs(k):
    n = 3
    problem = heat_problem(n, diffusivity=2.0)
    h = 1.0 / (n + 1)
    x = np.arange(1, n + 1) * h
    v = np.sin(k * np.pi * x)
    lam = 2.0 * (2.0 - 2.0 * np.cos(k * np.pi * h)) / h**2
    assert np.allclose(problem.apply(v), lam * v, rtol=1e-12, atol=1e-12)


def test_heat_shifted_solve_residual():
    rng = np.random.default_rng(9)
    problem = heat_problem(17)
    b = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    c1, sigma = 0.83 + 0.2j, 0.31 - 0.4j
    x = problem.shifted_solve(c1, sigma, b)
    residual = c1 * x + sigma * problem.apply(x) - b
    assert np.abs(residual).max() <= 1e-11 * np.abs(b).max()


def test_heat_shifted_solve_without_pivoting_breakdown():
    # c1 + sigma * lambda_k = -12.1, -4.6, 4.6, 12.1: well conditioned, though
    # tridiagonal elimination without pivoting meets a zero pivot on it
    problem = heat_problem(4)
    c1, sigma, b = -2 * 0.3 * 25, 0.3, np.ones(4)
    x = problem.shifted_solve(c1, sigma, b)
    residual = c1 * x + sigma * problem.apply(x) - b
    assert np.abs(residual).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("n", [2, 17])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_sine_transform_is_minus_two_dst(n, kind):
    """The rfft-based transform against an explicit DST-I matrix product."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    if kind == "complex":
        x = x + 1j * rng.standard_normal(n)
    k = np.arange(1, n + 1)
    sine = np.sin(np.pi * np.outer(k, k) / (n + 1))
    got = integrator._sine_transform(x)
    assert got.dtype == (complex if kind == "complex" else float)
    assert np.abs(got - (-2.0 * sine @ x)).max() <= 1e-14 * n * np.abs(x).max()


@pytest.mark.parametrize("c1, sigma", [("eigenvalue", 0.3), (0.0, 0.0)])
def test_heat_shift_on_an_eigenvalue_is_singular(c1, sigma):
    """A vanishing divisor c1 + sigma lambda_k, or all of them at once, is
    singular and sets off no numpy warning on the way."""
    n = 4
    if c1 == "eigenvalue":
        c1 = -sigma * 4.0 * 25.0 * np.sin(np.pi / (2 * (n + 1))) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSingular):
            heat_problem(n).shifted_solve(c1, sigma, np.ones(n))


@pytest.mark.parametrize("ratio", [0.9e14, 1.1e14])
def test_heat_shift_follows_the_condition_rule(ratio):
    """The divisors d_k = c1 + lambda_k are refused where max|d| / min|d|
    reaches 1 / PIVOT_RTOL, and solved just below it."""
    n = 4
    lam = 100.0 * np.sin(np.arange(1, n + 1) * np.pi / (2 * (n + 1))) ** 2
    c1 = -lam[0] + (lam[-1] - lam[0]) / (ratio - 1.0)
    den = np.abs(c1 + lam)
    assert den.max() / den.min() == pytest.approx(ratio, rel=1e-2)
    problem = heat_problem(n)
    if ratio * numkit.PIVOT_RTOL >= 1.0:
        with pytest.raises(StepSingular, match="condition estimate"):
            problem.shifted_solve(c1, 1.0, np.ones(n))
    else:
        x = problem.shifted_solve(c1, 1.0, np.ones(n))
        assert np.isfinite(x).all()


@pytest.mark.parametrize("n", [15, 200])
def test_heat_march_is_g_power_on_each_sine_mode(n):
    """Modal oracle: sine mode k of the stack advances by G(lambda_k tau) per step."""
    params = make_scheme(3, *params_from_rho(0.5))
    problem = heat_problem(n)
    tau, h = 0.005, 1.0 / (n + 1)
    k = np.arange(1, n + 1)
    modes = np.sin(np.pi * np.outer(k, k) * h)  # symmetric; modes @ modes = (n+1)/2 I
    lam = 4.0 / h**2 * np.sin(k * np.pi * h / 2) ** 2
    G = np.array([amplification_matrix(params, t) for t in lam * tau])
    x = k * h
    smooth = x * (1.0 - x) * (2.0 - x)  # every sine mode present, weights ~ 1/k^3
    rough = np.random.default_rng(n).standard_normal(n)
    for u0 in (smooth, rough):
        start = init_state(problem, u0, 3, tau)
        # the rough stack reaches (lambda_n tau)^2 |u0|: round-off scales with it
        scale = np.abs(u0 if u0 is smooth else start.stack).max()
        weights = (start.stack @ modes * (2.0 / (n + 1))).T  # row k: mode k of each block
        trajectory = integrate(params, problem, u0, tau, 1.0)  # 200 steps
        for count, (_, u) in enumerate(trajectory):
            if count:
                weights = np.einsum("kij,kj->ki", G, weights)
            assert np.abs(u - weights[:, 0] @ modes).max() <= 1e-12 * scale, count


def test_heat_solution_max_norm_decays():
    params = make_scheme(3, *params_from_rho(0.5))
    problem = heat_problem(15)
    x = np.arange(1, 16) / 16.0
    trajectory = integrate(params, problem, np.sin(np.pi * x), 0.01, 0.5)
    norms = [np.abs(u).max() for _, u in trajectory]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 0.01 * norms[0]


def test_heat_problem_takes_a_numpy_integer_node_count():
    assert heat_problem(np.int64(3)).dim == 3


# --- march dtype --------------------------------------------------------------------------


_SPD = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]])


@pytest.mark.parametrize(
    "problem, u0, dtype",
    [
        (heat_problem(6), np.linspace(0.1, 0.6, 6), np.float64),
        (dense_problem(_SPD), [1.0, -1.0, 0.5], np.float64),
        (dense_problem(_SPD.astype(complex)), [1.0, -1.0, 0.5], np.float64),  # no imaginary part
        (dense_problem(_SPD), [1, 2, 3], np.float64),  # an integer u0
        (heat_problem(6), np.linspace(0.1, 0.6, 6) + 0j, np.complex128),
        (dense_problem(_SPD), [1.0, 1j, 0.5], np.complex128),
        (dense_problem(_SPD + 1j * np.eye(3)), [1.0, -1.0, 0.5], np.complex128),
        (scalar_problem(2.0), 1.0, np.complex128),
    ],
    ids=["heat", "real-dense", "zero-imaginary-dense", "integer-u0", "heat-complex-u0",
         "dense-complex-u0", "complex-dense", "scalar"],
)
def test_march_runs_in_the_dtype_of_its_data(problem, u0, dtype):
    """Real A with real u0 marches in float64; complex A, complex u0 or a scalar in complex128."""
    params = make_scheme(3, *params_from_rho(0.5))
    state = init_state(problem, u0, 3, 0.05)
    assert state.stack.dtype == dtype
    assert step(params, problem, state).stack.dtype == dtype
    assert all(u.dtype == dtype for _, u in integrate(params, problem, u0, 0.05, 0.2))


def test_state_vector_keeps_a_real_stack_real():
    assert StateVector(np.ones((3, 2)), 0.1).stack.dtype == np.float64
    assert StateVector(np.ones((3, 2), dtype=np.float32), 0.1).stack.dtype == np.float64
    assert StateVector(np.ones((3, 2), dtype=int), 0.1).stack.dtype == np.float64
    assert StateVector(np.ones((3, 2), dtype=np.complex64), 0.1).stack.dtype == np.complex128


# --- driver and output ---------------------------------------------------------------------


def test_integrate_returns_inclusive_mesh():
    params = make_scheme(3, *params_from_rho(0.5))
    trajectory = list(integrate(params, scalar_problem(1.0), 1.0, 0.1, 1.0))
    assert len(trajectory) == 11
    times = [t for t, _ in trajectory]
    assert times[0] == 0.0
    assert times == pytest.approx(np.arange(11) * 0.1)
    assert trajectory[0][1][0] == 1.0


def test_t_end_within_the_step_window_is_a_whole_number_of_steps():
    # 0.3 / 0.1 = 2.9999999999999996 is a whole number within the 1e-9 window
    trajectory = list(integrate(make_scheme(3, *params_from_rho(0.5)), scalar_problem(1.0), 1.0, 0.1, 0.3))
    assert len(trajectory) == 4


def test_march_reads_u0_at_the_call():
    """A u0 written to after integrate returns changes neither the rows nor
    the step that an overflow names."""
    params = make_scheme(4, 1.0, 0.75)
    u0 = np.sin(np.pi * np.arange(1, 51) / 51)
    expected = [u.tobytes() for _, u in integrate(params, heat_problem(50), u0, 0.1, 1.0)]
    rows = integrate(params, heat_problem(50), u0, 0.1, 1.0)
    late = integrate(params, heat_problem(50), u0, 0.1, 200.0)
    u0[:] = 0.0
    assert [u.tobytes() for _, u in rows] == expected
    with pytest.raises(StateOverflow, match="^step 1837 of 2000: "):
        last(late)


def test_march_leaves_the_callers_error_state_alone():
    """numpy's error state is a context variable, so the march sets it around
    each step, not across a row it yields: the code that takes the rows runs
    under its own error state."""
    params = make_scheme(3, *params_from_rho(0.5))
    before = np.geterr()
    for _ in integrate(params, heat_problem(5), np.ones(5), 0.1, 0.5):
        assert np.geterr() == before


def test_march_memory_is_set_by_the_state_not_the_steps(tmp_path):
    """tracemalloc's peak over write_trajectory_csv(integrate(...)) on a
    200-node heat rod grows by less than 1.5x from 50 to 400 steps: the march
    keeps only its state, and the writer keeps no row."""
    params = make_scheme(3, *params_from_rho(0.5))
    problem = heat_problem(200)
    u0 = np.sin(np.pi * np.arange(1, 201) / 201)

    def peak(n_steps):
        tracemalloc.start()
        try:
            write_trajectory_csv(integrate(params, problem, u0, 0.01, n_steps * 0.01), tmp_path / "trajectory.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # first calls allocate lazily; keep that out of both peaks
    assert peak(400) / peak(50) < 1.5


def test_stiff_state_norm_never_grows():
    """With lambda*tau = 1e6 and admissible alphas, the scaled state stays bounded."""
    params = make_scheme(3, *params_from_rho(0.5))
    problem = scalar_problem(1e6)
    state = init_state(problem, 1.0, 3, 1.0)
    bound = np.abs(state.stack).max() * (1.0 + 1e-9)
    for _ in range(100):
        state = step(params, problem, state)
        assert np.abs(state.stack).max() <= bound


def test_write_trajectory_csv_roundtrips(tmp_path):
    params = make_scheme(3, 0.9, 0.6)
    problem = dense_problem(np.diag([1.0 + 2.0j, 0.5]))
    trajectory = list(integrate(params, problem, [1.0, 1.0], 0.25, 1.0))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(trajectory, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,re_u_1,im_u_1,re_u_2,im_u_2"
    assert len(lines) == 1 + len(trajectory)
    # 17 significant digits round-trip doubles exactly
    last = [float(cell) for cell in lines[-1].split(",")]
    t, u = trajectory[-1]
    assert last == [t, u[0].real, u[0].imag, u[1].real, u[1].imag]


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "trajectory, expected",
    [
        (  # complex entries with -0.0, inf and nan parts; several unknowns
            [
                (0.0, np.array([1.5 + 0j, complex(-0.0, 0.1), complex(_INF, -_INF), complex(_NAN, 2.0)])),
                (0.25, np.array([1 / 3 + 2j / 3, complex(-_INF, -0.0), 1e-300 - 1e300j, complex(0.0, _NAN)])),
            ],
            b"t,re_u_1,im_u_1,re_u_2,im_u_2,re_u_3,im_u_3,re_u_4,im_u_4\n"
            b"0,1.5,0,-0,0.10000000000000001,inf,-inf,nan,2\n"
            b"0.25,0.33333333333333331,0.66666666666666663,-inf,-0,1e-300,-1.0000000000000001e+300,0,nan\n",
        ),
        (  # a real dtype still writes its zero imaginary column
            [(0.0, np.array([1.0, -0.0, 0.1])), (0.1, np.array([_INF, _NAN, -2.5e-7]))],
            b"t,re_u_1,im_u_1,re_u_2,im_u_2,re_u_3,im_u_3\n"
            b"0,1,0,-0,0,0.10000000000000001,0\n"
            b"0.10000000000000001,inf,0,nan,0,-2.4999999999999999e-07,0\n",
        ),
        (  # one unknown
            [
                (0.0, np.array([1.0 + 0j])),
                (0.1, np.array([np.exp(-0.1) + 0j])),
                (0.30000000000000004, np.array([0j])),
            ],
            b"t,re_u_1,im_u_1\n0,1,0\n0.10000000000000001,0.90483741803595952,0\n0.30000000000000004,0,0\n",
        ),
    ],
    ids=["complex-specials", "real-dtype", "one-unknown"],
)
def test_write_trajectory_csv_bytes(tmp_path, trajectory, expected):
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(trajectory, path)
    assert path.read_bytes() == expected


def _two_pass_csv(rows):
    """The bytes of a trajectory by the rule of a whole-list writer: every row
    complex if any u is complex, every row real otherwise."""
    m = len(rows[0][1])
    header = "t," + ",".join(f"re_u_{k},im_u_{k}" for k in range(1, m + 1)) + "\n"
    if any(np.iscomplexobj(u) for _, u in rows):
        row, dtype = "%.17g" + ",%.17g,%.17g" * m + "\n", complex
    else:
        row, dtype = "%.17g" + ",%.17g,0" * m + "\n", float
    return (header + "".join(row % (t, *np.ascontiguousarray(u, dtype=dtype).view(float).tolist())
                             for t, u in rows)).encode()


def test_streamed_csv_of_a_march_that_turns_complex_is_the_two_pass_csv(tmp_path):
    """A real march whose solve turns complex at step 4, then one row with
    -0.0 imaginary parts: streamed, each row takes its own template, and the
    bytes are those of the rule that looks at every row first."""
    params = make_scheme(3, *params_from_rho(0.5))

    def widening(k):
        calls, inner = [0], dense_problem(_SPD)

        def shifted_solve(c1, sigma, b):
            calls[0] += 1
            x = inner.shifted_solve(c1, sigma, b)
            return x * (1.0 + 1e-3j) if calls[0] >= k else x

        return dataclasses.replace(inner, shifted_solve=shifted_solve)

    u0, extra = [1.0, -1.0, 0.5], (1.1, np.array([complex(0.5, -0.0), complex(-0.0, -0.0), 2.0]))
    rows = [*integrate(params, widening(4), u0, 0.1, 1.0), extra]
    assert [np.iscomplexobj(u) for _, u in rows] == [False] * 4 + [True] * 8
    path = tmp_path / "trajectory.csv"
    t, u = write_trajectory_csv(itertools.chain(integrate(params, widening(4), u0, 0.1, 1.0), [extra]), path)
    assert path.read_bytes() == _two_pass_csv(rows)
    assert b"\n1.1000000000000001,0.5,-0,-0,-0,2,0\n" in path.read_bytes()
    assert (t, u.tobytes()) == (extra[0], extra[1].tobytes())
