"""The library's bad-input contract: one row per refusal, each checked by ``check_refusal``."""

import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest

from galpha import numkit
from galpha.amplification import limit_matrix_inf, limit_matrix_zero, one_step_tableau
from galpha.errors import (AllAtRoundoff, DegenerateParams, OutOfTable, PoleAtRho, SingularAtT, SingularMatrix,
                           StateOverflow, StepSingular, VariantUnsupported)
from galpha.integrator import (StateVector, dense_problem, heat_problem, init_state, integrate, scalar_problem, step,
                               write_trajectory_csv)
from galpha.orderlab import measure_order, recover_C
from galpha.schemes import RhoBranch, SchemeParams, Variant, c_of_p, make_scheme, params_from_rho, remark_one_gammas
from galpha.stability import default_t_samples, rho_curve, scan_region, worst_case_radius

from conftest import check_refusal, last

SCHEME = make_scheme(3, 0.9, 0.6)
RHO_SCHEME = make_scheme(3, *params_from_rho(0.5))
TAUS = [2.0**-k for k in range(3, 9)]
G1, G2 = remark_one_gammas(0.9, 0.6)
# each bad T-sample set and its repr; an empty set would read as radius 0, a
# stable verdict from no evidence
BAD_SAMPLES = [
    ([], "array([], dtype=float64)"),
    ([np.inf], "array([inf])"),
    ([np.nan], "array([nan])"),
    ([1.0, -np.inf], "array([  1., -inf])"),
    ([1.0, complex(1.0, np.nan)], "array([1. +0.j, 1.+nanj])"),
    (1.0, "array(1.)"),
    ([[1.0, 2.0]], "array([[1., 2.]])"),
]
SUBNORMAL = np.linspace(1e-320, 1e-300, 4)
SINGULAR_AT_T = ("the one-step matrices G(T) at T = {} are singular or not finite in double precision "
                 "(|alpha_m| or |gamma_1 alpha_f| is too close to 0)")
P_1 = "order p must be >= 2, got 1"
EMPTY = "expected a non-empty matrix, got shape (0, 0)"


def _axis(n):
    """n points over [0, 1.5], the CLI's default map range."""
    return np.linspace(0.0, 1.5, n)


# id, zero-argument call, the error it raises exactly, and its whole message,
# where each "..." would stand for any text within one line
REFUSALS = [
    # --- integrator: the state, its start and the problems
    ("StateVector-1d-stack", lambda: StateVector(np.ones(3), 0.1), ValueError,
     "state stack must be 2-d (p, m), got shape (3,)"),
    *((f"StateVector-tau-{tau}", lambda tau=tau: StateVector(np.ones((3, 1)), tau), ValueError,
       f"tau must be positive and finite, got {tau}") for tau in (-0.1, np.inf)),
    ("init_state-p-1", lambda: init_state(scalar_problem(1.0), 1.0, 1, 0.1), ValueError, P_1),
    # an infinite tau is bad input, as StateVector says, not an overflow of the state
    *((f"init_state-{name}-tau-{tau}", lambda problem=problem, u0=u0, tau=tau: init_state(problem, u0, 3, tau),
       ValueError, f"tau must be positive and finite, got {tau}")
      for name, problem, u0, tau in [("scalar", scalar_problem(1.0), 1.0, 0.0),
                                     ("scalar", scalar_problem(1.0), 1.0, np.inf),
                                     ("heat", heat_problem(3), np.ones(3), np.inf)]),
    # block j is (-lambda*tau)^j u0: finite up to j = 1, inf from j = 2 on
    ("init_state-overflows-block-2", lambda: init_state(scalar_problem(1e200), 1.0, 3, 0.1), StateOverflow,
     "block 2 of the initial state, tau^2 (-A)^2 u0, is not finite at tau=0.1"),
    ("init_state-overflows-block-1",
     lambda: init_state(dense_problem(np.diag([1.0, 1e308])), [1.0, 1.0], 2, 10.0), StateOverflow,
     "block 1 of the initial state, tau^1 (-A)^1 u0, is not finite at tau=10.0"),
    # a u0 of the wrong shape is refused before the first step, not marched
    *((f"integrate-u0-{np.shape(u0)}-dim-{problem.dim}",
       lambda problem=problem, u0=u0: integrate(SCHEME, problem, u0, 0.01, 0.03), ValueError,
       f"u0 of shape {np.shape(u0)} does not fit a problem of dim {problem.dim}")
      for problem, u0 in [(heat_problem(5), [1.0]), (heat_problem(5), np.ones(4)), (scalar_problem(1.0), [1.0, 2.0]),
                          (dense_problem(np.eye(3)), np.ones(2)), (dense_problem(np.eye(3)), np.ones((3, 1)))]),
    ("step-4-blocks-for-p-3",
     lambda: step(SCHEME, scalar_problem(1.0), init_state(scalar_problem(1.0), 1.0, 4, 0.1)), ValueError,
     "state carries 4 blocks, scheme needs 3"),
    ("scalar-shift-singular", lambda: scalar_problem(-2.0).shifted_solve(1.0, 0.5, np.array([1.0])), StepSingular,
     "stage denominator vanishes: c1 + sigma*lambda = 0j"),
    ("dense-empty", lambda: dense_problem(np.zeros((0, 0))), ValueError, EMPTY),
    ("dense-nonsquare", lambda: dense_problem(np.ones((2, 3))), ValueError,
     "expected a square matrix, got shape (2, 3)"),
    # a non-finite entry fails at construction, not as SolveFailed at step 1
    *((f"dense-entry-{bad}", lambda bad=bad: dense_problem([[1.0, bad], [0.0, 1.0]]), ValueError,
       "matrix entries must be finite") for bad in (np.nan, np.inf, complex(0.0, -np.inf))),
    ("heat-1-node", lambda: heat_problem(1), ValueError, "need at least 2 interior nodes, got 1"),
    *((f"heat-diffusivity-{kappa}", lambda kappa=kappa: heat_problem(5, diffusivity=kappa), ValueError,
       f"diffusivity must be positive and finite, got {kappa}") for kappa in (0.0, np.inf, np.nan)),
    # int() would truncate it to a 2-node rod
    ("heat-2.9-nodes", lambda: heat_problem(2.9), TypeError, "n_interior must be an integer, got 2.9"),
    *((f"scalar-lambda-{lam}", lambda lam=lam: scalar_problem(lam), ValueError,
       f"lambda must be finite, got {complex(lam)}")
      for lam in (np.nan, np.inf, complex(1.0, np.nan), complex(-np.inf, 0.0))),
    # a diagonal system: each column is checked, and the first refused one is named
    ("scalar-lambdas-1-nan-inf", lambda: scalar_problem([1.0, np.nan, np.inf]), ValueError,
     "lambda must be finite, got (nan+0j)"),
    *((f"scalar-lambdas-shape-{shape}", lambda shape=shape: scalar_problem(np.ones(shape)), ValueError,
       f"lambda must be a number or a non-empty 1-D array, got shape {shape}") for shape in ((0,), (2, 2))),
    *((f"scalar-lambdas-{lams}-shift-refused", lambda lams=lams: scalar_problem(lams).shifted_solve(
        1.0, 2.0, np.ones(3)), StepSingular, message)
      for lams, message in [([1.0, -0.5, 1e308], "stage denominator vanishes: c1 + sigma*lambda = 0j"),
                            ([1.0, 1e308, -0.5], "stage shift is not finite: c1 + sigma*lambda = (inf+0j)")]),
    # --- integrator: the march
    ("integrate-tau--0.1", lambda: integrate(SCHEME, scalar_problem(1.0), 1.0, -0.1, 1.0), ValueError,
     "tau must be positive, got -0.1"),
    ("integrate-less-than-one-step", lambda: integrate(SCHEME, scalar_problem(1.0), 1.0, 0.5, 0.2), ValueError,
     "t_end=0.2 does not cover one step of tau=0.5"),
    *((f"integrate-{t_end:g}-over-{tau:g}", lambda tau=tau, t_end=t_end: integrate(
        SCHEME, scalar_problem(1.0), 1.0, tau, t_end), ValueError,
       f"t_end={t_end:g} over tau={tau:g} is not a finite number of steps")
      for tau, t_end in [(0.1, np.inf), (1e-300, 1e300), (0.1, np.nan)]),
    # 1e300 steps: refused before the march, which would run until killed
    ("integrate-1e300-steps", lambda: integrate(SCHEME, scalar_problem(1.0), 1.0, 1e-300, 1.0), ValueError,
     "t_end=1.0 over tau=1e-300 is 1e+300 steps, more than a list can hold"),
    # 1 / 0.3 is 3.33 steps: marching 3 would stop at t = 0.9, not t_end
    ("integrate-off-the-step-grid", lambda: integrate(RHO_SCHEME, scalar_problem(1.0), 1.0, 0.3, 1.0), ValueError,
     "t_end=1.0 is not a whole number of steps of tau=0.3 (t_end/tau = 3.33333333333)"),
    # a finite initial stack whose march overflows raises at the first non-finite step
    *((f"integrate-{name}-overflows-mid-march", lambda problem=problem, u0=u0: last(integrate(
        RHO_SCHEME, problem, u0, 0.1, 1.0)), StateOverflow, "step 1 of 10: the state is not finite at tau=0.1")
      for name, problem, u0 in [("scalar", scalar_problem(1e150), 1.0),
                                ("dense", dense_problem(np.diag([1e150, 2e150])), [1.0, 1.0])]),
    # an unstable p = 4 scheme on a heat rod: finite for 1836 of 2000 steps
    ("integrate-heat-overflows-late", lambda: last(integrate(
        make_scheme(4, 1.0, 0.75), heat_problem(50), np.sin(np.pi * np.arange(1, 51) / 51), 0.1, 200.0)),
     StateOverflow, "step 1837 of 2000: the state is not finite at tau=0.1"),
    # the header takes the length of the first u: with no row there is none
    ("write_trajectory_csv-no-rows", lambda: write_trajectory_csv(iter([]), os.devnull), ValueError,
     "a trajectory needs at least one row"),
    # --- numkit
    # LAPACK's own refusal, or the condition rule where rounding leaves the rank-2 matrix invertible
    *((f"solve-singular-{name}", lambda matrix=matrix: numkit.solve(matrix, np.ones(len(matrix))), SingularMatrix,
       message)
      for name, matrix, message in [
          ("rank-1", [[1.0, 2.0], [2.0, 4.0]], "Singular matrix"),
          ("zero", [[0.0, 0.0], [0.0, 0.0]], "Singular matrix"),
          ("rank-2", [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [5.0, 7.0, 9.0]],
           "condition estimate 2.027e+16 reaches 1 / PIVOT_RTOL"),
      ]),
    ("solve-nonsquare", lambda: numkit.solve(np.ones((2, 3)), np.ones(2)), ValueError,
     "expected a square matrix, got shape (2, 3)"),
    ("solve-rhs-of-3", lambda: numkit.solve(np.ones((2, 2)), np.ones(3)), ValueError,
     "right-hand side of shape (3,) does not fit dimension 2"),
    # reshapes to (2, 2) but does not fit
    ("solve-rhs-of-4", lambda: numkit.solve(np.eye(2), np.ones(4)), ValueError,
     "right-hand side of shape (4,) does not fit dimension 2"),
    ("solve-empty", lambda: numkit.solve(np.zeros((0, 0)), np.zeros(0)), ValueError, EMPTY),
    ("solve-nan-entry", lambda: numkit.solve([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]), ValueError,
     "matrix entries must be finite"),
    ("eigenvalues-empty", lambda: numkit.eigenvalues(np.zeros((0, 0))), ValueError, EMPTY),
    ("eigenvalues-above-the-cap", lambda: numkit.eigenvalues(np.eye(numkit.MAX_DIM + 1)), ValueError,
     "dimension 13 exceeds cap 12"),
    # --- schemes
    *((f"c_of_p-{p}", lambda p=p: c_of_p(p), OutOfTable, f"no tabulated constant for order p={p}")
      for p in (1, 0, 12, 40)),
    ("equal-gamma-closure-violated", lambda: SchemeParams(3, 0.9, 0.6, (0.7, 0.8), Variant.EQUAL_GAMMA), ValueError,
     "equal-gamma closure violated: gammas (0.7, 0.8) != (0.7166666666666667, 0.7166666666666667)"),
    ("remark-one-closure-violated", lambda: SchemeParams(3, 0.9, 0.6, (G1, G2 + 1e-9), Variant.REMARK_ONE),
     ValueError, "remark-one closure violated: gammas (0.7105263157894738, 0.7228070185438595) "
     "!= (0.7105263157894738, 0.7228070175438596)"),
    ("SchemeParams-p-3-one-gamma", lambda: SchemeParams(3, 0.9, 0.6, (0.7,), Variant.EQUAL_GAMMA), ValueError,
     "expected 2 gamma weights for p=3, got 1"),
    ("make_scheme-nan", lambda: make_scheme(3, math.nan, 0.6), ValueError, "scheme parameters must be finite"),
    # make_scheme refuses p = 1 first; the dataclass holds the same line
    ("make_scheme-p-1", lambda: make_scheme(1, 0.9, 0.6), ValueError, P_1),
    ("SchemeParams-p-1", lambda: SchemeParams(1, 0.9, 0.6, (), Variant.EQUAL_GAMMA), ValueError, P_1),
    # 2 + 3 * alpha_f is exactly 0.0 at the float; any scalar is refused, not
    # only a Python float: no bare ZeroDivisionError
    *((f"{name}-pole-{type(alpha_f).__name__}", lambda call=call, alpha_f=alpha_f: call(alpha_f),
       ValueError, "remark-one closure has a pole at 2 + 3*alpha_f = 0")
      for alpha_f in (-0.6666666666666666, np.float64(-2.0 / 3.0), Fraction(-2, 3))
      for name, call in [("make_scheme", lambda af: make_scheme(3, 1.0, af, Variant.REMARK_ONE)),
                         ("remark_one_gammas", lambda af: remark_one_gammas(1.0, af))]),
    ("remark-one-p-4", lambda: make_scheme(4, 0.9, 0.6, Variant.REMARK_ONE), VariantUnsupported,
     "remark-one closure is third order only"),
    *((f"params_from_rho-1-{branch.value}", lambda branch=branch: params_from_rho(1.0, branch), PoleAtRho,
       f"branch {branch.value} has a pole at rho_inf = 1") for branch in RhoBranch if branch is not RhoBranch.MAIN),
    *((f"params_from_rho-{rho}", lambda rho=rho: params_from_rho(rho), ValueError,
       f"rho_inf must be in [0, 1], got {rho}") for rho in (-0.1, 1.1, 5.0)),
    # --- amplification
    *((f"one_step_tableau-p-{p}-{len(gammas)}-gammas", lambda p=p, gammas=gammas: one_step_tableau(
        p, 0.9, 0.6, gammas), ValueError, message)
      for p, gammas, message in [(1, (), P_1), (3, (0.5,), "expected 2 gammas, got 1"),
                                 (3, (0.5,) * 3, "expected 2 gammas, got 3")]),
    *((f"{limit.__name__}-p-4", lambda limit=limit: limit(make_scheme(4, 0.9, 0.6)), VariantUnsupported,
       f"closed-form T->{at} limit is available for p=3 only")
      for limit, at in ((limit_matrix_zero, "0"), (limit_matrix_inf, "inf"))),
    ("limit_matrix_zero-alpha-m-0", lambda: limit_matrix_zero(make_scheme(3, 0.0, 0.6)), DegenerateParams,
     "T->0 limit undefined for alpha_m = 0"),
    # alpha_f = 0, and gamma_1 = 0 exactly at alpha_f = C(3) + alpha_m
    *((f"limit_matrix_inf-alpha-f-{af}", lambda af=af: limit_matrix_inf(make_scheme(3, 0.5, af)), DegenerateParams,
       "T->inf limit undefined for alpha_f = 0 or gamma_1 = 0") for af in (0.0, float(c_of_p(3)) + 0.5)),
    # --- orderlab
    # the exact solution is constant
    ("measure_order-lambda-0", lambda: measure_order(RHO_SCHEME, 0.0, 1.0, TAUS), AllAtRoundoff,
     "0 of 6 errors above floor 1e-13"),
    ("measure_order-one-tau", lambda: measure_order(SCHEME, 1.0, 1.0, [0.1]), ValueError,
     "need at least two step sizes"),
    ("measure_order-rising-taus", lambda: measure_order(SCHEME, 1.0, 1.0, [0.1, 0.2]), ValueError,
     "step sizes must be strictly decreasing"),
    # 1.3 is 10.4 steps of 0.125: the errors would be taken at the wrong time
    ("measure_order-off-the-step-grid", lambda: measure_order(SCHEME, 1.0, 1.3, [0.125, 0.0625]), ValueError,
     "t_end=1.3 is not a whole number of steps of tau=0.125 (t_end/tau = 10.4)"),
    # exp(800) is past the double range: refused before any march
    ("measure_order-exact-solution-overflows", lambda: measure_order(SCHEME, -400.0, 2.0, TAUS), ValueError,
     "the exact solution exp(-lambda t_end) overflows at lambda=(-400+0j), t_end=2.0"),
    # c1 + sigma*lambda vanishes at tau_2 = 0.0625 only; tau_0 and tau_1 march finitely first
    ("measure_order-singular-at-tau-2", lambda: measure_order(SCHEME, -0.9 / (0.43 * 0.0625), 0.25,
                                                              [0.25, 0.125, 0.0625]), StepSingular,
     "step 1 of 4: stage denominator vanishes: c1 + sigma*lambda = 0j"),
    # ... and at tau_1 = 0.125 only, where tau_0's march overflows first
    ("measure_order-overflow-ahead-of-singular-tau-1", lambda: measure_order(
        make_scheme(2, 0.25, 2.0), 0.8, 200.0, [0.25, 0.125]), StateOverflow,
     "step 407 of 800: the state is not finite at tau=0.25"),
    # subnormal parameters: a tiny stage shift overflows 1 / (c1 + sigma*lambda), with no warning
    ("measure_order-subnormal-params", lambda: measure_order(make_scheme(3, 1e-320, 1e-320), 1.0, 1.0, [0.25, 0.125]),
     StateOverflow, "step 1 of 4: the state is not finite at tau=0.25"),
    ("recover_C-p-1", lambda: recover_C(1), ValueError, P_1),
    # --- stability
    *((f"radius-p-{p}-samples-{samples}", lambda p=p, samples=samples: worst_case_radius(
        make_scheme(p, 1.0, 0.75), samples), ValueError,
       f"T samples must be a non-empty set of finite numbers, got {text}")
      for p in (3, 4) for samples, text in BAD_SAMPLES),
    # an empty grid still checks its samples
    *((f"scan-{n_m}-rows-samples-{samples}", lambda n_m=n_m, samples=samples: scan_region(
        _axis(n_m), _axis(2), t_samples=samples), ValueError,
       f"T samples must be a non-empty set of finite numbers, got {text}")
      for n_m in (2, 0) for samples, text in BAD_SAMPLES),
    # at |T| = 1e308 rho + T sigma is not finite, and the radius would be nan
    ("radius-cubic-overflows", lambda: worst_case_radius(make_scheme(3, 1.0, 0.0), [1.0, 1e308]), ValueError,
     "T = 1e+308 overflows the coefficients of the cubic rho + T sigma"),
    ("scan-cubic-overflows", lambda: scan_region(np.array([1.0]), np.array([0.0, 0.6]), t_samples=[-1e308, 1.0]),
     ValueError, "T = -1e+308 overflows the coefficients of the cubic rho + T sigma"),
    # one-step matrices not finite in double precision at subnormal parameters
    # (the samples' G(T), and G(inf), which LAPACK refuses): galpha's errors,
    # naming the first sample refused, not numpy's
    ("radius-p-4-subnormal", lambda: worst_case_radius(make_scheme(4, 1e-320, 1e-320)), SingularAtT,
     SINGULAR_AT_T.format("0.0001")),
    ("scan-subnormal-g-inf", lambda: scan_region(SUBNORMAL, SUBNORMAL), DegenerateParams,
     "the T -> inf limit G(inf) of the one-step matrices is singular or not finite in double precision "
     "(|gamma_1 alpha_f| is too close to 0)"),
    # the same sample however the grid's size splits the samples into blocks
    *((f"scan-subnormal-complex-{n}x{n}", lambda n=n: scan_region(
        np.linspace(1e-320, 1e-300, n), np.linspace(1e-320, 1e-300, n),
        t_samples=default_t_samples(8) * np.exp(0.3j)), SingularAtT, SINGULAR_AT_T.format("0+0j"))
      for n in (4, 100)),
    # a scalar or 2-D axis would give a map whose axes disagree with its radius
    *((f"scan-axes-{np.shape(am)}-{np.shape(af)}", lambda am=am, af=af: scan_region(am, af), ValueError,
       f"the axes must be 1-D, got shapes {np.shape(am)} and {np.shape(af)}")
      for am, af in [(1.0, 0.5), (_axis(3), 0.5), (_axis(6).reshape(2, 3), _axis(4)), (_axis(3), _axis(4)[None])]),
    ("rho_curve-1-point", lambda: rho_curve(RhoBranch.MAIN, 1), ValueError, "need at least two samples"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_refusal(call, error, message):
    check_refusal(call, error, message)


def _raise(error):
    raise error


def _warn_then_raise():
    warnings.warn("overflow encountered", RuntimeWarning)
    raise ValueError("x")


@pytest.mark.parametrize("call, error, message", [
    (lambda: None, ValueError, "x"),  # returns
    (lambda: _raise(TypeError("x")), ValueError, "x"),  # another type
    (lambda: _raise(OutOfTable("x")), ValueError, "x"),  # a subclass of the named type
    (_warn_then_raise, ValueError, "x"),  # a warning on the way
    (lambda: _raise(ValueError("x y")), ValueError, "x"),  # a message that matches in part
    (lambda: _raise(ZeroDivisionError("x")), ZeroDivisionError, "x"),  # outside the three families
], ids=["returns", "another-type", "subclass", "warns", "partial-message", "outside-the-families"])
def test_check_refusal_rejects_a_bad_row(call, error, message):
    with pytest.raises(AssertionError):
        check_refusal(call, error, message)
