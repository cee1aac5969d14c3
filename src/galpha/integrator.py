"""Time marching for linear systems u' + A u = 0.

The state carried between steps stacks the solution together with its scaled
derivatives, block j holding tau^j * u^(j).  One step reads the closed-form
elimination of the one-step system from
``amplification.one_step_elimination``, solves a single shifted system

    (alpha_m * I + gamma_1 * alpha_f * tau * A) x / (p-2)! = b

for the highest derivative block and then updates every lower block
explicitly, so the per-step cost is one implicit solve plus one
matrix-vector product -- regardless of the order p.  For a scalar problem the
step operator is exactly multiplication by the amplification matrix G(lambda *
tau), which is the main correctness oracle used in the tests.

The march runs in the dtype of its data: the result type of u0 and of A u0.
A real operator with a real u0 (the heat rod, a real dense matrix) marches
in float64; a complex operator, a complex u0 or the scalar problem (whose
lambda is complex) marches in complex128.

Problems are described by a :class:`LinearProblem`: an ``apply`` callback for
v -> A v and a ``shifted_solve`` callback for (c1 * I + sigma * A) x = b.
Factories are provided for scalar equations (one lambda, or a 1-D array of
them: the diagonal system), dense matrices, and the standard
second-difference discretization of the heat equation on the unit interval.
The shift is the same on every step of a march, so the factories pay for the
shifted operator once: the scalar problem keeps the pole-checked
denominator c1 + sigma * lambda of its last shift, the dense problem keeps
LAPACK's inverse of its last shifted operator, and the heat problem solves
in its sine eigenbasis (a real DST-I through ``numpy.fft.rfft``), whose
eigenvalues it computes once.  The dense and heat problems refuse a shifted
operator by the one rule of :mod:`galpha.numkit`.
``step`` reads the plan of its scheme from a cache, built on the scheme's
first step.

A march streams: :func:`integrate` checks its arguments and returns an
iterator that takes one step per row it yields, keeping only the current
state, and :func:`write_trajectory_csv` writes each row as it comes.  So the
memory of a march written to CSV is set by the state, not by the step count.
"""

from __future__ import annotations

import itertools
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from . import numkit
from .amplification import one_step_elimination, pole_factor
from .errors import GalphaError, SingularMatrix, SolveFailed, StateOverflow, StepSingular
from .schemes import SchemeParams

__all__ = [
    "StateVector",
    "LinearProblem",
    "scalar_problem",
    "dense_problem",
    "heat_problem",
    "init_state",
    "step",
    "stage_shift",
    "step_count",
    "integrate",
    "write_trajectory_csv",
]


@dataclass(frozen=True)
class StateVector:
    """Stacked scheme state: row j holds tau^j * u^(j), a C-ordered (p, m) array.

    A real stack is kept as float64, any other as complex128.  The scaling
    ties the stack to the step size it was built with.
    """

    stack: np.ndarray
    tau: float

    def __post_init__(self):
        stack = np.asarray(self.stack)
        stack = np.ascontiguousarray(stack, dtype=complex if np.iscomplexobj(stack) else float)
        if stack.ndim != 2:
            raise ValueError(f"state stack must be 2-d (p, m), got shape {stack.shape}")
        if not (self.tau > 0.0 and np.isfinite(self.tau)):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "tau", float(self.tau))

    @classmethod
    def _trusted(cls, stack: np.ndarray, tau: float) -> "StateVector":
        """A state from a C-ordered 2-d float64 or complex128 stack and a valid
        float tau, taken as they are, without the checks of ``__post_init__``."""
        state = object.__new__(cls)
        object.__setattr__(state, "stack", stack)
        object.__setattr__(state, "tau", tau)
        return state

    @property
    def order(self) -> int:
        return self.stack.shape[0]

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    @property
    def value(self) -> np.ndarray:
        """The physical solution u (block 0)."""
        return self.stack[0]


@dataclass(frozen=True)
class LinearProblem:
    """A linear constant-coefficient problem u' + A u = 0.

    ``apply(v)`` returns A v.  ``shifted_solve(c1, sigma, b)`` returns the
    solution of (c1 * I + sigma * A) x = b and raises :class:`StepSingular`
    when the shifted operator is singular; the dense and heat factories
    decide that by :func:`galpha.numkit.check_condition`.  Both callbacks
    must be safe for concurrent read-only use.  ``dim`` is the length of u;
    :func:`init_state` rejects a u0 of any other shape.  A march runs in the
    result type of u0 and ``apply(u0)``, so a real operator that returns real
    arrays for real input keeps the march of a real u0 in float64.

    A march calls ``shifted_solve`` with one (c1, sigma) on every step, so
    :func:`scalar_problem`, :func:`dense_problem` and :func:`heat_problem`
    keep the denominator, the inverse or the divisors of the last shift in a
    ``functools.lru_cache(maxsize=1)``.  A refused shift raises on every
    call, since the cache keeps no exception.
    """

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    shifted_solve: Callable[[complex, complex, np.ndarray], np.ndarray]
    description: str = ""


def scalar_problem(lam) -> LinearProblem:
    """The test equation u' + lambda u = 0 (lambda may be complex and finite).

    A 1-D array of lambdas gives the diagonal system u_k' + lambda_k u_k = 0,
    whose march steps each column bit for bit like the scalar problem of its
    lambda_k (see :func:`step`).

    A march shifts by c1 = alpha_m / (p-2)! and sigma = gamma_1 alpha_f tau /
    (p-2)!, so c1 + sigma lambda is the pole factor of the one-step system at
    T = lambda tau over (p-2)!.  The solve raises :class:`StepSingular` where
    :func:`~galpha.amplification.pole_factor` finds it vanished, the rule by
    which the stability scan reports a pole (radius inf), and a denominator
    that overflowed is refused as not finite before that test; a diagonal
    system raises the error of its first column refused.  The checked
    denominator of the last (c1, sigma) is kept, so a march pays for it once.
    """
    if np.ndim(lam) == 0:
        lam = complex(lam)
    else:
        lam = np.array(lam, dtype=complex)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError(f"lambda must be a number or a non-empty 1-D array, got shape {lam.shape}")
    for value in np.ravel(lam):
        if not np.isfinite(value):
            raise ValueError(f"lambda must be finite, got {complex(value)}")

    def apply(v):
        return lam * v

    @lru_cache(maxsize=1)
    def denominator(c1, sigma):
        with np.errstate(over="ignore", invalid="ignore"):  # an array's overflow, as a Python complex's
            den, nonzero = pole_factor(c1, sigma * lam)
        for value, ok in zip(np.ravel(den), np.ravel(nonzero)):
            if not np.isfinite(value):
                raise StepSingular(f"stage shift is not finite: c1 + sigma*lambda = {complex(value)!r}")
            if not ok:
                raise StepSingular(f"stage denominator vanishes: c1 + sigma*lambda = {complex(value)!r}")
        return den

    def shifted_solve(c1, sigma, b):
        return b / denominator(c1, sigma)

    described = f"lambda={lam}" if np.ndim(lam) == 0 else f"{lam.size} lambdas"
    return LinearProblem(np.size(lam), apply, shifted_solve, f"scalar {described}")


def dense_problem(a) -> LinearProblem:
    """Wrap a copy of a dense square matrix A with finite entries as a :class:`LinearProblem`.

    Solves multiply by :func:`galpha.numkit.inverse` of M = c1 I + sigma A; where
    it refuses M (max|M| max|M^-1| * PIVOT_RTOL >= 1) they raise :class:`StepSingular`.
    An A with no imaginary part is kept real, so its ``apply`` and inverse
    are real and a real u0 marches in float64.
    """
    a = numkit._as_square(a)
    a = (a if a.imag.any() else a.real).copy()
    m = a.shape[0]
    eye = np.eye(m)

    def apply(v):
        return a @ np.asarray(v)

    @lru_cache(maxsize=1)
    def inverse(c1, sigma):
        try:
            return numkit.inverse(c1 * eye + sigma * a)
        except SingularMatrix as exc:
            raise StepSingular(f"shifted system singular: {exc}") from exc

    def shifted_solve(c1, sigma, b):
        return inverse(c1, sigma) @ b

    return LinearProblem(m, apply, shifted_solve, f"dense {m}x{m} system")


def heat_problem(n_interior: int, diffusivity: float = 1.0) -> LinearProblem:
    """Method-of-lines heat equation on (0, 1) with zero boundary values.

    A = (kappa / h^2) * tridiag(-1, 2, -1) on ``n_interior`` nodes,
    h = 1/(n+1); ``n_interior`` must be an integer (``TypeError`` otherwise).
    Its eigenvectors are the sine modes sin(k pi x_j), with
    eigenvalues lambda_k = 4 (kappa / h^2) sin^2(k pi h / 2), k = 1 .. n.
    The shifted solve diagonalises A by the DST-I (two O(n log n)
    transforms through ``numpy.fft.rfft``) and divides by d_k = c1 + sigma * lambda_k;
    it raises :class:`StepSingular` where :func:`galpha.numkit.check_condition`
    refuses the diagonal shift's estimate max|d| / min|d| (a zero d included).
    """
    try:
        n = operator.index(n_interior)
    except TypeError:
        raise TypeError(f"n_interior must be an integer, got {n_interior!r}") from None
    if n < 2:
        raise ValueError(f"need at least 2 interior nodes, got {n}")
    if not 0.0 < diffusivity < np.inf:
        raise ValueError(f"diffusivity must be positive and finite, got {diffusivity}")
    h = 1.0 / (n + 1)
    s = diffusivity / h**2
    lam = 4.0 * s * np.sin(np.arange(1, n + 1) * (np.pi * h / 2.0)) ** 2

    def apply(v):
        v = np.asarray(v)
        out = 2.0 * v
        out[:-1] -= v[1:]
        out[1:] -= v[:-1]
        return s * out

    @lru_cache(maxsize=1)
    def divisor(c1, sigma):
        den = c1 + sigma * lam
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                numkit.check_condition(np.abs(den).max() / np.abs(den).min())
        except SingularMatrix as exc:
            raise StepSingular(f"shifted operator singular: {exc}") from exc
        # x = S diag(1/den) S b * 2/(n+1), with S the DST-I matrix
        # (symmetric, S @ S = (n+1)/2 * I) and _sine_transform(y) = -2 S y.
        return 2.0 * (n + 1) * den

    def shifted_solve(c1, sigma, b):
        return _sine_transform(_sine_transform(b) / divisor(c1, sigma))

    return LinearProblem(
        n, apply, shifted_solve, f"heat rod, {n} interior nodes, kappa={diffusivity}"
    )


def _sine_transform(x) -> np.ndarray:
    """-2 times the DST-I of x: -2 sum_j x_j sin(pi j k / (n + 1)), k = 1 .. n.

    The FFT of the real odd extension (0, y, 0, -reversed y) is -2i S y at
    entries 1 .. n, so one ``rfft`` over the real and the imaginary part of
    x, taken apart, gives both transforms.  A real x gives a real result.
    """
    x = np.asarray(x)
    n = x.shape[0]
    parts = np.stack([x.real, x.imag]) if np.iscomplexobj(x) else x[None]
    odd = np.zeros((len(parts), 2 * n + 2))
    odd[:, 1:n + 1] = parts
    odd[:, n + 2:] = -parts[:, ::-1]
    out = np.fft.rfft(odd)[:, 1:n + 1].imag
    if len(out) == 1:
        return out[0]
    z = np.empty(n, dtype=complex)
    z.real, z.imag = out
    return z


def init_state(problem: LinearProblem, u0, p: int, tau: float) -> StateVector:
    """Exact-derivative initial state: block j = tau^j * (-A)^j u0.

    Block j is -tau A(block j-1).  A can overflow where tau A does not (a
    huge A with a tiny tau), so the entries of a block that are not finite
    that way are taken again as -A(tau block j-1); a block that is finite
    keeps the first order, and its bits.  The stack takes the result type
    of u0 and A u0 (at least float64).  Raises :class:`StateOverflow` when
    a block is still not finite, as it is once (tau |A|)^j exceeds the
    double range, instead of marching infs and nans.
    """
    if p < 2:
        raise ValueError(f"order p must be >= 2, got {p}")
    if not (tau > 0.0 and np.isfinite(tau)):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    u0 = np.atleast_1d(np.asarray(u0))
    u0 = u0.astype(np.result_type(u0, float), copy=False)
    if u0.shape != (problem.dim,):
        raise ValueError(f"u0 of shape {u0.shape} does not fit a problem of dim {problem.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        first = problem.apply(u0)
        stack = np.empty((p, problem.dim), dtype=np.result_type(u0, first))
        stack[0] = u0
        for j in range(1, p):
            stack[j] = -tau * (first if j == 1 else problem.apply(stack[j - 1]))
            lost = ~np.isfinite(stack[j])
            if lost.any():
                stack[j, lost] = -problem.apply(tau * stack[j - 1])[lost]
    finite = np.isfinite(stack).all(axis=1)
    if not finite.all():
        j = int(np.argmin(finite))
        raise StateOverflow(
            f"block {j} of the initial state, tau^{j} (-A)^{j} u0, is not finite at tau={tau}"
        )
    return StateVector(stack, tau)


def step(params: SchemeParams, problem: LinearProblem, state: StateVector) -> StateVector:
    """Advance one step of size ``state.tau``.

    One call to ``problem.shifted_solve`` (c1 = alpha_m / (p-2)!, shift
    sigma = gamma_1 * alpha_f * tau / (p-2)!) produces the new highest block;
    the rest of the stack follows from explicit Taylor-ladder updates.  A
    step makes one ``problem.apply`` at every order.  Exceptions from the
    solve are re-raised as :class:`SolveFailed` unless they already carry a
    package error type.

    The new stack is written into the first p rows of the one (p+1, m)
    array that the step's ladder product allocates, and the returned state
    is not re-validated: its stack has the input's dtype, C order and shape,
    and its tau is the input's.  A solve that returns another dtype (a
    complex lambda on a real stack) or shape takes the general route: the
    stack is stacked anew, in the result type, and checked like a
    user-built :class:`StateVector`.  The input state is never modified.
    """
    p = params.p
    stack = state.stack
    if stack.shape[0] != p:
        raise ValueError(f"state carries {stack.shape[0]} blocks, scheme needs {p}")
    tau = state.tau
    M, c, d, k, s = _plan(p, params.alpha_m, params.alpha_f, params.gammas)
    # einsum on the real and imaginary parts, not BLAS: each column of the
    # stack is combined on its own (a diagonal system steps bit for bit like
    # its scalar components), and the real kernel is up to 6x faster
    rows = np.einsum("ij,jm->im", M, stack.view(float)).view(stack.dtype)
    ladder, r0u = rows[:p - 1], rows[p - 1]
    b = r0u + tau * problem.apply(rows[p] - k * rows[p - 2])
    try:
        x = problem.shifted_solve(d, s * tau, b)
    except GalphaError:
        raise
    except Exception as exc:
        raise SolveFailed(f"shifted solve raised {type(exc).__name__}: {exc}") from exc
    if getattr(x, "dtype", None) != rows.dtype or x.shape != r0u.shape:
        # a solve that widens the dtype (a complex lambda on a real stack)
        # or returns another shape: the stack is built and checked as given
        return StateVector(np.vstack([ladder - c[:, None] * x, x]), tau)
    # rows p-1 and p are spent, so rows[:p], C-contiguous, takes the new stack
    np.subtract(ladder, c[:, None] * x, out=ladder)
    rows[p - 1] = x
    return StateVector._trusted(rows[:p], tau)


def stage_shift(params: SchemeParams, tau: float) -> tuple[float, float]:
    """The (c1, sigma) with which :func:`step` of size tau calls ``problem.shifted_solve``."""
    _, _, d, _, s = _plan(params.p, params.alpha_m, params.alpha_f, params.gammas)
    return d, s * tau


@lru_cache(maxsize=32)
def _plan(p, alpha_m, alpha_f, gammas):
    """The step plan of one scheme: ``one_step_elimination`` without its f.

    New block i is ladder[i] - c[i] x, with ladder = W U and x the new last
    block, and (d + s tau A) x = r0 U + tau A (r1 U - k ladder[p-2]).
    Returns the read-only ``(M, c, d, k, s)``: M stacks W, r0 and r1; c is
    an array, and d, k and s are Python floats (numpy scalars slow a scalar
    solve 3x).
    """
    M, c, d, k, s, _ = one_step_elimination(p, alpha_m, alpha_f, gammas)
    M.flags.writeable = c.flags.writeable = False
    return M, c, d, k, s


def step_count(tau: float, t_end: float) -> int:
    """The number n of steps of size tau that end a march at t_end.

    t_end must be a whole number of steps: with n = round(t_end / tau), a
    mismatch |n * tau - t_end| above 1e-9 * t_end raises ``ValueError``
    rather than ending the march short of (or past) t_end, and so do a tau
    that is not positive, a t_end below tau, a t_end / tau that is not
    finite and a step count beyond the length of a Python list (n + 1 >
    ``sys.maxsize``).
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if t_end < tau:
        raise ValueError(f"t_end={t_end} does not cover one step of tau={tau}")
    if not np.isfinite(t_end / tau):
        raise ValueError(f"t_end={t_end} over tau={tau} is not a finite number of steps")
    n_steps = int(round(t_end / tau))
    if abs(n_steps * tau - t_end) > 1e-9 * t_end:
        raise ValueError(
            f"t_end={t_end} is not a whole number of steps of tau={tau} "
            f"(t_end/tau = {t_end / tau:.12g})"
        )
    if n_steps + 1 > sys.maxsize:
        raise ValueError(f"t_end={t_end} over tau={tau} is {t_end / tau:.12g} steps, more than a list can hold")
    return n_steps


def integrate(
    params: SchemeParams,
    problem: LinearProblem,
    u0,
    tau: float,
    t_end: float,
) -> Iterator[tuple[float, np.ndarray]]:
    """Uniform march to t_end: an iterator of its rows (t, u(t)), t = 0 included.

    The arguments are checked and u0 is read at the call:
    :func:`step_count`'s ``ValueError`` and :func:`init_state`'s refusals
    are raised before any row is asked for.  The march then runs as its rows
    are taken, one step per row, and keeps only its initial and current
    states, so its memory does not grow with the step count.  Each u is a
    copy that the march does not touch again.

    Step failures are re-raised with the failing step index attached, and
    so is :class:`StateOverflow` when the march leaves the double range,
    raised in place of the last row.  A non-finite state stays non-finite on
    every later step (inf and nan pass through the solve), so one test of
    the last state decides, and only then is the march run again from its
    initial state to find the first step whose u is not finite.
    """
    n_steps = step_count(tau, t_end)
    return _march(params, problem, init_state(problem, u0, params.p, tau), n_steps)


def _march(params: SchemeParams, problem: LinearProblem, start: StateVector, n_steps: int):
    """The rows of :func:`integrate`, from its checked initial state."""
    state, tau = start, start.tau
    yield 0.0, state.value.copy()
    for k in range(1, n_steps + 1):
        try:
            # per step, not across the yield: numpy's error state is a context
            # variable, and a block held open there would be in force in the
            # caller's code between rows
            with np.errstate(over="ignore", invalid="ignore"):
                state = step(params, problem, state)
        except GalphaError as exc:
            raise type(exc)(f"step {k} of {n_steps}: {exc}") from exc
        if k == n_steps and not np.isfinite(state.stack).all():
            first = _first_nonfinite_step(params, problem, start, n_steps)
            raise StateOverflow(f"step {first} of {n_steps}: the state is not finite at tau={tau}")
        yield k * tau, state.value.copy()


def _first_nonfinite_step(params: SchemeParams, problem: LinearProblem, start: StateVector, n: int) -> int:
    """The first of n steps from ``start`` whose u is not finite, or n if none is.

    The one rule by which a march names the step where it left the double
    range, for :func:`integrate` and for ``orderlab.measure_order``'s ladder.
    It marches again, on the failure path only, and keeps no trajectory: a
    march steps bit for bit alike each time, so it finds the step of the
    first march.
    """
    state = start
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            state = step(params, problem, state)
            if not np.isfinite(state.value).all():
                return k
    return n


def write_trajectory_csv(trajectory, path) -> tuple[float, np.ndarray]:
    """Write ``t,re_u_1,im_u_1,...`` rows with 17 significant digits; returns the last row.

    ``trajectory`` is any iterable of (t, u) rows, such as the iterator of
    :func:`integrate`, whose march runs as this writes; each row is written
    as it comes, and none is kept.  The header takes the length of the
    first u.  A complex u writes its (re, im) pairs; a real u writes its
    imaginary cells as the literal ``0``, the bytes that ``%.17g`` gives for
    0.0, without formatting them.  So a trajectory whose rows turn complex
    part way writes the bytes it would write with every row made complex.
    """
    rows = iter(trajectory)
    last = next(rows, None)
    if last is None:
        raise ValueError("a trajectory needs at least one row")
    m = np.atleast_1d(last[1]).shape[0]
    complex_row = "%.17g" + ",%.17g,%.17g" * m + "\n"
    real_row = "%.17g" + ",%.17g,0" * m + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(f"re_u_{k},im_u_{k}" for k in range(1, m + 1)) + "\n")
        for last in itertools.chain([last], rows):
            t, u = last
            if np.iscomplexobj(u):
                fh.write(complex_row % (t, *np.ascontiguousarray(u, dtype=complex).view(float).tolist()))
            else:
                fh.write(real_row % (t, *np.ascontiguousarray(u, dtype=float).tolist()))
    return last
