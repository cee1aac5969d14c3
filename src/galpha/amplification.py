"""One-step update matrices and their spectral limits.

For the scalar test equation u' + lambda*u = 0 a p-th order scheme advances
the scaled state

    U_n = (U_n, tau*U_n', tau^2/1! ... tau^(p-1)*U_n^(p-1))    (length p)

through a linear one-step system  L(T) U_{n+1} = R(T) U_n  with T = lambda*tau.
The amplification matrix is G(T) = L(T)^{-1} R(T); its spectral radius over T
decides stability and its principal eigenvalue carries the accuracy of the
scheme.

Every entry is affine in T, so L = L0 + T*L1 and R = R0 + T*R1.  The layout
is written once, in :func:`one_step_tableau`, as the pair (c0, c1) of each
nonzero entry c0 + c1*T.  Row i = update of the i-th scaled derivative, last
row = the alpha-weighted collocation of the ODE between steps n and n+1;
k = (p-2)! and -1/(j-1)! reads 0 at j = 0:

    L[i, i]     = (1, 0)                               i = 0 .. p-2
    L[i, p-1]   = (-gamma_{p-1-i} / (p-1-i)!, 0)
    L[p-1, p-2] = (0, alpha_f / k)
    L[p-1, p-1] = (alpha_m / k, 0)

    R[i, j]     = (1 / (j-i)!, 0)                      i <= j <= p-2
    R[i, p-1]   = ((1 - gamma_{p-1-i}) / (p-1-i)!, 0)
    R[p-1, j]   = (-1/(j-1)!, -1/j!)                   j = 0 .. p-3
    R[p-1, p-2] = (-1/(p-3)!, (alpha_f - 1) / k)       (0, alpha_f - 1) for p = 2
    R[p-1, p-1] = ((alpha_m - 1) / k, 0)

Eliminating row p-2 from the last row gives (p-2)! det L(T) = alpha_m +
gamma_1 alpha_f T for every p: the only pole is T = -alpha_m/(gamma_1 alpha_f).
The p = 3 case reduces to

    L = [[1, 0, -g2/2], [0, 1, -g1], [0, af*T, am]]
    R = [[1, 1, (1-g2)/2], [0, 1, 1-g1], [-T, (af-1)*T - 1, am-1]]
"""

from __future__ import annotations

from itertools import zip_longest
from math import factorial

import numpy as np

from . import numkit
from .errors import DegenerateParams, SingularAtT, SingularMatrix, VariantUnsupported
from .schemes import SchemeParams

__all__ = [
    "one_step_tableau",
    "fill_tableau",
    "one_step_elimination",
    "char_poly",
    "order_condition",
    "build_lr",
    "amplification_matrix",
    "limit_matrix_zero",
    "limit_matrix_inf",
    "pole_factor",
]


def one_step_tableau(p, alpha_m, alpha_f, gammas):
    """Nonzero entries of L(T) and R(T) as ``{(i, j): (c0, c1)}`` dicts.

    Entry (i, j) of the matrix is c0 + c1*T; the row rules are the ones in
    the module docstring.  ``alpha_m``, ``alpha_f`` and the p - 1 ``gammas``
    (gamma_1 first) may be floats, per-cell arrays, Fractions or mpmath
    numbers.  The factorial weights take the number type of ``alpha_m``:
    ``1.0`` for a float or an array, ``alpha_m ** 0`` otherwise, so exact
    input stays exact.  Returns ``(L, R)``.
    """
    if p < 2:
        raise ValueError(f"order p must be >= 2, got {p}")
    if len(gammas) != p - 1:
        raise ValueError(f"expected {p - 1} gammas, got {len(gammas)}")
    one = 1.0 if isinstance(alpha_m, (float, np.ndarray)) else alpha_m**0
    zero = 0 * one
    k = one * factorial(p - 2)
    L, R = {}, {}
    for i in range(p - 1):
        g = gammas[p - 2 - i]  # gamma_{p-1-i}
        f = one * factorial(p - 1 - i)
        L[i, i] = (one, zero)
        L[i, p - 1] = (-g / f, zero)
        for j in range(i, p - 1):
            R[i, j] = (one / factorial(j - i), zero)
        R[i, p - 1] = ((one - g) / f, zero)
    L[p - 1, p - 2] = (zero, alpha_f / k)
    L[p - 1, p - 1] = (alpha_m / k, zero)
    for j in range(p - 1):
        R[p - 1, j] = (
            -one / factorial(j - 1) if j else zero,
            (alpha_f - one) / k if j == p - 2 else -one / factorial(j),
        )
    R[p - 1, p - 1] = ((alpha_m - one) / k, zero)
    return L, R


def fill_tableau(entries, t, out):
    """Write c0 + c1*t into ``out[i, j]`` for every tableau entry; returns ``out``.

    ``out`` is anything indexed by ``[i, j]``: a (p, p) array, an
    ``mp.matrix``, or ``stack.transpose(1, 2, 0)`` to fill a stacked
    (ncell, p, p) array from per-cell coefficients.
    """
    for (i, j), (c0, c1) in entries.items():
        out[i, j] = c0 + t * c1
    return out


def one_step_elimination(p, alpha_m, alpha_f, gammas):
    """The closed-form elimination of L(T) U' = R(T) U: ``(M, c, d, k, s, f)``.

    Rows 0..p-2 of L and R are free of T, and L is the identity there but for
    its last column c, so new block i is (W U)_i - c_i x for the new last
    block x, with W rows 0..p-2 of R0.  Eliminating new block p-2 from the
    last row, L[p-1] = (0, .., k T, d), gives

        (d + s T) x = (r0 + T f) U,   s = -k c_{p-2},   f = r1 - k W[p-2]

    for the last rows r0, r1 of R0 and R1, so G(T) = [W - c g^T; g^T] with
    g = (r0 + T f) / (d + s T).  M stacks W, r0 and r1 ((p+1, p) rows);
    c holds the p - 1 entries of L's last column, and d = L0[p-1, p-1],
    k = L1[p-1, p-2] and s come as :func:`one_step_tableau` gives them.
    Floats give (p+1, p) arrays and Python floats d, k, s; per-cell arrays
    give a trailing cell axis, and the same IEEE operations on each cell.
    """
    L, R = one_step_tableau(p, alpha_m, alpha_f, gammas)
    shape = np.broadcast(alpha_m, alpha_f, *gammas).shape
    M = np.zeros((p + 1, p) + shape)
    for (i, j), (c0, c1) in R.items():
        M[i, j] = c0
        if i == p - 1:  # every T-coefficient of R sits in its last row
            M[p, j] = c1
    c = np.zeros((p - 1,) + shape)
    for i in range(p - 1):
        c[i] = L[i, p - 1][0]
    k = L[p - 1, p - 2][1]
    with np.errstate(over="ignore", invalid="ignore"):  # an f out of range is refused where G is read
        f = M[p] - k * M[p - 2]
    return M, c, L[p - 1, p - 1][0], k, -k * L[p - 2, p - 1][0], f


def _poly_sum(products):
    """Sum of products of polynomials, each a coefficient list, lowest power first."""
    total = []
    for first, *rest in products:
        for y in rest:
            out = [0] * (len(first) + len(y) - 1)
            for i, xi in enumerate(first):
                for j, yj in enumerate(y):
                    out[i + j] = out[i + j] + xi * yj
            first = out
        total = [s + t for s, t in zip_longest(total, first, fillvalue=0)]
    return total


def char_poly(p, alpha_m, alpha_f, gammas):
    """Coefficients of (rho, sigma) with det(R(T) - mu L(T)) = rho(mu) + T sigma(mu).

    T enters the last row only: rho is det(R0 - mu L0), sigma the same with
    the last row from R1 - mu L1.  Rows 0 .. p-2 are upper triangular (U,
    diagonal 1 - mu); back-substituting the last column c through them
    without division, w_i = c_i (1-mu)^(p-2-i) - sum_{j>i} U_ij w_j (1-mu)^(j-i-1),
    gives det = (1-mu)^(p-1) d - sum_j r_j w_j (1-mu)^j for the last row r and
    corner d, in + and * only.  Arguments are floats, per-cell arrays,
    Fractions or mpmath numbers, in the number type that
    :func:`one_step_tableau` takes from ``alpha_m``.  Returns two arrays of
    shape (p + 1,) + cell shape, lowest power first: float64 for float
    input, exact Fractions (or mpmath numbers) otherwise.  The mu^p terms
    are set exactly from the pole factor (-1)^p (alpha_m + gamma_1 alpha_f T)/(p-2)!;
    this is the one statement of that leading coefficient.
    """
    tab_l, tab_r = one_step_tableau(p, alpha_m, alpha_f, gammas)
    (one, zero), last = tab_l[0, 0], p - 1  # L[0, 0] is (one, zero) in the input's number type

    def entry(i, j, poly=0):  # R - mu L at (i, j) from the c0 (rho) or c1 (sigma) terms
        return [tab_r.get((i, j), (zero, zero))[poly], -tab_l.get((i, j), (zero, zero))[poly]]
    powers = [_poly_sum([[[one]] + [entry(0, 0)] * m]) for m in range(p)]  # (1 - mu)^m
    w = {}  # back-substitution through rows p-2 .. 0
    for i in reversed(range(last)):
        w[i] = _poly_sum([(powers[last - 1 - i], entry(i, last))] + [
            ([-tab_r[i, j][0]], powers[j - i - 1], w[j]) for j in range(i + 1, last)])
    rho, sigma = (np.stack(np.broadcast_arrays(*_poly_sum(
        [(powers[last], entry(last, last, poly))]
        + [([-one], powers[j], entry(last, j, poly), w[j]) for j in range(last)]
    ))) for poly in (0, 1))
    rho[p] = (-1) ** p * alpha_m / factorial(p - 2)
    sigma[p] = (-1) ** p * gammas[0] * alpha_f / factorial(p - 2)
    return rho, sigma


def order_condition(rho, sigma, q):
    """The T^q coefficient C_q of rho(exp(-T)) + T sigma(exp(-T)).

    From exp(-jT) = sum_q (-jT)^q / q!,

        C_q = (sum_j rho_j (-j)^q + q sum_j sigma_j (-j)^(q-1)) / q!

    for the coefficients of :func:`char_poly`, lowest power first.  The
    scheme has order p when C_0 = ... = C_p = 0 (Hairer, Norsett & Wanner,
    Solving ODEs I, III.2).  Exact for Fraction input; floats give floats.
    """
    total = sum(r * (-j) ** q for j, r in enumerate(rho))
    if q:
        total += q * sum(s * (-j) ** (q - 1) for j, s in enumerate(sigma))
    return total / factorial(q)


def build_lr(params: SchemeParams, t):
    """(L, R) of the one-step system for a validated scheme at T = lambda*tau (may be complex)."""
    t = complex(t)
    return tuple(
        fill_tableau(entries, t, np.zeros((params.p, params.p), dtype=complex))
        for entries in one_step_tableau(params.p, params.alpha_m, params.alpha_f, params.gammas)
    )


def amplification_matrix(params: SchemeParams, t) -> np.ndarray:
    """G(T) = L^{-1} R, formed by linear solve (never by explicit inverse).

    Raises
    ------
    SingularAtT
        If L(T) is singular, which happens on the pole
        alpha_m + gamma_1 * alpha_f * T = 0.
    """
    L, R = build_lr(params, t)
    try:
        return numkit.solve(L, R)
    except SingularMatrix as exc:
        raise SingularAtT(f"one-step matrix is singular at T={t!r}: {exc}") from exc


def limit_matrix_zero(params: SchemeParams) -> np.ndarray:
    """Closed-form limit of a third-order amplification matrix (any closure) as T -> 0.

    A0 = [[1, 1 - g2/(2 am), 1/2 - g2/(2 am)],
          [0, 1 - g1/am,     1 - g1/am],
          [0, -1/am,         1 - 1/am]]

    Requires alpha_m != 0.  Its eigenvalues are 1 (the consistency mode) and
    the roots of the trailing 2x2 block.
    """
    if params.p != 3:
        raise VariantUnsupported("closed-form T->0 limit is available for p=3 only")
    am, (g1, g2) = params.alpha_m, params.gammas
    if am == 0.0:
        raise DegenerateParams("T->0 limit undefined for alpha_m = 0")
    return np.array(
        [[1.0, 1.0 - g2 / (2.0 * am), 0.5 - g2 / (2.0 * am)],
         [0.0, 1.0 - g1 / am, 1.0 - g1 / am],
         [0.0, -1.0 / am, 1.0 - 1.0 / am]],
        dtype=complex,
    )


def limit_matrix_inf(params: SchemeParams) -> np.ndarray:
    """Closed-form limit of a third-order amplification matrix (any closure) as T -> inf.

    With r = g2/g1,

    Ainf = [[1 - r/(2 af), 1 - r/(2 af), 1/2 - r/2],
            [-1/af,        1 - 1/af,     0],
            [-1/(g1 af),   -1/(g1 af),   1 - 1/g1]]

    as float64.  Requires alpha_f != 0 and gamma_1 != 0.  For equal gammas
    r = 1, so the third column is (0, 0, 1 - 1/g1): the trailing entry is an
    exact eigenvalue and the leading 2x2 block depends on alpha_f alone.
    """
    if params.p != 3:
        raise VariantUnsupported("closed-form T->inf limit is available for p=3 only")
    af, (g1, g2) = params.alpha_f, params.gammas
    if af == 0.0 or g1 == 0.0:
        raise DegenerateParams("T->inf limit undefined for alpha_f = 0 or gamma_1 = 0")
    r = g2 / g1
    return np.array(
        [[1.0 - 0.5 * r / af, 1.0 - 0.5 * r / af, 0.5 - 0.5 * r],
         [-1.0 / af, 1.0 - 1.0 / af, 0.0],
         [-1.0 / (g1 * af), -1.0 / (g1 * af), 1.0 - 1.0 / g1]]
    )


def pole_factor(a, b):
    """The pole rule of the one-step system: ``(a + b, |a + b| > 1e-12 (|a| + |b|))``.

    With a = alpha_m and b = gamma_1 alpha_f T, a + b is (p-2)! det L(T),
    the one factor that can vanish; the flag is False on the pole, where the
    sum is lost to cancellation (or not a number).  Arrays broadcast, and
    Python scalars stay Python scalars (the builtin ``abs``).
    """
    factor = a + b
    return factor, abs(factor) > 1e-12 * (abs(a) + abs(b))
