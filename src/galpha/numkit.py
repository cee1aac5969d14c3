"""Small dense complex linear-algebra kernel.

``lu_factor`` is a hand-rolled LU factorization with partial pivoting, so
that near-singularity is reported through an explicit pivot threshold;
``lu_solve`` reuses one factor for any number of right-hand sides (a march
factors its fixed shifted operator once), and ``solve`` is the two in one
call.  ``eigenvalues`` defers to LAPACK, which is the right tool for dense
nonsymmetric spectra of the one-step matrices (dimension p <= 12).
Characteristic polynomials are not built here: their coefficients come from
``amplification.char_poly`` as rho + T*sigma.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, SingularMatrix

__all__ = ["lu_factor", "lu_solve", "solve", "eigenvalues"]

#: Relative pivot threshold below which a solve is reported as singular.
PIVOT_RTOL = 1e-14

#: Largest dimension accepted by the spectral helpers.
MAX_DIM = 12


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix entries must be finite")
    return a


def _as_rhs(b, n) -> np.ndarray:
    b = np.asarray(b, dtype=complex)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"right-hand side of shape {b.shape} does not fit dimension {n}")
    return b


def lu_factor(a):
    """LU factorization with partial pivoting, for :func:`lu_solve`.

    Returns ``(lu, perm)``: the multipliers of L below the diagonal of ``lu``,
    U on and above it, and the row order ``perm`` of the pivoting, so that
    ``a[perm] = L @ U``.

    Raises
    ------
    SingularMatrix
        If any pivot magnitude falls below ``PIVOT_RTOL * max|a|``.
    """
    a = _as_square(a)
    n = a.shape[0]
    lu = a.copy()
    perm = np.arange(n)

    scale = np.abs(a).max() if n else 0.0
    threshold = PIVOT_RTOL * scale
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if np.abs(lu[p, k]) <= threshold:
            raise SingularMatrix(f"pivot {np.abs(lu[p, k]):.3e} at column {k}")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        factors = lu[k + 1:, k] / lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(factors, lu[k, k + 1:])
        lu[k + 1:, k] = factors
    return lu, perm


def lu_solve(factor, b) -> np.ndarray:
    """Solve ``a @ x = b`` from ``factor = lu_factor(a)``.

    ``b`` is (n,) or (n, k); ``x`` has the same shape.  The arithmetic is the
    elimination of :func:`lu_factor` replayed on ``b``, so
    ``lu_solve(lu_factor(a), b)`` is bit for bit the one-shot elimination.
    """
    lu, perm = factor
    n = lu.shape[0]
    b = _as_rhs(b, n)
    squeeze = b.ndim == 1
    rhs = b.reshape(n, -1)[perm]
    for k in range(n):
        rhs[k + 1:] -= np.outer(lu[k + 1:, k], rhs[k])

    x = np.empty_like(rhs)
    for k in range(n - 1, -1, -1):
        x[k] = (rhs[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
    return x[:, 0] if squeeze else x


def solve(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by LU factorization with partial pivoting.

    Arguments
    ---------
    a : (n, n) array_like, complex
    b : (n,) or (n, k) array_like, complex

    Returns
    -------
    x : ndarray with the same trailing shape as ``b``.

    Raises
    ------
    SingularMatrix
        If any pivot magnitude falls below ``PIVOT_RTOL * max|a|``.
    """
    a = _as_square(a)
    _as_rhs(b, a.shape[0])
    return lu_solve(lu_factor(a), b)


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a small dense complex matrix, with multiplicity.

    Backed by LAPACK's QR iteration (``numpy.linalg.eigvals``); the iteration
    cap is LAPACK's own (roughly 30 sweeps per eigenvalue), surfaced here as
    ``NoConvergence``.  Dimension is capped at ``MAX_DIM``.
    """
    a = _as_square(a)
    if a.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {a.shape[0]} exceeds cap {MAX_DIM}")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
