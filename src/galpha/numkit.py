"""Small dense complex linear-algebra kernel.

Everything here targets the one-step matrices of dimension p <= 12.
``solve`` is a hand-rolled LU factorization with partial pivoting, so that
near-singularity is reported through an explicit pivot threshold (its caller,
``amplification_matrix``, turns that into ``SingularAtT``); ``eigenvalues``
defers to LAPACK, which is the right tool for dense nonsymmetric spectra.
Characteristic polynomials are not built here: ``amplification.char_poly``
reads rho + T*sigma from the one-step tableau, exactly for Fraction input.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, SingularMatrix

__all__ = ["solve", "eigenvalues"]

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
    n = a.shape[0]
    b = np.asarray(b, dtype=complex)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"right-hand side of shape {b.shape} does not fit dimension {n}")
    squeeze = b.ndim == 1
    rhs = b.reshape(n, -1).copy()
    lu = a.copy()

    threshold = PIVOT_RTOL * (np.abs(a).max() if n else 0.0)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if np.abs(lu[p, k]) <= threshold:
            raise SingularMatrix(f"pivot {np.abs(lu[p, k]):.3e} at column {k}")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            rhs[[k, p]] = rhs[[p, k]]
        factors = lu[k + 1:, k] / lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(factors, lu[k, k + 1:])
        rhs[k + 1:] -= np.outer(factors, rhs[k])

    x = np.empty_like(rhs)
    for k in range(n - 1, -1, -1):
        x[k] = (rhs[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
    return x[:, 0] if squeeze else x


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
