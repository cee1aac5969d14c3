"""Small dense complex linear algebra and the one singularity rule.

Every operator the package inverts is refused with ``SingularMatrix``
unless its condition estimate kappa satisfies kappa * ``PIVOT_RTOL`` < 1
(:func:`check_condition`): the one-step matrix L(T) that
``amplification_matrix`` solves with, the shifted operator of a dense march
and the diagonalised shift of the heat rod.  For a dense matrix M the
estimate is max|M| max|M^-1|, read from LAPACK's inverse (:func:`inverse`);
``solve`` checks its matrix by that rule and returns LAPACK's solve.
``eigenvalues`` defers to LAPACK as well, for one matrix or a stack.  The
scalar pole rule of the scan and of the scalar march is
``amplification.pole_factor``, kept apart from this one.  Characteristic
polynomials are not built here: ``amplification.char_poly`` reads
rho + T*sigma from the one-step tableau, exactly for Fraction input.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, SingularMatrix

__all__ = ["check_condition", "inverse", "solve", "eigenvalues"]

#: An operator whose condition estimate reaches 1 / PIVOT_RTOL is singular.
PIVOT_RTOL = 1e-14

#: Largest dimension accepted by the spectral helpers.
MAX_DIM = 12


def _as_square(a, stacked: bool = False) -> np.ndarray:
    """``a`` as a complex array: one finite (n, n) matrix, n >= 1, or with
    ``stacked`` a stack (..., n, n) of them."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or (a.ndim > 2 and not stacked) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] == 0:
        raise ValueError(f"expected a non-empty matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def check_condition(estimate) -> None:
    """The singularity rule: raise ``SingularMatrix`` unless
    ``estimate * PIVOT_RTOL < 1``, so a nan estimate is refused too."""
    if not estimate * PIVOT_RTOL < 1.0:
        raise SingularMatrix(f"condition estimate {estimate:.3e} reaches 1 / PIVOT_RTOL")


def inverse(m: np.ndarray) -> np.ndarray:
    """LAPACK's inverse of a square ndarray, in its dtype, passed through
    :func:`check_condition` with the estimate max|m| max|m^-1|."""
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    check_condition(np.abs(m).max() * np.abs(inv).max())
    return inv


def solve(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by LAPACK for a finite (n, n) ``a``, n >= 1, and an
    (n,) or (n, k) ``b``; x is complex, shaped like ``b``.  Raises
    ``SingularMatrix`` where :func:`inverse` refuses ``a``."""
    a = _as_square(a)
    n = a.shape[0]
    b = np.asarray(b, dtype=complex)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"right-hand side of shape {b.shape} does not fit dimension {n}")
    inverse(a)
    return np.linalg.solve(a, b)


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a small dense complex matrix, with multiplicity.

    Backed by LAPACK's QR iteration (``numpy.linalg.eigvals``); the iteration
    cap is LAPACK's own (roughly 30 sweeps per eigenvalue), surfaced here as
    ``NoConvergence``.  Dimension is capped at ``MAX_DIM``.  A stack
    (..., n, n) of matrices gives a (..., n) stack of spectra in one call;
    LAPACK still runs once per matrix, so each spectrum is bit for bit that
    of its matrix alone.
    """
    a = _as_square(a, stacked=True)
    if a.shape[-1] > MAX_DIM:
        raise ValueError(f"dimension {a.shape[-1]} exceeds cap {MAX_DIM}")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
