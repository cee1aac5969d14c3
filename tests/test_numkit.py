"""Tests for the small dense linear-algebra kernel."""

import numpy as np
import pytest

from galpha import numkit
from galpha.errors import NoConvergence, SingularMatrix, StepSingular
from galpha.integrator import dense_problem

from conftest import assert_spectrum


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_solve_is_backward_stable_on_random_systems():
    """Normwise backward error |a x - b| / (|a| |x| + |b|) in the infinity
    norm, at most 4 n eps (the worst of 200 draws is 0.77 n eps)."""
    rng = np.random.default_rng(20240601)
    for _ in range(25):
        n = rng.integers(1, 9)
        a = _random_complex(rng, n, n)
        b = _random_complex(rng, n)
        x = numkit.solve(a, b)
        residual = np.abs(a @ x - b).max()
        scale = np.abs(a).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
        assert residual <= 4 * n * np.finfo(float).eps * scale


def test_solve_accepts_matrix_rhs():
    rng = np.random.default_rng(7)
    a = _random_complex(rng, 5, 5)
    b = _random_complex(rng, 5, 3)
    x = numkit.solve(a, b)
    assert x.shape == (5, 3)
    assert np.allclose(a @ x, b, atol=1e-11)


def test_solve_real_input_promotes_to_complex():
    x = numkit.solve([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
    assert x.dtype == complex
    assert np.allclose(x, [1.0, 2.0])


@pytest.mark.parametrize(
    "matrix",
    [
        [[1.0, 2.0], [2.0, 4.0]],
        [[0.0, 0.0], [0.0, 0.0]],
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [5.0, 7.0, 9.0]],
    ],
)
def test_solve_rejects_singular(matrix):
    with pytest.raises(SingularMatrix):
        numkit.solve(matrix, np.ones(len(matrix)))


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_pivot_threshold_is_relative_and_inclusive(scale):
    """diag(scale, scale * PIVOT_RTOL) has the condition estimate 1 / PIVOT_RTOL
    exactly and is singular, to a solve and to a dense march alike; the next
    double up of its small entry is not."""
    at = scale * numkit.PIVOT_RTOL
    above = np.nextafter(at, np.inf)
    for small, singular in [(at, True), (above, False)]:
        a = np.diag([scale, small])
        if singular:
            with pytest.raises(SingularMatrix):
                numkit.solve(a, np.ones(2))
            with pytest.raises(StepSingular):
                dense_problem(a).shifted_solve(0.0, 1.0, np.ones(2))
        else:
            numkit.solve(a, np.ones(2))
            dense_problem(a).shifted_solve(0.0, 1.0, np.ones(2))


def test_solve_rejects_bad_shapes():
    with pytest.raises(ValueError):
        numkit.solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        numkit.solve(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        numkit.solve(np.eye(2), np.ones(4))  # reshapes to (2, 2) but does not fit


def test_empty_matrix_is_refused():
    with pytest.raises(ValueError, match="non-empty"):
        numkit.solve(np.zeros((0, 0)), np.zeros(0))
    with pytest.raises(ValueError, match="non-empty"):
        numkit.eigenvalues(np.zeros((0, 0)))


def test_solve_rejects_nonfinite():
    with pytest.raises(ValueError):
        numkit.solve([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0])


def test_eigenvalues_of_triangular_matrix():
    a = np.array(
        [
            [3.0, 1.0, 5.0],
            [0.0, -2.0 + 1j, 0.5],
            [0.0, 0.0, 7.5],
        ]
    )
    assert_spectrum(numkit.eigenvalues(a), [3.0, -2.0 + 1j, 7.5], tol=1e-12)


def test_eigenvalues_dimension_cap():
    big = np.eye(numkit.MAX_DIM + 1)
    with pytest.raises(ValueError):
        numkit.eigenvalues(big)
    # at the cap itself everything still works
    assert_spectrum(numkit.eigenvalues(np.eye(numkit.MAX_DIM)), np.ones(numkit.MAX_DIM))


def test_eigenvalues_reports_no_convergence(monkeypatch):
    def failing_eigvals(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
    with pytest.raises(NoConvergence, match="did not converge"):
        numkit.eigenvalues(np.eye(3))
