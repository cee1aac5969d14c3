"""Tests for the small dense linear-algebra kernel."""

import numpy as np
import pytest

from galpha import numkit
from galpha.errors import SingularMatrix

from conftest import assert_spectrum


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_solve_matches_numpy_on_random_systems():
    rng = np.random.default_rng(20240601)
    for _ in range(25):
        n = rng.integers(1, 9)
        a = _random_complex(rng, n, n)
        b = _random_complex(rng, n)
        x = numkit.solve(a, b)
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-11, atol=1e-12)


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
    """A pivot at PIVOT_RTOL * max|a| is singular; the next double up is not."""
    at = scale * numkit.PIVOT_RTOL
    above = np.nextafter(at, np.inf)
    with pytest.raises(SingularMatrix):
        numkit.solve([[scale, 0.0], [0.0, at]], np.ones(2))
    numkit.solve([[scale, 0.0], [0.0, above]], np.ones(2))


def test_solve_rejects_bad_shapes():
    with pytest.raises(ValueError):
        numkit.solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        numkit.solve(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        numkit.solve(np.eye(2), np.ones(4))  # reshapes to (2, 2) but does not fit


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
