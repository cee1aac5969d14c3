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


def test_solve_is_lu_solve_of_lu_factor_bitwise():
    rng = np.random.default_rng(20240602)
    for n in (1, 2, 5, 12, 40):
        a = _random_complex(rng, n, n)
        factor = numkit.lu_factor(a)
        for b in (_random_complex(rng, n), _random_complex(rng, n, 3)):
            assert numkit.solve(a, b).tobytes() == numkit.lu_solve(factor, b).tobytes()


def test_lu_factor_reused_across_right_hand_sides():
    rng = np.random.default_rng(5)
    a = _random_complex(rng, 6, 6)
    factor = numkit.lu_factor(a)
    lu, perm = factor
    before = lu.copy()
    for _ in range(3):
        b = _random_complex(rng, 6)
        assert np.allclose(a @ numkit.lu_solve(factor, b), b, atol=1e-11)
    assert np.array_equal(lu, before)  # solving leaves the factor as it was
    assert sorted(perm) == list(range(6))


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_pivot_threshold_is_relative_and_inclusive(scale):
    """A pivot at PIVOT_RTOL * max|a| is singular; the next double up is not."""
    at = scale * numkit.PIVOT_RTOL
    above = np.nextafter(at, np.inf)
    for factor in (numkit.lu_factor, lambda a: numkit.solve(a, np.ones(2))):
        with pytest.raises(SingularMatrix):
            factor([[scale, 0.0], [0.0, at]])
        factor([[scale, 0.0], [0.0, above]])


def test_solve_rejects_bad_shapes():
    with pytest.raises(ValueError):
        numkit.solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        numkit.solve(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        numkit.solve(np.eye(2), np.ones(4))  # reshapes to (2, 2) but does not fit
    with pytest.raises(ValueError):
        numkit.lu_solve(numkit.lu_factor(np.eye(2)), np.ones(3))


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
