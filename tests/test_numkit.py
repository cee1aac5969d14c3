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


def test_eigenvalues_of_triangular_matrix():
    a = np.array(
        [
            [3.0, 1.0, 5.0],
            [0.0, -2.0 + 1j, 0.5],
            [0.0, 0.0, 7.5],
        ]
    )
    assert_spectrum(numkit.eigenvalues(a), [3.0, -2.0 + 1j, 7.5], tol=1e-12)


def test_eigenvalues_at_the_dimension_cap():
    assert_spectrum(numkit.eigenvalues(np.eye(numkit.MAX_DIM)), np.ones(numkit.MAX_DIM))


@pytest.mark.parametrize("n", range(1, numkit.MAX_DIM + 1))
def test_eigenvalues_of_a_stack_are_those_of_each_matrix_alone(n):
    """LAPACK runs once per matrix of a stack, so each spectrum keeps its bits."""
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
    stack[0] = stack[0].real  # a real matrix, as Ainf is
    stack[1] = np.eye(n)
    spectra = numkit.eigenvalues(stack)
    assert spectra.shape == (6, n)
    for matrix, spectrum in zip(stack, spectra):
        assert spectrum.tobytes() == numkit.eigenvalues(matrix).tobytes()
    deep = numkit.eigenvalues(stack.reshape(2, 3, n, n))
    assert deep.tobytes() == spectra.tobytes()


def test_eigenvalues_of_a_stack_keep_every_check(monkeypatch):
    assert numkit.eigenvalues(np.zeros((0, 3, 3))).shape == (0, 3)
    stack = np.stack([np.eye(3)] * 4)
    stack[2, 0, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        numkit.eigenvalues(stack)
    stack[2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        numkit.eigenvalues(stack)
    with pytest.raises(ValueError, match="exceeds cap"):
        numkit.eigenvalues(np.stack([np.eye(numkit.MAX_DIM + 1)] * 2))
    with pytest.raises(ValueError, match="square"):
        numkit.eigenvalues(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="non-empty"):
        numkit.eigenvalues(np.zeros((2, 0, 0)))
    # the other helpers still take one matrix only
    with pytest.raises(ValueError, match="square"):
        numkit.solve(np.stack([np.eye(2)] * 2), np.ones(2))

    def failing_eigvals(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
    with pytest.raises(NoConvergence, match="did not converge"):
        numkit.eigenvalues(np.stack([np.eye(3)] * 2))


def test_a_complex_matrix_whose_rows_are_not_contiguous_is_accepted():
    """The finite check reads the complex entries, not a float view, so a
    transposed complex matrix is taken like its copy."""
    a = np.array([[1.0, 2j], [3.0, 4.0]]).T
    assert numkit.eigenvalues(a).tobytes() == numkit.eigenvalues(a.copy()).tobytes()
    assert numkit.solve(a, [1.0, 2.0]).tobytes() == numkit.solve(a.copy(), [1.0, 2.0]).tobytes()
    stack = np.stack([a.T, 2.0 * a.T]).transpose(0, 2, 1)
    assert numkit.eigenvalues(stack).tobytes() == numkit.eigenvalues(stack.copy()).tobytes()


def test_eigenvalues_reports_no_convergence(monkeypatch):
    def failing_eigvals(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
    with pytest.raises(NoConvergence, match="did not converge"):
        numkit.eigenvalues(np.eye(3))
