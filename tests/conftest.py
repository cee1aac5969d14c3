"""Shared helpers for the galpha test suite."""

import importlib.util

import numpy as np
import pytest

# One line per acceptance criterion, echoed at the end of the run so the
# verdicts are visible without digging through captured stdout.
ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def load_script(path, name):
    """Import the script at ``path`` (one of ``tools/`` or ``perfbench/``) as module ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_spectrum(got, expected, tol=1e-8):
    """Order-insensitive multiset comparison of eigenvalue arrays.

    Greedily matches each expected eigenvalue to the nearest remaining
    computed one, so degenerate spectra are handled without relying on any
    particular ordering from the eigensolver.
    """
    got = list(np.atleast_1d(np.asarray(got, dtype=complex)))
    expected = list(np.atleast_1d(np.asarray(expected, dtype=complex)))
    assert len(got) == len(expected), (
        f"got {len(got)} eigenvalues, expected {len(expected)}"
    )
    for want in expected:
        k = min(range(len(got)), key=lambda i: abs(got[i] - want))
        assert abs(got[k] - want) <= tol, (
            f"no eigenvalue within {tol:g} of {want}; closest was {got[k]} "
            f"(distance {abs(got[k] - want):.3e})"
        )
        del got[k]


def cubic_roots(c0, c1, c2, c3):
    """Roots of c3 mu^3 + c2 mu^2 + c1 mu + c0 from the scan's real kernel,
    joined into one complex array with the roots along the last axis."""
    from galpha.stability import _cubic_roots

    re, im = _cubic_roots(c0, c1, c2, c3)
    return np.moveaxis(re + 1j * im, 0, -1)


def one_step_matrices(p, alpha_m, alpha_f, gammas, t):
    """Complex (L, R) at T = t for explicit gamma weights, filled from the one tableau."""
    from galpha.amplification import fill_tableau, one_step_tableau

    t = complex(t)
    return tuple(
        fill_tableau(entries, t, np.zeros((p, p), dtype=complex))
        for entries in one_step_tableau(p, alpha_m, alpha_f, gammas)
    )


@pytest.fixture
def eig_match():
    return assert_spectrum


def closed_form_g3(alpha_m, alpha_f, gamma_1, gamma_2, t):
    """Entrywise third-order amplification matrix, written out by hand.

    No linear solve is involved, so this is an oracle that is independent of
    both the matrix builder and the stepping code.
    """
    am, af, g1, g2 = alpha_m, alpha_f, gamma_1, gamma_2
    d = am + g1 * af * t
    return np.array(
        [
            [
                (2 * am - (g2 - 2 * g1 * af) * t) / (2 * d),
                (2 * am + 2 * g1 * af * t - g2 * (1 + t)) / (2 * d),
                (am + g1 * af * t - g2 * (1 + af * t)) / (2 * d),
            ],
            [
                -g1 * t / d,
                (am - g1 + g1 * (af - 1) * t) / d,
                (am - g1) / d,
            ],
            [
                -t / d,
                -(1 + t) / d,
                (am - 1 + (g1 - 1) * af * t) / d,
            ],
        ],
        dtype=complex,
    )


def region_draws(rng, n, margin=0.01):
    """Random (alpha_m, alpha_f) pairs inside the unconditional-stability region."""
    alpha_m = rng.uniform(7.0 / 12.0 + margin, 1.4, size=n)
    alpha_f = rng.uniform(0.5, alpha_m - 1.0 / 12.0, size=n)
    return np.column_stack([alpha_m, alpha_f])
