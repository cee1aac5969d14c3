"""Shared helpers for the galpha test suite."""

import importlib.util
import io
import json
import re
import warnings
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

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


def last(rows):
    """The last item of an iterable, such as the final ``(t, u)`` row of a march,
    keeping no other item."""
    return deque(rows, maxlen=1).pop()


def _paths_under(root):
    return sorted(root.rglob("*")) if root.is_dir() else []


def matches(pattern, lines):
    """Whether ``lines`` joined by newlines are ``pattern``, each ``...`` of which
    stands for any text within one line."""
    regex = ".*".join(map(re.escape, pattern.split("...")))
    return re.fullmatch(regex, "\n".join(lines)) is not None


def check_refusal(call, error, message):
    """Call ``call()`` and assert the library's refusal contract.

    ``error`` is a ``ValueError``, ``TypeError`` or ``GalphaError``, the
    families the CLI maps to exit 2 and 3; the call raises exactly ``error``,
    not a subclass of it, with a message that :func:`matches` ``message``,
    and records no Python warning (numpy's included) on the way.
    """
    from galpha.errors import GalphaError

    assert issubclass(error, (ValueError, TypeError, GalphaError)), error
    raised = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
        except Exception as exc:  # any type: the assertions below judge it
            raised = exc
    assert [str(w.message) for w in caught] == []
    assert raised is not None, f"returned instead of raising {error.__name__}"
    assert type(raised) is error, repr(raised)
    assert matches(message, [str(raised)]), str(raised)


def check_exit_contract(argv, out):
    """Run ``galpha ARGV --out=OUT`` in process and assert the CLI's exit contract.

    The exit code is 0, 2 or 3, and no Python warning (numpy's included) is
    recorded.  Argparse's own refusals are the exception: ``SystemExit(2)``
    with its usage text and no JSON line.  On any other non-zero exit, stdout
    is empty, nothing is written under OUT, and stderr holds, besides
    ``warning: `` lines, exactly one JSON line with the keys ``status``,
    ``kind``, ``exit_code`` and ``message``, whose ``exit_code`` is the exit
    code and whose ``kind`` is ``config`` for 2 and ``numeric`` for 3.  No
    CSV written under OUT holds nan.

    Returns the exit code, stderr's lines with the refusal's line replaced by
    its message (argparse's ``error:`` line in place of its usage text), and
    the JSON payload, or None when there is none.
    """
    from galpha import cli

    out = Path(out)
    before, usage = _paths_under(out), False
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = cli.main([*argv, f"--out={out}"])
        except SystemExit as exc:  # argparse's own refusal
            code, usage = exc.code, True
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2, 3)
    if code:
        assert stdout.getvalue() == "" and _paths_under(out) == before
    else:
        assert not any("nan" in path.read_text() for path in out.glob("*.csv"))
    lines = stderr.getvalue().splitlines()
    if usage:
        assert code == 2 and lines[0].startswith("usage: ") and ": error: " in lines[-1], lines
        assert not any(line.startswith("{") for line in lines)
        return code, lines[-1:], None
    refusals = [line for line in lines if not line.startswith("warning: ")]
    assert len(refusals) == (code != 0), lines
    if not refusals:
        return code, lines, None
    payload = json.loads(refusals[0])
    kind = {2: "config", 3: "numeric"}[code]
    assert payload == {"status": "error", "kind": kind, "exit_code": code, "message": payload.get("message")}
    return code, [payload["message"] if line == refusals[0] else line for line in lines], payload


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
