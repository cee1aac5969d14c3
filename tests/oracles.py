"""The tests' oracles: references that check galpha by another route.

No CLI path reaches these, so they live with the tests that use them
(``from oracles import ...``, as the tests import ``conftest``):

* :func:`characteristic_recurrence_residual` checks a trajectory against the
  scalar p+1-term recurrence of rho + T sigma (acceptance criterion 9);
* :func:`verify_rho_control` reads the stiff-limit radius of a rho_inf branch
  off the closed-form limit matrix (criterion 6), the value ``rho_curve``
  computes for its whole branch at once;
* :func:`error_functional` is the oracle of ``orderlab.recover_C``: the
  scaled defect [principal eig - exp(-T)] / T^(p+1) from ``mp.eig`` of G at
  the probe T = 1e-10 crosses zero at the same C by another solver
  (eigenvalues of the matrices, not coefficients of the polynomial).  The
  probe carries a bias linear in T (from the next error order) of ~1e-11,
  and the eigenvalues run in extended precision (mpmath) because the signal
  sits T^(p+1) below the matrix entries.
"""

import numpy as np
from mpmath import mp

from galpha import numkit
from galpha.amplification import char_poly, fill_tableau, limit_matrix_inf, one_step_tableau, pole_factor
from galpha.errors import GalphaError, SingularAtT
from galpha.schemes import RhoBranch, SchemeParams, make_scheme, params_from_rho


class TooShort(GalphaError):
    """A sequence has too few entries for the requested check."""


def characteristic_recurrence_residual(params: SchemeParams, t, sequence) -> float:
    """Largest defect of the solution sequence in the scalar p+1-term recurrence.

    Any trajectory produced by the one-step map satisfies

        sum_{k=0}^{p} c_k u_{n-p+k} = 0,

    where c_k are the coefficients of rho + T sigma (``char_poly``)
    divided by the mu^p one, (-1)^p (alpha_m + gamma_1 alpha_f T)/(p-2)!
    as char_poly sets it: the monic characteristic polynomial
    det(mu I - G(T)).  Returns
    max_n |residual| over all windows.  For u_n = exp(-T n) it is
    |sum_q C_q T^q| / |lead| (``order_condition``), which tends to
    (p-2)! |C_(p+1)| T^(p+1) / alpha_m for a scheme of order p.

    Raises
    ------
    ValueError
        If the sequence is not 1-D.
    TooShort
        If fewer than p + 1 values are supplied.
    SingularAtT
        On the pole of the one-step system (``pole_factor``).
    """
    u = np.asarray(sequence, dtype=complex)
    p = params.p
    if u.ndim != 1:
        raise ValueError(f"sequence must be 1-D, got shape {u.shape}")
    if u.size < p + 1:
        raise TooShort(f"need at least {p + 1} sequence values, got {u.size}")
    t = complex(t)
    if not pole_factor(params.alpha_m, params.gamma1 * params.alpha_f * t)[1]:
        raise SingularAtT(f"one-step system has a pole at T={t!r}")
    rho, sigma = char_poly(p, params.alpha_m, params.alpha_f, params.gammas)
    poly = rho + t * sigma
    return float(np.abs(np.convolve(u, (poly / poly[p])[::-1], "valid")).max())


def verify_rho_control(rho_inf: float, branch: RhoBranch = RhoBranch.MAIN) -> float:
    """max |eig(Ainf)| - rho_inf at the branch parameters (equal-gamma closure).

    Ainf is block lower triangular: its trailing eigenvalue 1 - 1/gamma_1 is
    set to -rho_inf on MAIN and ALT2 and to +rho_inf on ALT1 and ALT3, and its
    leading 2x2 block depends on alpha_f alone, with trace 2 - 3/(2 af) and
    determinant 1 - 1/(2 af).  That block's spectral radius is at least 1/3
    for every alpha_f != 0 (equality only at af = 9/16, a double root -1/3),
    so no branch gets the radius below 1/3.

    * MAIN and ALT1 share alpha_f; the block roots are -rho_inf and
      (rho-1)/(1+3*rho).  MAIN thus has a double eigenvalue -rho_inf, ALT1
      the pair +-rho_inf.  The defect is zero exactly for rho_inf >= 1/3 and
      equals (1-rho)/(1+3*rho) - rho below that.
    * ALT2 and ALT3 fix only mu1^2 + mu2^2 = 2 rho^2 for the block roots, not
      their modulus.  ALT2's pair is complex, with radius from 0.86 at
      rho_inf = 0 towards 1.  ALT3's pair is complex for alpha_f > 9/16
      (rho_inf < 1/3) and real otherwise, e.g. -0.177 and -0.537 at
      rho_inf = 0.4; its radius touches the floor 1/3 at rho_inf = 1/3 and
      exceeds 1 for rho_inf above about 0.71.

    This is the measured behaviour of the closed-form limit matrix itself;
    see the stability notes in README.
    """
    limit = limit_matrix_inf(make_scheme(3, *params_from_rho(rho_inf, branch)))
    return float(np.abs(numkit.eigenvalues(limit)).max()) - rho_inf


def error_functional(p: int, c: float) -> float:
    """Scaled principal-eigenvalue defect E(C); zero at the tabulated constant.

    E(C) = Re(mu_1 - exp(-T)) / T^(p+1) for the eigenvalue mu_1 of G(T)
    nearest exp(-T), at T = 1e-10 and (alpha_m, alpha_f) = (1, 3/4).
    """
    # The signal sits ~T^(p+1) below the O(1) matrix entries: 10 (p + 1)
    # digits at T = 1e-10, plus ~40 guard digits for the arithmetic.
    with mp.workdps(40 + 10 * (p + 1)):
        one, t = mp.mpf(1), mp.mpf(1e-10)
        am, af = one, mp.mpf(0.75)
        L, R = (
            fill_tableau(entries, t, mp.zeros(p, p))
            for entries in one_step_tableau(p, am, af, [mp.mpf(c) + am - af] * (p - 1))
        )
        eigs = mp.eig(L**-1 * R, left=False, right=False)
        target = mp.exp(-t)
        principal = min(eigs, key=lambda z: (abs(z - target), -mp.re(z)))
        return float(mp.re(principal - target) / t ** (p + 1))
