"""Spectral-radius scanning of the (alpha_m, alpha_f) plane, at every order p.

The stability question for u' + lambda*u = 0 is decided by the spectral
radius of G(T) over the relevant range of T = lambda*tau.  The closed-form
analysis of the third-order family is a real-axis statement: the region

    alpha_m >= 7/12,   1/2 <= alpha_f <= alpha_m - 1/12

guarantees radius <= 1 for every real T >= 0 including both limits.  The
default sample set used for the scan therefore walks the real axis (log-spaced
over twelve decades).

Off-axis behaviour is genuinely different and can be probed with the rays
``default_t_samples() * exp(1j * angle)``: measured radii exceed 1 along rays
close to the imaginary axis even at parameter points well inside the region
above (e.g. radius ~= 1.04 at (alpha_m, alpha_f) = (1, 0.6) for
arg T = 0.98*pi/2, |T| = 1).  Such samples are deliberately not part of the
stability decision, which mirrors the real-axis theory; pass them explicitly
when you want a sector diagnosis.

A cell is declared stable when its worst sampled radius is at most 1 + 1e-9
and no sample produced a (numerically) repeated root on the unit circle;
repeated unit roots grow polynomially in exact arithmetic, so they are deemed
unstable even at radius exactly 1.  The repeated-root window (1e-7 both for
the pair gap and for the distance of each modulus from 1) is applied to every
eigenvalue pair, real or complex.

The one-step system has one pole: (p-2)! det L(T) = alpha_m + gamma_1
alpha_f T.  A sample where that sum is lost to cancellation, at most 1e-12
(|alpha_m| + |gamma_1 alpha_f T|) (:func:`~galpha.amplification.pole_factor`,
the rule by which a scalar march raises ``StepSingular``), marks its cell
unstable with radius inf; so does a limit on its pole.  With alpha_f = 0 no
sample is on the pole (unless alpha_m = 0), but the T -> inf limit is: such
a cell reads radius inf, as its largest root grows like T without bound.

Every T-coefficient of the one-step tableau sits in its last row, so
det(R(T) - mu L(T)) = rho(mu) + T sigma(mu): on the scalar test equation
each scheme is a linear multistep method.  At p = 3 a real sample's spectrum
is therefore the three roots of a real cubic, whose four coefficients, the
leading -(alpha_m + gamma_1 alpha_f T) included, are those of rho + T sigma
(:func:`~galpha.amplification.char_poly`).  Its roots are found in real
arithmetic, and on every sample of both default maps each root lies within
7.0e-12 max(1, radius) of ``eigvals(G)``.  Complex T at p = 3 (off-axis
diagnostics) and every other order take ``eigvals(G(T))`` instead, with
G(T) formed by the elimination a step makes
(:func:`~galpha.amplification.one_step_elimination`), not by a LAPACK
solve: at p = 10 and 11 companion roots of rho + T sigma drift from eig(G)
by more than 1e-12 relative.  The p = 3 limit G(inf) alone takes
``eigvals(solve(L, R))``.  A defective double root of G(inf) is split by
either route: a cubic in mu splits the -1 of the equal-gamma G(inf) at
(alpha_m, alpha_f) = (7/12, 1/2) by about 1e-8, and ``eigvals`` splits the
-rho_inf of MAIN by up to 6.8e-8 relative.

Huge parameters or T overflow the scan's arithmetic.  numpy's floating-point
warnings are off for the whole scan, the closure of its cells included: the
pole rule, the refusal of a T set that overflows the cubic's coefficients,
the 2**1023 bound of the cubic kernel and the fold's mask decide every value
that is not finite, so no warning and no nan leaves the scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .amplification import (
    char_poly,
    fill_tableau,
    limit_matrix_inf,
    one_step_elimination,
    one_step_tableau,
    pole_factor,
)
# Not called here: perfbench/tracing.py patches these names in this module.
from .amplification import amplification_matrix, limit_matrix_zero  # noqa: F401
from .errors import DegenerateParams, PoleAtRho, SingularAtT
from .schemes import (
    RhoBranch,
    SchemeParams,
    Variant,
    closure_gammas,
    in_stability_region,
    make_scheme,
    params_from_rho,
)

__all__ = [
    "RADIUS_TOL",
    "REPEAT_WINDOW",
    "default_t_samples",
    "RadiusReport",
    "worst_case_radius",
    "StabilityMap",
    "scan_region",
    "RhoPoint",
    "rho_curve",
    "write_stability_csv",
]

#: Stable means worst radius <= 1 + RADIUS_TOL (and no repeated unit root).
RADIUS_TOL = 1e-9

#: Window for flagging repeated roots on the unit circle.
REPEAT_WINDOW = 1e-7

# Largest number of (T sample, cell) pairs evaluated together, and of cells
# in a band of scan_region; a band of one grid row longer than this still
# takes one sample at a time.  A default map's band of 8 000 cells peaks at
# half the memory of one of 16 200 for about 3% more wall time; 4 000-cell
# bands cost about 12%.
_BLOCK_PAIRS = 1 << 13


def default_t_samples(n: int = 48, lo: float = 1e-4, hi: float = 1e8) -> np.ndarray:
    """Real, positive, log-spaced T samples used for stability decisions."""
    return np.logspace(np.log10(lo), np.log10(hi), n)


# The default set, built once for every scan that passes no T samples.
_DEFAULT_T = default_t_samples()
_DEFAULT_T.flags.writeable = False


def _stable(radius, repeated):
    """The stable rule, elementwise: radius <= 1 + RADIUS_TOL and not repeated."""
    return np.logical_and(radius <= 1.0 + RADIUS_TOL, np.logical_not(repeated))


@dataclass(frozen=True)
class RadiusReport:
    """Worst sampled spectral radius plus the repeated-unit-root flag."""

    radius: float
    repeated_unit_root: bool

    @property
    def stable(self) -> bool:
        return bool(_stable(self.radius, self.repeated_unit_root))


def _fold(r, flag, radius, repeated, valid):
    """Fold one block's largest moduli ``r`` and flags into the per-cell results, in place.

    ``r`` and ``flag`` come from :func:`_roots_radius` or :func:`_cubic_radius`;
    they and ``valid`` hold any sample axes, then the cells.  The radius
    takes the maximum over the samples, inf where a sample is not valid; the
    repeated flag takes any valid sample's flag.
    """
    lead = tuple(range(r.ndim - 1))  # sample axes of a blocked spectrum
    np.maximum(radius, np.where(valid, r, np.inf).max(axis=lead), out=radius)
    repeated |= (flag & valid).any(axis=lead)


def _two_near_one(near_one):
    """Where at least two of the boolean rows ``near_one`` hold: ``near_one.sum(axis=0) >= 2``.

    The one statement of the rule by which :func:`_roots_radius` and
    :func:`_cubic_radius` choose the spectra that take the pairwise
    repeated-root test.  Running masks over the d rows (``seen``: some row
    so far holds, ``two``: two rows so far hold) cost a few boolean passes
    where the integer sum over the first axis costs a reduction.
    """
    seen, *rest = near_one
    two = np.zeros_like(seen)
    for row in rest:
        two = two | (seen & row)
        seen = seen | row
    return two


def _roots_radius(re, im):
    """The largest root modulus and the repeated-unit-root flag of each spectrum.

    ``re`` and ``im`` hold the real and imaginary parts of the d roots along
    their first axis.  A spectrum is flagged when two of its roots, real or
    complex, lie within ``REPEAT_WINDOW`` of each other and their moduli
    within ``REPEAT_WINDOW`` of 1.  The O(d^2) pairwise test runs only on
    the spectra with at least two moduli within ``REPEAT_WINDOW`` of 1 (no
    other spectrum can be flagged), as in :func:`_cubic_radius`.
    """
    mods = np.hypot(re, im)
    near_one = np.abs(mods - 1.0) <= REPEAT_WINDOW
    flag = np.zeros(mods.shape[1:], dtype=bool)
    # a block with fewer than two moduli near 1 has no spectrum to test
    near = _two_near_one(near_one) if np.count_nonzero(near_one) >= 2 else flag
    if near.any():
        re, im, near_one = re[:, near], im[:, near], near_one[:, near]
        pairs = np.zeros(near_one.shape[1:], dtype=bool)
        # a root far beyond 1 may square to inf here; its pairs are not near one
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, len(re)):
                for j in range(i):
                    dre, dim = re[i] - re[j], im[i] - im[j]
                    pairs |= (dre * dre + dim * dim <= REPEAT_WINDOW**2) & near_one[i] & near_one[j]
        flag[near] = pairs
    return mods.max(axis=0), flag


def _cubic_prefix(c0, c1, c2, c3):
    """The arithmetic that :func:`_cubic_roots` and :func:`_cubic_radius` share.

    Returns ``bound, scale, x1, s, h, root, x2, x3`` of the scaled cubic: its
    largest-modulus real root x1, the deflated quadratic x^2 - s x + q with
    discriminant h = s^2 - 4q, root = sqrt(|h|) and the larger and smaller
    roots x2 and x3 = q / x2 of a real pair (0 where x2 = 0).  Cardano runs
    only on the cells with one real root and the trigonometric form only on
    the others; x1 is scattered from both.
    """
    # a cell whose bound is not below 2**1023 has no finite scale; its
    # arithmetic runs on inf and nan, which _cubic_radius replaces
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a, b, d = c2 / c3, c1 / c3, c0 / c3
        bound = np.maximum(np.maximum(np.abs(a), np.sqrt(np.abs(b))), np.cbrt(np.abs(d)))
        scale = np.ldexp(1.0, np.frexp(bound)[1])
        a = a / scale
        b = b / scale / scale
        d = d / scale / scale / scale

        a3 = a / 3.0
        pp = b - a * a3  # depressed cubic x^3 + pp x + qq, mu = x - a/3
        qq = d - a3 * b + 2.0 * a3 * a3 * a3
        disc = qq * qq / 4.0 + pp * pp * pp / 27.0
        one = disc > 0.0
        three = ~one
        x1 = np.empty_like(disc)
        # Cardano: x = u + v with u^3 = w, u v = -pp/3; for pp > 0 u and v
        # differ in sign, and x = -qq/(u^2 + v^2 + pp/3) sums positive terms
        p1, q1 = pp[one], qq[one]
        u = np.cbrt(-q1 / 2.0 - np.copysign(np.sqrt(disc[one]), q1))
        v = -p1 / (3.0 * u)
        x1[one] = np.where(p1 > 0.0, -q1 / (u * u + v * v + p1 / 3.0), u + v) - a3[one]
        # three real roots 2 r cos((theta + 2 pi k)/3) - a/3: the largest
        # (k = 0) or the smallest (k = 1) has the largest modulus
        p3, q3, shift = pp[three], qq[three], a3[three]
        r = np.sqrt(-p3 / 3.0)
        theta = np.arccos(np.clip(-q3 / (2.0 * r * r * r), -1.0, 1.0)) / 3.0
        hi = 2.0 * r * np.cos(theta) - shift
        lo = 2.0 * r * np.cos(theta + 2.0 * np.pi / 3.0) - shift
        x1[three] = np.where(r > 0.0, np.where(np.abs(hi) >= np.abs(lo), hi, lo), -shift)

        s = -a - x1
        q = b - x1 * s
        small = x1 * x1 <= np.abs(q)
        q = np.where(small, q, -d / x1)
        s = np.where(small, s, (b - q) / x1)
        h = s * s - 4.0 * q
        root = np.sqrt(np.abs(h))
        x2 = (s + np.copysign(root, s)) / 2.0
        x3 = np.where(x2 != 0.0, q / x2, 0.0)
    return bound, scale, x1, s, h, root, x2, x3


def _cubic_roots(c0, c1, c2, c3):
    """Roots of the real cubic c3 mu^3 + c2 mu^2 + c1 mu + c0 (c3 != 0).

    Returns their real and imaginary parts, each with the three roots along
    a new first axis.  The monic coefficients are scaled by a power of two
    (exactly) so that every root has modulus below 2, and mu = x - a/3
    turns the cubic into x^3 + pp x + qq.  With discriminant
    qq^2/4 + pp^3/27 > 0 real Cardano gives the one real root mu1, written
    without cancellation (Kahan); otherwise the trigonometric form gives the
    largest-modulus root mu1 of three real ones.  Deflating mu1 through
    Vieta leaves mu^2 - s mu + q, solved by the cancellation-free quadratic
    formula: s = -a - mu1 and q = b - mu1 s when mu1 may be the smaller
    root (mu1^2 <= |q|), q = -d/mu1 and s = (b - q)/mu1 otherwise.
    """
    _, scale, x1, s, h, root, x2, x3 = _cubic_prefix(c0, c1, c2, c3)
    real = h >= 0.0
    re3 = np.where(real, x3, s / 2.0)
    re2 = np.where(real, x2, s / 2.0)
    im2 = np.where(real, 0.0, root / 2.0)
    re = np.stack([x1, re2, re3])
    im = np.stack([np.zeros_like(im2), im2, -im2])
    re *= scale
    im *= scale
    return re, im


def _cubic_radius(c0, c1, c2, c3):
    """Largest root modulus of the real cubic and its repeated-unit-root flag.

    Bit for bit what :func:`_roots_radius` makes of :func:`_cubic_roots`,
    from the moduli alone: |x1|, then |x2| and |q/x2| for a real pair or the
    common modulus of a complex pair, each times ``scale``.  The roots
    themselves, and the pairwise test of :func:`_roots_radius`, are taken
    only on the cells where at least two moduli lie within ``REPEAT_WINDOW``
    of 1, by :func:`_cubic_roots` of those cells' coefficients.

    A cell whose monic coefficients are not finite, or whose bound
    max(|a|, |b|^(1/2), |d|^(1/3)) reaches 2**1023 so that no power-of-two
    scale is finite, reads radius inf without a numpy warning: its largest
    root has modulus at least bound / 3, beyond what the scaled arithmetic
    holds (such as the alpha_f = 0 cells of small alpha_m at T = 1e307,
    whose mu^3 coefficient is -alpha_m).
    """
    bound, scale, x1, s, h, root, x2, x3 = _cubic_prefix(c0, c1, c2, c3)
    real = h >= 0.0
    with np.errstate(invalid="ignore"):  # 0 * inf beyond the double range
        pair = np.hypot(s / 2.0, root / 2.0)
        m1 = np.abs(x1) * scale
        m2 = np.where(real, np.abs(x2), pair) * scale
        m3 = np.where(real, np.abs(x3), pair) * scale
    near = _two_near_one([np.abs(m - 1.0) <= REPEAT_WINDOW for m in (m1, m2, m3)])
    flag = np.zeros(near.shape, dtype=bool)
    if near.any():
        flag[near] = _roots_radius(*_cubic_roots(*(c[near] for c in (c0, c1, c2, c3))))[1]
    radius = np.maximum(np.maximum(m1, m2), m3)
    inside = bound < 2.0**1023
    if not inside.all():
        radius = np.where(inside, radius, np.inf)
    return radius, flag


def _one_step_spectra(refusal, p, tab_l, tab_r, valid):
    """:func:`_roots_radius` of ``eigvals(solve(L, R))`` for the T -> inf limit tableaux.

    The limit's tableaux hold T-free entries only, so L and R are filled
    once for the (1, cells) block ``valid``; pairs where ``valid`` is False
    get L = I and R = 0, so that weights that are not finite there reach
    LAPACK as zeros, and :func:`_fold` reads their radius as inf.  Where
    LAPACK refuses a matrix, singular or not finite in double precision,
    ``refusal()`` builds the galpha error raised from its ``LinAlgError``.

    Only G(inf) takes LAPACK's ``solve``: every T sample takes
    :func:`_sample_spectra`.  The traced plane scan reports this route's
    ``solve`` and ``eigvals`` calls, one each per band, until G(inf) too is
    read from the roots of sigma.
    """
    # filled as [i, j] -> [i, j, :, :], then viewed as (1, cells, p, p) stacks
    L, R = (fill_tableau(tab, 0.0, np.zeros((p, p) + valid.shape)).transpose(2, 3, 0, 1)
            for tab in (tab_l, tab_r))
    L[~valid] = np.eye(p)
    R[~valid] = 0.0
    try:
        eigs = np.linalg.eigvals(np.linalg.solve(L, R)).transpose(2, 0, 1)
    except np.linalg.LinAlgError as exc:
        raise refusal() from exc
    return _roots_radius(eigs.real, eigs.imag)


def _sample_spectra(refusal, elimination, t, valid):
    """:func:`_roots_radius` of ``eigvals(G(T))`` over a (samples, cells) block.

    ``elimination`` is what :func:`~galpha.amplification.one_step_elimination`
    gives for the cells, and G(T) = [W - c g^T; g^T] with
    g = (r0 + T f) / (d + s T), the elimination a step makes.  ``t`` has
    shape (samples, 1).  Pairs where ``valid`` is False get G = 0, which
    :func:`_fold` reads as radius inf.  G takes the dtype of ``t``, so real
    T goes to LAPACK's real eigensolver.  A valid pair whose G is not finite
    in double precision raises ``refusal(T)`` for the first such sample T:
    ``eigvals`` refuses a block that is not finite, and that sample is
    sought only after its ``LinAlgError``.
    """
    M, c, d, _, s, f = elimination
    # cells ahead of the matrix axes: W and r0 are rows 0..p-2 and p-1 of M
    W, c, r0, f = M[:-2].T.swapaxes(-1, -2), c.T[..., None], M[-2].T, f.T
    g = ((r0 + t[..., None] * f) / (d + s * t)[..., None])[..., None, :]
    G = np.concatenate([W - c * g, g], axis=-2)
    G[~valid] = 0.0
    try:
        eigs = np.linalg.eigvals(G).transpose(2, 0, 1)
    except np.linalg.LinAlgError as exc:
        finite = np.isfinite(G).all(axis=(-2, -1)).all(axis=-1)
        if finite.all():  # finite, so LAPACK did not converge
            raise
        raise refusal(t[finite.argmin(), 0]) from exc
    return _roots_radius(eigs.real, eigs.imag)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _scan_samples(p, am, af, gammas, t_samples):
    """Worst radius and repeated-unit-root flag of each cell over its T samples, at any order p.

    ``am``, ``af`` and each of the p - 1 ``gammas`` are flat arrays of equal
    length, or Python floats for one cell; ``gammas`` may also be the
    :class:`~galpha.schemes.Variant` whose closure gives them, so that the
    closure runs under this function's ``np.errstate``.  ``t_samples`` is
    :func:`default_t_samples` when None, else a non-empty 1-D set of finite
    numbers.

    The samples go in blocks of at most ``_BLOCK_PAIRS`` (sample, cell)
    pairs, but never fewer than one sample: a single cell takes all samples
    in one block, a band of :func:`scan_region` one sample at a time.  Real
    samples at p = 3 take :func:`_cubic_radius` on per-cell arrays of
    :func:`~galpha.amplification.char_poly`, all others
    :func:`_sample_spectra` on the elimination; both polynomials and
    elimination come in the number type of the cells: Python floats, as a
    step reads them, give the bits of per-cell arrays.  At p = 3 T = 0 is
    one more sample, ahead of the others, with the pole alpha_m = 0.

    A real p = 3 set whose largest |T| overflows a coefficient of the cubic
    of a cell off the pole is refused with ``ValueError``.  One-step
    matrices that are not finite in double precision (as at subnormal
    parameters) raise ``SingularAtT``.
    """
    ncell = np.size(am)
    gammas = closure_gammas(p, am, af, gammas) if isinstance(gammas, Variant) else gammas
    samples = _DEFAULT_T if t_samples is None else np.asarray(t_samples)
    if samples.ndim != 1 or samples.size == 0 or not np.isfinite(samples).all():
        raise ValueError(f"T samples must be a non-empty set of finite numbers, got {samples!r}")
    if p == 3:
        samples = np.concatenate(([0.0], samples))
    radius = np.zeros(ncell)
    repeated = np.zeros(ncell, dtype=bool)
    cubic = p == 3 and np.isrealobj(samples)
    if cubic:
        # char_poly in the cells' number type (one cell's Python floats cost a
        # third of (1,)-arrays), then the cubic on per-cell arrays
        rho, sigma = char_poly(p, am, af, gammas)
        rho, sigma = rho.reshape(p + 1, -1), sigma.reshape(p + 1, -1)
        am, af, *gammas = np.atleast_1d(am, af, *gammas)
        # |T sigma_k| grows with |T|, so the largest |T| is the one to check
        top = samples[np.abs(samples).argmax()]
        coeffs = (rho[:3] + top * sigma[:3])[:, pole_factor(am, gammas[0] * af * top)[1]]
        if not np.isfinite(coeffs).all():
            raise ValueError(f"T = {top:g} overflows the coefficients of the cubic rho + T sigma")
    else:
        elimination = one_step_elimination(p, am, af, gammas)
        refusal = lambda t: SingularAtT(
            f"the one-step matrices G(T) at T = {t:g} are singular or not finite in double "
            "precision (|alpha_m| or |gamma_1 alpha_f| is too close to 0)"
        )
    gamma_af = gammas[0] * af  # T multiplies it: gamma_1 alpha_f T

    per_block = max(1, _BLOCK_PAIRS // max(ncell, 1))
    for start in range(0, samples.size, per_block):
        t = samples[start:start + per_block, None]
        valid = pole_factor(am, gamma_af * t)[1]
        if cubic:
            c0, c1, c2, c3 = rho[:, None] + t * sigma[:, None]
            _fold(*_cubic_radius(c0, c1, c2, np.where(valid, c3, 1.0)), radius, repeated, valid)
        else:
            _fold(*_sample_spectra(refusal, elimination, t, valid), radius, repeated, valid)
    return radius, repeated


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _fold_limit_inf(am, af, gammas, radius, repeated):
    """Fold the T -> inf limit of each p = 3 cell into ``radius`` and ``repeated``, in place.

    The cells and ``gammas`` are as for :func:`_scan_samples`.  As T -> inf
    the last rows of L and R divided by T keep their T-coefficients alone;
    that pair goes through :func:`_one_step_spectra`, with the pole
    gamma_1 alpha_f = 0, for either closure.  Matrices that LAPACK refuses
    raise ``DegenerateParams``.
    """
    gammas = closure_gammas(3, am, af, gammas) if isinstance(gammas, Variant) else gammas
    # the last rows divided by T tend to their T-coefficients
    tab_l, tab_r = (
        {(i, j): (c1 if i == 2 else c0, 0.0) for (i, j), (c0, c1) in tab.items()}
        for tab in one_step_tableau(3, am, af, gammas)
    )
    valid = np.atleast_1d(pole_factor(0.0, gammas[0] * af)[1])[None]
    refusal = lambda: DegenerateParams(
        "the T -> inf limit G(inf) of the one-step matrices is singular or not finite "
        "in double precision (|gamma_1 alpha_f| is too close to 0)"
    )
    _fold(*_one_step_spectra(refusal, 3, tab_l, tab_r, valid), radius, repeated, valid)


def _scan_cells(p, am, af, gammas, t_samples):
    """:func:`_scan_samples` of the cells, with the T -> inf limit folded in at p = 3."""
    radius, repeated = _scan_samples(p, am, af, gammas, t_samples)
    if p == 3:
        _fold_limit_inf(am, af, gammas, radius, repeated)
    return radius, repeated


def worst_case_radius(params: SchemeParams, t_samples=None) -> RadiusReport:
    """Worst spectral radius of G over ``t_samples``, as one cell of :func:`_scan_cells`.

    :func:`_scan_samples` and :func:`_fold_limit_inf` state the samples, the
    p = 3 limits and the errors.
    """
    radius, repeated = _scan_cells(params.p, params.alpha_m, params.alpha_f, params.gammas, t_samples)
    return RadiusReport(float(radius[0]), bool(repeated[0]))


@dataclass
class StabilityMap:
    """Scan result on a parameter grid (row index = alpha_m, column = alpha_f)."""

    alpha_m: np.ndarray
    alpha_f: np.ndarray
    radius: np.ndarray
    repeated_root: np.ndarray

    @property
    def stable(self) -> np.ndarray:
        return _stable(self.radius, self.repeated_root)


def scan_region(alpha_m, alpha_f, variant: Variant = Variant.EQUAL_GAMMA, t_samples=None) -> StabilityMap:
    """Scan the grid of the 1-D axes ``alpha_m`` x ``alpha_f``, identically to per-cell calls.

    Cells are independent; this implementation evaluates them in bands of
    whole grid rows, at most ``_BLOCK_PAIRS`` cells (but at least one row)
    each, as one stacked array per T sample, which is deterministic by
    construction.  Only ``radius`` and ``repeated_root`` span the grid; every
    other per-cell array lives for one band.  Every band takes its samples
    before any band takes its T -> inf limit, so that a refused T set or
    overflowing cubic anywhere on the grid is reported ahead of a G(inf) that
    LAPACK refuses.  An empty grid still checks its T samples.  The gamma
    weights per cell follow the requested closure.
    """
    alpha_m, alpha_f = np.asarray(alpha_m), np.asarray(alpha_f)
    if alpha_m.ndim != 1 or alpha_f.ndim != 1:
        raise ValueError(f"the axes must be 1-D, got shapes {alpha_m.shape} and {alpha_f.shape}")
    m, n = alpha_m.size, alpha_f.size
    radius = np.zeros(m * n)
    repeated = np.zeros(m * n, dtype=bool)
    rows = max(1, _BLOCK_PAIRS // max(n, 1))
    starts = range(0, max(m, 1), rows)  # an empty grid is one empty band

    def band(i):
        """The flat slice of rows i .. i + rows - 1 and the alpha_m, alpha_f of its cells."""
        am = alpha_m[i:i + rows]
        return slice(i * n, (i + am.size) * n), np.repeat(am, n), np.tile(alpha_f, am.size)

    for i in starts:
        cells, am, af = band(i)
        radius[cells], repeated[cells] = _scan_samples(3, am, af, variant, t_samples)
    for i in starts:
        cells, am, af = band(i)
        _fold_limit_inf(am, af, variant, radius[cells], repeated[cells])  # the slices are views
    return StabilityMap(alpha_m, alpha_f, radius.reshape(m, n), repeated.reshape(m, n))


@dataclass(frozen=True)
class RhoPoint:
    """One sample of a rho-parameterized branch; ``pole`` marks undefined rows.

    ``max_eig_inf`` is the stiff-limit radius max |eig(Ainf)| of the
    equal-gamma scheme, which the branch aims to make equal to rho.
    """

    rho: float
    alpha_m: float | None
    alpha_f: float | None
    inside_region: bool | None
    max_eig_inf: float | None

    @property
    def pole(self) -> bool:
        return self.alpha_m is None


def rho_curve(branch: RhoBranch, n_points: int = 101) -> list[RhoPoint]:
    """Uniform samples of one branch over rho_inf in [0, 1], poles marked."""
    if n_points < 2:
        raise ValueError("need at least two samples")
    rows, limits = [], []
    for k in range(n_points):
        rho = k / (n_points - 1)
        try:
            am, af = params_from_rho(rho, branch)
        except PoleAtRho:
            rows.append((rho, None, None, None))
            continue
        rows.append((rho, am, af, in_stability_region(am, af)))
        limits.append(limit_matrix_inf(make_scheme(3, am, af)))
    # the stiff-limit radii of the whole branch come from one LAPACK call
    radii = iter(np.abs(numkit.eigenvalues(np.reshape(limits, (-1, 3, 3)))).max(axis=-1).tolist())
    return [RhoPoint(*row, None if row[1] is None else next(radii)) for row in rows]


def write_stability_csv(smap: StabilityMap, path) -> None:
    """Write the map row-major as ``alpha_m,alpha_f,radius,stable`` (17 digits).

    Each axis value is formatted once: the alpha_f values into one row
    template, which takes a row's alpha_m text as ``%s`` and its radii and
    flags, so that a row is written by a single ``%``.  The radii and flags
    become Python numbers one row at a time, so no per-cell list spans the map.
    """
    n = smap.alpha_f.size
    template = "".join("%%s,%.17g,%%.17g,%%d\n" % af for af in smap.alpha_f.tolist())
    args = [None] * (3 * n)  # alpha_m, radius, stable of each cell of a row
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("alpha_m,alpha_f,radius,stable\n")
        for am, radius, repeated in zip(smap.alpha_m.tolist(), smap.radius, smap.repeated_root):
            args[0::3] = ["%.17g" % am] * n
            args[1::3] = radius.tolist()
            args[2::3] = _stable(radius, repeated).tolist()
            fh.write(template % tuple(args))
