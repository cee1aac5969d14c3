"""Scheme parameter families for generalized-alpha integration of u' + lambda*u = 0.

A scheme of order p advances the solution together with its first p - 1 scaled
derivatives.  It is fixed by the pair (alpha_m, alpha_f) and by p - 1 update
weights gamma_1 .. gamma_{p-1}.  Two closures of the order conditions are
supported:

* ``Variant.EQUAL_GAMMA``:  every gamma_j equals C(p) + alpha_m - alpha_f,
  where C(p) is a tabulated rational constant per order (1/2 for p = 2,
  5/12 for p = 3, ...).  Defined for p = 2 .. 11.
* ``Variant.REMARK_ONE``:  third order only; gamma_1 and gamma_2 are distinct
  rational functions of (alpha_m, alpha_f).  gamma_1 (2 + 3 alpha_f) =
  3 alpha_m, and gamma_2 then meets the third-order condition C_3 = 0 of
  ``amplification.order_condition``.  The first relation is not an order
  condition of rho and sigma: C_4 != 0, and both closures are exactly third
  order.  This closure trades the clean stiff-limit form for a larger
  unconditional-stability region.

The module also carries the closed-form descriptions of the third-order
family: the unconditional stability region in the (alpha_m, alpha_f) plane and
the four solution branches of the stiff-limit design system, parameterized by
rho_inf.  Only MAIN and ALT1 make the stiff-limit spectral radius equal
rho_inf, and only for rho_inf >= 1/3; no equal-gamma third-order pair gets
that radius below 1/3 (see ``stability.rho_curve``, which measures it).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OutOfTable, PoleAtRho, VariantUnsupported

__all__ = [
    "Variant",
    "RhoBranch",
    "SchemeParams",
    "c_of_p",
    "closure_gammas",
    "make_scheme",
    "remark_one_gammas",
    "params_from_rho",
    "in_stability_region",
]


class Variant(enum.Enum):
    """Closure rule used to pick the gamma weights."""

    EQUAL_GAMMA = "equal-gamma"
    REMARK_ONE = "remark-one"


class RhoBranch(enum.Enum):
    """Solution branches expressing (alpha_m, alpha_f) through rho_inf."""

    MAIN = "main"
    ALT1 = "alt1"
    ALT2 = "alt2"
    ALT3 = "alt3"


# Scheme constant per order, exact.  Index = p.
_C_TABLE: dict[int, Fraction] = {
    2: Fraction(1, 2),
    3: Fraction(5, 12),
    4: Fraction(1, 3),
    5: Fraction(31, 120),
    6: Fraction(1, 5),
    7: Fraction(41, 252),
    8: Fraction(1, 7),
    9: Fraction(31, 240),
    10: Fraction(1, 9),
    11: Fraction(61, 660),
}


def c_of_p(p: int) -> Fraction:
    """Tabulated scheme constant C(p) as an exact rational, p = 2 .. 11.

    In closed form C(p) = (1 - B_{p-1}) / (p - 1), with B_n the Bernoulli
    numbers and B_1 = +1/2.
    """
    try:
        return _C_TABLE[p]
    except KeyError:
        raise OutOfTable(f"no tabulated constant for order p={p}") from None


@dataclass(frozen=True)
class SchemeParams:
    """Fully resolved parameters of one scheme instance.

    ``gammas[j - 1]`` holds gamma_j for j = 1 .. p - 1.  Construction
    checks the gammas against :func:`closure_gammas` of the variant, to
    1e-14 max(1, |gamma_j|), so that an instance can always be trusted
    downstream.
    """

    p: int
    alpha_m: float
    alpha_f: float
    gammas: tuple[float, ...]
    variant: Variant

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError(f"order p must be >= 2, got {self.p}")
        if len(self.gammas) != self.p - 1:
            raise ValueError(
                f"expected {self.p - 1} gamma weights for p={self.p}, "
                f"got {len(self.gammas)}"
            )
        values = (self.alpha_m, self.alpha_f, *self.gammas)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("scheme parameters must be finite")
        target = closure_gammas(self.p, self.alpha_m, self.alpha_f, self.variant)
        if any(abs(g - c) > 1e-14 * max(1.0, abs(c)) for g, c in zip(self.gammas, target)):
            raise ValueError(
                f"{self.variant.value} closure violated: gammas {self.gammas} != {target}"
            )

    @property
    def gamma1(self) -> float:
        return self.gammas[0]


def remark_one_gammas(alpha_m: float, alpha_f: float) -> tuple[float, float]:
    """Distinct (gamma_1, gamma_2) of the remark-one closure (module docstring).

    gamma_1 = 3*alpha_m / (2 + 3*alpha_f)
    gamma_2 = (10 - 9*alpha_f - 36*alpha_f^2 + 6*alpha_m + 36*alpha_m*alpha_f)
              / (12 + 18*alpha_f)

    A scalar ``alpha_f`` (float, numpy scalar or ``Fraction``) on the pole
    2 + 3*alpha_f = 0 raises ``ValueError``; per-cell arrays get non-finite
    weights there.
    """
    if not isinstance(alpha_f, np.ndarray) and 2 + 3 * alpha_f == 0:
        raise ValueError("remark-one closure has a pole at 2 + 3*alpha_f = 0")
    g1 = 3.0 * alpha_m / (2.0 + 3.0 * alpha_f)
    # alpha_f * alpha_f, not alpha_f**2: a float's ** 2 raises OverflowError
    # past 1.34e154, and x * x is what np.square gives per-cell arrays
    g2 = (
        10.0 - 9.0 * alpha_f - 36.0 * (alpha_f * alpha_f) + 6.0 * alpha_m
        + 36.0 * alpha_m * alpha_f
    ) / (12.0 + 18.0 * alpha_f)
    return g1, g2


def closure_gammas(p: int, alpha_m, alpha_f, variant: Variant = Variant.EQUAL_GAMMA) -> tuple:
    """The p - 1 weights (gamma_1, ..., gamma_{p-1}) that the closure assigns.

    ``alpha_m`` and ``alpha_f`` may be floats or equal-shape arrays (one entry
    per parameter cell); each returned weight has their shape.  Equal-gamma
    repeats C(p) + alpha_m - alpha_f; remark-one is third order only.
    """
    if variant is Variant.EQUAL_GAMMA:
        return (float(c_of_p(p)) + alpha_m - alpha_f,) * (p - 1)
    if variant is Variant.REMARK_ONE:
        if p != 3:
            raise VariantUnsupported("remark-one closure is third order only")
        return remark_one_gammas(alpha_m, alpha_f)
    raise VariantUnsupported(f"unknown variant {variant!r}")  # pragma: no cover - enum is closed


def make_scheme(
    p: int,
    alpha_m: float,
    alpha_f: float,
    variant: Variant = Variant.EQUAL_GAMMA,
) -> SchemeParams:
    """Build a validated :class:`SchemeParams` for the requested closure."""
    if p < 2:
        raise ValueError(f"order p must be >= 2, got {p}")
    gammas = closure_gammas(p, alpha_m, alpha_f, variant)
    return SchemeParams(p, float(alpha_m), float(alpha_f), gammas, variant)


def params_from_rho(rho_inf: float, branch: RhoBranch = RhoBranch.MAIN) -> tuple[float, float]:
    """(alpha_m, alpha_f) on one solution branch of the rho_inf design system.

    Every branch sets the trailing stiff-limit eigenvalue 1 - 1/gamma_1 to
    -rho_inf (MAIN, ALT2) or +rho_inf (ALT1, ALT3).  MAIN and ALT1 share
    alpha_f, which puts the two remaining eigenvalues at -rho_inf and
    (rho_inf - 1)/(1 + 3 rho_inf); ALT2 and ALT3 pick the roots of
    8 (1 - rho^2) af^2 - 20 af + 9 = 0, which fix the mean square of that
    pair at rho_inf^2, not its modulus.  So the stiff-limit spectral radius is
    rho_inf only on MAIN and ALT1 with rho_inf >= 1/3.  Whether ALT2 and ALT3
    are meant as rho_inf designs is not settled.

    ``rho_inf`` must lie in [0, 1].  The MAIN branch is defined on the whole
    interval; the three alternate branches have a pole at rho_inf = 1
    (denominators rho - 1 and 1 - rho^2) and raise :class:`PoleAtRho` there.
    """
    rho = float(rho_inf)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho_inf must be in [0, 1], got {rho}")
    if branch is not RhoBranch.MAIN and rho == 1.0:
        raise PoleAtRho(f"branch {branch.value} has a pole at rho_inf = 1")

    if branch in (RhoBranch.MAIN, RhoBranch.ALT1):
        one_plus_sq = (rho + 1.0) ** 2
        if branch is RhoBranch.MAIN:
            am = (13.0 + 20.0 * rho - 5.0 * rho**2) / (12.0 * one_plus_sq)
        else:
            am = (-13.0 - 31.0 * rho + rho**2 - 5.0 * rho**3) / (12.0 * one_plus_sq * (rho - 1.0))
        return am, (1.0 + 3.0 * rho) / (2.0 * one_plus_sq)
    # ALT2 and ALT3 differ only in the sign s of the 12 rho term and of the root
    s = 1.0 if branch is RhoBranch.ALT2 else -1.0
    root = s * math.sqrt(7.0 + 18.0 * rho**2)
    am = (22.0 - s * 12.0 * rho + 5.0 * rho**2 + 3.0 * root) / (12.0 * (1.0 - rho**2))
    af = (5.0 + root) / (4.0 * (1.0 - rho**2))
    return am, af


def in_stability_region(alpha_m: float, alpha_f: float) -> bool:
    """Closed-form unconditional-stability predicate for the p = 3 family.

    True iff alpha_m >= 7/12 and 1/2 <= alpha_f <= alpha_m - 1/12, with all
    inequalities closed (the boundary counts as stable).
    """
    return alpha_m >= 7.0 / 12.0 and 0.5 <= alpha_f <= alpha_m - 1.0 / 12.0
