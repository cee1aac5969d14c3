"""Exception types shared across the package.

Every error is a :class:`GalphaError`.  The three that reject a
configuration, :class:`OutOfTable`, :class:`VariantUnsupported` and
:class:`PoleAtRho`, are also ``ValueError``: a caller that treats bad input
as ``ValueError`` (the CLI, exit 2) needs no case of its own for them.
"""


class GalphaError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(GalphaError):
    """A linear solve hit a pivot too small to trust."""


class NoConvergence(GalphaError):
    """An iterative eigenvalue computation did not converge."""


class OutOfTable(GalphaError, ValueError):
    """Requested order has no tabulated scheme constant."""


class VariantUnsupported(GalphaError, ValueError):
    """The requested operation is not defined for this scheme variant/order."""


class PoleAtRho(GalphaError, ValueError):
    """The parameter formulas for this branch have a pole at the requested rho."""


class SingularAtT(GalphaError):
    """The one-step system matrix is singular at this value of lambda*tau."""


class DegenerateParams(GalphaError):
    """A limit matrix is undefined for these scheme parameters."""


class SolveFailed(GalphaError):
    """The implicit stage solve failed during time stepping."""


class StateOverflow(GalphaError):
    """The stacked state of a march is not finite."""


class StepSingular(GalphaError):
    """The implicit-stage shift makes the stage system singular."""


class AllAtRoundoff(GalphaError):
    """Every measured error sits below the round-off floor."""

