"""High-order generalized-alpha time integrators for u' + A u = 0.

The package provides the scheme family itself (orders 2 and up, two gamma
closures, stiff-damping design via rho_inf), the amplification-matrix algebra
that underpins its analysis, stability-region scanning, convergence and
closure-constant verification tools, and a small CLI for producing CSV/plot
artifacts.  References that only check other code (``build_lr``,
``amplification_matrix`` and the limit matrices) are imported from their
modules; the tests' own oracles live with the tests.
"""

__version__ = "0.1.0"

from . import errors
from .amplification import (
    one_step_tableau,
    order_condition,
)
from .integrator import (
    LinearProblem,
    StateVector,
    dense_problem,
    heat_problem,
    init_state,
    integrate,
    scalar_problem,
    step,
    write_trajectory_csv,
)
from .orderlab import (
    ConvergenceReport,
    measure_order,
    recover_C,
    write_convergence_csv,
)
from .schemes import (
    RhoBranch,
    SchemeParams,
    Variant,
    c_of_p,
    in_stability_region,
    make_scheme,
    params_from_rho,
    remark_one_gammas,
)
from .stability import (
    RadiusReport,
    RhoPoint,
    StabilityMap,
    default_t_samples,
    rho_curve,
    scan_region,
    worst_case_radius,
    write_stability_csv,
)

__all__ = [
    "__version__",
    "errors",
    # schemes
    "Variant",
    "RhoBranch",
    "SchemeParams",
    "c_of_p",
    "make_scheme",
    "remark_one_gammas",
    "params_from_rho",
    "in_stability_region",
    # amplification
    "one_step_tableau",
    "order_condition",
    # stability
    "default_t_samples",
    "RadiusReport",
    "worst_case_radius",
    "StabilityMap",
    "scan_region",
    "RhoPoint",
    "rho_curve",
    "write_stability_csv",
    # integrator
    "StateVector",
    "LinearProblem",
    "scalar_problem",
    "dense_problem",
    "heat_problem",
    "init_state",
    "step",
    "integrate",
    "write_trajectory_csv",
    # orderlab
    "ConvergenceReport",
    "measure_order",
    "recover_C",
    "write_convergence_csv",
]
