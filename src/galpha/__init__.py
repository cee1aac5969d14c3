"""High-order generalized-alpha time integrators for u' + A u = 0.

The package provides the scheme family itself (orders 2 and up, two gamma
closures, stiff-damping design via rho_inf), the amplification-matrix algebra
that underpins its analysis, stability-region scanning, convergence and
closure-constant verification tools, and a small CLI for producing CSV/plot
artifacts.
"""

__version__ = "0.1.0"

from . import errors
from .amplification import (
    amplification_matrix,
    build_lr,
    characteristic_recurrence_residual,
    limit_matrix_inf,
    limit_matrix_zero,
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
    error_functional,
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
    GridSpec,
    RadiusReport,
    RhoPoint,
    StabilityMap,
    default_t_samples,
    ray_t_samples,
    rho_curve,
    scan_region,
    verify_rho_control,
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
    "build_lr",
    "amplification_matrix",
    "limit_matrix_zero",
    "limit_matrix_inf",
    "characteristic_recurrence_residual",
    "order_condition",
    # stability
    "default_t_samples",
    "ray_t_samples",
    "RadiusReport",
    "worst_case_radius",
    "GridSpec",
    "StabilityMap",
    "scan_region",
    "verify_rho_control",
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
    "error_functional",
    "recover_C",
    "write_convergence_csv",
]
