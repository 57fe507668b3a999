"""One-dimensional consensus-based optimization laboratory.

Particles drift toward a softmax-weighted average of their positions; as the
weight sharpness alpha grows, that average locks onto the best particle and
the common limit approaches the objective's global minimizer. This package
provides the deterministic particle solvers, the closed-form error oracles,
convergence-rate sweeps, an error-bound certifier for smooth objectives, and
a CLI wrapping all of it.
"""

from .analysis import (
    CalyxCertificate,
    CurvatureError,
    InvariantCheck,
    SweepReport,
    SweepRow,
    VerifyReport,
    certify_calyx,
    lipschitz_separation_bound,
    oracle_linear_error,
    oracle_nparticle_linear_error,
    oracle_quadratic_bounds,
    sweep_alpha,
    sweep_csv,
    sweep_n,
    verify_invariants,
)
from .dynamics import (
    IntegrationError,
    SimConfig,
    SimOutcome,
    Trajectory,
    analytic_gap,
    gap_decay_tolerance,
    reduced_solve,
    reduced_two_particle,
    simulate,
    trajectory_csv,
)
from .objective import (
    BUILTIN_NAMES,
    Objective,
    builtin_objective,
    consensus_point,
    load_table_csv,
    softmax_weights,
    table_objective,
    weights,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "CalyxCertificate",
    "CurvatureError",
    "IntegrationError",
    "InvariantCheck",
    "Objective",
    "SimConfig",
    "SimOutcome",
    "SweepReport",
    "SweepRow",
    "Trajectory",
    "VerifyReport",
    "analytic_gap",
    "builtin_objective",
    "certify_calyx",
    "consensus_point",
    "gap_decay_tolerance",
    "lipschitz_separation_bound",
    "load_table_csv",
    "oracle_linear_error",
    "oracle_nparticle_linear_error",
    "oracle_quadratic_bounds",
    "reduced_solve",
    "reduced_two_particle",
    "simulate",
    "softmax_weights",
    "sweep_alpha",
    "sweep_csv",
    "sweep_n",
    "table_objective",
    "trajectory_csv",
    "verify_invariants",
    "weights",
]
