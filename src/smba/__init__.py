"""Feasible first-order solver for conic DC programs.

The conic constraint is recast as a single support-function inequality over
a compact base of the polar cone, smoothed by a majorizing family, and each
iteration solves one ball-constrained prox subproblem by one-dimensional
root finding.
"""

__version__ = "0.1.0"

from .ball_prox import BallConstraint, SubproblemResult, build_ball, prox_path_point, solve_ball_prox
from .cones import (
    ConeBaseOracle,
    NegSemidef,
    NonposOrthant,
    PCone,
    SmoothingCert,
    stable_logsumexp,
)
from .diagnostics import KKTCertificate, kkt_residuals, termination_metrics
from .nsdp import NsdpInstance, generate_nsdp, load_instance, nsdp_problem, save_instance
from .problems import (
    ConstraintMap,
    DCProblem,
    L1Regularizer,
    SmoothObjective,
    ZeroConcave,
    ZeroRegularizer,
    box_problem,
    norm_ball_problem,
    objective_value,
    psd_affine_problem,
)
from .schedules import (
    ScheduleSpec,
    blockwise_schedule,
    mu_at,
    mu_values,
    partial_sum,
    power_schedule,
    ramped_log_schedule,
)
from .solver import IterateState, SolveReport, SolveStatus, SolverConfig, bb_init, find_initial_mu, run

__all__ = [
    "BallConstraint",
    "ConeBaseOracle",
    "ConstraintMap",
    "DCProblem",
    "IterateState",
    "KKTCertificate",
    "L1Regularizer",
    "NegSemidef",
    "NonposOrthant",
    "NsdpInstance",
    "PCone",
    "ScheduleSpec",
    "SmoothObjective",
    "SmoothingCert",
    "SolveReport",
    "SolveStatus",
    "SolverConfig",
    "SubproblemResult",
    "ZeroConcave",
    "ZeroRegularizer",
    "bb_init",
    "blockwise_schedule",
    "box_problem",
    "build_ball",
    "find_initial_mu",
    "generate_nsdp",
    "kkt_residuals",
    "load_instance",
    "mu_at",
    "mu_values",
    "norm_ball_problem",
    "nsdp_problem",
    "objective_value",
    "partial_sum",
    "power_schedule",
    "prox_path_point",
    "psd_affine_problem",
    "ramped_log_schedule",
    "run",
    "save_instance",
    "solve_ball_prox",
    "stable_logsumexp",
    "termination_metrics",
]
