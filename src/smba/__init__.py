"""Feasible first-order solver for conic DC programs.

The conic constraint is recast as a single support-function inequality over
a compact base of the polar cone, smoothed by a majorizing family, and each
iteration solves one ball-constrained prox subproblem by one-dimensional
root finding.  Solver internals import from their own modules.
"""

__version__ = "0.1.0"

from .cones import NegSemidef, NonposOrthant, PCone
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
from .schedules import ScheduleSpec, blockwise_schedule, power_schedule, ramped_log_schedule
from .solver import SolveReport, SolveStatus, SolverConfig, run

__all__ = [
    "ConstraintMap",
    "DCProblem",
    "L1Regularizer",
    "NegSemidef",
    "NonposOrthant",
    "NsdpInstance",
    "PCone",
    "ScheduleSpec",
    "SmoothObjective",
    "SolveReport",
    "SolveStatus",
    "SolverConfig",
    "ZeroConcave",
    "ZeroRegularizer",
    "blockwise_schedule",
    "box_problem",
    "generate_nsdp",
    "load_instance",
    "norm_ball_problem",
    "nsdp_problem",
    "objective_value",
    "power_schedule",
    "psd_affine_problem",
    "ramped_log_schedule",
    "run",
    "save_instance",
]
