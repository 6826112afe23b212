"""The package's top-level names, and where the solver internals live.

The top level holds what a user builds and runs a problem with; each solver
internal imports from its own module.  A change that re-grows the top level,
or deletes an internal instead of leaving it in its module, fails here.
"""

import importlib

import pytest

import smba

TOP_LEVEL = {
    "ConstraintMap", "DCProblem", "L1Regularizer", "NegSemidef", "NonposOrthant",
    "NsdpInstance", "PCone", "ScheduleSpec", "SmoothObjective", "SolveReport",
    "SolveStatus", "SolverConfig", "ZeroConcave", "ZeroRegularizer",
    "blockwise_schedule", "box_problem", "generate_nsdp", "load_instance",
    "norm_ball_problem", "nsdp_problem", "objective_value", "power_schedule",
    "psd_affine_problem", "ramped_log_schedule", "run", "save_instance",
}

INTERNALS = [
    ("smba.solver", "bb_init"),
    ("smba.solver", "IterateState"),
    ("smba.ball_prox", "build_ball"),
    ("smba.ball_prox", "BallConstraint"),
    ("smba.ball_prox", "SubproblemResult"),
    ("smba.ball_prox", "solve_ball_prox"),
    ("smba.ball_prox", "prox_path_point"),
    ("smba.diagnostics", "kkt_residuals"),
    ("smba.diagnostics", "termination_metrics"),
    ("smba.diagnostics", "KKTCertificate"),
    ("smba.schedules", "mu_at"),
    ("smba.schedules", "mu_values"),
    ("smba.schedules", "partial_sum"),
    ("smba.cones", "SmoothingCert"),
    ("smba.cones", "ConeBaseOracle"),
    ("smba.cones", "checked_array"),
]

# second ways into a kernel (the cone point from prepare(y), the mu0 that
# run reports, np.vdot), the slack of a guard that could not fire, and
# copies of the array check (checked_array) and the symmetry rule
# (symmetrized)
REMOVED = [
    ("smba.cones", "stable_logsumexp"),
    ("smba.cones", "ConeBaseOracle.msa_value"),
    ("smba.cones", "ConeBaseOracle.msa_gradient"),
    ("smba.solver", "find_initial_mu"),
    ("smba.solver", "DESCENT_SLACK"),
    ("smba.diagnostics", "pairing"),
    ("smba.cones", "_checked"),
    ("smba.solver", "_check_x0"),
    ("smba.nsdp", "_sym"),
]


def test_top_level_names():
    assert len(smba.__all__) == len(set(smba.__all__)) == 26
    assert set(smba.__all__) == TOP_LEVEL
    for name in smba.__all__:
        assert getattr(smba, name) is not None


@pytest.mark.parametrize("module, name", INTERNALS, ids=[name for _, name in INTERNALS])
def test_internal_imports_from_its_module(module, name):
    assert hasattr(importlib.import_module(module), name)
    assert name not in smba.__all__


@pytest.mark.parametrize("module, path", REMOVED, ids=[path for _, path in REMOVED])
def test_removed_entry_point_stays_removed(module, path):
    *owners, name = path.split(".")
    obj = importlib.import_module(module)
    for owner in owners:
        obj = getattr(obj, owner)
    assert not hasattr(obj, name)
