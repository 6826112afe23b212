"""The package's top-level names, and where the solver internals live.

The top level holds what a user builds and runs a problem with; each solver
internal imports from its own module.  A change that re-grows the top level,
or deletes an internal instead of leaving it in its module, fails here.  So
does a function, method or class in ``src/smba`` that nothing but the tests
names: the package ships only what ``run``, the CLI and the benchmark call.
"""

import ast
import importlib
from pathlib import Path

import pytest

import smba

ROOT = Path(__file__).resolve().parent.parent

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
    ("smba.ball_prox", "solve_ball_prox"),
    ("smba.diagnostics", "kkt_residuals"),
    ("smba.diagnostics", "termination_metrics"),
    ("smba.diagnostics", "KKTCertificate"),
    ("smba.schedules", "mu_at"),
    ("smba.cones", "ConeBaseOracle"),
    ("smba.cones", "checked_array"),
    ("smba.cones", "check_numbers"),
    ("smba.cones", "check_keys"),
]

# second ways into a kernel (the cone point from prepare(y), the mu0 that
# run reports, np.vdot), the slack of a guard that could not fire, copies
# of the array check (checked_array) and the symmetry rule (symmetrized),
# and what only the tests called, now in tests/helpers.py or read off
# _path_point and _factors (or, for ScheduleSpec.to_dict, done by
# SolverConfig.to_dict's dataclasses.asdict), the abstract stubs of the
# duck-typed cone points and families (ConePoint, ConeBaseOracle.prepare),
# and the subproblem's result record (its one caller unpacks an (x, lam) pair)
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
    ("smba.ball_prox", "prox_path_point"),
    ("smba.ball_prox", "BallConstraint.constraint_value"),
    ("smba.schedules", "mu_values"),
    ("smba.schedules", "partial_sum"),
    ("smba.schedules", "partial_sum_lower_bound"),
    ("smba.cones", "SmoothingCert"),
    ("smba.cones", "ConeBaseOracle.polar_residual"),
    ("smba.diagnostics", "KKTCertificate.eps_triple"),
    ("smba.cones", "ConePoint"),
    ("smba.cones", "ConeBaseOracle.prepare"),
    ("smba.solver", "_stall_index"),
    ("smba.schedules", "ScheduleSpec.to_dict"),
    ("smba.ball_prox", "SubproblemResult"),
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


def _docstrings(tree):
    """The string nodes that are docstrings of a module, class or function."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def test_every_definition_is_named_outside_the_tests():
    # a name counts where code reads it: a variable, an attribute, an import,
    # or an identifier in a string (setattr and getattr take those); comments
    # and docstrings do not.  A definition's own name is not a read of it.
    # Dunder methods are called by Python itself
    named, defined = set(), []
    for folder in ("src/smba", "perfbench", "tools"):
        for path in sorted((ROOT / folder).glob("*.py")):
            tree = ast.parse(path.read_text())
            docstrings = _docstrings(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.alias):
                    named.add(node.name.rpartition(".")[2])
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value.isidentifier() and id(node) not in docstrings):
                    named.add(node.value)
                elif (folder == "src/smba" and isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                      and not (node.name.startswith("__") and node.name.endswith("__"))):
                    defined.append(f"{path.name}:{node.lineno} {node.name}")
    unnamed = [d for d in defined if d.rpartition(" ")[2] not in named]
    assert not unnamed, f"defined in src/smba but named only by the tests: {unnamed}"
