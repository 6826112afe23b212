"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import smba  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from harness import solve_pass  # noqa: E402
from tracing import PATCHED, Tracer  # noqa: E402
from workloads import WORKLOADS, Instance, transform_rng  # noqa: E402


def test_traced_run_keeps_digest_and_counts_every_trial():
    # a 59-step desk-sized instance keeps the test short
    panel = [Instance(seed=2, problem=smba.nsdp_problem(smba.generate_nsdp(20, 10, 2)))]
    cfg = smba.SolverConfig(eps=1e-7)
    originals = [getattr(mod, attr) for mod, attr, _ in PATCHED]

    def no_checks(instance, report):
        return []

    plain = solve_pass(panel, cfg, no_checks, Calibrator())
    traced = solve_pass(panel, cfg, no_checks, Calibrator(), Tracer())

    assert plain.solves[0].status == "converged"
    assert traced.solves[0].digest == plain.solves[0].digest
    assert traced.layers["ball_prox.solves"] == traced.solves[0].trials
    assert [getattr(mod, attr) for mod, attr, _ in PATCHED] == originals


def test_seeded_symmetry_preserves_objective_and_constraint():
    rng = np.random.default_rng(7)
    for name in WORKLOADS:
        w = WORKLOADS[name]
        s = w.instance_seeds[0]
        raw = w.generate(s)
        base = w.build(raw)
        moved = w.build(w.transform(raw, transform_rng(5, s)))
        x = 0.1 * rng.standard_normal(base.dim)
        vals = [smba.objective_value(base, x), base.cone.support_value(base.g.value(x))]
        # replay the transform's draws to map x into the moved variables
        perm_rng = transform_rng(5, s)
        p = perm_rng.permutation(base.dim)
        y = x[p]
        if name == "socp-dc":
            y = perm_rng.choice([-1.0, 1.0], size=base.dim) * y
        moved_vals = [smba.objective_value(moved, y), moved.cone.support_value(moved.g.value(y))]
        np.testing.assert_allclose(moved_vals, vals, rtol=1e-9, atol=1e-9)


def test_exits_nonzero_without_solver_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "test_*"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nsdp-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
