import copy
import dataclasses
import importlib.util
import json
import math
import os
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smba
import smba.solver
from smba import cones
from smba.cones import MU_FLOOR
from smba.errors import InfeasibleStartError, NumericError
from smba.nsdp import generate_nsdp, nsdp_problem
from smba.problems import (
    ConstraintMap,
    L1Concave,
    SmoothObjective,
    box_problem,
    norm_ball_problem,
    objective_value,
    psd_affine_problem,
)
from smba.schedules import (ScheduleSpec, blockwise_schedule, mu_at, power_schedule,
                            ramped_log_schedule, stall_index)
from smba.solver import (
    SolveStatus,
    SolverConfig,
    _secant_rise,
    bb_init,
    inner_loop_step,
    run,
)

from helpers import (
    GUARD_INPUTS,
    analytic_box_solution,
    composite_gradient,
    composite_value,
    make_state,
    polar_residual,
    socp_dc_optimum,
    trace_invariants,
)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's instance builders, ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def initial_mu(prob, x0):
    """The mu0 that the initial smoothing search gives ``run`` from ``x0``."""
    return run(prob, SolverConfig(max_outer=1), x0).mu0


class TestFindInitialMu:
    """The initial smoothing search, read off the mu0 that ``run`` reports."""

    @pytest.mark.usefixtures("no_shift")
    def test_hand_derived_orthant(self):
        # constraint value -1 at x0; condition -1 + mu log 2 <= -0.1 holds at 0.9
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 1.0])
        assert initial_mu(prob, np.zeros(2)) == pytest.approx(0.9)

    @pytest.mark.usefixtures("no_shift")
    def test_deep_interior_accepts_immediately(self):
        prob = box_problem(c=[0.0, 0.0], b=[10.0, 10.0])
        assert initial_mu(prob, np.zeros(2)) == pytest.approx(0.9)

    def test_boundary_start_rejected(self):
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 0.0])
        with pytest.raises(InfeasibleStartError):
            initial_mu(prob, np.zeros(2))

    def test_search_stops_at_floor(self):
        # a margin of 1e-14 needs mu far below the 1e-12 floor
        prob = box_problem(c=[0.0, 0.0], b=[1e-14, 1e-14])
        report = run(prob, SolverConfig(max_outer=1), np.zeros(2))
        assert report.status is SolveStatus.NUMERIC_FAILURE
        assert "floor" in report.reason and math.isnan(report.mu0)

    def test_smoothed_value_negative_at_returned_mu(self, rng):
        for _ in range(20):
            b = rng.uniform(0.05, 3.0, 3)
            prob = box_problem(c=rng.normal(0, 1, 3), b=b)
            mu0 = initial_mu(prob, np.zeros(3))
            assert composite_value(prob, np.zeros(3), mu0) < 0


class TestBBInit:
    def test_first_iteration_defaults_to_one(self):
        # from x0 = c the first trial is accepted, so the first row's weights
        # are the first step's warm starts: 1.0 clipped to [L_min, L_max]
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 1.0])
        for lo, hi, want in ((1e-8, 1e8, 1.0), (4.0, 8.0, 4.0), (1e-8, 0.25, 0.25)):
            report = run(prob, SolverConfig(L_min=lo, L_max=hi), np.zeros(2))
            row = report.trace[0]
            assert (row.i_k, row.j_k) == (0, 0)
            assert (row.Lf, row.Lg) == (want, want)

    def test_identity_quadratic_recovers_unit_curvature(self):
        # f = 0.5 ||x - c||^2 has unit Hessian, so the f-ratio is exactly 1
        prob = box_problem(c=[3.0, 3.0], b=[10.0, 10.0])
        x, x_prev = np.array([0.5, 0.2]), np.zeros(2)
        dx = x - x_prev
        df = prob.f.gradient(x) - prob.f.gradient(x_prev)
        Lf0, _ = bb_init(dx, float(dx.dot(dx)), df, np.zeros(2), 1.0, 1.0, SolverConfig())
        assert Lf0 == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_step_halves_previous(self):
        zero = np.zeros(2)
        Lf0, Lg0 = bb_init(zero, 0.0, zero, zero, 2.0, 4.0, SolverConfig())
        assert Lf0 == pytest.approx(1.0)
        assert Lg0 == pytest.approx(2.0)

    @pytest.mark.parametrize("ratio, want", [
        (0.0, (3.0, 5.0)), (1e9, (3.0, 5.0)), (math.nan, (3.0, 5.0)),
        (1e-8, (1e-8, 1e-8)), (1e8, (1e8, 1e8)),
    ], ids=["linear-f", "above-L_max", "nan", "at-L_min", "at-L_max"])
    def test_ratio_outside_safeguards_falls_back(self, ratio, want):
        # along dx = e_1 both ratios are exactly ``ratio``: 0, as for a
        # linear f, lies below L_min, so each warm start falls back to half
        # the last start (6 and 10); a ratio at L_min or L_max is kept
        dx = np.array([1.0, 0.0])
        assert bb_init(dx, 1.0, ratio * dx, ratio * dx, 6.0, 10.0, SolverConfig()) == want

    def test_constraint_warm_start_is_secant_norm_ratio(self, rng):
        # Lg0 = ||dg|| / ||dx|| with dg the change of mu grad g_mu; by
        # Cauchy-Schwarz it lies between |dx.dg| / ||dx||^2 and
        # ||dg||^2 / |dx.dg|, the two spectral ratios
        for _ in range(50):
            mu = 10.0 ** rng.uniform(-3, 0)
            dx = rng.normal(0, 1, 3)
            dg = mu * (rng.normal(0, 1, 3) - rng.normal(0, 1, 3))
            _, Lg0 = bb_init(dx, float(dx.dot(dx)), dx, dg, 1.0, 7.0, SolverConfig())
            assert Lg0 == pytest.approx(np.linalg.norm(dg) / np.linalg.norm(dx), rel=1e-14)
            cross = abs(float(dx.dot(dg)))
            assert cross / dx.dot(dx) * (1 - 1e-14) <= Lg0 <= dg.dot(dg) / cross * (1 + 1e-14)

    def test_secant_pairs_gradients_of_one_smoothed_function(self, monkeypatch):
        # on a norm ball mu grad g_mu is 1-Lipschitz, so every secant ratio
        # ||dg|| / ||dx|| that a warm start reads is at most 1, at the seven
        # stall advances too: there the new state's gradient is formed at a
        # mu of the next block, and the secant pairs the accepted point's
        # gradient formed before the advance (measured maximum 0.271)
        ratios = []

        def recording(dx, dx2, df, dg, *rest):
            ratios.append(math.sqrt(float(dg.dot(dg)) / dx2))
            return bb_init(dx, dx2, df, dg, *rest)

        monkeypatch.setattr(smba.solver, "bb_init", recording)
        report = run(socp_dc_shaped(), SolverConfig(eps=1e-5), np.zeros(200))
        assert report.status is SolveStatus.CONVERGED and report.advances == 7
        assert len(ratios) == report.iterations - 1
        assert max(ratios) <= 1.0

    def test_results_always_inside_safeguards(self, rng):
        prob = box_problem(c=[0.0, 0.0], b=[5.0, 5.0])
        cfg = SolverConfig()
        for _ in range(50):
            x, x_prev = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            dx = x - x_prev
            df = prob.f.gradient(x) - prob.f.gradient(x_prev)
            dg = 0.5 * (composite_gradient(prob, x, 0.5) - composite_gradient(prob, x_prev, 0.6))
            Lf0, Lg0 = bb_init(dx, float(dx.dot(dx)), df, dg, 10.0 ** rng.uniform(-8, 8), 1.0, cfg)
            assert cfg.L_min <= Lf0 <= cfg.L_max
            assert cfg.L_min <= Lg0 <= cfg.L_max


class TestInnerLoop:
    def test_generous_constants_accept_immediately(self):
        # unit-curvature quadratic: Lf0 >= L_f and Lg0 >= mu * L_mu suffice
        prob = box_problem(c=[0.5, 0.5], b=[10.0, 10.0])
        state = make_state(prob, np.zeros(2), 0.9, Lf0=4.0, Lg0=4.0)
        res = inner_loop_step(state, prob, SolverConfig())
        assert (res.i, res.j) == (0, 0)

    def test_tiny_warm_starts_double_up_below_cap(self):
        # the first trial overshoots, and its secant curvature lifts both
        # weights about log2(1e8) doublings at once; one doubling per trial
        # took 26 trials
        prob = box_problem(c=[5.0, 0.0], b=[1.0, 1.0])
        state = make_state(prob, np.zeros(2), 0.9, Lf0=1e-8, Lg0=1e-8)
        res = inner_loop_step(state, prob, SolverConfig())
        assert res.j + 1 <= 3
        assert 1 <= res.i <= res.j
        assert res.Lf >= 2.0**20 * 1e-8

    def test_feasibility_failure_keeps_i_at_zero(self):
        # huge ball from a tiny Lg0 makes the first trials infeasible while
        # the objective weight is already adequate
        prob = box_problem(c=[5.0, 0.0], b=[1.0, 1.0])
        state = make_state(prob, np.zeros(2), 0.9, Lf0=2.0, Lg0=1e-6)
        res = inner_loop_step(state, prob, SolverConfig())
        assert res.i == 0
        assert res.j >= 1

    def test_cap_exceeded_raises(self):
        # G lifted by 10 at every trial point: no Lg makes a trial feasible,
        # so each one jumps Lg past a doubling and the third exhausts the cap
        from smba.solver import InnerCapError

        base = box_problem(c=[5.0, 0.0], b=[1.0, 1.0])
        trials = []

        def value(x):
            trials.append(1)
            return base.g.value(x) + 10.0

        prob = dataclasses.replace(base, g=dataclasses.replace(base.g, value=value))
        state = make_state(base, np.zeros(2), 0.9, Lf0=2.0, Lg0=1e-6)
        with pytest.raises(InnerCapError) as err:
            inner_loop_step(state, prob, SolverConfig(max_inner_j=2))
        assert len(trials) == 3  # j = 0, 1, 2, all infeasible
        assert (err.value.i, err.value.j) == (0, 3)
        # the message names the step's mu and the last trial's Lg and g_mu
        mu, Lg, g_mu = map(float, re.fullmatch(
            r"inner loop cap exceeded at mu=(\S+); last Lg=(\S+), last g_mu=(\S+)",
            str(err.value)).groups())
        assert mu == 0.9
        assert Lg > 4e-6
        assert g_mu > 0.0

    def test_cap_without_evaluated_trial_reports_nan(self):
        # every trial overshoots and fails descent, so no smoothed value exists
        from smba.solver import InnerCapError

        prob = box_problem(c=[0.5, 0.5], b=[10.0, 10.0])
        state = make_state(prob, np.zeros(2), 0.9, Lf0=1e-3, Lg0=1.0)
        with pytest.raises(InnerCapError, match="last g_mu=nan"):
            inner_loop_step(state, prob, SolverConfig(max_inner_j=0))

    def test_accepted_point_satisfies_both_tests(self, rng):
        cfg = SolverConfig()
        for _ in range(20):
            prob = box_problem(c=rng.normal(0, 2, 2), b=rng.uniform(0.5, 2, 2),
                               l1_weight=float(rng.uniform(0, 1)))
            state = make_state(prob, -rng.uniform(0.5, 2, 2), 0.9,
                               Lf0=10.0 ** rng.uniform(-2, 1),
                               Lg0=10.0 ** rng.uniform(-2, 1))
            res = inner_loop_step(state, prob, cfg)
            assert res.gmu <= 0.0
            drop = (cfg.tau1 * state.mu + cfg.tau2 * res.lam) / (2 * state.mu)
            step2 = float(np.dot(res.x - state.x, res.x - state.x))
            assert res.psi <= state.psi - drop * step2 + 1e-12 * (1 + abs(state.psi))


def curved_problem(kappa, offset=0.0, slope=0.4):
    """min offset + <g, x> + kappa ||x||^2 / 2, with g = (slope, 0), over a
    distant box: the secant curvature of every trial step is kappa, up to
    rounding."""
    base = box_problem(c=[0.0, 0.0], b=[100.0, 100.0])
    g = np.array([slope, 0.0])
    f = SmoothObjective(value=lambda x: offset + g.dot(x) + 0.5 * kappa * x.dot(x),
                        gradient=lambda x: g + kappa * x)
    return dataclasses.replace(base, f=f)


class TestSecantJump:
    def test_jump_to_largest_grid_point_not_above_secant(self):
        # grid 0.7 * 2^a: secant 12 lies between 11.2 (a = 4) and 22.4, and
        # 11.2 passes, so one failed trial lifts both weights by 2^4
        prob = curved_problem(12.0)
        state = make_state(prob, np.zeros(2), 0.9, Lf0=0.7, Lg0=1.0)
        res = inner_loop_step(state, prob, SolverConfig())
        assert (res.i, res.j) == (1, 1)
        assert (res.Lf, res.Lg) == (0.7 * 16, 16.0)

    def test_secant_below_weight_raises_by_one(self):
        # tau1 = 10 asks for more decrease than a unit-curvature step at
        # Lf = 2 and 4 gives; each failed trial's secant, 1, lies below its
        # Lf, so each raises the exponents by one
        prob = curved_problem(1.0)
        state = make_state(prob, np.zeros(2), 0.9, Lf0=2.0, Lg0=1.0)
        res = inner_loop_step(state, prob, SolverConfig(tau1=10.0))
        assert (res.i, res.j) == (2, 2)
        assert (res.Lf, res.Lg) == (8.0, 4.0)

    @pytest.mark.parametrize("offset, trials", [(0.0, 2), (2.0**40, 4)])
    def test_curvature_within_rounding_raises_by_one(self, offset, trials):
        # the same steps on f + 2^40: their curvature, about 1, lies within
        # SECANT_GUARD * 2^41 (about 2.2), so it is taken as rounding and the
        # search doubles 1 -> 2 -> 4 -> 8 instead of jumping to 8 at once
        prob = curved_problem(12.0, offset)
        state = make_state(prob, np.zeros(2), 0.9, Lf0=1.0, Lg0=1.0)
        res = inner_loop_step(state, prob, SolverConfig())
        assert (res.i, res.j + 1) == (trials - 1, trials)
        assert (res.Lf, res.Lg) == (8.0, 8.0)

    def test_secant_past_float_exponents_gives_finite_weights(self):
        # a tiny slope keeps f finite at a secant of 2e300, above 2^1024
        # times the warm start 1e-8: the weights jump to that grid point in
        # one trial and stay finite, and a warm start 1e16 times larger for
        # Lg overflows, which ends the search as a NumericError
        prob = curved_problem(2e300, slope=1e-150)
        state = make_state(prob, np.zeros(2), 0.9, Lf0=1e-8, Lg0=1e-8)
        res = inner_loop_step(state, prob, SolverConfig())
        assert (res.i, res.j) == (1, 1)
        assert res.Lf == res.Lg == math.ldexp(1e-8, 1024)
        state = state._replace(Lg0=1e8)
        with pytest.raises(NumericError, match="^linesearch weight overflowed$"):
            inner_loop_step(state, prob, SolverConfig())

    @pytest.mark.parametrize("max_inner_j", [0, 1, 2, 40])
    def test_counts_stay_trial_counts(self, max_inner_j):
        # i_k descent failures of j_k + 1 trials, under the cap; one l1 prox
        # per trial, so the report's trials equal the prox calls, capped
        # step included
        prob = nsdp_problem(generate_nsdp(6, 4, 5))
        calls = []
        prox = prob.p1.prox

        def counting(*args):
            calls.append(1)
            return prox(*args)

        prob.p1.prox = counting
        report = run(prob, SolverConfig(eps=1e-6, max_inner_j=max_inner_j), np.zeros(6))
        assert all(0 <= row.i_k <= row.j_k <= max_inner_j for row in report.trace)
        assert len(calls) == report.trials
        i, j = report.capped
        if report.status is SolveStatus.INNER_CAP_EXCEEDED:
            assert i <= j == max_inner_j + 1
        else:
            assert report.status is SolveStatus.CONVERGED
            assert (i, j) == (0, 0)
            # some trials were infeasible, so the Lg jump ran
            assert any(row.j_k > row.i_k for row in report.trace)

    def test_descent_failure_with_no_trial_to_spare_caps(self):
        # weights pinned at 1e-3 overshoot the minimizer at the first trial
        prob = box_problem(c=[0.5, 0.5], b=[10.0, 10.0])
        cfg = SolverConfig(max_inner_j=0, L_min=1e-3, L_max=1e-3)
        report = run(prob, cfg, np.zeros(2))
        assert report.status is SolveStatus.INNER_CAP_EXCEEDED
        assert report.capped == (1, 1)
        assert "last g_mu=nan" in report.reason
        assert (report.iterations, report.trials, report.cone_evals) == (0, 1, 1)


def curved_constraint(kappa):
    """min ||x - (5, 0)||^2 / 2 subject to kappa ||x||^2 / 2 + x_1 - 1 <= 0
    on the one-entry orthant, whose smoothed value is G plus a constant: the
    constraint's secant curvature along every trial step is kappa, up to
    rounding."""
    base = box_problem(c=[5.0, 0.0], b=[100.0, 100.0])
    e1 = np.array([1.0, 0.0])
    g = ConstraintMap(value=lambda x: np.array([0.5 * kappa * x.dot(x) + x[0] - 1.0]),
                      adjoint_apply=lambda x, v: v[0] * (kappa * x + e1))
    return dataclasses.replace(base, g=g, cone=cones.NonposOrthant(1))


def fixed_trial(monkeypatch, point):
    """Make every subproblem return ``point`` with a zero multiplier, whatever
    its ball: each trial then sees the same step, feasible or not."""
    monkeypatch.setattr(smba.solver, "solve_ball_prox",
                        lambda p1, x, q, Lf, ball: (np.array(point), 0.0))


def trial_weights(monkeypatch):
    """The list that receives the ``Lg`` of every trial's ball, in order."""
    weights, build = [], smba.solver.build_ball
    monkeypatch.setattr(smba.solver, "build_ball",
                        lambda *args: weights.append(args[4]) or build(*args))
    return weights


class TestConstraintJump:
    def test_trial_on_the_smoothed_boundary_is_feasible(self, monkeypatch):
        # one value with shift 0.5 mu: g_mu(x) = x - 1 + 0.25 at mu = 0.5,
        # exactly 0.0 at the trial 0.75, which meets g_mu <= 0; the next mu
        # is smaller, so the shift makes the point strictly feasible there
        monkeypatch.setattr(cones, "SHIFT", 0.5)
        prob = box_problem(c=[2.0], b=[1.0])
        state = make_state(prob, np.zeros(1), 0.5)
        fixed_trial(monkeypatch, [0.75])
        res = inner_loop_step(state, prob, SolverConfig())
        assert res.gmu == 0.0 and (res.i, res.j) == (0, 0)

    def test_infeasible_trial_lands_on_smallest_grid_point_above_secant(self):
        # the secant mu kappa = 12 lies between 0.7 * 2^4 = 11.2 and
        # 0.7 * 2^5 = 22.4; one infeasible trial lifts Lg to 22.4, where plain
        # doubling takes five and the grid point below the secant fails again
        prob = curved_constraint(24.0)
        state = make_state(prob, np.zeros(2), 0.5, Lf0=1.0, Lg0=0.7)
        res = inner_loop_step(state, prob, SolverConfig())
        assert (res.i, res.j) == (0, 1)
        assert (res.Lf, res.Lg) == (1.0, 0.7 * 32)

    def test_random_secants_accepted_after_one_jump(self, rng):
        # any warm start below the secant mu kappa reaches the smallest grid
        # point above it in one infeasible trial, and that trial is accepted
        for _ in range(40):
            kappa, mu = 10.0 ** rng.uniform(-1, 3), 10.0 ** rng.uniform(-2, 0)
            Lg0 = mu * kappa * 10.0 ** rng.uniform(-6, -0.1)
            prob = curved_constraint(kappa)
            state = make_state(prob, np.zeros(2), mu, Lf0=1.0, Lg0=Lg0)
            res = inner_loop_step(state, prob, SolverConfig())
            assert (res.i, res.j) == (0, 1)
            assert res.Lg / 2 < mu * kappa <= res.Lg
            assert res.Lg == math.ldexp(Lg0, round(math.log2(res.Lg / Lg0)))

    @pytest.mark.parametrize("s, q, t, jumps", [
        (1.0, 1.0, 2.0, True),        # secant 2 mu q = 1.8: Lg0 0.01 -> 2.56 -> 5.12
        (1.0, -0.1, 2.0, False),      # curvature -0.4: not positive
        (1.0, 0.0, 2.0, False),       # curvature 0, up to rounding
        (1e6, 0.025, 2e-6, False),    # 1e-13, within SECANT_GUARD * 2 of rounding,
                                      # though its secant 0.045 is above Lg0
        (1.0, 1.5e308, 1e-4, False),  # secant 2 mu q overflows to inf
    ], ids=["positive", "negative", "zero", "rounding", "overflow"])
    def test_curvature_guard_raises_by_one(self, monkeypatch, s, q, t, jumps):
        # G = s x_1 - 1 + q ||x||^2 with every trial at (t, 0), which is
        # infeasible whatever Lg: curvature q t^2.  Three trials exhaust the
        # cap, and the last one's Lg shows how b rose
        from smba.solver import InnerCapError

        base = box_problem(c=[5.0, 0.0], b=[100.0, 100.0])
        ds = np.array([s, 0.0])
        g = ConstraintMap(value=lambda x: np.array([s * x[0] - 1.0 + q * x.dot(x)]),
                          adjoint_apply=lambda x, v: v[0] * (ds + q * (2.0 * x)))
        prob = dataclasses.replace(base, g=g, cone=cones.NonposOrthant(1))
        state = make_state(prob, np.zeros(2), 0.9, Lf0=1.0, Lg0=0.01)
        fixed_trial(monkeypatch, [t, 0.0])
        weights = trial_weights(monkeypatch)
        with pytest.raises(InnerCapError) as err:
            inner_loop_step(state, prob, SolverConfig(max_inner_j=2))
        assert (err.value.i, err.value.j) == (0, 3)
        assert weights[-1] == (0.01 * 512 if jumps else 0.01 * 4)

    @pytest.mark.parametrize("curv, step2, above, rise", [
        (2.0, 1.0, True, 2), (2.0, 1.0, False, 2), (2.5, 1.0, True, 3), (2.5, 1.0, False, 2),
        (2.0, 0.0, True, 1),
    ], ids=["on-grid-above", "on-grid-below", "between-above", "between-below", "zero-step"])
    def test_secant_rise_to_the_grid(self, curv, step2, above, rise):
        # the secant 2 curv / step2 on the grid 2^e from e = 0: 4 = 2^2 is a
        # grid point, reached from either side; 5 lies between 2^2 and 2^3.
        # A step whose squared length is 0 measures no secant: one rise
        assert _secant_rise(curv, 0.0, step2, 1.0, 1.0, 0, above) == rise

    def test_descent_failure_still_lifts_lg_as_far(self, monkeypatch):
        # a trial that fails descent raises b with a, never by the constraint
        # rule: Lg doubles with Lf while the f secant is below Lf
        from smba.solver import InnerCapError

        prob = curved_problem(1.0)
        state = make_state(prob, np.zeros(2), 0.9, Lf0=2.0, Lg0=0.01)
        fixed_trial(monkeypatch, [0.5, 0.0])  # uphill for f
        weights = trial_weights(monkeypatch)
        with pytest.raises(InnerCapError) as err:
            inner_loop_step(state, prob, SolverConfig(max_inner_j=2))
        assert (err.value.i, err.value.j) == (3, 3)
        assert weights[-1] == 0.01 * 4


class TestRunToyProblems:
    def test_l1_box_problem_soft_threshold_then_clip(self):
        prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0], l1_weight=1.0)
        cfg = SolverConfig(eps=1e-7, max_outer=2000, schedule=power_schedule(0.9))
        report = run(prob, cfg, np.zeros(2))
        assert report.status is SolveStatus.CONVERGED
        assert float(np.linalg.norm(report.x - np.array([1.0, 0.0]))) <= 1e-5

    def test_norm_ball_problem(self):
        # projection of c onto the unit ball: c / ||c||; the quadratic
        # smoothing term makes the slack decay like mu^2, so use the ramped
        # schedule to drive it below eps quickly
        c = np.array([2.0, 2.0])
        prob = norm_ball_problem(c=c, radius=1.0)
        schedule = ScheduleSpec("ramped_log", rbar=0.9, sbar=3.0, ramp_len=1000)
        cfg = SolverConfig(eps=1e-7, max_outer=4000, schedule=schedule)
        report = run(prob, cfg, np.zeros(2))
        assert report.status is SolveStatus.CONVERGED
        assert float(np.linalg.norm(report.x - c / np.linalg.norm(c))) <= 1e-4

    def test_socp_dc_panel_ends_near_closed_form(self, workloads):
        # the benchmark's socp-dc instances at benchmark seeds 0-63: each run
        # ends feasible, not below the closed-form optimum beyond rounding,
        # and at most 1e-6 above it (relative).  All 128 read 4.1e-7 to
        # 4.5e-7; with the larger Lg warm start ||dg||^2 / |dx.dg| five of
        # them stopped after 21-24 steps, up to 1.003e-5 above it
        wl = workloads.WORKLOADS["socp-dc"]
        for seed in range(64):
            for s in wl.instance_seeds:
                c = wl.generate(s)
                if seed:
                    c = wl.transform(c, workloads.transform_rng(seed, s))
                R = workloads.SOCP_RADIUS_SHARE * float(np.linalg.norm(c))
                prob = wl.build(c)
                ref = objective_value(prob, socp_dc_optimum(c, R, workloads.SOCP_P2_WEIGHT))
                report = run(prob, SolverConfig(eps=wl.eps), np.zeros(c.size))
                assert report.status is SolveStatus.CONVERGED
                assert np.linalg.norm(report.x) < R
                gap = (report.objective - ref) / max(1.0, abs(ref))
                assert -1e-12 <= gap <= 1e-6, (seed, s, gap)
                # criterion 10's multiplier check, on the norm cone
                v = report.final_kkt.v
                assert polar_residual(prob.cone, v) <= 1e-10 * (1.0 + float(np.linalg.norm(v)))

    @pytest.mark.parametrize("name, seeds", [("nsdp-large", range(16)), ("nsdp-desk", range(4))],
                             ids=["nsdp-large", "nsdp-desk"])
    def test_nsdp_panels_stay_near_reference(self, workloads, name, seeds):
        # a linesearch that saves trials by stopping early shows here first:
        # every benchmark solve must converge within a third of the
        # benchmark's objective_rtol of its reference.  The worst runs read
        # 2.5e-5 (large, rtol 3e-4) and 5.5e-7 (desk, rtol 1e-5)
        wl = workloads.WORKLOADS[name]
        ref = json.loads((PERFBENCH / "reference.json").read_text())[name]
        bound = ref["objective_rtol"] / 3.0
        for seed in seeds:
            panel, _ = workloads.build_panel(wl, seed)
            for inst in panel:
                report = run(inst.problem, SolverConfig(eps=wl.eps), np.zeros(inst.problem.dim))
                assert report.status is SolveStatus.CONVERGED, (seed, inst.seed)
                psi = ref["objective"][str(inst.seed)]
                dev = abs(report.objective - psi) / max(1.0, abs(psi))
                assert dev <= bound, (seed, inst.seed, dev)

    def test_psd_toy(self, rng):
        prob = psd_toy_problem()
        cfg = SolverConfig(eps=1e-7, max_outer=2000, schedule=power_schedule(0.9))
        report = run(prob, cfg, np.zeros(2))
        assert report.status is SolveStatus.CONVERGED
        np.testing.assert_allclose(report.x, [2.0, 1.0], atol=1e-4)

    def test_dc_split_l1(self):
        # P1 = 0.5 l1 and P2 = 0.2 l1: equivalent to a convex problem with
        # effective weight 0.3, whose solution has no zero coordinate
        import dataclasses

        from smba.problems import L1Concave

        base = box_problem(c=[2.0, -1.0], b=[1.0, 1.0], l1_weight=0.5)
        prob = dataclasses.replace(base, p2=L1Concave(0.2))
        cfg = SolverConfig(eps=1e-7, max_outer=2000, schedule=power_schedule(0.9))
        report = run(prob, cfg, np.zeros(2))
        assert report.status is SolveStatus.CONVERGED
        np.testing.assert_allclose(report.x, [1.0, -0.7], atol=1e-5)

    def test_dc_split_linear(self):
        # linear P2 shifts the quadratic center: argmin is min(c + v, b)
        import dataclasses

        from helpers import LinearConcave

        base = box_problem(c=[0.5, -1.0], b=[1.0, 1.0])
        prob = dataclasses.replace(base, p2=LinearConcave([1.0, 0.5]))
        cfg = SolverConfig(eps=1e-7, max_outer=2000, schedule=power_schedule(0.9))
        report = run(prob, cfg, np.zeros(2))
        assert report.status is SolveStatus.CONVERGED
        np.testing.assert_allclose(report.x, [1.0, -0.5], atol=1e-5)

    def test_infeasible_start_raises(self):
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 1.0])
        with pytest.raises(InfeasibleStartError):
            run(prob, SolverConfig(), np.array([2.0, 0.0]))

    @pytest.mark.parametrize("x0", [
        np.zeros(3), np.zeros(1), np.zeros((2, 1)), np.zeros((1, 2)), 0.0,
        [0.0, math.nan], [math.inf, 0.0], ["a", 0.0], [[0.0], 0.0], object(),
    ], ids=["long", "short", "column", "row", "scalar", "nan", "inf", "text", "ragged", "object"])
    def test_bad_x0_rejected_before_any_oracle(self, x0):
        def refuse(*args):
            raise AssertionError("an oracle ran")

        base = box_problem(c=[0.0, 0.0], b=[1.0, 1.0])
        prob = dataclasses.replace(
            base, f=dataclasses.replace(base.f, value=refuse, gradient=refuse),
            g=dataclasses.replace(base.g, value=refuse, adjoint_apply=refuse))
        with pytest.raises(ValueError, match="x0"):
            run(prob, SolverConfig(), x0)

    def test_supplied_mu0_skips_search(self):
        prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0])
        cfg = SolverConfig(eps=1e-6, max_outer=2000,
                           schedule=power_schedule(0.9).with_mu0(0.45))
        report = run(prob, cfg, np.zeros(2))
        assert report.mu0 == 0.45
        assert report.status is SolveStatus.CONVERGED

    @pytest.mark.parametrize("mu0", [np.float32(0.5), 1, Fraction(1, 2)],
                             ids=["float32", "int", "fraction"])
    def test_supplied_mu0_of_any_real_type(self, mu0):
        # the run reads mu0 as the Python float its schedule holds: a float32
        # mu0 made the first step's arithmetic float32, and an int or a
        # Fraction reached the trace's mu column
        prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0])
        spec = power_schedule(0.5)
        got = run(prob, SolverConfig(schedule=dataclasses.replace(spec, mu0=mu0)), np.zeros(2))
        want = run(prob, SolverConfig(schedule=spec.with_mu0(mu0)), np.zeros(2))
        assert type(got.mu0) is float and got.mu0 == want.mu0
        assert all(type(row.mu) is float for row in got.trace)
        assert [row[:-1] for row in got.trace] == [row[:-1] for row in want.trace]

    @pytest.mark.parametrize("c, b, alpha4, mu0", [
        # smoothing gap log(2) * mu exceeds the margin 0.1 at mu = 1
        ([2.0, -1.0], [0.1, 0.1], 0.0, 1.0),
        # one value, support -1, shift 0.5 mu: exactly 0.0 at mu = 2
        ([2.0], [1.0], 0.5, 2.0),
    ], ids=["above", "zero"])
    def test_supplied_mu0_too_large_rejected(self, monkeypatch, c, b, alpha4, mu0):
        monkeypatch.setattr(cones, "SHIFT", alpha4)
        prob = box_problem(c=c, b=b)
        with pytest.raises(InfeasibleStartError, match="not negative at x0"):
            run(prob, SolverConfig(schedule=power_schedule(0.9).with_mu0(mu0)),
                np.zeros(len(b)))


@pytest.fixture(scope="module")
def toy_report():
    prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0], l1_weight=0.3)
    cfg = SolverConfig(eps=1e-7, max_outer=2000, schedule=power_schedule(0.9))
    return prob, cfg, run(prob, cfg, np.zeros(2))


class TestRunInvariants:

    def test_trace_invariants_on_the_l1_toy(self, toy_report):
        # the trace's own invariants, and the first step's descent from x0
        prob, cfg, report = toy_report
        trace_invariants(cfg, report)
        psi0 = objective_value(prob, np.zeros(2))
        assert report.trace[0].psi <= psi0 + 1e-10 * (1 + abs(psi0))

    @pytest.mark.parametrize("make", [lambda: psd_toy_problem(),
                                      lambda: norm_ball_problem([2.0, 2.0], 1.0)],
                             ids=["neg_semidef", "p_cone"])
    def test_trace_invariants_on_the_other_cone_families(self, make):
        # the same invariants, on a converged run over each other cone
        prob = make()
        cfg = SolverConfig(eps=1e-7, max_outer=2000, schedule=power_schedule(0.9))
        report = run(prob, cfg, np.zeros(2))
        assert report.status is SolveStatus.CONVERGED
        trace_invariants(cfg, report)

    def test_feasibility_chain_next_mu(self):
        # accepted points stay strictly feasible after the mu update: replay
        # a few outer steps by hand
        from smba.schedules import mu_at

        prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0], l1_weight=0.3)
        schedule = power_schedule(0.9).with_mu0(initial_mu(prob, np.zeros(2)))
        x = np.zeros(2)
        for k in range(10):
            mu = mu_at(schedule, k)
            state = make_state(prob, x, mu)
            res = inner_loop_step(state, prob, SolverConfig())
            assert res.gmu <= 0.0
            mu_next = mu_at(schedule, k + 1)
            assert composite_value(prob, res.x, mu_next) < 0.0
            x = res.x


def stalling_norm_ball():
    """A norm-ball problem with a concave l1 part whose step test passes long
    before the slack test at a nearly constant mu."""
    c = np.random.default_rng(2).normal(size=5)
    prob = norm_ball_problem(c, 0.5 * float(np.linalg.norm(c)))
    return dataclasses.replace(prob, p2=L1Concave(0.1))


def stall_rows(report, eps):
    return [row.k for row in report.trace if row.term_step <= eps < row.term_slack]


# the objective of desk instance 15 (generate_nsdp(20, 10, 15)) from an
# eps = 1e-10 solve under the default schedule, 3,876 steps
DESK_15_OPTIMUM = -7.769861494633741


class TestScheduleAdvance:
    @pytest.mark.parametrize("schedule", [
        ramped_log_schedule(0.9, 3.0), blockwise_schedule(0.9), power_schedule(0.9),
        power_schedule(0.5),
    ], ids=["ramped_log", "blockwise", "power-0.9", "power-0.5"])
    def test_stall_advances_the_schedule(self, schedule):
        cfg = SolverConfig(eps=1e-5, schedule=schedule)
        report = run(stalling_norm_ball(), cfg, np.zeros(5))
        assert report.status is SolveStatus.CONVERGED
        stalls = stall_rows(report, cfg.eps)
        assert stalls and report.advances == len(stalls)
        # before the first stall the schedule index is the step count
        k = stalls[0]
        spec = schedule.with_mu0(report.mu0)
        assert all(row.mu == mu_at(spec, row.k) for row in report.trace[:k + 1])
        if schedule.variant == "power":
            # the first index where mu has halved
            jump = math.ceil((k + 1) * 2.0 ** (1.0 / schedule.r)) - 1
            assert mu_at(spec, jump) / mu_at(spec, k) <= 0.5 + 1e-15
            assert mu_at(spec, jump - 1) / mu_at(spec, k) > 0.5
        else:  # the start of the next block
            block = schedule.n0 + 1
            jump = (k // block + 1) * block
        assert report.trace[k + 1].mu == mu_at(spec, jump)
        mus = [row.mu for row in report.trace]
        assert all(b < a for a, b in zip(mus, mus[1:]))

    def test_power_stall_stops_desk_instance_15(self):
        # under power(0.5) this seed-0 desk instance ran to max_outer (5,000
        # steps) at eps = 1e-5, with term_slack stuck at 1.07e-5: the slack
        # falls only with mu.  Measured gaps to the optimum: 7.6e-6 and 3.0e-8
        # The step counts move with rounding: 161-208 steps at 1e-5 and
        # 755-981 at 1e-7 under four OpenBLAS cores, before and after the
        # warm starts read one smoothed function; the advances do not
        prob = nsdp_problem(generate_nsdp(20, 10, 15))
        for eps, steps, advances in ((1e-5, 250, 3), (1e-7, 1200, 9)):
            cfg = SolverConfig(eps=eps, schedule=power_schedule(0.5))
            report = run(prob, cfg, np.zeros(20))
            assert report.status is SolveStatus.CONVERGED
            assert report.advances == advances and report.iterations <= steps
            assert abs(report.objective - DESK_15_OPTIMUM) <= eps * abs(DESK_15_OPTIMUM)

    def test_power_halving_index_past_float_range_not_taken(self):
        # 2^(1/r) overflows below r = 1/1024, and (s + 1) 2^(1/r) can; the
        # index then moves by one, and a run meeting the stall test ends
        # with a report
        assert stall_index(power_schedule(0.0009), 5) == 6
        spec = power_schedule(0.001)
        far = stall_index(spec, 0)
        assert far == math.ceil(2.0 ** 1000.0) - 1
        assert stall_index(spec, far) == far + 1
        cfg = SolverConfig(eps=1e-5, max_outer=300, schedule=power_schedule(0.0009))
        report = run(stalling_norm_ball(), cfg, np.zeros(5))
        assert stall_rows(report, cfg.eps) and report.advances == len(stall_rows(report, cfg.eps))
        assert report.status is SolveStatus.MAX_OUTER

    def test_schedule_at_the_floor_runs_one_more_step(self):
        # from this mu0, power(0.5) reaches MU_FLOOR itself, to the bit, at
        # index 1; the kernel accepts the floor, so step 1 runs there and
        # step 0's certificate is taken there, with no second smoothing
        # gradient; the run stops when index 2 falls below the floor
        mu0 = 1.414213562373095e-12
        spec = power_schedule(0.5).with_mu0(mu0)
        assert mu_at(spec, 1) == MU_FLOOR
        base, adjoints = box_problem(c=[2.0, -1.0], b=[1.0, 1.0]), []
        prob = dataclasses.replace(base, g=dataclasses.replace(
            base.g, adjoint_apply=lambda x, v: adjoints.append(1) or base.g.adjoint_apply(x, v)))
        report = run(prob, SolverConfig(eps=1e-12, schedule=spec), np.zeros(2))
        assert report.status is SolveStatus.MU_FLOOR
        assert [row.mu for row in report.trace] == [mu0, MU_FLOOR]
        assert len(adjoints) == 1 + report.iterations

    def test_certificate_reads_the_next_schedule_value(self):
        # rho and term_slack of row k come from the multiplier lam_k grad
        # h_mu'(G(x_{k+1})) at the mu' of row k + 1 (for the last row, the
        # next schedule index), the smoothing gradient the next step uses
        prob = nsdp_problem(generate_nsdp(20, 10, 1))
        cfg = SolverConfig(eps=1e-5, schedule=power_schedule(0.5))
        xs = []

        def gradient(x):
            xs.append(np.array(x, copy=True))
            return prob.f.gradient(x)

        traced = dataclasses.replace(prob, f=dataclasses.replace(prob.f, gradient=gradient))
        report = run(traced, cfg, np.zeros(20))
        assert report.status is SolveStatus.CONVERGED and report.advances == 0
        assert len(xs) == report.iterations + 1
        spec = cfg.schedule.with_mu0(report.mu0)
        mus = [row.mu for row in report.trace[1:]] + [mu_at(spec, report.iterations)]
        assert all(row.lam > 0.0 for row in report.trace)
        for row, x_prev, x_next, mu in zip(report.trace, xs, xs[1:], mus):
            y = prob.g.value(x_next)
            grad_h = prob.cone.prepare(y).smoothed(mu)[1]
            v = row.lam * grad_h
            u = (prob.f.gradient(x_next) - prob.p2.subgradient(x_prev)
                 + row.lam * prob.g.adjoint_apply(x_next, grad_h))
            scale = max(1.0, math.sqrt(x_next.dot(x_next)))
            assert row.rho == prob.p1.subdiff_distance(x_next, u), row.k
            assert row.term_slack == -float(np.vdot(v, y)) / scale, row.k


class TestTinyBall:
    def test_ball_radius_below_phi_tol_converges(self):
        # mu0 = 1e-9 and eps = 1e-9 drive the ball radius to about 1e-12 near
        # step 169, below the ball prox's starting margin.  It converges in
        # 190-194 steps under four OpenBLAS cores, with no stall advance
        cfg = SolverConfig(eps=1e-9, schedule=ramped_log_schedule(0.9, 3.0).with_mu0(1e-9))
        report = run(stalling_norm_ball(), cfg, np.zeros(5))
        assert report.status is SolveStatus.CONVERGED, report.reason
        assert report.advances == 0 and report.iterations <= 220


def psd_toy_problem():
    # diagonal constraint matrices reduce to a box: G(x) = diag(x - 2)
    A = np.zeros((3, 2, 2))
    A[0] = 2.0 * np.eye(2)
    A[1] = np.diag([-1.0, 0.0])
    A[2] = np.diag([0.0, -1.0])
    return psd_affine_problem(c=[3.0, 1.0], A=A)


def asymmetric(y):
    return y + np.array([[0.0, 1e-3], [0.0, 0.0]])


def with_fault(prob, oracle, start, fault):
    """``prob`` whose ``oracle`` ("g.value", "f.gradient", "p2.subgradient",
    ...) passes its output through ``fault`` from its ``start``-th call on."""
    part, method = oracle.split(".")
    owner = getattr(prob, part)
    fn = getattr(owner, method)
    calls = []

    def faulty(*args):
        calls.append(1)
        out = fn(*args)
        return fault(out) if len(calls) >= start else out

    if dataclasses.is_dataclass(owner):
        owner = dataclasses.replace(owner, **{method: faulty})
    else:  # a regularizer: a copy whose method is shadowed
        owner = copy.copy(owner)
        setattr(owner, method, faulty)
    return dataclasses.replace(prob, **{part: owner})


class LyingPoint:
    """The cone point ``point``, except that it reports the support value
    ``support`` or the smoothed value ``gmu`` where one is given; its
    ``value(mu)`` and its smoothing gradient are the true ones."""

    def __init__(self, point, support=None, gmu=None):
        self.point, self.gmu = point, gmu
        self.support = point.support if support is None else support

    def value(self, mu):
        return self.point.value(mu)

    def smoothed(self, mu):
        value, grad = self.point.smoothed(mu)
        return value if self.gmu is None else self.gmu, grad


def with_lying_points(prob, **lies):
    """``prob`` whose cone returns the true point of ``G(x0)`` and, for every
    later argument, a ``LyingPoint`` with ``lies``."""
    cone, calls = copy.copy(prob.cone), []
    prepare = cone.prepare

    def lying(y):
        calls.append(1)
        return prepare(y) if len(calls) == 1 else LyingPoint(prepare(y), **lies)

    cone.prepare = lying
    return dataclasses.replace(prob, cone=cone)


# eps is out of reach, so only a fault ends a run before max_outer
FAULT_CFG = SolverConfig(eps=1e-16, max_outer=60, schedule=power_schedule(0.9))


class TestRunFailureModes:
    def test_inner_cap_exceeded_status(self):
        prob = box_problem(c=[5.0, 0.0], b=[1.0, 1.0])
        cfg = SolverConfig(max_inner_j=0, L_min=1e-8, L_max=1e-8,
                           schedule=power_schedule(0.9))
        report = run(prob, cfg, np.zeros(2))
        assert report.status is SolveStatus.INNER_CAP_EXCEEDED
        assert report.reason
        # the step that ran out of doublings has no row, but its one trial counts
        assert report.iterations == 0
        assert report.trials == report.to_dict()["trials"] == 1
        assert report.cone_evals == 1 + 1 - report.capped[0]

    def test_divergence_guard(self):
        # descent direction unbounded below: start just inside the norm guard
        # so a few ball-sized steps push the iterate across it
        prob = box_problem(c=[-1e9, 0.0], b=[1.0, 1.0])
        cfg = SolverConfig(eps=1e-12, max_outer=200, schedule=power_schedule(0.33))
        report = run(prob, cfg, np.array([-1e8 + 5.0, 0.0]))
        assert report.status is SolveStatus.NUMERIC_FAILURE
        assert "diverged" in report.reason
        assert report.iterations == len(report.trace) > 0
        assert report.objective == report.trace[-1].psi

    def test_large_center_is_not_divergence(self):
        # iterates of norm 5e7, below DIVERGENCE_NORM, converge
        c = np.array([3e7, 4e7])
        report = run(box_problem(c=c, b=c + 1.0), SolverConfig(), c - 0.5)
        assert report.status is SolveStatus.CONVERGED
        assert np.linalg.norm(report.x) == pytest.approx(5e7)

    def test_nonfinite_gradient_becomes_status(self):
        base = box_problem(c=[2.0, -1.0], b=[1.0, 1.0])
        calls = []

        def gradient(x):
            calls.append(1)
            return np.array([np.nan, 0.0]) if len(calls) >= 6 else base.f.gradient(x)

        prob = dataclasses.replace(base, f=dataclasses.replace(base.f, gradient=gradient))
        cfg = SolverConfig(eps=1e-7, max_outer=2000, schedule=power_schedule(0.9))
        report = run(prob, cfg, np.zeros(2))
        assert report.status is SolveStatus.NUMERIC_FAILURE
        assert "f gradient" in report.reason
        assert report.iterations == len(report.trace) > 0
        # the bad gradient never reaches the certificate
        assert all(math.isfinite(row.rho) for row in report.trace)
        assert math.isfinite(report.final_kkt.rho)

    def test_schedule_floor_becomes_status(self):
        # mu0 = 2e-12 with r = 0.9 falls below the kernel's 1e-12 floor at
        # k = 2; the run stops there, and the kernel, which rejects such a
        # mu, never sees it
        prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0])
        cfg = SolverConfig(eps=1e-16, max_outer=3000, schedule=power_schedule(0.9).with_mu0(2e-12))
        report = run(prob, cfg, np.zeros(2))
        assert report.status is SolveStatus.MU_FLOOR
        assert "at step 2 (schedule index 2)" in report.reason
        assert report.iterations == len(report.trace) > 0
        assert all(row.mu >= MU_FLOOR for row in report.trace)
        assert report.objective == report.trace[-1].psi

    def test_initial_search_floor_becomes_status(self):
        # a margin of 1e-14 needs a starting mu far below the 1e-12 floor
        prob = box_problem(c=[0.0, 0.0], b=[1e-14, 1e-14])
        report = run(prob, SolverConfig(), np.zeros(2))
        assert report.status is SolveStatus.NUMERIC_FAILURE
        assert "floor" in report.reason
        assert report.iterations == len(report.trace) == 0
        assert math.isnan(report.mu0) and report.final_kkt is None
        np.testing.assert_array_equal(report.x, np.zeros(2))
        doc = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert doc["mu0"] is None
        assert (doc["trials"], doc["cone_evals"]) == (0, 1)

    def test_max_outer_reached(self):
        prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0])
        cfg = SolverConfig(eps=1e-16, max_outer=5, schedule=power_schedule(0.9))
        report = run(prob, cfg, np.zeros(2))
        assert report.status is SolveStatus.MAX_OUTER
        assert report.iterations == 5

    def test_no_state_after_the_last_row(self):
        # a run capped at 7 steps asks for the P2 subgradient 7 times: at x0
        # and at each accepted point but the last; a fault from the 8th call
        # on is never seen
        prob = with_fault(box_problem(c=[2.0, -1.0], b=[1.0, 1.0]), "p2.subgradient", 8,
                          lambda out: np.full(np.shape(out), np.nan))
        report = run(prob, dataclasses.replace(FAULT_CFG, max_outer=7), np.zeros(2))
        assert (report.status, report.iterations) == (SolveStatus.MAX_OUTER, 7), report.reason

    @pytest.mark.parametrize("shape", [
        lambda out: out[:1], lambda out: out[:, None], lambda out: np.append(out, 0.0),
        lambda out: out.tolist(),
    ], ids=["short", "column", "long", "list"])
    @pytest.mark.parametrize("oracle, name", [
        ("f.gradient", "f gradient"), ("g.adjoint_apply", "constraint adjoint"),
        ("p2.subgradient", "P2 subgradient"),
    ])
    def test_misshapen_vector_output_becomes_status(self, oracle, name, shape):
        # from the first call (x0), the second (the first step's certificate
        # for the adjoint) or the fifth on, a wrong shape ends the run named
        # where it is made, before it broadcasts or raises
        for start in (1, 2, 5):
            prob = with_fault(box_problem(c=[2.0, -1.0], b=[1.0, 1.0]), oracle, start, shape)
            report = run(prob, FAULT_CFG, np.zeros(2))
            assert report.status is SolveStatus.NUMERIC_FAILURE
            assert report.reason.startswith(f"{name} has shape "), report.reason
            assert all(math.isfinite(row.rho) for row in report.trace)
            json.dumps(report.to_dict(), allow_nan=False)

    @pytest.mark.parametrize("oracle, name, fault", [
        ("f.value", "f value", lambda value: np.full(1, value)),
        ("f.value", "f value", lambda value: np.full(2, value)),
        ("p2.value", "P2 value", lambda value: np.full(1, value)),
        ("p2.value", "P2 value", lambda value: None),
    ], ids=["f-one", "f-two", "p2-one", "p2-none"])
    def test_nonscalar_objective_part_becomes_status(self, oracle, name, fault):
        # from the first call (x0) or the fourth on (a linesearch trial), an
        # f or P2 value that is not a real scalar ends the run named
        for start, where in ((1, "x0"), (4, "a trial point")):
            prob = with_fault(box_problem(c=[2.0, -1.0], b=[1.0, 1.0]), oracle, start, fault)
            report = run(prob, FAULT_CFG, np.zeros(2))
            assert report.status is SolveStatus.NUMERIC_FAILURE
            assert report.reason.startswith(f"{name} is not a real scalar at {where}: ")
            assert (report.iterations > 0) == (start > 1)
            json.dumps(report.to_dict(), allow_nan=False)

    @pytest.mark.parametrize("oracle, name", [("f.value", "f value"), ("p2.value", "P2 value")])
    @pytest.mark.parametrize("fault", [
        lambda value: np.complex128(value + 5j), lambda value: np.array(value + 5j),
        lambda value: np.bool_(value < 1.0), lambda value: value < 1.0, repr,
        lambda value: repr(value).encode(), lambda value: np.str_(value),
    ], ids=["complex", "complex-0d", "numpy-bool", "bool", "str", "bytes", "numpy-str"])
    def test_complex_or_bool_objective_part_becomes_status(self, oracle, name, fault):
        # a numpy complex f or P2 value was read as its real part, with a
        # ComplexWarning, a bool as 0 or 1, and text parsed by float(), and
        # the box run reported converged; from x0 or a linesearch trial, each
        # now ends named, with no warning
        for start, where in ((1, "x0"), (4, "a trial point")):
            prob = with_fault(box_problem(c=[2.0, -1.0], b=[1.0, 1.0]), oracle, start, fault)
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                report = run(prob, SolverConfig(schedule=power_schedule(0.9)), np.zeros(2))
            assert [str(w.message) for w in seen] == []
            assert report.status is SolveStatus.NUMERIC_FAILURE
            assert report.reason.startswith(f"{name} is not a real scalar at {where}: ")
            assert (report.iterations > 0) == (start > 1)

    def test_real_objective_parts_pass_and_floats_skip_the_check(self, monkeypatch):
        # a numpy float, a 0-d float array or a Python int still passes as
        # the same float; a plain Python float, what every built-in oracle
        # returns, does not reach _scalar at all
        prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0])
        cfg = SolverConfig(schedule=power_schedule(0.9))
        plain = run(prob, cfg, np.zeros(2))
        assert plain.status is SolveStatus.CONVERGED
        for oracle, fault in (("f.value", np.float64), ("f.value", np.array),
                              ("p2.value", np.float64), ("p2.value", int)):
            report = run(with_fault(prob, oracle, 1, fault), cfg, np.zeros(2))
            assert [row[:-1] for row in report.trace] == [row[:-1] for row in plain.trace]

        def refuse(*args):
            raise AssertionError("a Python float reached _scalar")

        monkeypatch.setattr(smba.solver, "_scalar", refuse)
        for prob in (prob, socp_dc_shaped(), nsdp_problem(generate_nsdp(6, 4, 1))):
            assert run(prob, SolverConfig(eps=1e-5), np.zeros(prob.dim)).status is \
                SolveStatus.CONVERGED

    @pytest.mark.parametrize("prob, oracle, steps", [
        (box_problem(c=[2.0, -1.0], b=[1.0, 1.0]), "f.gradient", 2),
        (norm_ball_problem([1.0, 2.0], 1.0), "f.gradient", 2),
        (nsdp_problem(generate_nsdp(8, 4, 1)), "f.gradient", 0),
        (nsdp_problem(generate_nsdp(8, 4, 1)), "p2.subgradient", 0),
    ], ids=["box", "norm_ball", "nsdp-f", "nsdp-p2"])
    def test_overflowing_ball_subproblem_named_without_warning(self, prob, oracle, steps):
        # an f gradient or P2 subgradient of all 4e153 has a finite squared
        # norm, so it passes _finite, but the subproblem's distance (P1 = 0)
        # or l1 multiplier overflows.  The box run went on to max_outer, the
        # norm-ball one to the mu floor, printing an overflow warning per
        # step, and the NSDP runs blamed the ball's interior after 80
        # warnings; each now ends where the multiplier overflows
        faulty = with_fault(prob, oracle, 1, lambda out: np.full_like(out, 4e153))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            report = run(faulty, FAULT_CFG, np.zeros(prob.dim))
        assert [str(w.message) for w in seen] == []
        assert report.status is SolveStatus.NUMERIC_FAILURE
        assert report.reason == "ball subproblem terms overflow the float range"
        assert report.iterations == steps
        json.dumps(report.to_dict(), allow_nan=False)

    @pytest.mark.parametrize("prob, fault", [
        (box_problem(c=[2.0, -1.0], b=[1.0, 1.0]), lambda y: np.full_like(y, np.nan)),
        (box_problem(c=[2.0, -1.0], b=[1.0, 1.0]), lambda y: np.full_like(y, np.inf)),
        (psd_toy_problem(), asymmetric),
    ])
    def test_rejected_trial_output_becomes_status(self, prob, fault):
        # G turns bad from its 4th call, a linesearch trial of the third step
        prob = with_fault(prob, "g.value", 4, fault)
        report = run(prob, FAULT_CFG, np.zeros(2))
        assert report.status is SolveStatus.NUMERIC_FAILURE
        assert "constraint map" in report.reason
        assert report.iterations == len(report.trace) > 0

    @pytest.mark.parametrize("start, where", [(1, "x0"), (4, "a trial point")])
    def test_failed_decomposition_becomes_status(self, monkeypatch, start, where):
        # LAPACK fails from the start-th decomposition on, which the eigh
        # gufunc reports as a NaN spectrum and vectors
        real, calls = cones._EIGH_LO, []

        def failing(y, signature):
            calls.append(1)
            vals, vecs = real(y, signature=signature)
            if len(calls) < start:
                return vals, vecs
            return np.full_like(vals, np.nan), np.full_like(vecs, np.nan)

        monkeypatch.setattr(cones, "_EIGH_LO", failing)
        report = run(psd_toy_problem(), FAULT_CFG, np.zeros(2))
        assert report.status is SolveStatus.NUMERIC_FAILURE
        assert report.reason.startswith(
            f"constraint map output rejected at {where}: non-finite spectrum"), report.reason
        assert (report.iterations > 0) == (start > 1)
        json.dumps(report.to_dict(), allow_nan=False)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_objective_becomes_status(self, bad):
        # f turns bad from its 4th call, a linesearch trial of the third step
        prob = with_fault(box_problem(c=[2.0, -1.0], b=[1.0, 1.0]), "f.value", 4,
                          lambda value: bad)
        report = run(prob, FAULT_CFG, np.zeros(2))
        assert report.status is SolveStatus.NUMERIC_FAILURE
        assert report.reason == "objective value is not finite at a trial point"
        assert report.iterations == len(report.trace) > 0
        assert math.isfinite(report.objective)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_objective_at_x0_becomes_status(self, bad):
        # f is bad at its first call only, at x0; without the guard, the
        # first step compares every trial with a non-finite psi
        base = box_problem(c=[2.0, -1.0], b=[1.0, 1.0])
        calls = []

        def value(x):
            calls.append(1)
            return bad if len(calls) == 1 else base.f.value(x)

        prob = dataclasses.replace(base, f=dataclasses.replace(base.f, value=value))
        report = run(prob, FAULT_CFG, np.zeros(2))
        assert report.status is SolveStatus.NUMERIC_FAILURE
        assert report.reason == "objective value is not finite at step 0"
        assert report.iterations == 0 and report.final_kkt is None
        assert math.isfinite(report.mu0)
        json.dumps(report.to_dict(), allow_nan=False)

    def test_smoothed_value_not_negative_at_an_accepted_point_becomes_status(self):
        # a cone point that reports a positive smoothed value where the step
        # state is formed, though value(mu) accepted it as a trial, breaks the
        # chain of strictly feasible states after the first row
        prob = with_lying_points(box_problem(c=[2.0, -1.0], b=[1.0, 1.0]), gmu=1e-3)
        report = run(prob, FAULT_CFG, np.zeros(2))
        assert report.status is SolveStatus.NUMERIC_FAILURE
        assert report.reason == "strict feasibility chain broken"
        assert report.iterations == 1
        json.dumps(report.to_dict(), allow_nan=False)

    def test_positive_support_at_an_accepted_point_becomes_status(self):
        # a cone point whose support value is positive though its smoothed
        # value, which majorizes it, accepted the trial
        prob = with_lying_points(box_problem(c=[2.0, -1.0], b=[1.0, 1.0]), support=1.0)
        report = run(prob, FAULT_CFG, np.zeros(2))
        assert report.status is SolveStatus.NUMERIC_FAILURE
        assert report.reason == "exact feasibility lost"
        assert report.iterations == 0
        json.dumps(report.to_dict(), allow_nan=False)

    @pytest.mark.parametrize("start", [1, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_kkt_residual_becomes_status(self, start, bad):
        # the P1 oracle's subdifferential distance, the certificate's rho,
        # turns bad from its start-th call, at the start-th accepted point
        prob = with_fault(box_problem(c=[2.0, -1.0], b=[1.0, 1.0], l1_weight=0.3),
                          "p1.subdiff_distance", start, lambda rho: bad)
        report = run(prob, FAULT_CFG, np.zeros(2))
        assert report.status is SolveStatus.NUMERIC_FAILURE
        assert report.reason == f"KKT residual is not finite at step {start - 1}"
        assert report.iterations == start - 1
        assert all(math.isfinite(row.rho) for row in report.trace)
        json.dumps(report.to_dict(), allow_nan=False)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("infeasible", [True, False])
    def test_nonfinite_objective_checked_for_feasibility(self, bad, infeasible):
        # a tiny constraint weight makes the first trials infeasible; the
        # objective turns bad only at infeasible or only at feasible trials.
        # An infeasible trial is rejected before its objective counts, so
        # the search accepts the same trial as without the fault; a feasible
        # one ends the search
        base = box_problem(c=[5.0, 0.0], b=[1.0, 1.0])
        state = make_state(base, np.zeros(2), 0.9, Lf0=2.0, Lg0=1e-6)
        clean = inner_loop_step(state, base, SolverConfig())
        assert clean.j > clean.i
        hits = []

        def value(x):
            if (base.cone.prepare(base.g.value(x)).value(state.mu) > 0.0) == infeasible:
                hits.append(1)
                return bad
            return base.f.value(x)

        prob = dataclasses.replace(base, f=dataclasses.replace(base.f, value=value))
        if infeasible:
            res = inner_loop_step(state, prob, SolverConfig())
            assert len(hits) == clean.j - clean.i
            assert (res.i, res.j, res.psi) == (clean.i, clean.j, clean.psi)
            np.testing.assert_array_equal(res.x, clean.x)
        else:
            with pytest.raises(NumericError, match="^objective value is not finite at a trial point$"):
                inner_loop_step(state, prob, SolverConfig())
            assert hits == [1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_objective_at_infeasible_trials_run_continues(self, bad):
        # trials with a positive smoothed constraint at the run's smallest mu
        # are infeasible at every step's mu (the smoothed value grows with
        # mu); a bad objective there leaves the run to its step budget
        base = box_problem(c=[3.0, 3.0], b=[0.01, 2.0])
        clean = run(base, FAULT_CFG, np.zeros(2))
        mu_min, hits = clean.trace[-1].mu, []

        def value(x):
            if base.cone.prepare(base.g.value(x)).value(mu_min) > 0.0:
                hits.append(1)
                return bad
            return base.f.value(x)

        prob = dataclasses.replace(base, f=dataclasses.replace(base.f, value=value))
        report = run(prob, FAULT_CFG, np.zeros(2))
        assert hits
        assert (report.status, report.iterations) == (SolveStatus.MAX_OUTER, FAULT_CFG.max_outer)
        assert all(math.isfinite(row.psi) and row.sigma_B <= 0.0 for row in report.trace)

    def test_rejected_start_output_becomes_status(self):
        # a G(x0) the cone rejects (a NaN, an inf or an asymmetric entry)
        # ends the run as a rejected trial output does, with no rows
        box = box_problem(c=[0.0, 0.0], b=[1.0, 1.0])
        for prob, fault in [
            (box, lambda y: np.array([np.nan, 0.0])),
            (box, lambda y: np.full_like(y, np.inf)),
            (psd_toy_problem(), asymmetric),
            (box, lambda y: object()),
            (box, lambda y: {"y": y}),
        ]:
            report = run(with_fault(prob, "g.value", 1, fault), FAULT_CFG, np.zeros(2))
            assert report.status is SolveStatus.NUMERIC_FAILURE
            assert report.reason.startswith("constraint map output rejected at x0: ")
            assert report.iterations == len(report.trace) == 0
            assert report.final_kkt is None
            json.dumps(report.to_dict(), allow_nan=False)

    @pytest.mark.parametrize("kind", [complex, object])
    @pytest.mark.parametrize("oracle, name", [
        ("f.gradient", "f gradient"), ("g.adjoint_apply", "constraint adjoint"),
        ("p2.subgradient", "P2 subgradient"),
    ])
    def test_nonreal_vector_output_becomes_status(self, oracle, name, kind):
        # a complex or object vector of the right shape escaped run as a
        # TypeError; from the first call (x0), the second (the first step's
        # certificate for the adjoint) or the fifth on, the first such output
        # ends the run, named where it is made
        for start in (1, 2, 5):
            seen = []

            def fault(out):
                seen.append(1)
                return out.astype(kind)

            prob = with_fault(nsdp_problem(generate_nsdp(8, 4, 1)), oracle, start, fault)
            report = run(prob, FAULT_CFG, np.zeros(8))
            assert report.status is SolveStatus.NUMERIC_FAILURE
            assert report.reason.startswith(f"{name} has dtype {np.dtype(kind)} at "), report.reason
            assert len(seen) == 1
            assert all(math.isfinite(row.rho) for row in report.trace)
            json.dumps(report.to_dict(), allow_nan=False)

    @pytest.mark.parametrize("start, where", [(1, "x0"), (4, "a trial point")])
    def test_complex_constraint_map_output_becomes_status(self, start, where):
        # G(x) + 5j was read as its real part, and the run reported converged
        prob = with_fault(nsdp_problem(generate_nsdp(8, 4, 1)), "g.value", start,
                          lambda y: y + 5j)
        report = run(prob, SolverConfig(eps=1e-6), np.zeros(8))
        assert report.status is SolveStatus.NUMERIC_FAILURE
        assert report.reason.startswith(
            f"constraint map output rejected at {where}: cone argument is not an array of "
            "numbers: dtype complex128"), report.reason
        assert (report.iterations > 0) == (start > 1)

    @pytest.mark.parametrize("start, steps", [(1, 1), (3, 2)])
    def test_overflowing_subproblem_terms_become_status(self, start, steps):
        # an adjoint output of all 4e153 has a finite squared norm, so it
        # passes _finite, but it overflows the l1 multiplier's sums of
        # squares: at the start sums, or (start 3) later, to a NaN root that
        # escaped run as a TypeError
        prob = with_fault(nsdp_problem(generate_nsdp(8, 4, 1)), "g.adjoint_apply", start,
                          lambda out: np.full_like(out, 4e153))
        with np.errstate(over="ignore", invalid="ignore"):
            report = run(prob, SolverConfig(eps=1e-6), np.zeros(8))
        assert report.status is SolveStatus.NUMERIC_FAILURE
        assert report.reason == "l1 subproblem terms overflow the float range"
        assert report.iterations == steps

    @pytest.mark.parametrize("huge", [1e308, 1e154])
    @pytest.mark.parametrize("oracle, name", [
        ("f.gradient", "f gradient"), ("g.adjoint_apply", "constraint adjoint"),
        ("p2.subgradient", "P2 subgradient"),
    ])
    @pytest.mark.parametrize("prob", [
        box_problem(c=[2.0, -1.0], b=[1.0, 1.0]), norm_ball_problem([1.0, 2.0], 1.0),
        nsdp_problem(generate_nsdp(8, 4, 1)),
    ], ids=["box", "norm_ball", "nsdp"])
    def test_huge_vector_output_named_without_warning(self, prob, oracle, name, huge):
        # finite entries whose squared norm overflows ended the run blaming
        # the ball subproblem, the linesearch cap or the l1 sums, after numpy
        # printed overflow warnings; now the oracle is named where its
        # output is made, at x0 (start 1) or after a recorded step
        for start in (1, 3):
            faulty = with_fault(prob, oracle, start, lambda out: np.full_like(out, huge))
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                report = run(faulty, FAULT_CFG, np.zeros(prob.dim))
            assert [str(w.message) for w in seen] == []
            assert report.status is SolveStatus.NUMERIC_FAILURE
            assert report.reason.startswith(
                f"{name} is too large (its squared norm overflows) at step "), report.reason
            assert (report.iterations > 0) == (start > 1)
            json.dumps(report.to_dict(), allow_nan=False)

    def test_raising_oracle_propagates(self):
        def fault(y):
            raise KeyError("oracle failure")

        prob = with_fault(box_problem(c=[2.0, -1.0], b=[1.0, 1.0]), "g.value", 4, fault)
        with pytest.raises(KeyError, match="oracle failure"):
            run(prob, FAULT_CFG, np.zeros(2))

    @given(st.sampled_from(["g.value", "g.adjoint_apply", "f.value", "f.gradient",
                            "p2.subgradient", "asymmetric G"]),
           st.integers(2, 30), st.sampled_from([math.nan, math.inf, -math.inf]))
    @settings(max_examples=120, deadline=None)
    def test_persistent_fault_always_reports(self, oracle, start, bad):
        # a fault from the start-th call on, in any oracle, ends the run with
        # a report whose recorded rows are all feasible and certified
        if oracle == "asymmetric G":
            prob = with_fault(psd_toy_problem(), "g.value", start, asymmetric)
        else:
            prob = with_fault(box_problem(c=[2.0, -1.0], b=[1.0, 1.0]), oracle, start,
                              lambda out: np.full(np.shape(out), bad)[()])
        report = run(prob, FAULT_CFG, np.zeros(2))
        assert report.status is not SolveStatus.CONVERGED
        assert report.reason
        # the guard where the bad output is made names it
        named = {"f.value": "objective", "f.gradient": "f gradient",
                 "p2.subgradient": "P2 subgradient"}
        if oracle in named:
            assert named[oracle] in report.reason
        assert report.iterations == len(report.trace)
        assert all(row.sigma_B <= 0.0 and math.isfinite(row.rho) for row in report.trace)
        # the report describes the last recorded row, and its JSON is strict
        if report.trace:
            last = report.trace[-1]
            assert report.objective == last.psi
            assert report.final_kkt.rho == last.rho
            assert (report.term_step, report.term_slack) == (last.term_step, last.term_slack)
        else:
            assert report.final_kkt is None
        json.dumps(report.to_dict(), allow_nan=False)


def checked_balls(monkeypatch):
    """Make ``run`` build its balls through a wrapper that asserts a positive
    radius, inf included: the guarantee ``build_ball`` states and does not
    check.  Returns the list the wrapper appends each radius to."""
    radii, build = [], smba.solver.build_ball

    def checked(*args):
        ball = build(*args)
        assert ball.radius > 0.0, args
        radii.append(ball.radius)
        return ball

    monkeypatch.setattr(smba.solver, "build_ball", checked)
    return radii


def first_output(value):
    """A ``with_fault`` fault that replaces only the first output it sees."""
    seen = []

    def fault(out):
        seen.append(1)
        return value(out) if len(seen) == 1 else out

    return fault


class TestBallRadius:
    @pytest.mark.parametrize("name", ["nsdp-desk", "nsdp-large", "socp-dc"])
    def test_workload_panels_at_seed_0(self, monkeypatch, workloads, name):
        radii = checked_balls(monkeypatch)
        wl = workloads.WORKLOADS[name]
        panel, _ = workloads.build_panel(wl, 0)
        trials = 0
        for inst in panel:
            report = run(inst.problem, SolverConfig(eps=wl.eps), np.zeros(inst.problem.dim))
            assert report.status is SolveStatus.CONVERGED
            trials += report.trials
        assert len(radii) == trials  # one ball per linesearch trial

    @pytest.mark.parametrize("oracle, value, lifted", [
        ("f.value", lambda out: 1e300, "Lf"),
        ("g.value", lambda out: np.full_like(out, 1e300), "Lg"),
    ], ids=["f", "G"])
    def test_one_corrupted_trial_value(self, monkeypatch, oracle, value, lifted):
        # one value of 1e300 at the first trial (the oracle's 2nd call):
        # the secant jump lifts the weight to about 1e300, and the next ball
        # is about 1e-150 wide, still positive
        radii = checked_balls(monkeypatch)
        prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0], l1_weight=0.3)
        report = run(with_fault(prob, oracle, 2, first_output(value)), SolverConfig(),
                     np.zeros(2))
        assert getattr(report.trace[0], lifted) > 1e300
        assert len(radii) == report.trials and min(radii) < 1e-150


class TestFiniteGuard:
    @pytest.mark.parametrize("entries", [[1e308, 1e308], [1e200, -1e200]])
    def test_accepts_finite_entries_whose_sums_overflow(self, entries):
        # the entries are read as finite, past the overflowing sums: the
        # vector is named too large for the step's sums, not non-finite
        with pytest.raises(NumericError, match=r"^f gradient is too large \(its squared norm "
                                               r"overflows\) at step 3$"):
            smba.solver._finite("f gradient", np.array(entries), 3, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_any_nonfinite_entry(self, bad):
        with pytest.raises(NumericError, match="^f gradient is not finite at step 3$"):
            smba.solver._finite("f gradient", np.array([1.0, bad, 1e308]), 3, 3)

    @pytest.mark.parametrize("entries", [[1e308, 1e308], [1e200, -1e200], [1e154, 1e154]])
    def test_rejects_a_vector_whose_squared_norm_overflows(self, entries):
        with pytest.raises(NumericError, match=r"^f gradient is too large \(its squared norm "
                                               r"overflows\) at step 3$"):
            smba.solver._finite("f gradient", np.array(entries), 3, 2)
        v = np.array([1e153, -1e153])  # 2e306
        assert smba.solver._finite("f gradient", v, 3, 2) is v

    # per input of helpers.GUARD_INPUTS: accepted and returned as it is,
    # or the NumericError message
    GUARD_VERDICTS = {
        "float64": None,
        "float32": None,
        "float32-inf": "f gradient is not finite at step 3",
        "int": None,
        "bool": "f gradient has dtype bool at step 3, expected real numbers",
        "complex": "f gradient has dtype complex128 at step 3, expected real numbers",
        "object": "f gradient has dtype object at step 3, expected real numbers",
        "big-endian": None,
        "big-endian-nan": "f gradient is not finite at step 3",
        "subclass": None,
        "subclass-nan": "f gradient is not finite at step 3",
        "shape-2": "f gradient has shape (2,) at step 3, expected (3,)",
        "shape-3x1": "f gradient has shape (3, 1) at step 3, expected (3,)",
        "nan": "f gradient is not finite at step 3",
        "inf": "f gradient is not finite at step 3",
        "squares-overflow": "f gradient is too large (its squared norm overflows) at step 3",
    }

    @pytest.mark.parametrize("case", GUARD_VERDICTS)
    def test_one_test_acceptance_lets_nothing_new_through(self, case):
        # only an exact float64 ndarray of shape (n,) with a finite squared
        # norm skips the general path; every other input gets its verdict
        v, message = GUARD_INPUTS[case](), self.GUARD_VERDICTS[case]
        if message is None:
            assert smba.solver._finite("f gradient", v, 3, 3) is v
        else:
            with pytest.raises(NumericError, match="^" + re.escape(message) + "$"):
                smba.solver._finite("f gradient", v, 3, 3)


class TestCallCounts:
    def test_each_point_evaluated_once(self, monkeypatch):
        # one G call and one eigendecomposition per linesearch trial that
        # passes the descent test, plus the start point; one f value per
        # trial and one f gradient per accepted step, plus the start point;
        # one adjoint apply at the start point and one per accepted step,
        # shared by its certificate and the next step's smoothing gradient,
        # plus one per stall advance that another step follows; one exp
        # pass per (point, mu) asked about; one l1 prox per ball subproblem,
        # one per trial (most of this instance's subproblems start outside
        # the ball)
        base = nsdp_problem(generate_nsdp(6, 4, 5))
        counts = {"G": 0, "G_adj": 0, "eigh": 0, "f": 0, "grad_f": 0, "exp": 0, "prox": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        prob = dataclasses.replace(
            base,
            g=dataclasses.replace(base.g, value=counting("G", base.g.value),
                                  adjoint_apply=counting("G_adj", base.g.adjoint_apply)),
            f=dataclasses.replace(base.f, value=counting("f", base.f.value),
                                  gradient=counting("grad_f", base.f.gradient)),
        )
        prob.cone._eigh = counting("eigh", prob.cone._eigh)
        prob.p1.prox = counting("prox", prob.p1.prox)
        # every log-sum-exp point calls this one kernel
        monkeypatch.setattr(cones, "_shifted_logsumexp",
                            counting("exp", cones._shifted_logsumexp))
        report = run(prob, SolverConfig(eps=1e-6), np.zeros(6))
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations > 10
        # i_k of a step's j_k + 1 trials failed descent and never reached G
        evaluated = sum(row.j_k + 1 - row.i_k for row in report.trace)
        assert sum(row.i_k for row in report.trace) > 0
        assert counts["eigh"] == counts["G"] == 1 + evaluated
        assert counts["grad_f"] == 1 + report.iterations
        assert counts["f"] == 1 + report.trials
        assert report.advances == 0
        assert counts["G_adj"] == 1 + report.iterations
        assert counts["prox"] == report.trials
        # the start point at mu = 0.9 / 2^l for l = 0..L (the initial search,
        # whose last mu is mu0) and once more at mu0 for its smoothed value
        # and gradient, since a point keeps no exp pass; each evaluated trial
        # at the step's mu, and each accepted point at the next mu
        searched = 1 + round(math.log2(0.9 / report.mu0))
        assert counts["exp"] == searched + 1 + evaluated + report.iterations
        # a supplied mu0 skips the search: one exp pass at the start point
        counts.update(exp=0)
        supplied = run(prob, SolverConfig(
            eps=1e-6, schedule=ramped_log_schedule(0.9, 3.0).with_mu0(report.mu0)), np.zeros(6))
        assert [row[:-1] for row in supplied.trace] == [row[:-1] for row in report.trace]
        assert counts["exp"] == 1 + evaluated + supplied.iterations
        # a run cut by max_outer forms no state after its last row either
        counts.update(f=0, G_adj=0, exp=0)
        capped = run(prob, SolverConfig(eps=1e-16, max_outer=7), np.zeros(6))
        assert capped.status is SolveStatus.MAX_OUTER
        assert counts["G_adj"] == 1 + capped.iterations
        assert counts["f"] == 1 + capped.trials
        evaluated = sum(row.j_k + 1 - row.i_k for row in capped.trace)
        assert counts["exp"] == searched + 1 + evaluated + capped.iterations
        # a stall advance forms the smoothing gradient again at the new mu
        base = stalling_norm_ball()
        adjoints = []
        stalling = dataclasses.replace(base, g=dataclasses.replace(
            base.g, adjoint_apply=lambda x, v: adjoints.append(1) or base.g.adjoint_apply(x, v)))
        stalled = run(stalling, SolverConfig(eps=1e-5, schedule=power_schedule(0.5)),
                      np.zeros(5))
        assert stalled.status is SolveStatus.CONVERGED and stalled.advances > 0
        assert len(adjoints) == 1 + stalled.iterations + stalled.advances

    def test_descent_failure_skips_constraint_and_cone(self):
        # a small objective weight overshoots the minimizer, and at a small mu
        # a binding ball asks for a large decrease, so the first two trials
        # fail descent; only the trials that pass it reach G and the cone
        base = box_problem(c=[0.5, 0.5], b=[10.0, 10.0])
        counts = {"f": 0, "G": 0, "prepare": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        prob = dataclasses.replace(
            base,
            f=dataclasses.replace(base.f, value=counting("f", base.f.value)),
            g=dataclasses.replace(base.g, value=counting("G", base.g.value)),
        )
        state = make_state(base, np.zeros(2), 1e-4, Lf0=0.3, Lg0=1e-3)
        prob.cone.prepare = counting("prepare", prob.cone.prepare)
        res = inner_loop_step(state, prob, SolverConfig())
        assert res.i >= 2
        assert counts["f"] == res.j + 1  # one objective value per trial
        assert counts["G"] == counts["prepare"] == res.j + 1 - res.i

    @pytest.mark.parametrize("case", ["desk", "socp-dc"])
    def test_python_calls_per_step_within_budget(self, case):
        # Python calls whose code lies in the smba package, per accepted step
        # of a solve, counted from a fresh process (a warm schedule cache
        # only lowers them, by 4 to 12 calls a solve).  Desk: 60.1 before
        # the linesearch trial shed its per-call overhead (records built by
        # keyword, frozen dataclasses, a four-deep call chain per cone-point
        # evaluation), 50.4 after, 49.45 once one smoothed call gave an
        # accepted point its smoothed value and gradient, 44.31 once the
        # array guards accepted a float64 array in one test, and 43.85 once
        # the warm starts read one smoothed function (199 steps, not 213).
        # The socp-dc shape (P1 = 0, a p-cone and a concave l1 term): 41.40
        # before those guards and the lean P1 = 0 subproblem, 35.0 after
        # (875 calls in 25 steps).  Its 7 stall advances each cost a second
        # smoothing gradient, and the one-function warm starts removed 5
        # plain steps of 31 calls each: 720 calls in 20 steps, 36.0 a step,
        # with no step making more calls than before.  So its budget rose
        # with the share of advance steps, and the per-solve cap keeps the
        # removed steps removed.  Step counts move with the BLAS kernel
        # (desk: 199-207 steps and 43.85 to 44.31 calls a step under four
        # OpenBLAS cores); socp-dc makes 720 calls under each.  A change
        # that adds a call per trial or per step must raise its budget and
        # say why
        prob, eps, budget, cap = {
            "desk": (nsdp_problem(generate_nsdp(20, 10, 1)), 1e-7, 44.35, math.inf),
            "socp-dc": (socp_dc_shaped(), 1e-5, 36.0, 720),
        }[case]
        package = os.path.dirname(smba.__file__) + os.sep
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename.startswith(package):
                calls += 1

        sys.setprofile(count)
        try:
            report = run(prob, SolverConfig(eps=eps), np.zeros(prob.dim))
        finally:
            sys.setprofile(None)
        assert report.status is SolveStatus.CONVERGED
        assert calls / report.iterations <= budget
        assert calls <= cap


def recorded_run(prob, eps):
    """``run`` from the origin at ``eps`` and every accepted iterate x_k:
    the f gradient is evaluated once per accepted point, x0 included
    (``TestCallCounts``)."""
    xs = []

    def gradient(x):
        xs.append(np.array(x, copy=True))
        return prob.f.gradient(x)

    traced = dataclasses.replace(prob, f=dataclasses.replace(prob.f, gradient=gradient))
    return run(traced, SolverConfig(eps=eps), np.zeros(prob.dim)), xs


# eps levels and, per case, the bound C on ||x - x*|| / eps.  Measured
# largest final ratios: desk instance 1 231, instance 15 884, box toy 101,
# so each C holds a margin of at least 3.4
SEQUENCE_EPS = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9)
SEQUENCE_CASES = {"desk-1": 1000.0, "desk-15": 3000.0, "box": 500.0}


@pytest.fixture(scope="module")
def sequences():
    """Per case, ``x*`` and the recorded run at each eps of SEQUENCE_EPS."""
    out = {}
    for name in SEQUENCE_CASES:
        if name == "box":
            prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0])
            xstar = analytic_box_solution([2.0, -1.0], [1.0, 1.0])
        else:
            prob = nsdp_problem(generate_nsdp(20, 10, int(name.split("-")[1])))
            tight = run(prob, SolverConfig(eps=1e-10), np.zeros(prob.dim))
            assert tight.status is SolveStatus.CONVERGED
            xstar = tight.x
        out[name] = xstar, [recorded_run(prob, eps) for eps in SEQUENCE_EPS]
    return out


class TestWholeSequenceConverges:
    """The paper's convex-setting claim, on the convex NSDP family and the
    box toy: the whole sequence of iterates converges.  No rate is
    asserted; the paper's local rate needs a Hölderian growth condition."""

    @pytest.mark.parametrize("name", list(SEQUENCE_CASES))
    def test_final_distance_falls_with_eps(self, sequences, name):
        xstar, runs = sequences[name]
        dist = []
        for eps, (report, xs) in zip(SEQUENCE_EPS, runs):
            assert report.status is SolveStatus.CONVERGED
            # the recording is the run's sequence, ending at its output
            assert len(xs) == report.iterations + 1 and np.array_equal(xs[-1], report.x)
            dist.append(float(np.linalg.norm(report.x - xstar)))
            assert dist[-1] <= SEQUENCE_CASES[name] * eps, (eps, dist)
        if name == "box":
            # its 1e-5 and 1e-6 runs stop after 15 and 21 steps at 9.3e-5 and
            # 1.0e-4, so the box falls over every two decades of eps
            assert all(later < first for first, later in zip(dist, dist[2:])), dist
            assert all(later < first for first, later in zip(dist[1:], dist[2:])), dist
        else:
            assert all(later < first for first, later in zip(dist, dist[1:])), dist

    @pytest.mark.parametrize("name", list(SEQUENCE_CASES))
    def test_recorded_tail_reaches_the_eps_level(self, sequences, name):
        # not only the last point: the last ten iterates of the 1e-9 run
        # (536, 2,723 and 635 steps long) lie within C eps of x*.  Measured
        # tail ratios: desk instance 1 21.7, instance 15 426, box 15.2
        xstar, runs = sequences[name]
        _, xs = runs[-1]
        tail = max(float(np.linalg.norm(x - xstar)) for x in xs[-10:])
        assert tail <= SEQUENCE_CASES[name] * SEQUENCE_EPS[-1], tail


def read_only(fn):
    """``fn`` returning a read-only copy of each array it returns."""
    def wrapped(*args):
        out = fn(*args)
        if isinstance(out, np.ndarray):
            out = out.copy()
            out.flags.writeable = False
        return out
    return wrapped


def with_read_only_outputs(prob):
    """``prob`` whose every oracle, and the smoothing gradient that every cone
    point it prepares returns from ``smoothed``, returns read-only copies;
    the l1 weights are read-only too."""
    def shadowed(obj, names):
        obj = copy.copy(obj)
        for name in names:
            setattr(obj, name, read_only(getattr(obj, name)))
        return obj

    p1 = shadowed(prob.p1, ("value", "prox", "subdiff_distance"))
    if hasattr(p1, "weights"):
        p1.weights = p1.weights.copy()
        p1.weights.flags.writeable = False
    prepare = prob.cone.prepare

    def prepare_read_only(y):
        point = prepare(y)
        smoothed = point.smoothed

        def smoothed_read_only(mu):
            value, grad = smoothed(mu)
            grad = grad.copy()
            grad.flags.writeable = False
            return value, grad

        point.smoothed = smoothed_read_only
        return point

    cone = copy.copy(prob.cone)
    cone.prepare = prepare_read_only
    return dataclasses.replace(
        prob,
        f=dataclasses.replace(prob.f, value=read_only(prob.f.value),
                              gradient=read_only(prob.f.gradient)),
        g=dataclasses.replace(prob.g, value=read_only(prob.g.value),
                              adjoint_apply=read_only(prob.g.adjoint_apply)),
        p1=p1,
        p2=shadowed(prob.p2, ("value", "subgradient")),
        cone=cone,
    )


def socp_dc_shaped(n=200, seed=1):
    """The ``socp-dc`` benchmark's shape: a norm ball of half the radius of
    ``||c||`` around the origin, with ``P2 = 0.1 ||x||_1``."""
    c = np.random.default_rng(seed).normal(size=n)
    return dataclasses.replace(norm_ball_problem(c, 0.5 * float(np.linalg.norm(c))),
                               p2=L1Concave(0.1))


class TestNoAliasing:
    @pytest.mark.parametrize("prob, eps", [
        (nsdp_problem(generate_nsdp(20, 10, 2)), 1e-7),
        (socp_dc_shaped(), 1e-7),
    ], ids=["nsdp", "socp-dc"])
    def test_read_only_oracle_outputs_leave_trace_unchanged(self, prob, eps):
        # a step that reused an oracle's output by writing into it would
        # fail on a read-only copy, or change the trace.  socp-dc runs at
        # 1e-7 (26 steps) to pass more than 20 steps
        cfg = SolverConfig(eps=eps)
        plain = run(prob, cfg, np.zeros(prob.dim))
        guarded = run(with_read_only_outputs(prob), cfg, np.zeros(prob.dim))
        assert plain.status is guarded.status is SolveStatus.CONVERGED
        assert plain.iterations > 20
        assert [row[:-1] for row in guarded.trace] == [row[:-1] for row in plain.trace]


class TestTracedNames:
    def test_every_traced_name_is_called(self, monkeypatch):
        # the benchmark's per-layer metrics come from wrapping these
        # module-level names; each must still be looked up during a run
        spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        counts = {}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapped

        for module, attr, name in tracing.PATCHED:
            monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
        report = run(nsdp_problem(generate_nsdp(6, 4, 1)), SolverConfig(eps=1e-6), np.zeros(6))
        assert report.iterations > 10
        assert [name for _, _, name in tracing.PATCHED if name not in counts] == []


class TestConfig:
    def test_roundtrip(self):
        cfg = SolverConfig(eps=1e-5, schedule=ramped_log_schedule(0.6, 3.0).with_mu0(0.9))
        again = SolverConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        for stale in ("exact_l1_path", "bb_warm_start"):
            with pytest.raises(ValueError, match=stale):
                SolverConfig.from_dict({**SolverConfig().to_dict(), stale: False})
        for stale in ("foo", "ramp_r"):
            doc = SolverConfig().to_dict()
            doc["schedule"][stale] = 1
            with pytest.raises(ValueError, match=stale):
                SolverConfig.from_dict(doc)

    @pytest.mark.parametrize("key", ["tau1", "tau2", "eps", "L_min", "L_max",
                                     "max_outer", "max_inner_j"])
    def test_nan_rejected(self, key):
        with pytest.raises(ValueError):
            SolverConfig(**{key: math.nan})
        with pytest.raises(ValueError):
            SolverConfig.from_dict({**SolverConfig().to_dict(), key: math.nan})

    @pytest.mark.parametrize("fields", [
        {"tau1": math.inf}, {"tau2": math.inf}, {"eps": math.inf}, {"L_max": math.inf},
        {"L_min": math.inf, "L_max": math.inf}, {"L_min": -math.inf},
    ], ids=["tau1", "tau2", "eps", "L_max", "L_min-L_max", "L_min-neg"])
    def test_infinite_rejected(self, fields):
        # each passed its lower-bound check: eps = inf converged after one
        # step, tau = inf ended inner_cap_exceeded, and L_min = L_max = inf
        # let a ball-prox ValueError escape run
        name = next(iter(fields))
        with pytest.raises(ValueError, match=f"^{name} must be a finite real number, got "):
            SolverConfig(**fields)
        with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
            SolverConfig.from_dict({**SolverConfig().to_dict(), **fields})

    def test_validation(self):
        for fields in ({"tau1": 0.0}, {"tau2": 0.0}, {"eps": 0.0}, {"L_min": 0.0},
                       {"L_min": 1.0, "L_max": 0.5}):
            with pytest.raises(ValueError):
                SolverConfig(**fields)
        with pytest.raises(ValueError):
            SolverConfig(eps=-1.0)
        for caps in ({"max_outer": 0}, {"max_inner_j": -1}):
            with pytest.raises(ValueError, match="iteration caps"):
                SolverConfig(**caps)
