import dataclasses
import math
import warnings

import numpy as np
import pytest

from smba.cones import MU_FLOOR
from smba.errors import InfeasibleStartError, MuUnderflowWarning, NumericError
from smba.nsdp import generate_nsdp, nsdp_problem
from smba.problems import (
    box_problem,
    composite_value,
    norm_ball_problem,
    objective_value,
    psd_affine_problem,
)
from smba.schedules import power_schedule, ramped_log_schedule
from smba.solver import (
    IterateState,
    SolveStatus,
    SolverConfig,
    bb_init,
    find_initial_mu,
    inner_loop_step,
    run,
)


def make_state(prob, x, mu, Lf0=1.0, Lg0=1.0, k=0):
    x = np.asarray(x, dtype=float)
    point = prob.cone.prepare(prob.g.value(x))
    return IterateState(
        x=x, k=k, mu=mu,
        psi=objective_value(prob, x), gmu=point.value(mu),
        grad_gmu=prob.g.adjoint_apply(x, point.gradient(mu)),
        grad_f=prob.f.gradient(x),
        xi=prob.p2.subgradient(x),
        Lf0=Lf0, Lg0=Lg0,
    )


class TestFindInitialMu:
    def test_hand_derived_orthant(self):
        # constraint value -1 at x0; condition -1 + mu log 2 <= -0.1 holds at 0.9
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 1.0], alpha4=0.0)
        assert find_initial_mu(prob, np.zeros(2)) == pytest.approx(0.9)

    def test_deep_interior_accepts_immediately(self):
        prob = box_problem(c=[0.0, 0.0], b=[10.0, 10.0], alpha4=0.0)
        assert find_initial_mu(prob, np.zeros(2)) == pytest.approx(0.9)

    def test_boundary_start_rejected(self):
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 0.0])
        with pytest.raises(InfeasibleStartError):
            find_initial_mu(prob, np.zeros(2))

    def test_search_stops_at_floor(self):
        # a margin of 1e-14 needs mu far below the 1e-12 floor
        prob = box_problem(c=[0.0, 0.0], b=[1e-14, 1e-14])
        with pytest.raises(NumericError, match="floor"):
            find_initial_mu(prob, np.zeros(2))

    def test_smoothed_value_negative_at_returned_mu(self, rng):
        for _ in range(20):
            b = rng.uniform(0.05, 3.0, 3)
            prob = box_problem(c=rng.normal(0, 1, 3), b=b)
            mu0 = find_initial_mu(prob, np.zeros(3))
            assert composite_value(prob, np.zeros(3), mu0) < 0


class TestBBInit:
    def test_first_iteration_defaults_to_one(self):
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 1.0])
        state = make_state(prob, np.zeros(2), 0.9)
        assert bb_init(state, prob, SolverConfig()) == (1.0, 1.0)

    def test_identity_quadratic_recovers_unit_curvature(self):
        # f = 0.5 ||x - c||^2 has unit Hessian, so the f-ratio is exactly 1
        prob = box_problem(c=[3.0, 3.0], b=[10.0, 10.0])
        state = make_state(prob, np.array([0.5, 0.2]), 0.9, k=1)
        state.x_prev = np.array([0.0, 0.0])
        state.grad_f_prev = prob.f.gradient(state.x_prev)
        state.grad_gmu_prev = state.grad_gmu.copy()
        Lf0, _ = bb_init(state, prob, SolverConfig())
        assert Lf0 == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_step_halves_previous(self):
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 1.0])
        state = make_state(prob, np.zeros(2), 0.9, Lf0=2.0, Lg0=4.0, k=3)
        state.x_prev = state.x.copy()
        state.grad_f_prev = state.grad_f.copy()
        state.grad_gmu_prev = state.grad_gmu.copy()
        Lf0, Lg0 = bb_init(state, prob, SolverConfig())
        assert Lf0 == pytest.approx(1.0)
        assert Lg0 == pytest.approx(2.0)

    def test_results_always_inside_safeguards(self, rng):
        prob = box_problem(c=[0.0, 0.0], b=[5.0, 5.0])
        cfg = SolverConfig()
        for _ in range(50):
            state = make_state(prob, rng.uniform(-1, 1, 2), 0.5,
                               Lf0=10.0 ** rng.uniform(-8, 8), k=2)
            state.x_prev = rng.uniform(-1, 1, 2)
            state.grad_f_prev = prob.f.gradient(state.x_prev)
            y_prev = prob.g.value(state.x_prev)
            state.grad_gmu_prev = prob.g.adjoint_apply(
                state.x_prev, prob.cone.msa_gradient(y_prev, 0.6)
            )
            Lf0, Lg0 = bb_init(state, prob, cfg)
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
        prob = box_problem(c=[5.0, 0.0], b=[1.0, 1.0])
        state = make_state(prob, np.zeros(2), 0.9, Lf0=1e-8, Lg0=1e-8)
        res = inner_loop_step(state, prob, SolverConfig())
        assert res.j <= 40
        assert 20 <= res.j <= 35  # about log2(1e8) doublings to regain feasibility
        assert res.i <= res.j

    def test_feasibility_failure_keeps_i_at_zero(self):
        # huge ball from a tiny Lg0 makes the first trials infeasible while
        # the objective weight is already adequate
        prob = box_problem(c=[5.0, 0.0], b=[1.0, 1.0])
        state = make_state(prob, np.zeros(2), 0.9, Lf0=2.0, Lg0=1e-6)
        res = inner_loop_step(state, prob, SolverConfig())
        assert res.i == 0
        assert res.j >= 1

    def test_cap_exceeded_raises(self):
        from smba.solver import InnerCapError

        base = box_problem(c=[5.0, 0.0], b=[1.0, 1.0])
        trials = []

        def value(x):
            trials.append(1)
            return base.g.value(x)

        prob = dataclasses.replace(base, g=dataclasses.replace(base.g, value=value))
        state = make_state(base, np.zeros(2), 0.9, Lf0=2.0, Lg0=1e-6)
        with pytest.raises(InnerCapError) as err:
            inner_loop_step(state, prob, SolverConfig(max_inner_j=2))
        assert err.value.mu == pytest.approx(0.9)
        assert len(trials) == 3  # j = 0, 1, 2, all infeasible
        assert err.value.Lg == pytest.approx(4e-6)
        assert err.value.g_mu > 0.0

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
        cfg = SolverConfig(eps=1e-7, max_outer=4000,
                           schedule=ramped_log_schedule(0.9, 3.0, ramp_len=1000))
        report = run(prob, cfg, np.zeros(2))
        assert report.status is SolveStatus.CONVERGED
        assert float(np.linalg.norm(report.x - c / np.linalg.norm(c))) <= 1e-4

    def test_psd_toy(self, rng):
        # diagonal constraint matrices reduce to a box: G(x) = diag(x - 2)
        A = np.zeros((3, 2, 2))
        A[0] = 2.0 * np.eye(2)
        A[1] = np.diag([-1.0, 0.0])
        A[2] = np.diag([0.0, -1.0])
        prob = psd_affine_problem(c=[3.0, 1.0], A=A)
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

        from smba.problems import LinearConcave

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

    def test_supplied_mu0_skips_search(self):
        prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0])
        cfg = SolverConfig(eps=1e-6, max_outer=2000,
                           schedule=power_schedule(0.9, mu0=0.45))
        report = run(prob, cfg, np.zeros(2))
        assert report.mu0 == 0.45
        assert report.status is SolveStatus.CONVERGED

    def test_supplied_mu0_too_large_rejected(self):
        prob = box_problem(c=[2.0, -1.0], b=[0.1, 0.1], alpha4=0.0)
        # smoothing gap log(2) * mu exceeds the margin 0.1 at mu = 1
        with pytest.raises(InfeasibleStartError):
            run(prob, SolverConfig(schedule=power_schedule(0.9, mu0=1.0)), np.zeros(2))


@pytest.fixture(scope="module")
def toy_report():
    prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0], l1_weight=0.3)
    cfg = SolverConfig(eps=1e-7, max_outer=2000, schedule=power_schedule(0.9))
    return prob, cfg, run(prob, cfg, np.zeros(2))


class TestRunInvariants:

    def test_strict_feasibility_all_iterates(self, toy_report):
        _, _, report = toy_report
        for row in report.trace:
            assert row.g_mu <= 0.0
            assert row.sigma_B <= 0.0

    def test_descent_ledger(self, toy_report):
        prob, cfg, report = toy_report
        psi_prev = objective_value(prob, np.zeros(2))
        for row in report.trace:
            assert row.psi <= psi_prev + 1e-10 * (1 + abs(psi_prev))
            psi_prev = row.psi

    def test_inner_counters_ordered(self, toy_report):
        _, cfg, report = toy_report
        for row in report.trace:
            assert row.i_k <= row.j_k <= cfg.max_inner_j

    def test_mu_follows_schedule_strictly_decreasing(self, toy_report):
        _, _, report = toy_report
        mus = [row.mu for row in report.trace]
        assert all(b < a for a, b in zip(mus, mus[1:]))

    def test_multiplier_nonnegative(self, toy_report):
        _, _, report = toy_report
        assert all(row.lam >= 0.0 for row in report.trace)

    def test_feasibility_chain_next_mu(self):
        # accepted points stay strictly feasible after the mu update: replay
        # a few outer steps by hand
        from smba.schedules import mu_at

        prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0], l1_weight=0.3)
        schedule = power_schedule(0.9).with_mu0(find_initial_mu(prob, np.zeros(2)))
        x = np.zeros(2)
        for k in range(10):
            mu = mu_at(schedule, k)
            state = make_state(prob, x, mu, k=k)
            res = inner_loop_step(state, prob, SolverConfig())
            assert res.gmu <= 0.0
            mu_next = mu_at(schedule, k + 1)
            assert composite_value(prob, res.x, mu_next) < 0.0
            x = res.x


class TestRunFailureModes:
    def test_inner_cap_exceeded_status(self):
        prob = box_problem(c=[5.0, 0.0], b=[1.0, 1.0])
        cfg = SolverConfig(max_inner_j=0, L_min=1e-8, L_max=1e-8,
                           schedule=power_schedule(0.9))
        report = run(prob, cfg, np.zeros(2))
        assert report.status is SolveStatus.INNER_CAP_EXCEEDED
        assert report.reason

    def test_divergence_guard(self):
        # descent direction unbounded below: start just inside the norm guard
        # so a few ball-sized steps push the iterate across it
        prob = box_problem(c=[-1e9, 0.0], b=[1.0, 1.0])
        cfg = SolverConfig(eps=1e-12, max_outer=200, schedule=power_schedule(0.33))
        report = run(prob, cfg, np.array([-1e8 + 5.0, 0.0]))
        assert report.status is SolveStatus.NUMERIC_FAILURE
        assert "diverged" in report.reason
        assert report.iterations == len(report.trace) > 0

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
        # k = 2; the run stops there instead of evaluating a clamped mu
        prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0])
        cfg = SolverConfig(eps=1e-16, max_outer=3000, schedule=power_schedule(0.9, mu0=2e-12))
        with warnings.catch_warnings():
            warnings.simplefilter("error", MuUnderflowWarning)
            report = run(prob, cfg, np.zeros(2))
        assert report.status is SolveStatus.MU_FLOOR
        assert report.reason
        assert report.iterations == len(report.trace) > 0
        assert all(row.mu >= MU_FLOOR for row in report.trace)
        assert report.objective == report.trace[-1].psi

    def test_max_outer_reached(self):
        prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0])
        cfg = SolverConfig(eps=1e-16, max_outer=5, schedule=power_schedule(0.9))
        report = run(prob, cfg, np.zeros(2))
        assert report.status is SolveStatus.MAX_OUTER
        assert report.iterations == 5


class TestCallCounts:
    def test_each_point_evaluated_once(self):
        # one G call and one eigendecomposition per linesearch trial plus the
        # start point; one f gradient per accepted step plus the start point
        base = nsdp_problem(generate_nsdp(6, 4, 1))
        counts = {"G": 0, "eigh": 0, "grad_f": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        prob = dataclasses.replace(
            base,
            g=dataclasses.replace(base.g, value=counting("G", base.g.value)),
            f=dataclasses.replace(base.f, gradient=counting("grad_f", base.f.gradient)),
        )
        prob.cone._eigh = counting("eigh", prob.cone._eigh)
        report = run(prob, SolverConfig(eps=1e-6), np.zeros(6))
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations > 10
        trials = sum(row.j_k + 1 for row in report.trace)
        assert counts["eigh"] == counts["G"] == 1 + trials
        assert counts["grad_f"] == 1 + report.iterations


class TestConfig:
    def test_roundtrip(self):
        cfg = SolverConfig(eps=1e-5, schedule=ramped_log_schedule(0.6, 3.0, mu0=0.9))
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

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tau1=0.0)
        with pytest.raises(ValueError):
            SolverConfig(L_min=1.0, L_max=0.5)
        with pytest.raises(ValueError):
            SolverConfig(eps=-1.0)
