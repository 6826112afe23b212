"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Shared solver runs are computed once per module.  The desk-scale instance
panel uses the first five generator seeds whose reference run needs more
than 350 iterations; easier instances finish inside the first schedule
block, where the two compared schedules are still numerically identical and
the trend comparison is vacuous.
"""

import dataclasses
import functools
import math
import time

import numpy as np
import pytest

from smba.ball_prox import BallConstraint, build_ball, solve_ball_prox
from smba.cones import NegSemidef
from smba.nsdp import generate_nsdp, nsdp_problem
from smba.problems import (
    L1Regularizer,
    ZeroRegularizer,
    box_problem,
    norm_ball_problem,
    psd_affine_problem,
)
from smba.schedules import (
    blockwise_schedule,
    mu_at,
    power_schedule,
    ramped_log_schedule,
)
from smba.solver import SolveStatus, SolverConfig, bb_init, inner_loop_step, run
from conftest import family_cases
from helpers import (
    GridSpec,
    analytic_box_solution,
    composite_gradient,
    composite_value,
    constraint_value,
    exact_ball_projection,
    grid_bruteforce,
    make_state,
    mu_values,
    partial_sum,
    partial_sum_lower_bound,
    polar_residual,
    smoothing,
)

DESK_SEEDS = (1, 6, 10, 15, 16)


def criterion(num, label, budget=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - t0
                if budget is not None:
                    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget}s"
            except BaseException:
                print(f"ACCEPTANCE {num:02d} {label}: FAIL")
                raise
            print(f"ACCEPTANCE {num:02d} {label}: PASS ({elapsed:.1f}s)")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_run():
    prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0])
    cfg = SolverConfig(eps=1e-7, max_outer=2000, schedule=power_schedule(0.9))
    return prob, cfg, run(prob, cfg, np.zeros(2))


@pytest.fixture(scope="module")
def rate_run():
    # toy run that never stops early, for the function-value rate check
    prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0])
    cfg = SolverConfig(eps=1e-16, max_outer=400, schedule=power_schedule(0.9))
    return prob, cfg, run(prob, cfg, np.zeros(2))


@pytest.fixture(scope="module")
def desk_runs():
    out = {}
    for seed in DESK_SEEDS:
        prob = nsdp_problem(generate_nsdp(20, 10, seed))
        for eps, rbar, sbar in ((1e-5, 0.9, 3.0), (1e-7, 0.9, 3.0), (1e-7, 0.33, 0.0)):
            cfg = SolverConfig(eps=eps, schedule=ramped_log_schedule(rbar, sbar))
            out[(seed, eps, rbar, sbar)] = (prob, cfg, run(prob, cfg, np.zeros(20)))
    return out


def trace_invariants(cfg, report):
    psi_prev = None
    for row in report.trace:
        assert row.g_mu <= 0.0, "smoothed feasibility lost"
        assert row.sigma_B <= 0.0, "exact feasibility lost"
        assert row.i_k <= row.j_k <= cfg.max_inner_j
        assert row.lam >= 0.0
        if psi_prev is not None:
            assert row.psi <= psi_prev + 1e-10 * (1.0 + abs(psi_prev))
        psi_prev = row.psi
    mus = [row.mu for row in report.trace]
    assert all(b < a for a, b in zip(mus, mus[1:]))


def replay_with_ledger(prob, cfg, x0, steps):
    """Mirror the outer loop step by step, asserting the exact descent
    ledger, the strict feasibility chain, and subproblem complementarity."""
    # a supplied mu0 or the initial search's, as the solver reports it
    schedule = cfg.schedule.with_mu0(run(prob, dataclasses.replace(cfg, max_outer=1), x0).mu0)
    state = make_state(prob, x0, mu_at(schedule, 0))
    for k in range(steps):
        res = inner_loop_step(state, prob, cfg)

        drop = (cfg.tau1 * state.mu + cfg.tau2 * res.lam) / (2.0 * state.mu)
        step2 = float(np.dot(res.x - state.x, res.x - state.x))
        # the step the trial carries out to the certificate and bb_init is exact
        np.testing.assert_array_equal(res.dx, res.x - state.x)
        assert res.step2 == step2
        assert res.psi + drop * step2 <= state.psi + 1e-10 * (1.0 + abs(state.psi))

        ball = build_ball(state.x, state.grad_gmu, state.grad_gmu.dot(state.grad_gmu),
                          state.gmu, res.Lg, state.mu)
        assert abs(res.lam * constraint_value(ball, res.x)) <= 1e-8 * (1.0 + res.lam)
        assert res.i <= res.j <= cfg.max_inner_j

        mu_next = mu_at(schedule, k + 1)
        assert composite_value(prob, res.x, mu_next) < 0.0

        nxt = make_state(prob, res.x, mu_next)
        Lf0, Lg0 = bb_init(res.dx, res.step2, nxt.grad_f - state.grad_f,
                           mu_next * (nxt.grad_gmu - state.grad_gmu), state.Lf0, state.Lg0, cfg)
        state = nxt._replace(Lf0=Lf0, Lg0=Lg0)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


@criterion(1, "smoothing sandwich and shift", budget=5.0)
def test_criterion_1_sandwich_and_shift():
    rng = np.random.default_rng(101)
    for oracle, sample in family_cases():
        a3, a4 = smoothing(oracle).alpha3, oracle.alpha4
        for _ in range(1000):
            y = sample(rng)
            mu1 = 10.0 ** rng.uniform(-6, 1)
            sig = oracle.support_value(y)
            val1 = oracle.prepare(y).value(mu1)
            slack = 1e-12 * (1.0 + abs(sig))
            assert sig - slack <= val1 <= sig + a3 * mu1 + slack
            mu0 = mu1 * rng.uniform(1.5, 16.0)
            val0 = oracle.prepare(y).value(mu0)
            assert val1 <= val0 - a4 * (mu0 - mu1) + 1e-12


@criterion(2, "gradient fidelity", budget=10.0)
def test_criterion_2_gradient_fidelity():
    rng = np.random.default_rng(202)
    h = 1e-6
    for oracle, sample in family_cases():
        for _ in range(200):
            y, d = sample(rng), sample(rng)
            mu = 10.0 ** rng.uniform(-3, 1)
            grad = oracle.prepare(y).smoothed(mu)[1]
            up, down = oracle.prepare(y + h * d), oracle.prepare(y - h * d)
            fd = (up.value(mu) - down.value(mu)) / (2 * h)
            exact = float(np.vdot(grad, d))
            assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))
            if isinstance(oracle, NegSemidef):
                assert abs(float(np.trace(grad)) - 1.0) <= 1e-12
                assert float(np.linalg.eigvalsh(grad)[0]) >= -1e-10

    A = np.zeros((4, 3, 3))
    rngA = np.random.default_rng(7)
    for i in range(1, 4):
        B = rngA.normal(0, 1, (3, 3))
        A[i] = 0.5 * (B + B.T)
    A[0] = 5.0 * np.eye(3)
    problems = [
        box_problem(c=[0.0, 0.0, 0.0], b=[1.0, -0.5, 2.0]),
        norm_ball_problem(c=[0.0, 0.0, 0.0], radius=1.5),
        psd_affine_problem(c=[0.0, 0.0, 0.0], A=A),
    ]
    for prob in problems:
        for _ in range(200):
            x, d = rng.normal(0, 1, 3), rng.normal(0, 1, 3)
            mu = 10.0 ** rng.uniform(-3, 1)
            grad = composite_gradient(prob, x, mu)
            fd = (
                composite_value(prob, x + h * d, mu) - composite_value(prob, x - h * d, mu)
            ) / (2 * h)
            exact = float(np.dot(grad, d))
            assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))


@criterion(3, "subproblem exactness", budget=60.0)
def test_criterion_3_subproblem_exactness():
    rng = np.random.default_rng(3)
    # closed-form agreement for the smooth case
    for _ in range(200):
        n = int(rng.integers(1, 6))
        ball = BallConstraint(center=rng.normal(0, 2, n),
                              radius=float(rng.uniform(0.3, 3.0)),
                              curvature=float(rng.uniform(0.2, 5.0)))
        x_k, q = rng.normal(0, 2, n), rng.normal(0, 2, n)
        L_f = float(rng.uniform(0.2, 4.0))
        x, _ = solve_ball_prox(ZeroRegularizer(), x_k, q, L_f, ball)
        want = exact_ball_projection(x_k - q / L_f, ball.center, ball.radius)
        assert float(np.linalg.norm(x - want)) <= 1e-10

    # l1 case against the dense grid; the grid certifies (i) the argument to
    # within its resolution and (ii) that exhaustive search finds nothing
    # better than the solver by more than 1e-5
    rng = np.random.default_rng(7)
    actives = 0
    for trial in range(20):
        kind = trial % 3
        L_f = float(rng.uniform(0.5, 3.0))
        w = rng.uniform(0.3, 1.5, 2)
        if kind == 0:
            center = rng.uniform(-0.3, 0.3, 2)
            z = center + rng.uniform(-0.6, 0.6, 2)
        elif kind == 1:
            # constraint active at an l1 kink: the solution is the axis
            # crossing of the sphere, so the grid argmin cannot wander
            axis = int(rng.integers(0, 2))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            center = np.zeros(2)
            center[axis] = rng.uniform(-0.2, 0.2)
            z = np.zeros(2)
            z[1 - axis] = rng.uniform(-0.9, 0.9) * w[1 - axis] / L_f
            z[axis] = center[axis] + sign * (1.0 + w[axis] / L_f + rng.uniform(0.5, 2.0))
        else:
            center = rng.uniform(-0.2, 0.2, 2)
            direction = rng.normal(0, 1, 2)
            direction /= np.linalg.norm(direction)
            z = center + direction * (1.0 + rng.uniform(0.001, 0.004))
        ball = BallConstraint(center=center, radius=1.0,
                              curvature=float(rng.uniform(0.3, 3.0)))
        p1 = L1Regularizer(w)
        x, lam = solve_ball_prox(p1, np.zeros(2), -L_f * z, L_f, ball)
        actives += lam > 1e-12

        obj = lambda pts: 0.5 * L_f * np.sum((pts - z) ** 2, axis=1) + np.sum(np.abs(pts) * w, axis=1)
        feas = lambda pts: np.sum((pts - center) ** 2, axis=1) <= 1.0
        grid = GridSpec(lower=center - 1.1, upper=center + 1.1, points_per_axis=2001)
        x_grid, val_grid = grid_bruteforce(obj, feas, grid)
        assert float(np.linalg.norm(x - x_grid)) <= 2e-3
        assert float(obj(x[None])[0]) <= val_grid + 1e-5
    assert actives >= 5  # the family genuinely exercises the multiplier search


@criterion(4, "solver invariants on every run")
def test_criterion_4_solver_invariants(toy_run, rate_run, desk_runs):
    for prob, cfg, report in [toy_run, rate_run, *desk_runs.values()]:
        trace_invariants(cfg, report)

    # exact descent ledger and complementarity, replayed step by step
    toy_prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0])
    replay_with_ledger(toy_prob, SolverConfig(schedule=power_schedule(0.9)), np.zeros(2), 60)
    nsdp_prob = nsdp_problem(generate_nsdp(20, 10, DESK_SEEDS[0]))
    replay_with_ledger(nsdp_prob, SolverConfig(), np.zeros(20), 60)

    # bitwise determinism of the numeric trace columns
    for prob, cfg in [
        (toy_prob, SolverConfig(eps=1e-7, max_outer=500, schedule=power_schedule(0.9))),
        (nsdp_prob, SolverConfig(eps=1e-5)),
    ]:
        x0 = np.zeros(prob.dim)
        r1, r2 = run(prob, cfg, x0), run(prob, cfg, x0)
        assert len(r1.trace) == len(r2.trace)
        for a, b in zip(r1.trace, r2.trace):
            assert a.as_tuple()[:-1] == b.as_tuple()[:-1]


@criterion(5, "analytic toy solve", budget=None)
def test_criterion_5_analytic_toy(toy_run):
    _, cfg, report = toy_run
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations <= 2000
    assert report.wall_time < 1.0
    target = analytic_box_solution([2.0, -1.0], [1.0, 1.0])
    assert float(np.linalg.norm(report.x - target)) <= 1e-5


@criterion(6, "convex rate sanity")
def test_criterion_6_convex_rate(rate_run):
    _, cfg, report = rate_run
    psi_star = 0.5  # analytic optimum of the toy
    schedule = cfg.schedule.with_mu0(report.mu0)
    constants = []
    for K in (50, 100, 200, 400):
        gap = report.trace[K - 1].psi - psi_star
        assert gap > 0.0
        ks = np.arange((K + 1) // 2, K + 1)
        mus = mu_values(schedule, ks)
        constants.append(gap * float(np.sum(mus)) / (1.0 + float(np.sum(mus**2))))
    assert max(constants) / min(constants) <= 10.0


@criterion(7, "schedule partial-sum bound", budget=1.0)
def test_criterion_7_schedule_bound():
    for rbar in (0.33, 0.6, 0.9):
        for spec in (power_schedule(rbar, mu0=1.0), blockwise_schedule(rbar, mu0=1.0)):
            for K in (100, 1000, 10000, 100000):
                assert partial_sum(spec, K) >= partial_sum_lower_bound(spec, K)


@criterion(8, "desk-scale instance panel")
def test_criterion_8_desk_panel(desk_runs):
    for seed in DESK_SEEDS:
        for eps in (1e-5, 1e-7):
            _, cfg, report = desk_runs[(seed, eps, 0.9, 3.0)]
            assert report.status is SolveStatus.CONVERGED, (seed, eps, report.reason)
            assert report.iterations <= 5000
            assert report.wall_time < 60.0
            assert report.term_step <= eps and report.term_slack <= eps
        obj5 = desk_runs[(seed, 1e-5, 0.9, 3.0)][2].objective
        obj7 = desk_runs[(seed, 1e-7, 0.9, 3.0)][2].objective
        assert abs(obj5 - obj7) <= 1e-3 * max(1.0, abs(obj7))


@criterion(9, "schedule trend across instances")
def test_criterion_9_schedule_trend(desk_runs):
    def iters_to_best(report, best):
        scale = max(1.0, abs(best))
        for row in report.trace:
            if (row.psi - best) / scale <= 1e-6:
                return row.k + 1
        return math.inf

    wins = 0
    for seed in DESK_SEEDS:
        fast = desk_runs[(seed, 1e-7, 0.9, 3.0)][2]
        slow = desk_runs[(seed, 1e-7, 0.33, 0.0)][2]
        best = min(fast.objective, slow.objective)
        wins += iters_to_best(fast, best) < iters_to_best(slow, best)
    assert wins >= 3


@criterion(10, "KKT certificates on converged runs")
def test_criterion_10_kkt_certificates(toy_run, desk_runs):
    converged = [toy_run] + [
        entry for entry in desk_runs.values() if entry[2].status is SolveStatus.CONVERGED
    ]
    assert len(converged) >= 11
    for prob, cfg, report in converged:
        cert = report.final_kkt
        assert cert is not None
        assert cert.complementarity >= -1e-10
        assert polar_residual(prob.cone, cert.v) <= 1e-10 * (1.0 + float(np.linalg.norm(cert.v)))
        assert report.term_step <= cfg.eps and report.term_slack <= cfg.eps

        # recompute the stationarity distance in closed form (P2 = 0 here)
        u = prob.f.gradient(report.x) + prob.g.adjoint_apply(report.x, cert.v)
        assert prob.p1.subdiff_distance(report.x, u) == pytest.approx(cert.rho, rel=1e-12, abs=1e-12)

        lam_final = report.trace[-1].lam
        if isinstance(prob.cone, NegSemidef):
            vals = np.linalg.eigvalsh(cert.v)
            assert np.all(vals >= -1e-10 * (1.0 + lam_final))
            assert float(np.sum(vals)) == pytest.approx(lam_final, abs=1e-10 * (1.0 + lam_final))
