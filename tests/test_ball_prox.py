import math

import numpy as np
import pytest

from smba.ball_prox import BallConstraint, build_ball, prox_path_point, solve_ball_prox
from smba.errors import InfeasibleStartError, UnsupportedFamilyError
from smba.oracles import GridSpec, exact_ball_projection, grid_bruteforce
from smba.problems import L1Regularizer, ZeroRegularizer


def subproblem_objective(p1, x, x_k, q, L_f):
    d = x - x_k
    return p1.value(x) + float(np.dot(q, d)) + 0.5 * L_f * float(np.dot(d, d))


def stationarity_residual(p1, x, lam, x_k, q, L_f, ball):
    """dist(0, dP1(x) + q + L_f (x - x_k) + lam * curvature * (x - center))."""
    u = q + L_f * (x - x_k) + lam * ball.curvature * (x - ball.center)
    return p1.subdiff_distance(x, u)


def reference_ball_prox(p1, x_k, q, L_f, ball):
    """Safeguarded bisection on the multiplier: the reference the exact
    solvers are checked against.  The distance to the center along the prox
    path is continuous and nonincreasing in the multiplier, so doubling
    brackets the root and bisection keeps the feasible end."""

    def phi(lam):
        x = prox_path_point(p1, x_k, q, L_f, ball, lam)
        return float(np.linalg.norm(x - ball.center)) - ball.radius, x

    phi_hi, x_hi = phi(0.0)
    if phi_hi <= 0.0:
        return x_hi, 0.0
    lo, hi = 0.0, 1.0
    phi_hi, x_hi = phi(hi)
    for _ in range(200):
        if phi_hi <= 0.0:
            break
        lo, hi = hi, 2.0 * hi
        phi_hi, x_hi = phi(hi)
    else:
        raise AssertionError("reference bisection could not bracket the multiplier")
    while (hi - lo) > 1e-15 * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        phi_mid, x_mid = phi(mid)
        if phi_mid <= 0.0:
            hi, x_hi = mid, x_mid
        else:
            lo = mid
    return x_hi, hi


def assert_matches_reference(p1, x_k, q, L_f, ball):
    res = solve_ball_prox(p1, x_k, q, L_f, ball)
    x_ref, lam_ref = reference_ball_prox(p1, x_k, q, L_f, ball)
    assert float(np.linalg.norm(res.x - x_ref)) <= 1e-9 * (1 + np.linalg.norm(res.x))
    assert res.lam == pytest.approx(lam_ref, rel=1e-6, abs=1e-9)
    assert_kkt_contract(p1, res, x_k, q, L_f, ball)


def assert_kkt_contract(p1, res, x_k, q, L_f, ball):
    dist = float(np.linalg.norm(res.x - ball.center))
    assert res.lam >= 0.0
    assert dist < ball.radius
    assert stationarity_residual(p1, res.x, res.lam, x_k, q, L_f, ball) <= 1e-8 * (
        1 + float(np.linalg.norm(q))
    )
    assert res.lam * abs(dist - ball.radius) <= 1e-8 * ball.radius


def random_instance(rng, force_l1=None):
    n = int(rng.integers(1, 6))
    x_k = rng.normal(0, 2, n)
    q = rng.normal(0, 2, n)
    L_f = float(rng.uniform(0.2, 4.0))
    ball = BallConstraint(
        center=rng.normal(0, 2, n),
        radius=float(rng.uniform(0.3, 3.0)),
        curvature=float(rng.uniform(0.2, 5.0)),
    )
    use_l1 = rng.random() < 0.5 if force_l1 is None else force_l1
    p1 = L1Regularizer(rng.uniform(0.1, 2.0, n)) if use_l1 else ZeroRegularizer()
    return p1, x_k, q, L_f, ball


class TestBuildBall:
    def test_worked_example(self):
        ball = build_ball(np.zeros(2), np.array([1.0, 0.0]), -0.5, 1.0, 1.0)
        np.testing.assert_allclose(ball.center, [-1.0, 0.0])
        assert ball.radius == pytest.approx(math.sqrt(2.0))
        assert ball.curvature == 1.0

    def test_zero_gradient(self):
        ball = build_ball(np.array([0.3, -0.2]), np.zeros(2), -0.5, 1.0, 1.0)
        np.testing.assert_allclose(ball.center, [0.3, -0.2])
        assert ball.radius == pytest.approx(1.0)

    def test_vanishing_constraint_limit(self):
        # as the constraint value tends to zero the ball shrinks to touch x_k
        grad = np.array([2.0, 0.0])
        ball = build_ball(np.zeros(2), grad, -1e-14, 1.0, 1.0)
        assert ball.radius == pytest.approx(np.linalg.norm(grad), rel=1e-10)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleStartError):
            build_ball(np.zeros(2), np.ones(2), 0.0, 1.0, 1.0)
        with pytest.raises(InfeasibleStartError):
            build_ball(np.zeros(2), np.ones(2), 0.3, 1.0, 1.0)

    def test_x_k_always_feasible(self, rng):
        # the current iterate lies inside its own ball
        for _ in range(100):
            n = int(rng.integers(1, 5))
            grad = rng.normal(0, 2, n)
            gmu = -float(rng.uniform(1e-6, 5))
            L_g = float(rng.uniform(0.1, 10))
            mu = float(10.0 ** rng.uniform(-6, 0.5))
            x_k = rng.normal(0, 2, n)
            ball = build_ball(x_k, grad, gmu, L_g, mu)
            assert float(np.linalg.norm(x_k - ball.center)) <= ball.radius


class TestProxPathPoint:
    def test_zero_multiplier_is_prox_gradient_point(self):
        ball = BallConstraint(center=np.zeros(2), radius=1.0, curvature=1.0)
        x_k = np.array([1.0, 2.0])
        q = np.array([0.5, -0.5])
        got = prox_path_point(ZeroRegularizer(), x_k, q, 2.0, ball, 0.0)
        np.testing.assert_allclose(got, x_k - q / 2.0)

    def test_large_multiplier_approaches_center(self):
        ball = BallConstraint(center=np.array([3.0, -1.0]), radius=1.0, curvature=1.0)
        got = prox_path_point(ZeroRegularizer(), np.zeros(2), np.ones(2), 1.0, ball, 1e12)
        np.testing.assert_allclose(got, ball.center, atol=1e-10)

    def test_l1_soft_threshold(self):
        ball = BallConstraint(center=np.zeros(2), radius=1.0, curvature=1.0)
        # z = x_k - q with L_f = 1; threshold 1 maps (2, 0) to (1, 0)
        x_k = np.zeros(2)
        q = np.array([-2.0, 0.0])
        got = prox_path_point(L1Regularizer(np.ones(2)), x_k, q, 1.0, ball, 0.0)
        np.testing.assert_allclose(got, [1.0, 0.0])

    def test_negative_multiplier_rejected(self):
        ball = BallConstraint(center=np.zeros(1), radius=1.0, curvature=1.0)
        with pytest.raises(ValueError):
            prox_path_point(ZeroRegularizer(), np.zeros(1), np.zeros(1), 1.0, ball, -1.0)


class TestSolveBallProx:
    def test_projection_example(self):
        # z = (3, 0) projects to (1, 0); stationarity gives lam * curvature = 2
        ball = BallConstraint(center=np.zeros(2), radius=1.0, curvature=1.0)
        res = solve_ball_prox(ZeroRegularizer(), np.zeros(2), np.array([-3.0, 0.0]), 1.0, ball)
        np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-10)
        assert res.lam == pytest.approx(2.0, rel=1e-9)

    def test_interior_point_keeps_zero_multiplier(self):
        ball = BallConstraint(center=np.zeros(2), radius=2.0, curvature=1.0)
        res = solve_ball_prox(ZeroRegularizer(), np.zeros(2), np.array([-1.0, 0.0]), 1.0, ball)
        np.testing.assert_allclose(res.x, [1.0, 0.0])
        assert res.lam == 0.0

    def test_zero_regularizer_matches_closed_form_200(self, rng):
        for _ in range(200):
            _, x_k, q, L_f, ball = random_instance(rng, force_l1=False)
            res = solve_ball_prox(ZeroRegularizer(), x_k, q, L_f, ball)
            want = exact_ball_projection(x_k - q / L_f, ball.center, ball.radius)
            assert float(np.linalg.norm(res.x - want)) <= 1e-10

    def test_l1_2d_against_grid(self):
        # frozen instance: min 0.5||x - (3,3)||^2 + ||x||_1 over the unit disk
        p1 = L1Regularizer(np.ones(2))
        ball = BallConstraint(center=np.zeros(2), radius=1.0, curvature=1.0)
        z = np.array([3.0, 3.0])
        res = solve_ball_prox(p1, np.zeros(2), -z, 1.0, ball)
        obj = lambda pts: 0.5 * np.sum((pts - z) ** 2, axis=1) + np.sum(np.abs(pts), axis=1)
        feas = lambda pts: np.sum(pts**2, axis=1) <= 1.0
        grid = GridSpec(lower=[-1.1, -1.1], upper=[1.1, 1.1], points_per_axis=2001)
        xg, vg = grid_bruteforce(obj, feas, grid)
        assert float(np.linalg.norm(res.x - xg)) <= 2e-3
        assert float(obj(res.x[None])[0]) <= vg + 1e-10

    def test_kkt_contract_random(self, rng):
        for _ in range(200):
            p1, x_k, q, L_f, ball = random_instance(rng)
            res = solve_ball_prox(p1, x_k, q, L_f, ball)
            assert_kkt_contract(p1, res, x_k, q, L_f, ball)

    def test_path_distance_monotone(self, rng):
        lams = np.concatenate([[0.0], np.logspace(-4, 4, 60)])
        for _ in range(100):
            p1, x_k, q, L_f, ball = random_instance(rng)
            dists = [
                float(np.linalg.norm(prox_path_point(p1, x_k, q, L_f, ball, lam) - ball.center))
                for lam in lams
            ]
            assert np.all(np.diff(dists) <= 1e-10)

    def test_optimality_vs_feasible_perturbations(self, rng):
        for _ in range(50):
            p1, x_k, q, L_f, ball = random_instance(rng)
            res = solve_ball_prox(p1, x_k, q, L_f, ball)
            base = subproblem_objective(p1, res.x, x_k, q, L_f)
            for _ in range(50):
                delta = rng.normal(0, 1, x_k.size)
                cand = res.x + delta * rng.uniform(0, 0.5)
                gap = cand - ball.center
                nrm = float(np.linalg.norm(gap))
                if nrm > ball.radius:
                    cand = ball.center + gap * (ball.radius / nrm)
                val = subproblem_objective(p1, cand, x_k, q, L_f)
                assert val >= base - 1e-8 * (1 + abs(base))

    def test_zero_matches_reference_bisection(self, rng):
        for _ in range(200):
            assert_matches_reference(*random_instance(rng, force_l1=False))

    def test_l1_matches_reference_bisection(self, rng):
        for _ in range(200):
            assert_matches_reference(*random_instance(rng, force_l1=True))

    def test_l1_degenerate_breakpoints(self, rng):
        # zero weights, zero center coordinates and points exactly on a
        # soft-threshold boundary give repeated breakpoints and breakpoints at 0
        for _ in range(200):
            p1, x_k, q, L_f, ball = random_instance(rng, force_l1=True)
            n = x_k.size
            w = np.where(rng.random(n) < 0.3, 0.0, p1.weights)
            center = np.where(rng.random(n) < 0.3, 0.0, ball.center)
            on_edge = rng.random(n) < 0.3
            x_k = np.where(on_edge, 0.0, x_k)
            q = np.where(on_edge, rng.choice([-1.0, 1.0], n) * w, q)
            ball = BallConstraint(center=center, radius=ball.radius, curvature=ball.curvature)
            assert_matches_reference(L1Regularizer(w), x_k, q, L_f, ball)

    def test_unsupported_regularizer_rejected(self):
        class Huber:
            def prox(self, z, t):
                return z

        ball = BallConstraint(center=np.zeros(2), radius=1.0, curvature=1.0)
        with pytest.raises(UnsupportedFamilyError):
            solve_ball_prox(Huber(), np.zeros(2), np.ones(2), 1.0, ball)

    def test_invalid_radius_rejected(self):
        with pytest.raises(ValueError):
            BallConstraint(center=np.zeros(2), radius=0.0, curvature=1.0)
