import dataclasses
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import smba.solver
from smba.ball_prox import (
    PHI_TOL,
    BallConstraint,
    _double_sum,
    _l1_multiplier,
    build_ball,
    solve_ball_prox,
)
from smba.errors import NumericError
from smba.nsdp import generate_nsdp, nsdp_problem
from smba.problems import L1Concave, L1Regularizer, ZeroRegularizer, norm_ball_problem
from smba.solver import SolverConfig, run

from helpers import GridSpec, exact_ball_projection, grid_bruteforce, prox_path_point


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
    x, lam = solve_ball_prox(p1, x_k, q, L_f, ball)
    x_ref, lam_ref = reference_ball_prox(p1, x_k, q, L_f, ball)
    assert float(np.linalg.norm(x - x_ref)) <= 1e-9 * (1 + np.linalg.norm(x))
    assert lam == pytest.approx(lam_ref, rel=1e-6, abs=1e-9)
    assert_kkt_contract(p1, x, lam, x_k, q, L_f, ball)


def assert_kkt_contract(p1, x, lam, x_k, q, L_f, ball):
    dist = float(np.linalg.norm(x - ball.center))
    assert lam >= 0.0
    assert dist < ball.radius
    assert stationarity_residual(p1, x, lam, x_k, q, L_f, ball) <= 1e-8 * (
        1 + float(np.linalg.norm(q))
    )
    assert lam * abs(dist - ball.radius) <= 1e-8 * ball.radius


def reference_l1_multiplier(w, a, c, L_f, R):
    """The l1 multiplier by a vectorized scan of running sums over the
    sorted breakpoints, exact masked sums and a step-back to the root's
    piece: the reference the one-pass ``_l1_multiplier`` is checked against."""
    n = a.size
    below2 = (a + w - L_f * c) ** 2
    above2 = (a - w - L_f * c) ** 2
    c2 = c * c
    # region just right of nu = 0: -1 below, 0 dead, +1 above; a tie on a
    # boundary moves in the direction of c
    start = (((a > w) | ((a == w) & (c > 0))).astype(int)
             - ((a < -w) | ((a == -w) & (c < 0))).astype(int))
    # s_i crosses +w_i at (w - a) / c and -w_i at (-w - a) / c; each crossing
    # moves coordinate i one region in the direction of c_i
    sign = np.sign(c).astype(int)
    nz = c != 0.0
    knots = np.concatenate([np.divide(w - a, c, out=np.zeros(n), where=nz),
                            np.divide(-w - a, c, out=np.zeros(n), where=nz)])
    dP = np.concatenate([sign * above2, -sign * below2])
    dQ = np.concatenate([-sign * c2, sign * c2])
    keep = np.flatnonzero((knots > 0.0) & np.isfinite(knots))
    order = keep[np.argsort(knots[keep], kind="stable")]
    knots, coord = knots[order], order % n
    ends = np.concatenate([[0.0], knots, [math.inf]])  # piece p is [ends[p], ends[p + 1]]
    R2 = R * R

    def sums(p):
        """Exact (P, Q) on piece p."""
        region = start + sign * np.bincount(coord[:p], minlength=n)
        return (float(below2[region < 0].sum() + above2[region > 0].sum()),
                float(c2[region == 0].sum()))

    # locate the piece with running sums over the sorted breakpoints: the
    # first whose right end is inside the sphere
    P0, Q0 = sums(0)
    P = P0 + np.concatenate([[0.0], np.cumsum(dP[order])[:-1]])
    Q = Q0 + np.concatenate([[0.0], np.cumsum(dQ[order])[:-1]])
    inside = Q + P / (L_f + knots) ** 2 <= R2
    p = int(np.argmax(np.append(inside, True)))
    # the running sums cancel badly when R is small next to ||c||, so the
    # piece can be off by a breakpoint that lies within rounding of the
    # sphere; step to the piece that holds the root of the exact sums
    step = 0
    while True:
        P, Q = sums(p)
        nu = math.sqrt(P / (R2 - Q)) - L_f if Q < R2 else math.inf
        if nu > ends[p + 1] and step >= 0:
            p, step = p + 1, 1
        elif nu < ends[p] and p > 0 and step <= 0:
            p, step = p - 1, -1
        else:
            return float(min(max(nu, ends[p]), ends[p + 1]))


def reference_path_point(p1, x_k, q, L_f, ball, lam):
    """``prox_path_point`` written out, so that a change to ``_path_point``,
    the kernel that it shares with ``solve_ball_prox``, shows."""
    t = L_f + lam * ball.curvature
    z = (L_f * x_k - q + lam * ball.curvature * ball.center) / t
    return p1.prox(z, 1.0 / t)


def reference_solve_ball_prox(p1, x_k, q, L_f, ball):
    """The subproblem solved with two prox evaluations per l1 pass: the
    start point ``x(0)``, its distance to the center in numpy, then
    ``_l1_multiplier`` and the path point at its root.  ``solve_ball_prox``
    must return the same bits."""
    x_k = np.asarray(x_k, dtype=float)
    q = np.asarray(q, dtype=float)
    R = ball.radius
    margin = min(PHI_TOL * (1.0 + R), 1e-10 / (ball.curvature * R), 0.5 * R)

    x0 = reference_path_point(p1, x_k, q, L_f, ball, 0.0)
    gap = x0 - ball.center
    dist = math.sqrt(gap.dot(gap))
    while margin < R:
        radius = R - margin
        if dist <= radius:
            x, lam = x0, 0.0
        elif isinstance(p1, L1Regularizer):
            nu = _l1_multiplier(p1.thresholds, L_f * x_k - q, ball.center, float(L_f), radius)
            lam = nu / ball.curvature
            x = reference_path_point(p1, x_k, q, L_f, ball, lam)
        else:
            # P1 = 0: x(nu) - center = L_f (x0 - center) / (L_f + nu)
            nu = L_f * (dist / radius - 1.0)
            lam = float(nu / ball.curvature)
            x = ball.center + (radius / dist) * gap
        x_gap = x - ball.center
        if math.sqrt(x_gap.dot(x_gap)) < R:
            return x, lam
        margin = max(2.0 * margin, math.ulp(R))
    raise NumericError("ball subproblem has no point strictly inside the ball at double precision")


EPS = np.finfo(float).eps


def exact_l1_roots(w, a, c, L_f, R, widen=4 * EPS):
    """Exact roots of the l1 multiplier for the radii ``R (1 + widen)`` and
    ``R (1 - widen)``, in 40-digit arithmetic from the exact squared distance.

    Bisection over the sorted breakpoints finds the root's piece, where the
    squared distance is ``Q + P / (L_f + nu)^2`` with P and Q summed afresh
    from the regions inside the piece; the root there is closed-form.  The
    two radii bracket the rounding of ``R``: the roots agree to about
    ``widen`` times the conditioning, except where the sphere meets the
    plateau on which every coordinate is in the dead zone, so that the
    whole plateau is a root within rounding.
    """
    with mpmath.workdps(40):
        mpf = mpmath.mpf
        L = mpf(L_f)
        coords = []
        for wi, ai, ci in zip(w.tolist(), a.tolist(), c.tolist()):
            wi, ai, ci = mpf(wi), mpf(ai), mpf(ci)
            coords.append((wi, ai, ci, (ai - wi - L * ci) ** 2, (ai + wi - L * ci) ** 2))

        def sums(nu):
            """(P, Q) of the regions at nu."""
            P = Q = mpf(0)
            for wi, ai, ci, above2, below2 in coords:
                s = ai + nu * ci
                if s > wi:
                    P += above2
                elif s < -wi:
                    P += below2
                else:
                    Q += ci * ci
            return P, Q

        knots = sorted(k for wi, ai, ci, _, _ in coords if ci != 0
                       for k in ((wi - ai) / ci, (-wi - ai) / ci) if k > 0)
        at_knot = {}

        def root(R2):
            # the root's piece ends at the first breakpoint inside the sphere
            lo, hi = 0, len(knots)
            while lo < hi:
                mid = (lo + hi) // 2
                if mid not in at_knot:
                    P, Q = sums(knots[mid])
                    at_knot[mid] = Q + P / (L + knots[mid]) ** 2
                if at_knot[mid] <= R2:
                    hi = mid
                else:
                    lo = mid + 1
            left = knots[lo - 1] if lo else mpf(0)
            right = knots[lo] if lo < len(knots) else mpmath.inf
            P, Q = sums(left + 1 if right == mpmath.inf else (left + right) / 2)
            nu = mpmath.sqrt(P / (R2 - Q)) - L if Q < R2 else mpmath.inf
            return min(max(nu, left), right)

        R = mpf(R)
        return root((R * (1 + widen)) ** 2), root((R * (1 - widen)) ** 2)


def assert_l1_multiplier_accurate(args, rel=1e-12):
    """``_l1_multiplier`` between the exact roots for the radius rounded
    either way, within ``rel``; and within ``rel`` of the reference scan
    plus the width of that bracket.  ``args`` starts with the weights, which
    ``_l1_multiplier`` reads as the thresholds ``L1Regularizer`` holds."""
    got = _l1_multiplier(L1Regularizer(args[0]).thresholds, *args[1:])
    lo, hi = exact_l1_roots(*args)
    assert lo * (1 - rel) <= got <= hi * (1 + rel)
    ref = reference_l1_multiplier(*args)
    assert abs(got - ref) <= rel * ref + (hi - lo)
    return got


def cancelling_l1_instance(rng, through):
    """``(w, a, c, L_f, R)`` where Q falls by eight or more orders of
    magnitude before the root's piece, with ``R^2 = 10 Q`` there.  Three
    coordinates with ``|c_i|`` near 0.25 start in the dead zone and leave
    it, or with ``through`` start outside it and cross it, before the
    root; five with ``|c_i|`` near 1e-5 stay in it."""
    big, small = rng.uniform(0.2, 0.3, 3), rng.uniform(0.5, 1.5, 5) * 1e-5
    c = np.concatenate([big, small]) * rng.choice([-1.0, 1.0], 8)
    w = np.concatenate([rng.uniform(0.5, 1.5, 3), rng.uniform(6.0, 8.0, 5)])
    if through:  # outside, on the side that s = a + nu c leaves
        a_big = -np.sign(c[:3]) * (w[:3] + rng.uniform(0.1, 0.5, 3))
    else:
        a_big = rng.uniform(-0.9, 0.9, 3) * w[:3]
    a = np.concatenate([a_big, rng.uniform(-0.5, 0.5, 5)])
    return w, a, c, 1.0, math.sqrt(10.0 * float(np.sum(small**2)))


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


def degenerate_l1_instance(rng):
    """Zero weights, zero center coordinates and points exactly on a
    soft-threshold boundary: repeated breakpoints and breakpoints at 0."""
    p1, x_k, q, L_f, ball = random_instance(rng, force_l1=True)
    n = x_k.size
    w = np.where(rng.random(n) < 0.3, 0.0, p1.weights)
    center = np.where(rng.random(n) < 0.3, 0.0, ball.center)
    on_edge = rng.random(n) < 0.3
    x_k = np.where(on_edge, 0.0, x_k)
    q = np.where(on_edge, rng.choice([-1.0, 1.0], n) * w, q)
    ball = BallConstraint(center=center, radius=ball.radius, curvature=ball.curvature)
    return L1Regularizer(w), x_k, q, L_f, ball


def root_on_breakpoint_instance(rng):
    """An l1 ball whose sphere meets the prox path exactly at a breakpoint."""
    n = int(rng.integers(2, 21))
    x_k, q, center = rng.normal(0, 2, n), rng.normal(0, 2, n), rng.normal(0, 2, n)
    w = rng.uniform(0.1, 2.0, n)
    L_f, curvature = float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.2, 5.0))
    a = L_f * x_k - q
    knots = np.concatenate([(w - a) / center, (-w - a) / center])
    nu = rng.choice(knots[knots > 0]) if np.any(knots > 0) else 1.0
    p1 = L1Regularizer(w)
    path_ball = BallConstraint(center=center, radius=1.0, curvature=curvature)
    on_path = prox_path_point(p1, x_k, q, L_f, path_ball, nu / curvature)
    radius = float(np.linalg.norm(on_path - center))
    return p1, x_k, q, L_f, BallConstraint(center=center, radius=radius, curvature=curvature)


def wide_l1_instance(rng, duplicate):
    """An l1 ball at n from 20 to 128, where numpy's pairwise sums unroll,
    whose sphere meets the prox path at a random multiplier or at a
    breakpoint.  With ``duplicate``, a third of the coordinates copy
    others, so breakpoints repeat exactly."""
    n = int(rng.integers(20, 129))
    x_k, q, center = rng.normal(0, 2, n), rng.normal(0, 2, n), rng.normal(0, 2, n)
    w = rng.uniform(0.1, 2.0, n)
    if duplicate:
        src, dst = rng.integers(0, n, (2, n // 3))
        for v in (x_k, q, center, w):
            v[dst] = v[src]
    L_f, curvature = float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.2, 5.0))
    a = L_f * x_k - q
    knots = np.concatenate([(w - a) / center, (-w - a) / center])
    knots = knots[knots > 0]
    nu = rng.choice(knots) if knots.size and rng.random() < 0.5 else rng.uniform(0.0, 10.0)
    p1 = L1Regularizer(w)
    path_ball = BallConstraint(center=center, radius=1.0, curvature=curvature)
    on_path = prox_path_point(p1, x_k, q, L_f, path_ball, nu / curvature)
    radius = float(np.linalg.norm(on_path - center))
    return p1, x_k, q, L_f, BallConstraint(center=center, radius=radius, curvature=curvature)


class TestBuildBall:
    def test_worked_example(self):
        ball = build_ball(np.zeros(2), np.array([1.0, 0.0]), 1.0, -0.5, 1.0, 1.0)
        np.testing.assert_allclose(ball.center, [-1.0, 0.0])
        assert ball.radius == pytest.approx(math.sqrt(2.0))
        assert ball.curvature == 1.0

    def test_zero_gradient(self):
        ball = build_ball(np.array([0.3, -0.2]), np.zeros(2), 0.0, -0.5, 1.0, 1.0)
        np.testing.assert_allclose(ball.center, [0.3, -0.2])
        assert ball.radius == pytest.approx(1.0)

    def test_vanishing_constraint_limit(self):
        # as the constraint value tends to zero the ball shrinks to touch x_k
        grad = np.array([2.0, 0.0])
        ball = build_ball(np.zeros(2), grad, grad.dot(grad), -1e-14, 1.0, 1.0)
        assert ball.radius == pytest.approx(np.linalg.norm(grad), rel=1e-10)

    def test_x_k_always_feasible(self, rng):
        # the current iterate lies inside its own ball
        for _ in range(100):
            n = int(rng.integers(1, 5))
            grad = rng.normal(0, 2, n)
            gmu = -float(rng.uniform(1e-6, 5))
            L_g = float(rng.uniform(0.1, 10))
            mu = float(10.0 ** rng.uniform(-6, 0.5))
            x_k = rng.normal(0, 2, n)
            ball = build_ball(x_k, grad, grad.dot(grad), gmu, L_g, mu)
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
    @pytest.mark.parametrize("terms", [[1e308, 1e308], [math.inf, 1.0]],
                             ids=["partial-sums", "inf-term"])
    def test_overflowing_start_sums_raise(self, terms):
        # finite terms whose exact sum passes the float range make math.fsum
        # raise OverflowError; oracle vectors that pass the solver's
        # squared-norm check can still form such terms
        with pytest.raises(NumericError, match="^l1 subproblem terms overflow the float range$"):
            _double_sum(terms)

    def test_projection_example(self):
        # z = (3, 0) projects to (1, 0); stationarity gives lam * curvature = 2
        ball = BallConstraint(center=np.zeros(2), radius=1.0, curvature=1.0)
        x, lam = solve_ball_prox(ZeroRegularizer(), np.zeros(2), np.array([-3.0, 0.0]), 1.0, ball)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-10)
        assert lam == pytest.approx(2.0, rel=1e-9)

    def test_interior_point_keeps_zero_multiplier(self):
        ball = BallConstraint(center=np.zeros(2), radius=2.0, curvature=1.0)
        x, lam = solve_ball_prox(ZeroRegularizer(), np.zeros(2), np.array([-1.0, 0.0]), 1.0, ball)
        np.testing.assert_allclose(x, [1.0, 0.0])
        assert lam == 0.0

    def test_zero_regularizer_matches_closed_form_200(self, rng):
        for _ in range(200):
            _, x_k, q, L_f, ball = random_instance(rng, force_l1=False)
            x, _ = solve_ball_prox(ZeroRegularizer(), x_k, q, L_f, ball)
            want = exact_ball_projection(x_k - q / L_f, ball.center, ball.radius)
            assert float(np.linalg.norm(x - want)) <= 1e-10

    def test_l1_2d_against_grid(self):
        # frozen instance: min 0.5||x - (3,3)||^2 + ||x||_1 over the unit disk
        p1 = L1Regularizer(np.ones(2))
        ball = BallConstraint(center=np.zeros(2), radius=1.0, curvature=1.0)
        z = np.array([3.0, 3.0])
        x, _ = solve_ball_prox(p1, np.zeros(2), -z, 1.0, ball)
        obj = lambda pts: 0.5 * np.sum((pts - z) ** 2, axis=1) + np.sum(np.abs(pts), axis=1)
        feas = lambda pts: np.sum(pts**2, axis=1) <= 1.0
        grid = GridSpec(lower=[-1.1, -1.1], upper=[1.1, 1.1], points_per_axis=2001)
        xg, vg = grid_bruteforce(obj, feas, grid)
        assert float(np.linalg.norm(x - xg)) <= 2e-3
        assert float(obj(x[None])[0]) <= vg + 1e-10

    def test_l1_interior_point_keeps_zero_multiplier(self):
        # x(0) = soft-threshold of (1.5, -0.1, -1) at 1/2: (1, 0, -0.5), with
        # a coordinate above, one in and one below the dead zone, well inside
        # the ball; the multiplier is exactly 0 and the point is x(0) itself
        p1 = L1Regularizer(np.full(3, 1.0))
        ball = BallConstraint(center=np.array([0.5, 0.25, -0.5]), radius=2.0, curvature=3.0)
        x_k, q, L_f = np.array([1.0, 0.0, -1.0]), np.array([-1.0, 0.2, 0.0]), 2.0
        assert _l1_multiplier(p1.thresholds, L_f * x_k - q, ball.center, L_f, ball.radius) == 0.0
        x, lam = solve_ball_prox(p1, x_k, q, L_f, ball)
        assert lam == 0.0
        assert np.array_equal(x, prox_path_point(p1, x_k, q, L_f, ball, 0.0))
        np.testing.assert_allclose(x, [1.0, 0.0, -0.5])

    @given(st.integers(1, 120), st.floats(-8.0, 1.0), st.floats(-1.0, 1.0),
           st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_l1_bitwise_equal_to_reference(self, n, log_ratio, log_start, on_sphere, seed):
        # R from 1e-8 to 10 times ||c||; the path starts at about
        # 10**log_start R from the center, inside the ball or outside it, or
        # with on_sphere at the radius the multiplier is solved for; zero
        # weights, zero and -0.0 center and x_k entries, and coordinates
        # exactly on a threshold (a == +-w).  Inputs lie on dyadic grids as
        # in test_l1_multiplier_sweep, so both start distances are within
        # rounding of the exact one
        rng = np.random.default_rng(seed)
        grid = lambda v, step: np.round(v / step) * step
        c = grid(rng.normal(0.0, 1.0, n), 2.0**-33)
        c[rng.random(n) < 0.15] = 0.0
        c[rng.random(n) < 0.15] = -0.0
        assume(np.any(c != 0.0))
        R = float(np.linalg.norm(c)) * 10.0**log_ratio
        w = grid(np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.0, 2.0, n)), 2.0**-36)
        L_f = 2.0 ** int(rng.integers(-3, 4))
        u = rng.normal(0.0, 1.0, n)
        x0 = c + u * (R * 10.0**log_start / float(np.linalg.norm(u)))
        a = grid(L_f * x0 + np.sign(x0) * w, 2.0**-36)
        tie = rng.random(n) < 0.2
        a[tie] = rng.choice([-1.0, 1.0], n)[tie] * w[tie]
        # x_k = +-0 makes L_f x_k - q equal to a exactly
        x_k = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        p1 = L1Regularizer(w)
        curvature = float(10.0 ** rng.uniform(-2, 2))
        margin = lambda R: min(PHI_TOL * (1.0 + R), 1e-10 / (curvature * R), 0.5 * R)
        ball = BallConstraint(center=c, radius=R, curvature=curvature)
        start = prox_path_point(p1, x_k, -a, L_f, ball, 0.0) - c
        dist = math.sqrt(start.dot(start))
        if on_sphere:
            assume(dist > 0.0)
            R = dist + margin(dist)
            R = dist + margin(R)
            ball = BallConstraint(center=c, radius=R, curvature=curvature)
        got = solve_ball_prox(p1, x_k, -a, L_f, ball)
        want = reference_solve_ball_prox(p1, x_k, -a, L_f, ball)
        if abs(dist - (R - margin(R))) > 4 * math.ulp(R):
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].hex() == want[1].hex()
        else:
            # the numpy start distance and the multiplier's double-double
            # sums may round to opposite sides of the radius.  Both points
            # are then strictly inside and stationary, and the two
            # multipliers agree within 1e-12 on their own scale
            # L_f / curvature, or the distance is flat within rounding
            # between them, so both are its roots: on a plateau, where every
            # coordinate is in the dead zone or on the center, the whole
            # plateau is a root and the multiplier may be its far end
            for x, lam in (got, want):
                assert float(np.linalg.norm(x - c)) < R
                assert stationarity_residual(p1, x, lam, x_k, -a, L_f, ball) <= \
                    1e-8 * (1 + float(np.linalg.norm(a)))
            lo, hi = sorted((got[1], want[1]))
            if hi - lo > 1e-12 * (hi + L_f / curvature):
                far, near = (float(np.linalg.norm(prox_path_point(p1, x_k, -a, L_f, ball, lam) - c))
                             for lam in (lo, hi))
                assert far - near <= 8 * math.ulp(R)

    def test_kkt_contract_random(self, rng):
        for _ in range(200):
            p1, x_k, q, L_f, ball = random_instance(rng)
            x, lam = solve_ball_prox(p1, x_k, q, L_f, ball)
            assert_kkt_contract(p1, x, lam, x_k, q, L_f, ball)

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
            x, _ = solve_ball_prox(p1, x_k, q, L_f, ball)
            base = subproblem_objective(p1, x, x_k, q, L_f)
            for _ in range(50):
                delta = rng.normal(0, 1, x_k.size)
                cand = x + delta * rng.uniform(0, 0.5)
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
        for _ in range(200):
            assert_matches_reference(*degenerate_l1_instance(rng))

    def test_l1_multiplier_matches_reference_and_exact_root(self, rng):
        # random and degenerate balls, and balls whose sphere passes through
        # the path point at a breakpoint
        draws = [random_instance(rng, force_l1=True) for _ in range(300)]
        draws += [degenerate_l1_instance(rng) for _ in range(300)]
        draws += [root_on_breakpoint_instance(rng) for _ in range(300)]
        reached = 0
        for p1, x_k, q, L_f, ball in draws:
            x0 = prox_path_point(p1, x_k, q, L_f, ball, 0.0)
            if np.linalg.norm(x0 - ball.center) <= ball.radius:
                continue
            assert_l1_multiplier_accurate((p1.weights, L_f * x_k - q, ball.center, L_f,
                                           ball.radius))
            reached += 1
        assert reached > 600

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_l1_multiplier_accurate_at_wide_n(self, rng, duplicate):
        # n from 20 to 128; with duplicate, exactly repeated breakpoints tie in the sort
        reached = 0
        for _ in range(200):
            p1, x_k, q, L_f, ball = wide_l1_instance(rng, duplicate)
            x0 = prox_path_point(p1, x_k, q, L_f, ball, 0.0)
            if np.linalg.norm(x0 - ball.center) <= ball.radius:
                continue
            assert_l1_multiplier_accurate((p1.weights, L_f * x_k - q, ball.center, L_f,
                                           ball.radius))
            reached += 1
        assert reached > 150

    @pytest.mark.parametrize("through", [False, True], ids=["start", "crossing"])
    def test_l1_multiplier_cancelling_sums(self, rng, through):
        # Q falls from about 0.2 to about 5e-10 before the root's piece: from
        # the start sum, or after big c_i^2 join a small running sum and
        # leave it.  A sum rounded to one double is off by about 1e-8 there
        for _ in range(50):
            w, a, c, L_f, R = cancelling_l1_instance(rng, through)
            big, small = c[:3] ** 2, c[3:] ** 2
            knots = np.concatenate([(w - a) / c, (-w - a) / c]).reshape(2, 8)
            nu = assert_l1_multiplier_accurate((w, a, c, L_f, R))
            assert np.all((np.abs(a) > w)[:3] if through else np.abs(a) < w)
            assert (big.max() >= 1e7 * small.sum()) if through else \
                (big.sum() >= 1e8 * small.sum())
            assert knots[:, :3].max() < nu < np.abs(knots[:, 3:]).min()
            ball = BallConstraint(center=c, radius=R, curvature=1.0)
            x, lam = solve_ball_prox(L1Regularizer(w), np.zeros(8), -a, L_f, ball)
            assert float(np.linalg.norm(x - c)) < R
            assert lam > 0.0

    def test_l1_multiplier_at_start_distance(self, rng):
        # a radius one ulp below the distance at nu = 0 puts the root at (or,
        # on a plateau of the distance, past) the left end of the first
        # piece, where rounding must not make it negative
        at_zero = 0
        for _ in range(300):
            p1, x_k, q, L_f, ball = random_instance(rng, force_l1=True)
            x0 = prox_path_point(p1, x_k, q, L_f, ball, 0.0)
            R = math.nextafter(float(np.linalg.norm(x0 - ball.center)), 0.0)
            nu = assert_l1_multiplier_accurate((p1.weights, L_f * x_k - q, ball.center, L_f, R))
            assert nu >= 0.0
            at_zero += nu == 0.0
        assert at_zero > 30

    @pytest.mark.parametrize("w, a, c, R, ball_radius, curvature", [
        ([1.0, 1.0], [0.1, -0.2], [3.0, 4.0], 5.0, 5.000000000006, 1.0),
        ([1.0], [0.5], [2.0], 2.0, 2.0000000000005, 100.0),
    ], ids=["n2", "n1"])
    def test_l1_multiplier_distance_plateau(self, w, a, c, R, ball_radius, curvature):
        # every |a_i| < w_i, so x(nu) = 0 up to the first knot and its
        # distance to c is exactly R there: the whole first piece is a root,
        # and the smallest is 0
        w, a, c = np.array(w), np.array(a), np.array(c)
        nu = _l1_multiplier(L1Regularizer(w).thresholds, a, c, 1.0, R)
        assert nu == 0.0 and type(nu) is float
        # a ball whose radius less the solver's margin is exactly R: x(0) is
        # strictly inside it, so the multiplier is 0
        ball = BallConstraint(center=c, radius=ball_radius, curvature=curvature)
        x, lam = solve_ball_prox(L1Regularizer(w), np.zeros(c.size), -a, 1.0, ball)
        assert lam == 0.0
        assert np.array_equal(x, np.zeros(c.size))

    def test_l1_multiplier_plateau_past_the_first_piece(self):
        # x(0) = -1 lies below the dead zone; from the knot 1 / 0.3, where s
        # crosses -w, x(nu) = 0 at distance exactly R = c from the center.
        # The first piece's root rounds one ulp past that knot, so the
        # multiplier comes from the plateau that follows: its left end
        nu = _l1_multiplier(L1Regularizer(np.ones(1)).thresholds, np.array([-2.0]),
                            np.array([0.3]), 1.0, 0.3)
        assert nu == (-1.0 + 2.0) / 0.3

    def test_l1_multiplier_from_correctly_rounded_sums(self):
        # coordinate 2 leaves the dead zone early, adding a term larger than
        # the running P; the double-double sums keep that addition's rounding
        # error, so the root is the one of its piece's sums, each rounded once
        w = np.array([0.13064525105233385, 0.8613010958005517, 0.6290937466001745])
        a = np.array([0.13380147751005902, -14.035067478613927, -0.5168165491642254])
        c = np.array([1.189573969839777, 1.5365598744781388, 0.582002092102757])
        R = 0.5262821073146405
        nu = _l1_multiplier(L1Regularizer(w).thresholds, a, c, 1.0, R)
        s = a + nu * c
        above, below = s > w, s < -w
        assert np.abs(np.abs(s) - w).min() > 1.0  # each region is clear of rounding
        terms = [w - a + c, -w - a + c]  # each alpha as the kernel forms it, squared below
        P = sum(Fraction(float(t * t)) for t in np.concatenate(
            [terms[0][above], terms[1][below]]))
        Q = sum(Fraction(float(ci * ci)) for ci in c[~(above | below)])
        assert nu == math.sqrt(float(P) / (R * R - float(Q))) - 1.0

    def test_l1_multiplier_skips_a_piece_at_q_equal_r2(self):
        # coordinate 0 starts in the dead zone with c_0 = R, so Q = R^2
        # exactly, while coordinate 1 lies outside it (P = 9): the distance
        # exceeds R on all of the first piece, and the root lies on the next
        nu = _l1_multiplier(L1Regularizer(np.ones(2)).thresholds, np.array([0.0, 5.0]),
                            np.ones(2), 1.0, 1.0)
        assert nu == pytest.approx(math.sqrt(13.0) - 1.0, rel=1e-15)

    @given(st.integers(1, 120), st.floats(-8.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_l1_multiplier_sweep(self, n, log_ratio, seed):
        # R from 1e-8 to 10 times ||c||, with zero weights, zero and -0.0
        # center entries, and coordinates exactly on a threshold (a == +-w).
        # L_f is a power of two and a, w, c lie on dyadic grids, so
        # a -+ w - L_f c is exact in doubles: the check measures the scan's
        # rounding, not the cancellation in those terms when the path starts
        # within 1e-8 ||c|| of the center
        rng = np.random.default_rng(seed)
        grid = lambda v, step: np.round(v / step) * step
        c = grid(rng.normal(0.0, 1.0, n), 2.0**-33)
        c[rng.random(n) < 0.15] = 0.0
        c[rng.random(n) < 0.15] = -0.0
        assume(np.any(c != 0.0))
        R = float(np.linalg.norm(c)) * 10.0**log_ratio
        w = grid(np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.0, 2.0, n)), 2.0**-36)
        L_f = 2.0 ** int(rng.integers(-3, 4))
        # the path starts near x0 = c + u, R < ||u|| < 10 R, with some
        # coordinates moved onto a threshold
        u = rng.normal(0.0, 1.0, n)
        x0 = c + u * (R * 10.0 ** rng.uniform(0.01, 1.0) / float(np.linalg.norm(u)))
        a = grid(L_f * x0 + np.sign(x0) * w, 2.0**-36)
        tie = rng.random(n) < 0.2
        a[tie] = rng.choice([-1.0, 1.0], n)[tie] * w[tie]
        p1 = L1Regularizer(w)
        ball = BallConstraint(center=c, radius=R, curvature=float(10.0 ** rng.uniform(-2, 2)))
        start = prox_path_point(p1, np.zeros(n), -a, L_f, ball, 0.0)
        assume(np.linalg.norm(start - c) > R)
        assert_l1_multiplier_accurate((w, a, c, L_f, R))
        x, lam = solve_ball_prox(p1, np.zeros(n), -a, L_f, ball)
        assert float(np.linalg.norm(x - c)) < R
        assert lam >= 0.0 and math.isfinite(lam)

    @given(st.floats(0.0, 12.0), st.floats(-6.0, 7.0), st.integers(1, 30),
           st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_strictly_inside_at_any_curvature(self, log_cr2, log_r, n, use_l1, seed):
        # curvature * R**2 from 1 to 1e12: from about 1e6 on, the 1e-10 / (curvature R)
        # margin is below the spacing of doubles at R
        rng = np.random.default_rng(seed)
        R = 10.0**log_r
        center = rng.normal(0, 1, n) * R * 10.0 ** rng.uniform(-2, 2)
        ball = BallConstraint(center=center, radius=R, curvature=10.0**log_cr2 / R**2)
        x_k = center + rng.normal(0, 1, n) * R / (2 * math.sqrt(n))
        q = rng.normal(0, 1, n) * 10.0 ** rng.uniform(-2, 4)
        p1 = L1Regularizer(rng.uniform(0, 1, n) * 10.0 ** rng.uniform(-3, 2)) if use_l1 \
            else ZeroRegularizer()
        x, lam = solve_ball_prox(p1, x_k, q, float(10.0 ** rng.uniform(-4, 4)), ball)
        assert float(np.linalg.norm(x - center)) < R
        assert lam >= 0.0 and math.isfinite(lam)

    @pytest.mark.parametrize("use_l1", [False, True], ids=["zero", "l1"])
    def test_radius_below_phi_tol(self, rng, use_l1):
        # a radius below the starting margin of about 1e-12 still gets a point
        # strictly inside, from a margin capped at half the radius
        R, n = 1e-13, 5
        center = rng.normal(0, 1, n)
        ball = BallConstraint(center=center, radius=R, curvature=2.8e12)
        x_k = center + rng.normal(0, 1, n) * R / (4 * math.sqrt(n))
        p1 = L1Regularizer(np.full(n, 0.1)) if use_l1 else ZeroRegularizer()
        x, lam = solve_ball_prox(p1, x_k, rng.normal(0, 1, n), 2.7e11, ball)
        assert float(np.linalg.norm(x - center)) < R
        assert lam > 0.0 and math.isfinite(lam)

    @pytest.mark.parametrize("p1", [ZeroRegularizer(), L1Regularizer([1.0, 1.0])],
                             ids=["zero", "l1"])
    def test_overflowing_multiplier_raises_without_warning(self, p1):
        # a = 1e200 puts x(0) at a distance whose square overflows (P1 = 0),
        # and a = 1e150 the l1 root's sqrt(P / R^2) past the float range: an
        # infinite multiplier, which the subproblem returned (P1 = 0) or
        # formed a NaN path point from (l1), after overflow warnings
        a = np.full(2, 1e200 if isinstance(p1, ZeroRegularizer) else 1e150)
        ball = BallConstraint(center=np.zeros(2), radius=1e-5, curvature=1.0)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(NumericError, match="ball subproblem terms overflow the float"):
                solve_ball_prox(p1, np.zeros(2), -a, 1.0, ball)
        assert [str(w.message) for w in seen] == []

    @pytest.mark.parametrize("p1, x_k, q, L_f, center, radius", [
        # a unit ball about x_k = 1e18, where doubles are 128 apart: the l1
        # path point is formed from L_f x_k - q, whose rounding there is far
        # larger than the radius, so at every margin the computed point lands
        # on or outside the sphere
        (L1Regularizer([100.0]), [1e18], [-2.0], 5.1, [1e18], 1.0),
        # a ball of one ulp about an odd double: the margin starts at half
        # the radius, where the point ties and rounds to the next double, on
        # the sphere; the doubled margin is the whole radius, so no pass is left
        (ZeroRegularizer(), [2.0], [0.0], 1.0, [1.0 + 2.0**-52], 2.0**-52),
    ], ids=["l1-far", "one-ulp"])
    def test_no_interior_point_at_double_precision_raises(self, p1, x_k, q, L_f, center,
                                                         radius):
        ball = BallConstraint(center=np.array(center), radius=radius, curvature=1.0)
        with pytest.raises(NumericError, match="^ball subproblem has no point strictly inside "
                                               "the ball at double precision$"):
            solve_ball_prox(p1, np.array(x_k), np.array(q), L_f, ball)

    def test_zero_regularizer_start_on_the_solved_radius(self):
        # x(0) lies exactly at the radius solved for, R less the margin: the
        # multiplier is 0 and the point x(0) itself, not c + (x(0) - c),
        # which rounds to another double
        c, x0 = -10.025841171982997, -0.007200783780651968
        assert c + (x0 - c) != x0
        ball = BallConstraint(center=np.array([c]), radius=10.018640388212326, curvature=1.0)
        x, lam = solve_ball_prox(ZeroRegularizer(), np.array([x0]), np.zeros(1), 1.0, ball)
        assert lam == 0.0 and x.tolist() == [x0]


def socp_dc_instance_1():
    """The benchmark's ``socp-dc`` instance 1: a norm ball of half ``||c||``,
    ``P1 = 0`` and ``P2 = 0.1 ||x||_1``."""
    c = np.random.Generator(np.random.Philox(key=1)).standard_normal(200)
    prob = norm_ball_problem(c, 0.5 * float(np.linalg.norm(c)))
    return dataclasses.replace(prob, p2=L1Concave(0.1))


@pytest.mark.parametrize("build, eps, min_rows", [
    (lambda: nsdp_problem(generate_nsdp(20, 10, 6)), 1e-7, 300),
    (socp_dc_instance_1, 1e-7, 20),
], ids=["nsdp-desk", "socp-dc"])
def test_solver_trace_bitwise_with_reference_subproblem(monkeypatch, build, eps, min_rows):
    # an instance solved with solve_ball_prox and again with the reference:
    # every trace column but elapsed_s keeps its bits.  The desk instance
    # runs the l1 path past the first schedule block of 301 indices (desk
    # instance 6: 405 steps), the socp-dc one the closed form for P1 = 0
    # (26 steps at 1e-7)
    prob, cfg = build(), SolverConfig(eps=eps)
    bits = lambda report: [tuple(repr(v) for v in row[:-1]) for row in report.trace]
    fast = run(prob, cfg, np.zeros(prob.dim))
    monkeypatch.setattr(smba.solver, "solve_ball_prox", reference_solve_ball_prox)
    ref = run(prob, cfg, np.zeros(prob.dim))
    assert len(ref.trace) > min_rows
    assert bits(fast) == bits(ref)
    assert fast.x.tobytes() == ref.x.tobytes()
