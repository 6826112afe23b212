import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smba import SolverConfig, SolveStatus, generate_nsdp, nsdp_problem, run

from helpers import (
    GridSpec,
    OracleError,
    analytic_box_solution,
    exact_ball_projection,
    grid_bruteforce,
    nsdp_dual_bound,
    socp_dc_optimum,
)


class TestAnalyticBox:
    def test_mixed_active(self):
        np.testing.assert_array_equal(
            analytic_box_solution([2.0, -1.0], [1.0, 1.0]), [1.0, -1.0]
        )

    def test_interior(self):
        c = np.array([-0.5, 0.2])
        np.testing.assert_array_equal(analytic_box_solution(c, [1.0, 1.0]), c)

    def test_all_active(self):
        np.testing.assert_array_equal(analytic_box_solution([5.0], [0.0]), [0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            analytic_box_solution([1.0, 2.0], [1.0])


class TestExactBallProjection:
    def test_radial(self):
        np.testing.assert_allclose(
            exact_ball_projection([3.0, 0.0], [0.0, 0.0], 1.0), [1.0, 0.0]
        )

    def test_center(self):
        w = np.array([1.0, 2.0])
        np.testing.assert_array_equal(exact_ball_projection(w, w, 0.5), w)

    def test_interior_identity(self):
        z = np.array([0.1, -0.2])
        np.testing.assert_array_equal(exact_ball_projection(z, [0.0, 0.0], 1.0), z)

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=4),
        st.floats(0.1, 5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_result_always_feasible(self, zs, R):
        z = np.asarray(zs)
        w = np.zeros_like(z)
        p = exact_ball_projection(z, w, R)
        assert float(np.linalg.norm(p - w)) <= R * (1 + 1e-12)


class TestSocpDcOptimum:
    W = 0.1

    @staticmethod
    def objective(x, c, w):
        return 0.5 * ((x - c) ** 2).sum(axis=-1) - w * np.abs(x).sum(axis=-1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_beats_dense_random_search(self, rng, n):
        # samples fill the ball and its sphere, where the optimum lies
        for _ in range(5):
            c = rng.normal(0.0, 1.0, n)
            c *= (1.0 + 2.0 * self.W * np.sqrt(n)) / np.linalg.norm(c)
            R = 0.5 * float(np.linalg.norm(c))
            x_star = socp_dc_optimum(c, R, self.W)
            assert np.linalg.norm(x_star) <= R * (1.0 + 1e-15)
            dirs = rng.normal(0.0, 1.0, (200_000, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radii = R * rng.random((200_000, 1)) ** (1.0 / n)
            samples = np.concatenate([dirs * radii, dirs * R])
            best = self.objective(samples, c, self.W).min()
            value = self.objective(x_star, c, self.W)
            assert value <= best + 1e-12 * max(1.0, abs(value))
            assert best - value <= 1e-2 * max(1.0, abs(value))

    def test_precondition_asserted(self):
        # ||c|| - w sqrt(n) = 1 - 0.2 is not above R = 0.9
        with pytest.raises(AssertionError, match="closed form"):
            socp_dc_optimum([0.6, 0.8, 0.0, 0.0], 0.9, self.W)


class TestNsdpDualBound:
    def test_gap_nonnegative_and_shrinks_with_eps(self):
        # desk instance 1: the gap psi - d(v) at the final multiplier bounds
        # the suboptimality; it reads 3.9e-4 at eps 1e-5 and 4.3e-6 at 1e-7
        prob = nsdp_problem(generate_nsdp(20, 10, 1))
        gaps = []
        for eps in (1e-5, 1e-7):
            report = run(prob, SolverConfig(eps=eps), np.zeros(20))
            assert report.status is SolveStatus.CONVERGED
            bound = nsdp_dual_bound(prob, report.final_kkt.v)
            gaps.append((report.objective - bound) / max(1.0, abs(report.objective)))
        assert 0.0 <= gaps[1] < 0.1 * gaps[0]

    def test_desk_instance_15_certificate(self):
        # the desk panel's hardest instance at benchmark seed 0 ends with a
        # KKT residual of 2.5e-4 and a relative gap of 1.5e-5; a search that
        # keeps Lg too large stops it at rho = 0.71 and a gap of 1.8e-2
        prob = nsdp_problem(generate_nsdp(20, 10, 15))
        report = run(prob, SolverConfig(eps=1e-7), np.zeros(20))
        assert report.status is SolveStatus.CONVERGED
        assert report.final_kkt.rho <= 1e-3
        bound = nsdp_dual_bound(prob, report.final_kkt.v)
        assert 0.0 <= (report.objective - bound) / max(1.0, abs(report.objective)) <= 1e-4

    def test_zero_multiplier_gives_unconstrained_minimum(self):
        # v = 0 leaves min f + P1, which is at most its value at any point
        prob = nsdp_problem(generate_nsdp(6, 4, 5))
        bound = nsdp_dual_bound(prob, np.zeros((4, 4)))
        x = np.random.default_rng(0).normal(0.0, 1.0, (200, 6))
        assert bound <= min(prob.f.value(p) + prob.p1.value(p) for p in x)
        assert bound <= 0.0  # f(0) + P1(0) = 0


class TestGridBruteforce:
    def test_exact_vertex_hit(self):
        # vertex of the quadratic lies on a grid node
        obj = lambda pts: np.sum((pts - np.array([0.5, -0.5])) ** 2, axis=1)
        grid = GridSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], points_per_axis=5)
        x, v = grid_bruteforce(obj, lambda pts: np.ones(len(pts), dtype=bool), grid)
        np.testing.assert_array_equal(x, [0.5, -0.5])
        assert v == 0.0

    def test_infeasible_everywhere(self):
        grid = GridSpec(lower=[0.0], upper=[1.0], points_per_axis=5)
        with pytest.raises(OracleError):
            grid_bruteforce(
                lambda pts: np.zeros(len(pts)),
                lambda pts: np.zeros(len(pts), dtype=bool),
                grid,
            )

    def test_skips_infeasible_nodes(self):
        obj = lambda pts: pts[:, 0]
        feas = lambda pts: pts[:, 0] >= 0.0
        grid = GridSpec(lower=[-1.0], upper=[1.0], points_per_axis=5)
        x, v = grid_bruteforce(obj, feas, grid)
        assert x[0] == 0.0 and v == 0.0

    def test_nested_refinement_never_worse(self, rng):
        # odd-factor refinement keeps every coarse node, so the best value
        # is monotone under refinement
        z = rng.normal(0, 1, 2)
        obj = lambda pts: np.sum((pts - z) ** 2, axis=1) + np.sum(np.abs(pts), axis=1)
        feas = lambda pts: np.sum(pts**2, axis=1) <= 1.0
        base = 51
        _, v_coarse = grid_bruteforce(
            obj, feas, GridSpec(lower=[-1.1, -1.1], upper=[1.1, 1.1], points_per_axis=base)
        )
        _, v_fine = grid_bruteforce(
            obj, feas,
            GridSpec(lower=[-1.1, -1.1], upper=[1.1, 1.1], points_per_axis=2 * base - 1),
        )
        assert v_fine <= v_coarse

    def test_deterministic_tiebreak(self):
        # flat objective: pick the smallest row-major node index
        obj = lambda pts: np.zeros(len(pts))
        grid = GridSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], points_per_axis=3)
        x, _ = grid_bruteforce(obj, lambda pts: np.ones(len(pts), dtype=bool), grid)
        np.testing.assert_array_equal(x, [-1.0, -1.0])

    def test_dimension_guard(self):
        grid = GridSpec(lower=[0.0] * 4, upper=[1.0] * 4, points_per_axis=3)
        with pytest.raises(ValueError):
            grid_bruteforce(lambda p: np.zeros(len(p)), lambda p: np.ones(len(p), bool), grid)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(lower=[0.0], upper=[1.0], points_per_axis=2)
        with pytest.raises(ValueError):
            GridSpec(lower=[1.0], upper=[0.0], points_per_axis=5)
        with pytest.raises(ValueError):
            GridSpec(lower=[np.inf], upper=[0.0], points_per_axis=5)
