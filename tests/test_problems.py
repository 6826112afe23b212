import dataclasses

import numpy as np
import pytest

from smba.cones import NonposOrthant
from smba.errors import UnsupportedFamilyError
from smba.problems import (
    DCProblem,
    L1Concave,
    L1Regularizer,
    LinearConcave,
    ZeroConcave,
    ZeroRegularizer,
    box_problem,
    composite_gradient,
    composite_value,
    norm_ball_problem,
    objective_value,
    poly_quartic_objective,
    psd_affine_problem,
    shift_map,
)

from conftest import directional_derivative


class TestRegularizers:
    def test_zero_contract(self, rng):
        p1 = ZeroRegularizer()
        z = rng.normal(0, 1, 4)
        assert p1.value(z) == 0.0
        np.testing.assert_array_equal(p1.prox(z, 0.7), z)
        u = rng.normal(0, 1, 4)
        assert p1.subdiff_distance(z, u) == pytest.approx(np.linalg.norm(u))

    def test_l1_prox_is_soft_threshold(self):
        p1 = L1Regularizer([1.0, 1.0])
        np.testing.assert_allclose(p1.prox(np.array([2.0, -0.5]), 1.0), [1.0, 0.0])
        np.testing.assert_allclose(p1.prox(np.array([2.0, -3.0]), 0.5), [1.5, -2.5])

    def test_l1_prox_solves_the_prox_problem(self, rng):
        # oracle: dense 1-D scan of P1(u) + (1/2t) (u - z)^2
        w = 0.8
        p1 = L1Regularizer([w])
        for _ in range(20):
            z = float(rng.normal(0, 2))
            t = float(rng.uniform(0.1, 3))
            u = np.linspace(-5, 5, 200001)
            vals = w * np.abs(u) + (u - z) ** 2 / (2 * t)
            best = u[np.argmin(vals)]
            got = p1.prox(np.array([z]), t)[0]
            assert got == pytest.approx(best, abs=1e-4)

    def test_l1_subdiff_distance_cases(self):
        p1 = L1Regularizer([1.0])
        # at zero the subdifferential is the interval [-1, 1]
        assert p1.subdiff_distance(np.array([0.0]), np.array([0.5])) == 0.0
        assert p1.subdiff_distance(np.array([0.0]), np.array([1.5])) == pytest.approx(0.5)
        # away from zero it is the singleton {sign}
        assert p1.subdiff_distance(np.array([1.0]), np.array([0.5])) == pytest.approx(1.5)
        assert p1.subdiff_distance(np.array([-2.0]), np.array([1.0])) == 0.0

    def test_l1_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            L1Regularizer([-0.1])


class TestConcaveTerms:
    def test_zero(self):
        p2 = ZeroConcave()
        assert p2.value(np.ones(3)) == 0.0
        np.testing.assert_array_equal(p2.subgradient(np.ones(3)), np.zeros(3))

    def test_convexity_probe(self, rng):
        # value(z) >= value(x) + <g, z - x> for every subgradient returned
        terms = [LinearConcave(rng.normal(0, 1, 4)), L1Concave(0.7), ZeroConcave()]
        for p2 in terms:
            for _ in range(50):
                x, z = rng.normal(0, 2, 4), rng.normal(0, 2, 4)
                g = p2.subgradient(x)
                assert p2.value(z) >= p2.value(x) + float(np.dot(g, z - x)) - 1e-10

    def test_l1_tie_broken_toward_zero(self):
        g = L1Concave(1.0).subgradient(np.array([0.0, 2.0, -3.0]))
        np.testing.assert_array_equal(g, [0.0, 1.0, -1.0])


class TestObjectives:
    def test_quadratic_plus_l1(self):
        # quadratic with identity curvature plus unit l1 weight
        prob = box_problem(c=[0.0, 0.0], b=[10.0, 10.0], l1_weight=1.0)
        x = np.array([1.0, -1.0])
        assert objective_value(prob, x) == pytest.approx(1.0 + 2.0)

    def test_quartic_term(self):
        f = poly_quartic_objective(np.zeros((1, 1)), np.zeros(1), np.zeros(1), np.array([4.0]))
        assert f.value(np.array([1.0])) == pytest.approx(1.0)
        np.testing.assert_allclose(f.gradient(np.array([1.0])), [4.0])

    def test_cubed_abs_gradient(self):
        # d/dx |x|^3 = 3 x |x|; with coefficient c/3 the gradient is c x |x|
        f = poly_quartic_objective(np.zeros((1, 1)), np.zeros(1), np.array([3.0]), np.zeros(1))
        np.testing.assert_allclose(f.gradient(np.array([-2.0])), [-12.0])

    def test_gradient_matches_fd(self, rng):
        n = 4
        Q = rng.normal(0, 1, (n, n))
        Q = Q @ Q.T
        f = poly_quartic_objective(Q, rng.normal(0, 1, n), rng.uniform(0, 2, n), rng.uniform(0, 2, n))
        for _ in range(30):
            x = rng.normal(0, 1.5, n)
            d = rng.normal(0, 1, n)
            fd = directional_derivative(f.value, x, d)
            assert fd == pytest.approx(float(np.dot(f.gradient(x), d)), rel=1e-6, abs=1e-6)


class TestCompositeSmoothing:
    def test_orthant_composite_value_at_boundary(self):
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 1.0], alpha4=0.0)
        assert composite_value(prob, np.array([1.0, 1.0]), 1.0) == pytest.approx(
            np.log(2.0), abs=1e-14
        )

    def test_orthant_composite_value_interior(self):
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 1.0], alpha4=0.0)
        val = composite_value(prob, np.array([0.0, 0.0]), 0.1)
        assert val == pytest.approx(-1.0 + 0.1 * np.log(2.0), abs=1e-12)

    def test_psd_composite_value_diagonal(self):
        # constant map G(x) = -diag(2, 3): kernel evaluated at the matrix itself
        A = np.zeros((2, 2, 2))
        A[0] = np.diag([2.0, 3.0])
        prob = psd_affine_problem(c=[0.0], A=A, alpha4=0.0)
        val = composite_value(prob, np.array([0.0]), 1.0)
        assert val == pytest.approx(np.log(np.exp(-2.0) + np.exp(-3.0)), abs=1e-12)

    def test_orthant_composite_gradient_identity_jacobian(self):
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 1.0])
        grad = composite_gradient(prob, np.array([1.0, 1.0]), 1.0)
        np.testing.assert_allclose(grad, [0.5, 0.5], atol=1e-14)

    def test_pcone_composite_gradient_vanishes_at_origin(self):
        prob = norm_ball_problem(c=[0.0, 0.0], radius=1.0)
        grad = composite_gradient(prob, np.zeros(2), 1.0)
        np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-15)

    def test_composite_gradient_matches_fd_all_families(self, rng):
        A = rng.normal(0, 1, (4, 3, 3))
        A = 0.5 * (A + np.transpose(A, (0, 2, 1)))
        A[0] = A[0] @ A[0].T + 3 * np.eye(3)
        probs = [
            box_problem(c=rng.normal(0, 1, 3), b=rng.normal(0, 1, 3)),
            norm_ball_problem(c=rng.normal(0, 1, 3), radius=2.0),
            psd_affine_problem(c=rng.normal(0, 1, 3), A=A),
        ]
        for prob in probs:
            for _ in range(60):
                x = rng.normal(0, 1, 3)
                mu = 10.0 ** rng.uniform(-3, 1)
                d = rng.normal(0, 1, 3)
                grad = composite_gradient(prob, x, mu)
                fd = directional_derivative(lambda z: composite_value(prob, z, mu), x, d)
                assert fd == pytest.approx(float(np.dot(grad, d)), rel=1e-5, abs=1e-5)

    def test_composite_sandwich(self, rng):
        prob = box_problem(c=[0.0, 0.0], b=rng.normal(0, 1, 2))
        a3 = prob.cone.cert.alpha3
        for _ in range(100):
            x = rng.normal(0, 2, 2)
            mu = 10.0 ** rng.uniform(-5, 1)
            gb = prob.cone.support_value(prob.g.value(x))
            val = composite_value(prob, x, mu)
            assert gb - 1e-12 <= val <= gb + a3 * mu + 1e-12

    def test_composite_mu_monotone(self, rng):
        prob = norm_ball_problem(c=[0.0, 0.0], radius=1.5)
        for _ in range(100):
            x = rng.normal(0, 1, 2)
            mu1 = 10.0 ** rng.uniform(-5, 0)
            mu0 = mu1 * rng.uniform(1.5, 10)
            v0 = composite_value(prob, x, mu0)
            v1 = composite_value(prob, x, mu1)
            assert v1 <= v0 - 1e-5 * (mu0 - mu1) + 1e-12

    def test_midpoint_convexity_affine_map(self, rng):
        # affine G and convex f with P2 = 0: the smoothed constraint is convex
        prob = box_problem(c=[0.0, 0.0, 0.0], b=rng.normal(0, 1, 3))
        for _ in range(200):
            x, z = rng.normal(0, 3, 3), rng.normal(0, 3, 3)
            mu = 10.0 ** rng.uniform(-4, 1)
            mid = composite_value(prob, 0.5 * (x + z), mu)
            avg = 0.5 * (composite_value(prob, x, mu) + composite_value(prob, z, mu))
            assert mid <= avg + 1e-10

    def test_gradient_bounded_over_mu_range(self, rng):
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 1.0])
        x = rng.normal(0, 1, 2)
        for mu in 10.0 ** np.linspace(-6, 1, 15):
            g = composite_gradient(prob, x, mu)
            assert np.all(np.isfinite(g))
            assert float(np.linalg.norm(g)) <= prob.cone.cert.base_norm_bound + 1e-12


class TestAdjointConsistency:
    def test_adjoint_matches_fd_of_map(self, rng):
        A = rng.normal(0, 1, (4, 3, 3))
        A = 0.5 * (A + np.transpose(A, (0, 2, 1)))
        maps = [
            shift_map(rng.normal(0, 1, 3)),
            psd_affine_problem(c=np.zeros(3), A=A).g,
        ]
        eps = 1e-6
        for g in maps:
            for _ in range(30):
                x = rng.normal(0, 1, 3)
                d = rng.normal(0, 1, 3)
                u = np.asarray(g.value(x), dtype=float)
                u = rng.normal(0, 1, u.shape)
                if u.ndim == 2:
                    u = 0.5 * (u + u.T)
                lhs = float(np.dot(g.adjoint_apply(x, u), d))
                rhs = float(
                    np.vdot(u, (np.asarray(g.value(x + eps * d)) - np.asarray(g.value(x - eps * d))))
                    / (2 * eps)
                )
                assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-7)


class TestProblemWiring:
    def test_dcproblem_shapes(self):
        prob = box_problem(c=[1.0, 2.0], b=[0.0, 0.0])
        assert prob.dim == 2
        assert isinstance(prob.cone, NonposOrthant)
        assert isinstance(prob, DCProblem)

    def test_unsupported_regularizer_rejected(self):
        prob = box_problem(c=[1.0, 2.0], b=[3.0, 3.0])

        class Elastic:
            def prox(self, z, t):
                return z / (1.0 + t)

        with pytest.raises(UnsupportedFamilyError):
            dataclasses.replace(prob, p1=Elastic())

        # subclasses of a supported regularizer (e.g. instrumented copies) pass
        class CountingL1(L1Regularizer):
            pass

        assert isinstance(dataclasses.replace(prob, p1=CountingL1(np.ones(2))).p1, CountingL1)
