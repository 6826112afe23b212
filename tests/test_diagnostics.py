import math

import numpy as np
import pytest

from smba.diagnostics import KKTCertificate, kkt_residuals, termination_metrics
from smba.problems import (
    ConstraintMap,
    DCProblem,
    L1Regularizer,
    SmoothObjective,
    ZeroConcave,
    box_problem,
    norm_ball_problem,
    psd_affine_problem,
)
from smba.cones import NonposOrthant
from smba.nsdp import generate_nsdp, nsdp_problem

from helpers import polar_residual


def constant_gradient_problem(u, l1_weight=1.0):
    """1-D problem whose f-gradient is the constant u (P2 = 0, lam = 0 path)."""
    n = len(u)
    u = np.asarray(u, dtype=float)
    return DCProblem(
        f=SmoothObjective(value=lambda x: float(np.dot(u, x)), gradient=lambda x: u.copy()),
        p1=L1Regularizer(np.full(n, l1_weight)),
        p2=ZeroConcave(),
        g=ConstraintMap(value=lambda x: np.asarray(x) - 10.0,
                        adjoint_apply=lambda x, v: np.asarray(v).copy()),
        cone=NonposOrthant(n),
        dim=n,
    )


def certify(prob, x_next, x_prev, lam, mu):
    """``kkt_residuals`` fed as the solver feeds it, with every input evaluated
    here: the smoothing gradient at ``mu`` and its adjoint apply among them."""
    y = prob.g.value(x_next)
    grad_h = prob.cone.prepare(y).smoothed(mu)[1]
    dx = x_next - x_prev
    return kkt_residuals(prob, x_next, math.sqrt(dx.dot(dx)), lam, y, grad_h,
                         prob.g.adjoint_apply(x_next, grad_h), prob.f.gradient(x_next),
                         prob.p2.subgradient(x_prev))


def reference_residuals(prob, x_next, x_prev, lam, mu):
    """(rho, complementarity, step) recomputed from scratch through the per-call
    oracles: the multiplier ``lam * grad h_mu(G(x_next))`` and its term ``lam``
    times the adjoint apply of the smoothing gradient."""
    g = prob.g.value(x_next)
    grad_h = prob.cone.prepare(g).smoothed(mu)[1]
    v = lam * grad_h if lam > 0.0 else np.zeros_like(g)
    u = (prob.f.gradient(x_next) - prob.p2.subgradient(x_prev)
         + lam * prob.g.adjoint_apply(x_next, grad_h))
    return (prob.p1.subdiff_distance(x_next, u), -float(np.vdot(g, v)),
            float(np.linalg.norm(x_next - x_prev)))


class TestKKTResiduals:
    def test_l1_interval_membership_gives_zero(self):
        prob = constant_gradient_problem([0.5])
        cert = certify(prob, np.array([0.0]), np.array([0.0]), 0.0, 1.0)
        assert cert.rho == 0.0

    def test_l1_singleton_subdifferential(self):
        prob = constant_gradient_problem([0.5])
        cert = certify(prob, np.array([1.0]), np.array([1.0]), 0.0, 1.0)
        assert cert.rho == pytest.approx(1.5)

    @pytest.mark.parametrize("prob", [
        box_problem(c=[2.0, -1.0], b=[1.0, 1.0]),
        # the p-cone's smoothing gradient ends in -1, where 0 * grad_h is -0.0
        norm_ball_problem([2.0, -1.0], 1.0),
    ], ids=["orthant", "p-cone"])
    def test_zero_multiplier_zeroes_v(self, prob):
        x = np.array([0.2, -0.3])
        cert = certify(prob, x, x, 0.0, 0.5)
        m = prob.g.value(x).size
        np.testing.assert_array_equal(cert.v, np.zeros(m))
        assert not np.signbit(cert.v).any()
        assert cert.complementarity == 0.0
        assert cert.step == 0.0
        assert cert.to_dict() == {"rho": cert.rho, "complementarity": 0.0, "step": 0.0,
                                  "v": [0.0] * m}

    def test_step_is_distance_between_iterates(self):
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 1.0])
        cert = certify(prob, np.array([0.3, 0.0]), np.array([0.0, 0.4]), 0.0, 0.5)
        assert cert.step == pytest.approx(0.5)

    def test_psd_multiplier_eigenvalues(self, rng):
        # v = lam * softmax-weighted spectral projector: eigenvalues sum to lam
        A = rng.normal(0, 1, (3, 4, 4))
        A = 0.5 * (A + np.transpose(A, (0, 2, 1)))
        A[0] = A[0] @ A[0].T + 4 * np.eye(4)
        prob = psd_affine_problem(c=[0.0, 0.0], A=A)
        x = np.zeros(2)
        lam = 0.7
        cert = certify(prob, x, x, lam, 0.3)
        vals = np.linalg.eigvalsh(cert.v)
        assert np.all(vals >= -1e-12)
        assert float(np.sum(vals)) == pytest.approx(lam, abs=1e-10 * (1 + lam))
        assert polar_residual(prob.cone, cert.v) <= 1e-10

    def test_complementarity_sign_when_feasible(self, rng):
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 1.0])
        for _ in range(50):
            x = rng.uniform(-2, 0.9, 2)  # strictly feasible: x < b
            cert = certify(prob, x, x, float(rng.uniform(0, 3)), 0.2)
            assert cert.complementarity >= -1e-10

    def test_matches_reference(self, rng):
        # the certificate built from the prepared point equals the one
        # recomputed from scratch, bitwise, on all three kinds of toy
        A = np.zeros((3, 2, 2))
        A[0] = 2.0 * np.eye(2)
        A[1] = np.diag([-1.0, 0.0])
        A[2] = np.diag([0.0, -1.0])
        probs = [box_problem(c=[2.0, -1.0], b=[1.0, 1.0], l1_weight=0.3),
                 psd_affine_problem(c=[3.0, 1.0], A=A),
                 nsdp_problem(generate_nsdp(6, 4, 1))]
        for prob in probs:
            for lam in (0.0, 0.4, 2.5):
                x_prev = rng.uniform(-0.5, 0.5, prob.dim) * 1e-2
                x_next = x_prev + rng.normal(0.0, 1e-2, prob.dim)
                cert = certify(prob, x_next, x_prev, lam, 0.3)
                assert (cert.rho, cert.complementarity, cert.step) == reference_residuals(
                    prob, x_next, x_prev, lam, 0.3)


def certificate(complementarity, step):
    return KKTCertificate(rho=0.0, complementarity=complementarity, step=step, v=np.zeros(2))


class TestTerminationMetrics:
    def test_fixed_point_is_zero(self):
        step, slack = termination_metrics(certificate(0.0, 0.0), np.hypot(0.4, 0.6),
                                          0.0, 1.0, 0.01, 0.01)
        assert step == 0.0
        assert slack == 0.0

    def test_hand_value(self):
        # ||x_next|| = 1, step 1
        step, _ = termination_metrics(certificate(0.0, 1.0), 1.0, 0.0, 1.0, 0.01, 0.01)
        assert step == pytest.approx(0.1)
        # both metrics are relative to max(1, ||x_next||)
        step, slack = termination_metrics(certificate(6.0, 1.0), 5.0, 0.0, 1.0, 0.01, 0.01)
        assert (step, slack) == (pytest.approx(0.02), pytest.approx(1.2))

    def test_slack_nonnegative_for_polar_pairs(self, rng):
        # a feasible x gives G(x) in the cone and a multiplier v in its polar
        prob = box_problem(c=[0.0, 0.0, 0.0], b=[1.0, 1.0, 1.0])
        oracle = NonposOrthant(3)
        for _ in range(50):
            x = rng.uniform(-2, 0.9, 3)
            cert = certify(prob, x, np.zeros(3), float(rng.uniform(0, 3)), 0.5)
            _, slack = termination_metrics(cert, np.linalg.norm(x), 1.0, 0.5, 0.01, 0.01)
            assert slack >= 0.0
            assert polar_residual(oracle, cert.v) == 0.0

    def test_pairing_is_trace_inner_product(self, rng):
        # for a matrix constraint the complementarity pairs the multiplier
        # with G(x) by the trace product
        prob = nsdp_problem(generate_nsdp(6, 4, 5))
        for _ in range(5):
            x = rng.normal(0.0, 1.0, 6)
            cert = certify(prob, x, np.zeros(6), float(rng.uniform(0.1, 3.0)), 0.3)
            y = prob.g.value(x)
            assert cert.complementarity == pytest.approx(-float(np.trace(cert.v.T @ y)),
                                                         rel=1e-12, abs=1e-14)
