"""Problem oracles for the conic DC model ``min f + P1 - P2  s.t.  G(x) in K``.

A :class:`DCProblem` bundles first-order oracles only: value/gradient of the
smooth part, the weighted prox of P1, one deterministic subgradient of P2,
and the constraint map exposed through its value and adjoint-Jacobian apply
(never a materialized Jacobian).  The smoothed constraint is the composition
of the cone kernel with G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cones import ConeBaseOracle, DEFAULT_SHIFT, NegSemidef, NonposOrthant, PCone
from .errors import UnsupportedFamilyError


@dataclass(frozen=True)
class SmoothObjective:
    """Smooth part f: value and gradient (the linesearch needs no Lipschitz constant)."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]


class ZeroRegularizer:
    """P1 = 0."""

    def value(self, x):
        return 0.0

    def prox(self, z, t):
        return np.asarray(z, dtype=float).copy()

    def subdiff_distance(self, x, u):
        return float(np.linalg.norm(u))


class L1Regularizer:
    """Weighted l1 term with componentwise soft-threshold prox."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0):
            raise ValueError("l1 weights must be nonnegative")
        self.weights = w

    def value(self, x):
        return float(np.sum(self.weights * np.abs(x)))

    def prox(self, z, t):
        z = np.asarray(z, dtype=float)
        thresh = float(t) * self.weights
        return np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)

    def subdiff_distance(self, x, u):
        """dist(0, u + dP1(x)) via interval projection per coordinate."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        w = self.weights
        on = x != 0.0
        res = np.where(on, np.abs(u + w * np.sign(x)), np.maximum(np.abs(u) - w, 0.0))
        return float(np.linalg.norm(res))


# P1 kinds with an exact ball-prox solver (see ball_prox)
REGULARIZERS = (ZeroRegularizer, L1Regularizer)


class ZeroConcave:
    """P2 = 0."""

    def value(self, x):
        return 0.0

    def subgradient(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


class LinearConcave:
    """P2(x) = <v, x>."""

    def __init__(self, v):
        self.v = np.asarray(v, dtype=float)

    def value(self, x):
        return float(np.dot(self.v, x))

    def subgradient(self, x):
        return self.v.copy()


class L1Concave:
    """P2(x) = weight * ||x||_1 with the tie at 0 broken toward 0."""

    def __init__(self, weight: float):
        if weight < 0:
            raise ValueError("weight must be nonnegative")
        self.weight = float(weight)

    def value(self, x):
        return self.weight * float(np.sum(np.abs(x)))

    def subgradient(self, x):
        return self.weight * np.sign(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ConstraintMap:
    """Constraint map G with its adjoint-Jacobian apply."""

    value: Callable[[np.ndarray], np.ndarray]
    adjoint_apply: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DCProblem:
    f: SmoothObjective
    p1: object
    p2: object
    g: ConstraintMap
    cone: ConeBaseOracle
    dim: int
    name: str = field(default="problem")

    def __post_init__(self):
        if not isinstance(self.p1, REGULARIZERS):
            raise UnsupportedFamilyError(
                f"P1 must be one of {', '.join(r.__name__ for r in REGULARIZERS)}, "
                f"got {type(self.p1).__name__}"
            )


def composite_value(prob: DCProblem, x, mu) -> float:
    """Smoothed constraint value h_mu(G(x))."""
    return prob.cone.msa_value(prob.g.value(x), mu)


def composite_gradient(prob: DCProblem, x, mu) -> np.ndarray:
    """Gradient of the smoothed constraint: DG(x)* applied to the kernel gradient."""
    return prob.g.adjoint_apply(x, prob.cone.msa_gradient(prob.g.value(x), mu))


def objective_value(prob: DCProblem, x) -> float:
    return prob.f.value(x) + prob.p1.value(x) - prob.p2.value(x)


# ---------------------------------------------------------------------------
# concrete instance families
# ---------------------------------------------------------------------------


def quadratic_objective(c) -> SmoothObjective:
    """f(x) = 0.5 ||x - c||^2."""
    c = np.asarray(c, dtype=float)
    return SmoothObjective(
        value=lambda x: 0.5 * float(np.dot(x - c, x - c)),
        gradient=lambda x: np.asarray(x, dtype=float) - c,
    )


def poly_quartic_objective(Q, b, cubic, quartic) -> SmoothObjective:
    """Separable quartic/cubic plus quadratic: the regularized NSDP objective.

    f(x) = sum_i (quartic_i x_i^4 / 4 + cubic_i |x_i|^3 / 3)
           + 0.5 x'Qx + b'x
    with gradient components quartic_i x_i^3 + cubic_i x_i |x_i| + (Qx + b)_i.
    """
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float)
    cubic = np.asarray(cubic, dtype=float)
    quartic = np.asarray(quartic, dtype=float)

    def value(x):
        x = np.asarray(x, dtype=float)
        sep = 0.25 * np.sum(quartic * x**4) + np.sum(cubic * np.abs(x) ** 3) / 3.0
        return float(sep + 0.5 * np.dot(x, Q @ x) + np.dot(b, x))

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return quartic * x**3 + cubic * x * np.abs(x) + Q @ x + b

    return SmoothObjective(value=value, gradient=gradient)


def shift_map(b) -> ConstraintMap:
    """Affine map G(x) = x - b (identity Jacobian)."""
    b = np.asarray(b, dtype=float)
    return ConstraintMap(
        value=lambda x: np.asarray(x, dtype=float) - b,
        adjoint_apply=lambda x, u: np.asarray(u, dtype=float).copy(),
    )


def pcone_lift_map(t: float) -> ConstraintMap:
    """G(x) = (x, t): embeds x into the norm cone with a fixed last coordinate."""
    t = float(t)

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.concatenate([x, [t]])

    return ConstraintMap(
        value=value,
        adjoint_apply=lambda x, u: np.asarray(u, dtype=float)[:-1].copy(),
    )


def psd_affine_map(A) -> ConstraintMap:
    """G(x) = -A[0] - sum_i x_i A[i+1] into the symmetric matrices.

    The adjoint is the vector of trace inner products -<A_i, u>.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError("expected a stack of square matrices")

    def value(x):
        x = np.asarray(x, dtype=float)
        return -A[0] - np.tensordot(x, A[1:], axes=(0, 0))

    def adjoint_apply(x, u):
        u = np.asarray(u, dtype=float)
        return -np.tensordot(A[1:], u, axes=([1, 2], [0, 1]))

    return ConstraintMap(value=value, adjoint_apply=adjoint_apply)


def box_problem(c, b, l1_weight=0.0, alpha4=DEFAULT_SHIFT) -> DCProblem:
    """min 0.5||x - c||^2 + w||x||_1  s.t.  x <= b (orthant family)."""
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    n = c.size
    p1 = L1Regularizer(np.full(n, float(l1_weight))) if l1_weight else ZeroRegularizer()
    return DCProblem(
        f=quadratic_objective(c),
        p1=p1,
        p2=ZeroConcave(),
        g=shift_map(b),
        cone=NonposOrthant(n, alpha4=alpha4),
        dim=n,
        name="box",
    )


def norm_ball_problem(c, radius, l1_weight=0.0, alpha4=DEFAULT_SHIFT) -> DCProblem:
    """min 0.5||x - c||^2 + w||x||_1  s.t.  ||x|| <= radius (p-cone family)."""
    c = np.asarray(c, dtype=float)
    n = c.size
    p1 = L1Regularizer(np.full(n, float(l1_weight))) if l1_weight else ZeroRegularizer()
    return DCProblem(
        f=quadratic_objective(c),
        p1=p1,
        p2=ZeroConcave(),
        g=pcone_lift_map(radius),
        cone=PCone(n, alpha4=alpha4),
        dim=n,
        name="norm_ball",
    )


def psd_affine_problem(c, A, l1_weight=0.0, alpha4=DEFAULT_SHIFT) -> DCProblem:
    """min 0.5||x - c||^2 + w||x||_1  s.t.  -A0 - sum x_i A_i negative semidefinite."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    n = c.size
    if A.shape[0] != n + 1:
        raise ValueError("need n + 1 constraint matrices")
    p1 = L1Regularizer(np.full(n, float(l1_weight))) if l1_weight else ZeroRegularizer()
    return DCProblem(
        f=quadratic_objective(c),
        p1=p1,
        p2=ZeroConcave(),
        g=psd_affine_map(A),
        cone=NegSemidef(A.shape[1], alpha4=alpha4),
        dim=n,
        name="psd_affine",
    )
