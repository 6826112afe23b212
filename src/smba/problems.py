"""Problem oracles for the conic DC model ``min f + P1 - P2  s.t.  G(x) in K``.

A :class:`DCProblem` bundles first-order oracles only: value/gradient of the
smooth part, the weighted prox of P1, one deterministic subgradient of P2,
and the constraint map exposed through its value and adjoint-Jacobian apply
(never a materialized Jacobian).  The smoothed constraint is the composition
of the cone kernel with G.  The solver passes every oracle float arrays it
built itself, so the oracles defined here take them as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .cones import (ConeBaseOracle, NegSemidef, NonposOrthant, PCone, check_numbers, checked_array,
                    symmetrized)
from .errors import UnsupportedFamilyError

# row signs of the (2, n) soft-threshold breakpoints: row 0 is +w, row 1 -w
_SIGNS = np.array([[1.0], [-1.0]])


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
        """A float copy of ``z``, made in one call."""
        return np.array(z, dtype=float)

    def subdiff_distance(self, x, u):
        return math.sqrt(u.dot(u))


class L1Regularizer:
    """Weighted l1 term with componentwise soft-threshold prox.

    ``thresholds`` holds the rows ``(w, -w)`` of the soft threshold's two
    breakpoints, which the ball subproblem reads on every trial.  Each time
    ``weights`` is assigned, in the constructor or later, the weights pass
    ``checked_array`` and must be nonnegative, and ``thresholds`` is formed
    from them, so a caller that assigns new weights never leaves it stale.
    """

    def __init__(self, weights):
        self.weights = weights

    def __setattr__(self, name, value):
        if name == "weights":
            value = checked_array(value, np.shape(value), "l1 weights")
            if not (value >= 0).all():
                raise ValueError("l1 weights must be nonnegative")
            super().__setattr__("thresholds", _SIGNS * value)
        super().__setattr__(name, value)

    def value(self, x):
        return float(np.add.reduce(self.weights * np.abs(x)))

    def prox(self, z, t):
        thresh = t * self.weights
        return np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)

    def subdiff_distance(self, x, u):
        """dist(0, u + dP1(x)) via interval projection per coordinate."""
        w = self.weights
        on = x != 0.0
        res = np.where(on, np.abs(u + w * np.sign(x)), np.maximum(np.abs(u) - w, 0.0))
        return math.sqrt(res.dot(res))


# P1 kinds with an exact ball-prox solver (see ball_prox)
REGULARIZERS = (ZeroRegularizer, L1Regularizer)


class ZeroConcave:
    """P2 = 0."""

    def value(self, x):
        return 0.0

    def subgradient(self, x):
        return np.zeros(np.shape(x))


class L1Concave:
    """P2(x) = weight * ||x||_1 with the tie at 0 broken toward 0."""

    def __init__(self, weight: float):
        check_numbers(SimpleNamespace(weight=weight), reals=("weight",))
        if weight < 0:
            raise ValueError(f"weight must be nonnegative, got {weight!r}")
        self.weight = float(weight)

    def value(self, x):
        return self.weight * float(np.add.reduce(np.abs(x)))

    def subgradient(self, x):
        return self.weight * np.sign(x)


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
        if isinstance(self.p1, L1Regularizer) and self.p1.weights.shape != (self.dim,):
            raise ValueError(
                f"l1 weights must have shape ({self.dim},), got {self.p1.weights.shape}")


def objective_value(prob: DCProblem, x) -> float:
    return prob.f.value(x) + prob.p1.value(x) - prob.p2.value(x)


# ---------------------------------------------------------------------------
# concrete instance families
# ---------------------------------------------------------------------------


def poly_quartic_objective(Q, b, cubic, quartic) -> SmoothObjective:
    """Separable quartic/cubic plus quadratic: the regularized NSDP objective.

    f(x) = sum_i (quartic_i x_i^4 / 4 + cubic_i |x_i|^3 / 3)
           + 0.5 x'Qx + b'x
    with gradient components quartic_i x_i^3 + cubic_i x_i |x_i| + (Qx + b)_i.
    ``b`` passes ``checked_array`` as a vector of some length n, ``Q`` at
    ``(n, n)`` and ``cubic`` and ``quartic`` at ``(n,)``.
    """
    b = checked_array(b, (np.size(b),), "b")
    n = b.size
    Q = checked_array(Q, (n, n), "Q")
    cubic = checked_array(cubic, (n,), "cubic")
    quartic = checked_array(quartic, (n,), "quartic")

    def value(x):
        # each reduction becomes a Python float once; the sum keeps its order
        sep = (0.25 * float(np.add.reduce(quartic * x**4))
               + float(np.add.reduce(cubic * np.abs(x) ** 3)) / 3.0)
        return sep + 0.5 * float(x.dot(Q @ x)) + float(b.dot(x))

    def gradient(x):
        return quartic * x**3 + cubic * x * np.abs(x) + Q @ x + b

    return SmoothObjective(value=value, gradient=gradient)


def shift_map(b) -> ConstraintMap:
    """Affine map G(x) = x - b (identity Jacobian); ``b`` is a checked float
    array (``checked_array``)."""
    return ConstraintMap(
        value=lambda x: x - b,
        adjoint_apply=lambda x, u: np.array(u, dtype=float),
    )


def pcone_lift_map(t: float) -> ConstraintMap:
    """G(x) = (x, t): embeds x into the norm cone with a fixed last coordinate."""
    tail = np.array([float(t)])  # built once; each value is a new array

    return ConstraintMap(
        value=lambda x: np.concatenate((x, tail)),
        adjoint_apply=lambda x, u: u[:-1].copy(),
    )


def psd_affine_map(A) -> ConstraintMap:
    """G(x) = -A[0] - sum_i x_i A[i+1] into the symmetric matrices.

    The stack goes through ``smba.cones.symmetrized``: an exactly symmetric
    one is kept as it is, one within ``SYMMETRY_TOL`` is symmetrized, and
    another raises ``ValueError``.  The map stores the upper triangles once, as
    the column-major ``(n + 1, m(m+1)/2)`` array that the gather forms, and
    keeps no reference to ``A``; that layout picks the BLAS kernels, and so
    the bits, of ``G`` and its adjoint.
    ``G(x)`` is gathered from its triangle, so it is exactly symmetric.  The
    adjoint, the vector of trace inner products ``-<A_i, u>``, folds
    ``u + u'`` onto the triangle with the diagonal halved, so it stays the
    exact adjoint for a non-symmetric ``u``.  ``A`` passes ``checked_array``
    first.
    """
    A = checked_array(A, np.shape(A), "constraint matrices")
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError("expected a stack of square matrices")
    m = A.shape[1]
    rows, cols = np.triu_indices(m)
    tri = symmetrized(A)[:, rows, cols]
    neg_t0, At = -tri[0], tri[1:]
    # where each matrix entry sits in the triangle; where each triangle entry
    # and its mirror sit in a flattened matrix; the fold's weights, negated,
    # with the diagonal (counted twice by the fold) halved, all exact
    where = np.empty((m, m), dtype=np.intp)
    where[rows, cols] = where[cols, rows] = np.arange(rows.size)
    upper, lower = rows * m + cols, cols * m + rows
    neg_weight = np.where(rows == cols, -0.5, -1.0)

    def value(x):
        return (neg_t0 - x @ At).take(where)

    def adjoint_apply(x, u):
        return At @ ((u.take(upper) + u.take(lower)) * neg_weight)

    return ConstraintMap(value=value, adjoint_apply=adjoint_apply)


def _toy_problem(c, g, cone, name, l1_weight=0.0) -> DCProblem:
    """min 0.5||x - c||^2 + w||x||_1  s.t.  G(x) in K: the toy builders' shared
    body; ``c`` passes ``checked_array`` as a vector, and so do the l1
    weights ``l1_weight`` fills."""
    c = checked_array(c, (np.size(c),), "c")

    def value(x):
        d = x - c
        return 0.5 * float(d.dot(d))

    return DCProblem(
        f=SmoothObjective(value=value, gradient=lambda x: x - c),
        p1=L1Regularizer(np.full(c.size, l1_weight)) if l1_weight else ZeroRegularizer(),
        p2=ZeroConcave(),
        g=g,
        cone=cone,
        dim=c.size,
        name=name,
    )


def box_problem(c, b, l1_weight=0.0) -> DCProblem:
    """min 0.5||x - c||^2 + w||x||_1  s.t.  x <= b (orthant family); ``b``
    passes ``checked_array`` at the shape of ``c``."""
    n = np.size(c)
    return _toy_problem(c, shift_map(checked_array(b, (n,), "b")), NonposOrthant(n), "box",
                        l1_weight)


def norm_ball_problem(c, radius) -> DCProblem:
    """min 0.5||x - c||^2  s.t.  ||x|| <= radius (p-cone family); ``radius``
    must be a finite real number."""
    check_numbers(SimpleNamespace(radius=radius), reals=("radius",))
    return _toy_problem(c, pcone_lift_map(radius), PCone(np.size(c)), "norm_ball")


def psd_affine_problem(c, A) -> DCProblem:
    """min 0.5||x - c||^2  s.t.  -A0 - sum x_i A_i negative semidefinite;
    ``psd_affine_map`` checks the stack ``A``."""
    g = psd_affine_map(A)
    if np.shape(A)[0] != np.size(c) + 1:
        raise ValueError("need n + 1 constraint matrices")
    return _toy_problem(c, g, NegSemidef(np.shape(A)[1]), "psd_affine")
