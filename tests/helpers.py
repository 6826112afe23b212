"""References and builders that only the test suite uses.

The ground-truth generators deliberately avoid the solver's code paths: an
analytic box solution, an exhaustive grid search over low-dimensional
feasible sets, the closed form projection onto a ball, the closed-form
optimum of the norm-ball problem with a concave l1 term, and a Lagrangian
lower bound for convex NSDP.  Beside them are the composite smoothed
constraint, a linear concave term and the iterate state the linesearch
starts from, written from the problem's public oracles, and a reader for
the CLI's CSV traces.  The rest are read off the solver's own kernels: the
schedule at many indices and its half-window sums, the subproblem's path
point and constraint value, the polar residual of a multiplier, and the
constants of each cone's smoothing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple, get_type_hints

import numpy as np

from smba.ball_prox import BallConstraint, _path_point
from smba.cones import NegSemidef, NonposOrthant, checked_array, symmetrized
from smba.problems import DCProblem, objective_value
from smba.schedules import ScheduleSpec, _factors, mu_at
from smba.solver import TRACE_COLUMNS, IterateState, TraceRow


class OracleError(RuntimeError):
    """A reference oracle could not produce a certificate (e.g. empty grid)."""


_CHUNK = 1 << 18  # grid rows are evaluated in batches to bound memory


@dataclass(frozen=True)
class GridSpec:
    lower: np.ndarray
    upper: np.ndarray
    points_per_axis: int

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape:
            raise ValueError("bounds must have matching shapes")
        if not np.all(np.isfinite(lower)) or not np.all(np.isfinite(upper)):
            raise ValueError("bounds must be finite")
        if not np.all(lower < upper):
            raise ValueError("need lower < upper per coordinate")
        if self.points_per_axis < 3:
            raise ValueError("points_per_axis must be >= 3")

    @property
    def dim(self) -> int:
        return self.lower.size

    def axes(self):
        return [
            np.linspace(self.lower[i], self.upper[i], self.points_per_axis)
            for i in range(self.dim)
        ]


def analytic_box_solution(c, b) -> np.ndarray:
    """Minimizer of 0.5||x - c||^2 subject to x <= b: the componentwise min."""
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    if c.shape != b.shape:
        raise ValueError("dimension mismatch")
    return np.minimum(c, b)


def grid_bruteforce(objective, feasible, grid: GridSpec):
    """Exhaustive search over the grid, skipping infeasible nodes.

    ``objective`` and ``feasible`` are batched callables taking an (N, d)
    array of points.  Ties are broken toward the smallest row-major node
    index, so the result is deterministic and chunk-size independent.
    Accuracy is limited by the grid spacing times a local Lipschitz bound.
    """
    if grid.dim > 3:
        raise ValueError("grid search is limited to dimension <= 3")
    axes = grid.axes()
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)

    best_val = np.inf
    best_idx = -1
    for start in range(0, points.shape[0], _CHUNK):
        chunk = points[start : start + _CHUNK]
        mask = np.asarray(feasible(chunk), dtype=bool)
        if not mask.any():
            continue
        vals = np.asarray(objective(chunk[mask]), dtype=float)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_idx = start + int(np.flatnonzero(mask)[j])
    if best_idx < 0:
        raise OracleError("no feasible grid node")
    return points[best_idx].copy(), best_val


def exact_ball_projection(z, w, R) -> np.ndarray:
    """Closed-form projection of z onto the ball B(w, R)."""
    if not R > 0:
        raise ValueError("radius must be positive")
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    gap = z - w
    dist = float(np.linalg.norm(gap))
    if dist <= R:
        return z.copy()
    return w + (R / dist) * gap


def socp_dc_optimum(c, R, w) -> np.ndarray:
    """Minimizer of ``0.5||x - c||^2 - w||x||_1`` over ``||x|| <= R``.

    With ``-w||x||_1 = min_s -w s.x`` over sign vectors ``s``, each ``s`` is a
    projection of ``c + w s`` onto the ball, whose value decreases in
    ``t = s.c`` as long as every ``||c + w s||`` exceeds ``R``; that holds
    when ``||c|| - w sqrt(n) > R``, and then ``s = sign(c)`` is optimal, so
    ``x* = R (c + w sign c) / ||c + w sign c||``.
    """
    c = np.asarray(c, dtype=float)
    assert np.linalg.norm(c) - w * math.sqrt(c.size) > R, "closed form needs ||c|| - w sqrt(n) > R"
    z = c + w * np.copysign(1.0, c)
    return R * z / np.linalg.norm(z)


def nsdp_dual_bound(prob: DCProblem, v, max_iter=20000, tol=1e-10) -> float:
    """Lagrangian lower bound ``<v, G(0)> + min_x [f + P1 + x . adj(v)]`` on
    the optimum of a convex problem with ``P2 = 0``, an affine ``G`` and a
    PSD multiplier ``v`` (as for NSDP, where ``<v, G(x)> <= 0`` when feasible).

    The inner minimum is taken by FISTA with backtracking and a function-value
    restart, until the gradient map falls below ``tol`` or after ``max_iter``
    steps.  Its value at the last iterate bounds the minimum from above, so
    the returned bound errs high by FISTA's residual, never by the solver's.
    """
    v = np.asarray(v, dtype=float)
    x = y = np.zeros(prob.dim)
    a = prob.g.adjoint_apply(x, v)
    smooth = lambda x: prob.f.value(x) + float(a.dot(x))
    phi = smooth(x) + prob.p1.value(x)
    t, L = 1.0, 1.0
    for _ in range(max_iter):
        g, s = prob.f.gradient(y) + a, smooth(y)
        L *= 0.5
        while True:
            L *= 2.0
            z = prob.p1.prox(y - g / L, 1.0 / L)
            d = z - y
            if smooth(z) <= s + float(g.dot(d)) + 0.5 * L * float(d.dot(d)):
                break
        phi_z = smooth(z) + prob.p1.value(z)
        if phi_z > phi:  # restart the momentum from the last iterate
            y, t = x, 1.0
            continue
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        x, y, phi, t = z, z + ((t - 1.0) / t_next) * (z - x), phi_z, t_next
        if L * math.sqrt(d.dot(d)) <= tol:
            break
    return float(np.sum(v * prob.g.value(np.zeros(prob.dim)))) + phi


def composite_value(prob: DCProblem, x, mu) -> float:
    """Smoothed constraint value h_mu(G(x))."""
    return prob.cone.prepare(prob.g.value(x)).value(mu)


def composite_gradient(prob: DCProblem, x, mu) -> np.ndarray:
    """Gradient of the smoothed constraint: DG(x)* applied to the kernel gradient."""
    return prob.g.adjoint_apply(x, prob.cone.prepare(prob.g.value(x)).smoothed(mu)[1])


class LinearConcave:
    """P2(x) = <v, x>."""

    def __init__(self, v):
        self.v = np.asarray(v, dtype=float)

    def value(self, x):
        return float(np.dot(self.v, x))

    def subgradient(self, x):
        return self.v.copy()


def make_state(prob, x, mu, Lf0=1.0, Lg0=1.0):
    """The linesearch's starting state at ``x`` and ``mu`` with the given warm starts."""
    x = np.asarray(x, dtype=float)
    gmu, grad_h = prob.cone.prepare(prob.g.value(x)).smoothed(mu)
    return IterateState(
        x=x, mu=mu, f=prob.f.value(x),
        psi=objective_value(prob, x), gmu=gmu,
        grad_gmu=prob.g.adjoint_apply(x, grad_h),
        grad_f=prob.f.gradient(x),
        xi=prob.p2.subgradient(x),
        Lf0=Lf0, Lg0=Lg0,
    )


_COLUMN_TYPES = tuple(get_type_hints(TraceRow).values())  # int or float per column


def read_trace(path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header in {path}")
        for rec in reader:
            rows.append(TraceRow._make(typ(float(v)) for typ, v in zip(_COLUMN_TYPES, rec)))
    return rows


def mu_values(spec: ScheduleSpec, ks) -> np.ndarray:
    """The schedule at the indices ``ks`` in one numpy pass: the bitwise
    reference for ``mu_at``, which reads the same factors in chunks."""
    a, b = _factors(spec, np.asarray(ks))
    mu = spec.mu0 * a
    return mu if b is None else mu * b


def partial_sum(spec: ScheduleSpec, K: int) -> float:
    """Half-window sum S_K = sum of mu_k for k in [ceil(K/2), K]."""
    K = int(K)
    if K < 0:
        raise ValueError("K must be nonnegative")
    return float(np.sum(mu_values(spec, np.arange((K + 1) // 2, K + 1))))


def partial_sum_lower_bound(spec: ScheduleSpec, K: int) -> float:
    """Guaranteed lower bound mu0 * K^(1 - rbar) / 2^(2 rbar + 1) on S_K.
    ``mu0`` is read as ``mu_at(spec, 0)``, which raises without one."""
    rbar = spec.r if spec.variant == "power" else spec.rbar
    return mu_at(spec, 0) / 2 ** (2 * rbar + 1) * K ** (1 - rbar)


def prox_path_point(p1, x_k, q, L_f, ball: BallConstraint, lam: float) -> np.ndarray:
    """Unique minimizer of the subproblem Lagrangian at multiplier ``lam``,
    by the solver's own kernel."""
    if lam < 0:
        raise ValueError("multiplier must be nonnegative")
    a = L_f * np.asarray(x_k, dtype=float) - np.asarray(q, dtype=float)
    return _path_point(p1, a, L_f, ball, lam)


def constraint_value(ball: BallConstraint, x) -> float:
    """The ball's constraint function ``(curvature / 2) (||x - center||^2 - radius^2)``."""
    gap = np.asarray(x, dtype=float) - ball.center
    d = math.sqrt(gap.dot(gap))
    return 0.5 * ball.curvature * (d * d - ball.radius**2)


def polar_residual(cone, v) -> float:
    """How far ``v`` is from the polar cone of ``cone`` (0 means membership).
    ``v`` passes ``checked_array`` at the cone's shape, so a NaN or inf
    entry raises; a matrix goes through ``symmetrized`` and the cone's
    ``_eigh``, so an asymmetric one or a non-finite spectrum raises too."""
    if isinstance(cone, NonposOrthant):
        return max(0.0, -float(checked_array(v, (cone.m,), "multiplier").min()))
    if isinstance(cone, NegSemidef):
        vals = cone._eigh(symmetrized(checked_array(v, (cone.m, cone.m), "multiplier")))[0]
        return max(0.0, -float(vals[0]))
    v = checked_array(v, (cone.m + 1,), "multiplier")
    return max(0.0, float(np.linalg.norm(v[:-1]) + v[-1]))


class Smoothing(NamedTuple):
    """The constants of a cone's smoothing that ``smba.cones`` states: gap
    slope ``alpha3`` (shift included), gradient Lipschitz constant
    ``alpha1 + alpha2 / mu``, shift slope ``alpha4`` and the norm bound of
    the polar cone's base."""

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    base_norm_bound: float

    def gradient_lipschitz(self, mu: float) -> float:
        return self.alpha1 + self.alpha2 / mu


# per cone family: the gap slope before the shift as a function of m,
# alpha1, alpha2 and the base's norm bound
SMOOTHING_TABLE = {
    "nonpos_orthant": (math.log, 0.0, 1.0, 1.0),
    "neg_semidef": (math.log, 0.0, 1.0, 1.0),
    "p_cone": (lambda m: 1.0, 0.0, 1.0, math.sqrt(2.0)),
}


def smoothing(cone) -> Smoothing:
    gap, alpha1, alpha2, base = SMOOTHING_TABLE[cone.family]
    return Smoothing(alpha1, alpha2, gap(cone.m) + cone.alpha4, cone.alpha4, base)


class _Subclass(np.ndarray):
    """An ndarray subclass, which the guards' one-test acceptance turns away."""


# inputs of shape (3,) unless named otherwise, for the two array guards
# (``checked_array``, ``solver._finite``): each is built fresh, and each
# but "float64" misses the guards' one-test acceptance of an exact float64
# ndarray of the right shape with a finite squared norm
GUARD_INPUTS = {
    "float64": lambda: np.array([1.0, -2.0, 3.0]),
    "float32": lambda: np.array([1.0, -2.0, 3.0], dtype=np.float32),
    "float32-inf": lambda: np.array([1.0, np.inf, 3.0], dtype=np.float32),
    "int": lambda: np.array([1, -2, 3]),
    "bool": lambda: np.array([True, False, True]),
    "complex": lambda: np.array([1.0, -2.0, 3.0 + 0j]),
    "object": lambda: np.array([1.0, -2.0, 3.0], dtype=object),
    "big-endian": lambda: np.array([1.0, -2.0, 3.0], dtype=">f8"),
    "big-endian-nan": lambda: np.array([1.0, np.nan, 3.0], dtype=">f8"),
    "subclass": lambda: np.array([1.0, -2.0, 3.0]).view(_Subclass),
    "subclass-nan": lambda: np.array([1.0, np.nan, 3.0]).view(_Subclass),
    "shape-2": lambda: np.array([1.0, -2.0]),
    "shape-3x1": lambda: np.array([[1.0], [-2.0], [3.0]]),
    "nan": lambda: np.array([1.0, np.nan, 3.0]),
    "inf": lambda: np.array([1.0, -np.inf, 3.0]),
    "squares-overflow": lambda: np.array([1e200, -1e200, 3.0]),
}
