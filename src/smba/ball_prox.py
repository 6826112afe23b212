"""Single-ball proximal subproblem solved through its exact multiplier.

Each outer iteration majorizes the smoothed constraint by a quadratic whose
zero-sublevel set is a Euclidean ball.  The subproblem

    min  P1(x) + <q, x - x_k> + (L_f / 2) ||x - x_k||^2
    s.t. ||x - center|| <= radius

is solved through its Lagrangian: for a fixed multiplier the minimizer is a
single prox evaluation, and the multiplier is the root of the
distance-to-center residual along that path.  Each supported P1 has an exact
root: for P1 = 0 the path is a segment toward the center, so the multiplier
has a closed form; for weighted l1 the squared distance is piecewise
quadratic between sorted soft-threshold breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleStartError, NumericError, UnsupportedFamilyError
from .problems import REGULARIZERS, L1Regularizer

PHI_TOL = 1e-12


@dataclass(frozen=True)
class BallConstraint:
    """Feasible ball of one subproblem.

    ``curvature`` is the quadratic weight L_g / mu of the majorant that the
    ball came from; the constraint function is
    ``(curvature / 2) (||x - center||^2 - radius^2)``.
    """

    center: np.ndarray
    radius: float
    curvature: float

    def __post_init__(self):
        if not (self.radius > 0):
            raise ValueError(f"ball radius must be positive, got {self.radius}")
        if not (self.curvature > 0):
            raise ValueError("curvature weight must be positive")

    def constraint_value(self, x) -> float:
        gap = np.asarray(x, dtype=float) - self.center
        d = math.sqrt(gap.dot(gap))
        return 0.5 * self.curvature * (d * d - self.radius**2)


@dataclass(frozen=True)
class SubproblemResult:
    x: np.ndarray
    lam: float


def build_ball(x_k, grad_gmu, gmu_val, L_g, mu) -> BallConstraint:
    """Ball of the quadratic majorant of the smoothed constraint at x_k.

    Requires strict feasibility ``gmu_val < 0``, which makes the radius real
    and positive.
    """
    if not (gmu_val < 0.0):
        raise InfeasibleStartError(
            f"smoothed constraint value must be negative to build the ball, got {gmu_val}"
        )
    if L_g <= 0 or mu <= 0:
        raise ValueError("L_g and mu must be positive")
    x_k = np.asarray(x_k, dtype=float)
    grad_gmu = np.asarray(grad_gmu, dtype=float)
    scale = mu / L_g
    center = x_k - scale * grad_gmu
    radius = scale * math.sqrt(
        float(np.dot(grad_gmu, grad_gmu)) - 2.0 * (L_g / mu) * gmu_val
    )
    return BallConstraint(center=center, radius=radius, curvature=L_g / mu)


def prox_path_point(p1, x_k, q, L_f, ball: BallConstraint, lam: float) -> np.ndarray:
    """Unique minimizer of the subproblem Lagrangian at multiplier ``lam``."""
    if lam < 0:
        raise ValueError("multiplier must be nonnegative")
    x_k = np.asarray(x_k, dtype=float)
    q = np.asarray(q, dtype=float)
    t = L_f + lam * ball.curvature
    z = (L_f * x_k - q + lam * ball.curvature * ball.center) / t
    return p1.prox(z, 1.0 / t)


def solve_ball_prox(p1, x_k, q, L_f, ball: BallConstraint) -> SubproblemResult:
    """Solve the ball-constrained prox subproblem, returning (x, lambda).

    The reported multiplier is the one of the quadratic constraint
    ``(curvature/2)(||x - center||^2 - radius^2) <= 0``.  The multiplier is
    solved for a radius a hair below ``ball.radius``, so the returned point
    is strictly inside the ball, while ``|lam * g(x)|`` stays below about
    ``1e-10 * lam``; the margin starts at no more than half the radius, so a
    radius below ``PHI_TOL`` is solved too.  When ``curvature * radius**2``
    is near ``1e6`` or more, that margin is below the spacing of doubles at
    ``radius`` and rounding can leave the point on the sphere; the margin is
    then doubled (to at least one ulp of ``radius``) until the point is
    strictly inside.
    """
    if not isinstance(p1, REGULARIZERS):
        raise UnsupportedFamilyError(f"no ball-prox solver for P1 of type {type(p1).__name__}")
    x_k = np.asarray(x_k, dtype=float)
    q = np.asarray(q, dtype=float)
    R = ball.radius
    margin = min(PHI_TOL * (1.0 + R), 1e-10 / (ball.curvature * R), 0.5 * R)

    x0 = prox_path_point(p1, x_k, q, L_f, ball, 0.0)
    gap = x0 - ball.center
    dist = math.sqrt(gap.dot(gap))
    while margin < R:
        radius = R - margin
        if dist <= radius:
            x, lam = x0, 0.0
        elif isinstance(p1, L1Regularizer):
            nu = _l1_multiplier(p1.weights, L_f * x_k - q, ball.center, float(L_f), radius)
            lam = nu / ball.curvature
            x = prox_path_point(p1, x_k, q, L_f, ball, lam)
        else:
            # P1 = 0: x(nu) - center = L_f (x0 - center) / (L_f + nu)
            nu = L_f * (dist / radius - 1.0)
            lam = float(nu / ball.curvature)
            x = ball.center + (radius / dist) * gap
        x_gap = x - ball.center
        if math.sqrt(x_gap.dot(x_gap)) < R:
            return SubproblemResult(x=x, lam=lam)
        margin = max(2.0 * margin, math.ulp(R))
    raise NumericError("ball subproblem has no point strictly inside the ball at double precision")


def _l1_multiplier(w, a, c, L_f, R):
    """Smallest ``nu = lam * curvature`` with ``||x(nu) - c|| = R`` on the l1 path.

    With ``s = a + nu c`` and ``a = L_f x_k - q``, coordinate i of the path
    point is ``(s_i - w_i) / (L_f + nu)`` above the soft-threshold dead zone
    (``s_i > w_i``), ``(s_i + w_i) / (L_f + nu)`` below it and 0 inside it.
    So ``x_i - c_i`` is ``alpha_i / (L_f + nu)`` outside the dead zone, with
    ``alpha = a -+ w - L_f c``, and ``-c_i`` inside it.  Between consecutive
    breakpoints ``s_i = +-w_i`` the squared distance is ``Q + P / (L_f + nu)^2``,
    where P sums alpha^2 outside and Q sums c^2 inside the dead zone, and
    its root is ``nu = sqrt(P / (R^2 - Q)) - L_f``.  The distance is
    continuous and nonincreasing in nu and exceeds R at nu = 0.

    The root's piece is nearly always among the first few breakpoints, so
    the per-coordinate terms and the sort stay vectorized while the scan
    over the sorted breakpoints runs in Python floats and stops at the
    root's piece.  It adds the deltas left to right, as ``np.cumsum`` does,
    and the exact (P, Q) are numpy sums over masks, so the result keeps the
    bits of a fully vectorized scan.
    """
    n = a.size
    Lc = L_f * c
    below2 = (a + w - Lc) ** 2
    above2 = (a - w - Lc) ** 2
    c2 = c * c
    neg_w = -w
    # region just right of nu = 0: -1 below, 0 dead, +1 above; a tie on a
    # boundary moves in the direction of c
    start = (((a > w) | ((a == w) & (c > 0))).astype(int)
             - ((a < neg_w) | ((a == neg_w) & (c < 0))))
    # s_i crosses +w_i at (w - a) / c (position i) and -w_i at (-w - a) / c
    # (position n + i); each crossing moves coordinate i one region in the
    # direction of c_i.  The stable sort breaks ties by position
    nz = c != 0.0
    knots = np.zeros(2 * n)
    np.divide(w - a, c, out=knots[:n], where=nz)
    np.divide(neg_w - a, c, out=knots[n:], where=nz)
    keep = ((knots > 0.0) & (knots < math.inf)).nonzero()[0]
    order = keep[knots[keep].argsort(kind="stable")].tolist()
    knots, c_list = knots.tolist(), c.tolist()
    K = len(order)
    # piece p runs from ends(p) to ends(p + 1), for p = 0..K
    ends = lambda p: 0.0 if p == 0 else knots[order[p - 1]] if p <= K else math.inf
    R2 = R * R

    def sums(p):
        """Exact (P, Q) on piece p."""
        region = start
        if p:
            region = start.copy()
            for pos in order[:p]:
                i = pos % n
                region[i] += 1 if c_list[i] > 0 else -1
        return (float(below2[region < 0].sum() + above2[region > 0].sum()),
                float(c2[region == 0].sum()))

    # locate the piece with running sums over the sorted breakpoints: the
    # first whose right end is inside the sphere.  On piece p the sums are
    # the start sums plus the deltas of the first p breakpoints
    P0, Q0 = sums(0)
    dP = dQ = 0.0
    p = K
    for j, pos in enumerate(order):
        t = L_f + knots[pos]
        if Q0 + dQ + (P0 + dP) / (t * t) <= R2:
            p = j
            break
        i = pos % n
        d = 1.0 if c_list[i] > 0 else -1.0
        # a +w crossing moves i between dead and above, a -w crossing between
        # below and dead; c_i's sign says which way
        if pos < n:
            dP += d * float(above2[i])
            dQ -= d * float(c2[i])
        else:
            dP -= d * float(below2[i])
            dQ += d * float(c2[i])
    # the running sums cancel badly when R is small next to ||c||, so the
    # piece can be off by a breakpoint that lies within rounding of the
    # sphere; step to the piece that holds the root of the exact sums
    step = 0
    while True:
        P, Q = (P0, Q0) if p == 0 else sums(p)
        nu = math.sqrt(P / (R2 - Q)) - L_f if Q < R2 else math.inf
        if nu > ends(p + 1) and step >= 0:
            p, step = p + 1, 1
        elif nu < ends(p) and p > 0 and step <= 0:
            p, step = p - 1, -1
        else:
            return float(min(max(nu, ends(p)), ends(p + 1)))
