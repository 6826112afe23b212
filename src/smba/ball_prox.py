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

import numpy as np

from .cones import _VDOT, count_nonzero
from .errors import NumericError
from .problems import _SIGNS, L1Regularizer

PHI_TOL = 1e-12


class BallConstraint:
    """Feasible ball of one subproblem.

    ``curvature`` is the quadratic weight L_g / mu of the majorant that the
    ball came from; the constraint function is
    ``(curvature / 2) (||x - center||^2 - radius^2)``.  A slotted record, one
    per linesearch trial: its fields are set once here and only read after.
    """

    __slots__ = ("center", "radius", "curvature")

    def __init__(self, center, radius, curvature):
        self.center, self.radius, self.curvature = center, radius, curvature


def build_ball(x_k, grad_gmu, grad_sq, gmu_val, L_g, mu) -> BallConstraint:
    """Ball of the quadratic majorant of the smoothed constraint at x_k.

    ``x_k`` and ``grad_gmu`` are float vectors and ``grad_sq`` is
    ``grad_gmu . grad_gmu``, which every ball of one step shares.  The
    radius is positive, inf where the terms under its root overflow, and
    the curvature positive; the solver guarantees what makes them so, and
    nothing here checks it again: strict feasibility ``gmu_val < 0`` (the
    step state is formed only at such a point), ``L_g > 0`` (a finite power
    of two times a warm start of at least ``L_min > 0``) and ``mu >=
    MU_FLOOR``.
    """
    scale = mu / L_g
    center = x_k - scale * grad_gmu
    radius = scale * math.sqrt(grad_sq - 2.0 * (L_g / mu) * gmu_val)
    return BallConstraint(center, radius, L_g / mu)


def _path_point(p1, a, L_f, ball: BallConstraint, lam: float) -> np.ndarray:
    """The unique minimizer of the subproblem Lagrangian at a multiplier
    ``lam >= 0``, from ``a = L_f x_k - q``; at ``lam = 0`` the prox gradient
    point."""
    s = lam * ball.curvature
    t = L_f + s
    return p1.prox((a + s * ball.center) / t, 1.0 / t)


def solve_ball_prox(p1, x_k, q, L_f, ball: BallConstraint):
    """Solve the ball-constrained prox subproblem, returning the pair (x, lam).

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

    For l1 each pass costs one prox evaluation: the multiplier is exactly 0
    when the prox gradient point ``x(0)`` lies within the radius, and the
    path point at 0 is then ``x(0)`` itself.  For ``P1 = 0`` the prox
    gradient point ``x(0) = p1.prox(a / L_f, 1 / L_f)`` is formed once, with
    none of the path point's terms in the zero multiplier (``0 * curvature``
    and ``a + 0 * center`` change at most the sign of a zero entry), its
    distance to the center is one ``vdot``, and the multiplier is
    closed-form.
    ``x_k`` and ``q`` are float vectors, and ``p1`` is a ``ZeroRegularizer``
    or an ``L1Regularizer``, as ``DCProblem`` requires.  A multiplier that
    is not finite, as from a distance or l1 sums that overflow, raises
    NumericError before any point is formed from it.
    """
    a = L_f * x_k - q
    R = ball.radius
    margin = min(PHI_TOL * (1.0 + R), 1e-10 / (ball.curvature * R), 0.5 * R)

    l1 = isinstance(p1, L1Regularizer)
    if not l1:
        x0 = p1.prox(a / L_f, 1.0 / L_f)
        gap = x0 - ball.center
        dist = math.sqrt(_VDOT(gap, gap))  # vdot overflows silently
    while margin < R:
        radius = R - margin
        if l1:
            lam = _l1_multiplier(p1.thresholds, a, ball.center, L_f, radius) / ball.curvature
        elif dist <= radius:
            lam = 0.0
        else:
            # P1 = 0: x(nu) - center = L_f (x0 - center) / (L_f + nu)
            lam = L_f * (dist / radius - 1.0) / ball.curvature
        if not lam < math.inf:  # a NaN too
            raise NumericError("ball subproblem terms overflow the float range")
        x = (_path_point(p1, a, L_f, ball, lam) if l1 else x0 if dist <= radius
             else ball.center + (radius / dist) * gap)
        x_gap = x - ball.center
        if math.sqrt(x_gap.dot(x_gap)) < R:
            return x, lam
        margin = max(2.0 * margin, math.ulp(R))
    raise NumericError("ball subproblem has no point strictly inside the ball at double precision")


def _double_sum(terms):
    """``math.fsum`` of the nonnegative floats ``terms`` and its remainder, as
    a double-double ``(hi, lo)``; raises NumericError when the sum passes
    the float range, as terms formed from huge oracle outputs can."""
    try:
        hi = math.fsum(terms)
    except OverflowError:  # finite terms whose exact partial sums overflow
        hi = math.inf
    if not hi < math.inf:
        raise NumericError("l1 subproblem terms overflow the float range")
    return hi, math.fsum(terms + [-hi])


def _l1_multiplier(thresholds, a, c, L_f, R):
    """Smallest ``nu = lam * curvature >= 0`` with ``||x(nu) - c|| <= R`` on the l1 path.

    With ``s = a + nu c`` and ``a = L_f x_k - q``, coordinate i of the path
    point is ``(s_i - w_i) / (L_f + nu)`` above the soft-threshold dead zone
    (``s_i > w_i``), ``(s_i + w_i) / (L_f + nu)`` below it and 0 inside it.
    So ``x_i - c_i`` is ``alpha_i / (L_f + nu)`` outside the dead zone, with
    ``alpha = a -+ w - L_f c``, and ``-c_i`` inside it.  Between consecutive
    breakpoints ``s_i = +-w_i`` the squared distance is ``Q + P / (L_f + nu)^2``,
    where P sums alpha^2 outside and Q sums c^2 inside the dead zone, and
    its root is ``nu = sqrt(P / (R^2 - Q)) - L_f``.  The distance is
    continuous and nonincreasing in nu, so the multiplier lies on the first
    piece whose own root is at most its right end; it is clamped to at least
    the piece's left end.  When ``x(0)`` lies within R, that is the first
    piece, and the clamp returns exactly 0.0.

    The per-coordinate terms are formed on one ``(2, n)`` layout, row 0 for
    the +w threshold and row 1 for the -w one, as in ``thresholds``, the
    ``L1Regularizer`` attribute of that name.  All 2n breakpoints come from
    one division and are sorted once, those that never lie ahead last as
    inf; one pass over them in Python floats stops at the root's piece,
    which is nearly always among the first few, and at the first inf at the
    latest.  P and Q are carried as double-doubles (``hi + lo``): the start
    sums by ``_double_sum``, each breakpoint's delta by a two-sum.  A delta
    removes the very double that the start sum or an earlier delta added, so
    the sums stay accurate where they cancel, as when R is small next to
    ``||c||`` and Q falls by many orders of magnitude before the root's
    piece.
    """
    n = a.size
    S = thresholds - a  # w - s and -w - s at nu = 0
    T2 = S + L_f * c
    T2 *= T2  # alpha^2: above the dead zone in row 0, below it in row 1
    # region just right of nu = 0: above where S[0] < 0, below where
    # S[1] > 0; a tie on a boundary (S == 0, rare) moves in the direction of c
    ties = count_nonzero(S) < 2 * n
    outside = (np.where(S != 0.0, S, -c) if ties else S) * _SIGNS < 0.0
    P, P_lo = _double_sum(T2[outside].tolist())
    # no coordinate is both above and below, so the dead zone is where the
    # two rows agree
    dead = c[outside[0] == outside[1]]
    Q, Q_lo = _double_sum((dead * dead).tolist())
    # s_i crosses +w_i at S[0, i] / c_i (flat position i) and -w_i at
    # S[1, i] / c_i (position n + i); each crossing moves coordinate i one
    # region in the direction of c_i.  A coordinate on the center (c_i == 0,
    # rare) never crosses: its knots are 0.  A knot <= 0 never lies ahead and
    # is sorted last as inf, where every scan stops, as it may at a knot that
    # overflows to inf.  The stable sort breaks ties by position
    knots = np.divide(S, c, out=np.zeros((2, n)), where=c != 0.0)
    knots = np.where(knots > 0.0, knots, math.inf)
    R2 = R * R
    left = 0.0
    for pos in knots.argsort(axis=None, kind="stable").tolist() + [None]:
        right = math.inf if pos is None else knots.item(pos)
        Qs = Q + Q_lo
        nu = math.sqrt((P + P_lo) / (R2 - Qs)) - L_f if Qs < R2 else math.inf
        if Qs == R2 and P + P_lo == 0.0:
            nu = left  # dead-zone terms alone at distance exactly R: a plateau of roots
        if nu <= right:
            return max(nu, left)
        if right == math.inf:  # a NaN root: P or Q was lost to an overflow
            raise NumericError("l1 subproblem terms overflow the float range")
        left = right
        ci = c.item(pos % n)
        # a +w crossing moves coordinate i between dead and above, a -w
        # crossing between below and dead; c_i's sign says which way
        dP, dQ = T2.item(pos), ci * ci
        if pos < n:
            dQ = -dQ
        else:
            dP = -dP
        if ci < 0.0:
            dP, dQ = -dP, -dQ
        # two-sums: hi + d exactly, its rounding error into lo
        s = P + dP
        P_lo += (P - s) + dP if abs(P) >= abs(dP) else (dP - s) + P
        P = s
        s = Q + dQ
        Q_lo += (Q - s) + dQ if abs(Q) >= abs(dQ) else (dQ - s) + Q
        Q = s
