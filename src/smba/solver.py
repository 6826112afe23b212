"""Outer loop of the smoothing moving-balls method.

Each iteration majorizes the smoothed constraint at the current strictly
feasible iterate, solves one ball-constrained prox subproblem, and accepts
the trial point once it achieves a sufficient decrease and is feasible for
the smoothed constraint.  The smoothing parameter then follows a
prescheduled decreasing sequence, and the additive shift of the smoothing
family guarantees the next iterate stays strictly feasible at the smaller
parameter.

The linesearch.  The two quadratic weights ``Lf = 2^a Lf0`` and ``Lg =
2^b Lg0`` are searched on doubling grids above warm starts taken from the
last accepted step (``bb_init``).  The descent test comes first, so the
constraint map and the cone decomposition are paid for only by trials that
pass it.  A trial that fails the descent test has measured the curvature of
``f`` along its own step, ``curv = f(x+) - f(x_k) - <grad f(x_k), dx>``,
with no extra oracle call.  Its secant ``2 curv / ||dx||^2`` is at most the
Lipschitz constant of ``grad f``, so ``a`` jumps to the largest grid point
not above the secant, and at least by one (the interpolation step of
Nocedal and Wright, *Numerical Optimization*, section 3.5, kept on the
grid).  A curvature within ``SECANT_GUARD`` of the rounding of ``f`` is
noise and raises ``a`` by one.  ``b`` rises by as much as ``a``.  A trial
rejected as infeasible has measured the constraint the same way, ``curv_g =
g_mu(x+) - g_mu(x_k) - <grad g_mu(x_k), dx>``, and ``b`` alone rises to the
smallest grid point at or above ``2 mu curv_g / ||dx||^2``, and at least by
one; by one when ``curv_g`` is not positive and finite or within
``SECANT_GUARD`` of the rounding of ``g_mu``.  Each secant is at most the
Lipschitz constant it estimates (of ``grad f``, or of ``mu grad g_mu`` on
the step), so the accepted ``Lf`` and ``Lg`` keep the bound plain doubling
gives: below twice that constant, or the warm start.  A non-finite
objective is tested for feasibility too: an infeasible trial is rejected as
a feasibility failure, a feasible one ends the run.  The trace's ``i_k``
counts the trials that failed the descent test and ``j_k + 1`` all trials;
``max_inner_j`` caps ``j_k``.

The hand-off.  One step hands the next a frozen ``IterateState``: the
accepted point, the next step's mu, the point's f, psi and smoothed value
at that mu, the gradients of f and g_mu there, the P2 subgradient, and the
next step's warm starts.  One builder forms it at x0 and at every accepted
point.  It takes the smoothed value and the adjoint of the smoothing
gradient that one ``smoothed(mu)`` call of the point's cone point gives
(cone points hold no state, so nothing reads one back), checks that the
smoothed value is negative, and forms the warm starts from the accepted
step's own ``dx``, ``||dx||^2`` and gradient changes, with the clipped 1.0
at x0.

Each quantity of a step is formed once.  A trial evaluates f, P1 and P2 at
its point, and, if it passes the descent test, ``G``, the cone point and
the value ``g_mu``, with no softmax weights; ``||grad g_mu(x_k)||^2`` is
shared by every trial's ball.  The accepted trial carries its step ``dx``
and ``||dx||^2`` from the descent test to the certificate's step length and
the next warm starts, and its f value, ``G`` value and cone point to the
certificate, the exact feasibility check and the next step's smoothed value
and gradient.  ``||x_{k+1}||`` serves the stop test and the divergence
guard.  An accepted point gets one f gradient, one ``smoothed`` call, which
gives the next step's smoothed value and the smoothing gradient ``grad
h_mu'(G(x_{k+1}))``, and one adjoint apply of it, at the next schedule
value mu' (at the floor, where no step follows, the step's own mu).  The
certificate's multiplier is ``lam_k`` times that smoothing gradient, and
the next step reads the same adjoint output as its ``grad g_mu'``; only a
stall advance, which moves mu' on, forms them again at the new mu.  Only
when another step will run does the point also get that step's P2
subgradient, so a run forms no state after its last row.  Each oracle
output is scanned for NaN and inf once; the f gradient, the P2 subgradient
and the adjoint output are checked for the shape ``(n,)``, a real dtype and
a squared norm that does not overflow, and the f and P2 values become
Python floats, or end the run unless they are real scalars (a bool, a
complex number or text is not; a Python float passes as it is, with no
further call).

The stop test can only pass once the slack falls with mu, and the
``blockwise`` and ``ramped_log`` schedules hold mu nearly constant for
blocks of ``n0 + 1`` indices, while ``power`` lowers it ever more slowly.
So when an accepted step meets the step test but not the slack test, the
iterate has stalled at the current mu, and the schedule index advances
further than by one, to ``schedules.stall_index``: the start of the next
block, or for ``power`` the first index at which mu has halved.  The mu
used is then a subsequence of the prescheduled one: still strictly
decreasing to zero, with every iterate strictly feasible, for every
variant.  The paper's complexity bound is stated for the
prescheduled sequence itself.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import reprlib
import time
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from . import diagnostics
from .ball_prox import build_ball, solve_ball_prox
from .cones import _FLOAT64, _VDOT, MU_FLOOR, check_keys, check_numbers, checked_array, real_dtype
from .errors import InfeasibleStartError, NumericError
from .problems import DCProblem
from .schedules import ScheduleSpec, mu_at, ramped_log_schedule, stall_index

DIVERGENCE_NORM = 1e8
SECANT_GUARD = 1e-12  # curvature below this share of |f(x+)| + |f(x_k)| (or of g_mu) is rounding
FEASIBILITY_SLACK = 1e-10


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_OUTER = "max_outer"
    INNER_CAP_EXCEEDED = "inner_cap_exceeded"
    NUMERIC_FAILURE = "numeric_failure"
    MU_FLOOR = "mu_floor"


@dataclass(frozen=True)
class SolverConfig:
    tau1: float = 0.01
    tau2: float = 0.01
    L_min: float = 1e-8
    L_max: float = 1e8
    eps: float = 1e-7
    max_outer: int = 5000
    max_inner_j: int = 40
    schedule: ScheduleSpec = field(default_factory=lambda: ramped_log_schedule(0.9, 3.0))

    def __post_init__(self):
        check_numbers(self, reals=("tau1", "tau2", "L_min", "L_max", "eps"),
                      integers=("max_outer", "max_inner_j"))
        if not isinstance(self.schedule, ScheduleSpec):
            raise ValueError(f"schedule must be a schedule spec, got {self.schedule!r}")
        # written as "not (valid)" so that NaN fails every check
        if not (self.tau1 > 0 and self.tau2 > 0 and self.eps > 0):
            raise ValueError("tau1, tau2 and eps must be positive")
        if not 0 < self.L_min <= self.L_max:
            raise ValueError("need 0 < L_min <= L_max")
        if not (self.max_outer >= 1 and self.max_inner_j >= 0):
            raise ValueError("iteration caps are out of range")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)  # the schedule becomes a nested dict

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        check_keys(cls, d, "solver config")
        if isinstance(d.get("schedule"), dict):
            d = {**d, "schedule": ScheduleSpec.from_dict(d["schedule"])}
        return cls(**d)


class IterateState(NamedTuple):
    """What a step starts from (module docstring, the hand-off): the point
    ``x``, the step's ``mu``, ``f(x)``, ``psi(x)``, ``gmu = g_mu(x)``, the
    gradients of ``g_mu`` and f at ``x``, the P2 subgradient ``xi``, and the
    warm starts ``Lf0`` and ``Lg0``."""

    x: np.ndarray
    mu: float
    f: float
    psi: float
    gmu: float
    grad_gmu: np.ndarray
    grad_f: np.ndarray
    xi: np.ndarray
    Lf0: float
    Lg0: float


class TraceRow(NamedTuple):
    k: int
    psi: float
    g_mu: float
    sigma_B: float
    mu: float
    lam: float  # the column "lambda"
    Lf: float
    Lg: float
    i_k: int
    j_k: int
    term_step: float
    term_slack: float
    rho: float
    elapsed_s: float

    def as_tuple(self):
        return tuple(self)


TRACE_COLUMNS = tuple("lambda" if name == "lam" else name for name in TraceRow._fields)


@dataclass
class SolveReport:
    """Outcome of ``run``.  ``x``, ``objective``, ``final_kkt``, ``term_step``
    and ``term_slack`` belong to the last trace row on every exit; with no
    rows they are x0, its objective (NaN unless a real scalar), None and
    inf.  ``mu0`` is NaN when the initial smoothing search reached the
    floor.  ``advances`` counts the stalled steps after which the schedule
    index jumped ahead (module docstring).  ``capped`` holds ``(i, j)`` of a
    step that ran out of trials and has no row: ``i`` of its ``j`` trials
    failed the descent test."""

    status: SolveStatus
    trace: List[TraceRow]
    final_kkt: Optional[diagnostics.KKTCertificate]
    wall_time: float
    objective: float
    x: np.ndarray
    mu0: float
    reason: str = ""
    advances: int = 0
    capped: Tuple[int, int] = (0, 0)

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def term_step(self) -> float:
        return self.trace[-1].term_step if self.trace else math.inf

    @property
    def term_slack(self) -> float:
        return self.trace[-1].term_slack if self.trace else math.inf

    @property
    def trials(self) -> int:
        """Linesearch trials of the recorded steps and of a capped step."""
        return sum(row.j_k + 1 for row in self.trace) + self.capped[1]

    @property
    def cone_evals(self) -> int:
        """G values and cone decompositions: the start point plus the trials
        that passed the descent test, in recorded steps and a capped step."""
        i, j = self.capped
        return 1 + sum(row.j_k + 1 - row.i_k for row in self.trace) + j - i

    def to_dict(self) -> dict:
        # unset metrics (no accepted step), a non-finite x0 objective and a
        # mu0 the initial search never found serialize as null
        finite = lambda v: v if math.isfinite(v) else None
        return {
            "status": self.status.value,
            "iterations": self.iterations,
            "trials": self.trials,
            "cone_evals": self.cone_evals,
            "advances": self.advances,
            "wall_time": self.wall_time,
            "objective": finite(self.objective),
            "mu0": finite(self.mu0),
            "term_step": finite(self.term_step),
            "term_slack": finite(self.term_slack),
            "reason": self.reason,
            "x": self.x.tolist(),
            "final_kkt": self.final_kkt.to_dict() if self.final_kkt else None,
        }


class InnerCapError(NumericError):
    """The feasibility/descent loop exhausted its trial budget: ``i`` of its
    ``j`` trials failed the descent test."""

    def __init__(self, mu, Lg, g_mu, i, j):
        self.mu = mu
        self.Lg = Lg
        self.g_mu = g_mu
        self.i = i
        self.j = j
        super().__init__(
            f"inner loop cap exceeded at mu={mu:.3e}; last Lg={Lg:.3e}, last g_mu={g_mu:.3e}"
        )


class InnerResult(NamedTuple):
    """The accepted trial, with its step ``dx = x - x_k`` and ``step2 =
    ||dx||^2``, ``f(x)``, ``y = G(x)`` and its evaluated cone point."""

    x: np.ndarray
    dx: np.ndarray
    step2: float
    lam: float
    Lf: float
    Lg: float
    i: int
    j: int
    gmu: float
    f: float
    psi: float
    y: np.ndarray
    point: object  # the cone point of y (smba.cones)


def _finite(name: str, value, k: int, n: int):
    """``value`` unchanged; raises NumericError unless it is an array of
    shape ``(n,)`` (the step uses array methods, so a list fails too) with a
    ``real_dtype``, no NaN or inf entry and a finite squared norm: a vector
    whose entries are finite but whose squared norm overflows is too large
    for the step's sums, and is named here rather than where it overflows.

    An exact ``np.ndarray`` of native float64 and shape ``(n,)`` with a
    finite squared norm, as every oracle of ``smba.problems`` returns,
    passes in one test; any other value takes the general path, with the
    same verdicts."""
    if (type(value) is np.ndarray and value.dtype is _FLOAT64 and value.shape == (n,)
            and math.isfinite(_VDOT(value, value))):
        return value
    shape = getattr(value, "shape", None)
    if shape != (n,):
        raise NumericError(f"{name} has shape {shape} at step {k}, expected ({n},)")
    if not real_dtype(value):
        raise NumericError(f"{name} has dtype {getattr(value, 'dtype', None)} at step {k}, "
                           "expected real numbers")
    if not math.isfinite(_VDOT(value, value)):  # vdot overflows silently
        if not np.isfinite(value).all():
            raise NumericError(f"{name} is not finite at step {k}")
        raise NumericError(f"{name} is too large (its squared norm overflows) at step {k}")
    return value


def _cone_point(prob: DCProblem, y, where: str):
    """The evaluated cone point of ``y = G(x)``; raises NumericError naming
    the constraint map and ``where`` if the cone rejects ``y`` (a NaN or inf
    entry, a wrong shape, or asymmetry)."""
    try:
        return prob.cone.prepare(y)
    except ValueError as exc:
        raise NumericError(f"constraint map output rejected at {where}: {exc}") from exc


def _scalar(name: str, value, where: str) -> float:
    """``value`` as a Python float; raises NumericError naming ``name`` and
    ``where`` unless it is a real scalar: a bool, a complex number, text
    (``str`` or ``bytes``) and a value of a non-real numpy dtype are not, so
    a complex value is not read as its real part, nor text parsed."""
    try:
        if not isinstance(value, (bool, complex, str, bytes)) and (
                real_dtype(value) or not hasattr(value, "dtype")):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise NumericError(f"{name} is not a real scalar at {where}: {reprlib.repr(value)}")


def _objective(prob: DCProblem, x, where: str) -> Tuple[float, float]:
    """``(f(x), psi(x))`` as Python floats, psi summed in ``objective_value``'s
    order; an f value or P2 value that is not a Python float passes
    ``_scalar``."""
    f = prob.f.value(x)
    if type(f) is not float:
        f = _scalar("f value", f, where)
    psi, p2 = f + prob.p1.value(x), prob.p2.value(x)
    return f, psi - (p2 if type(p2) is float else _scalar("P2 value", p2, where))


def _start_point(prob: DCProblem, x0):
    """The evaluated cone point of ``G(x0)``; raises unless x0 is strictly feasible."""
    point = _cone_point(prob, prob.g.value(x0), "x0")
    if not point.support < 0:
        raise InfeasibleStartError(
            f"starting point is not strictly feasible (support value {point.support:.3e})"
        )
    return point


def _initial_mu(point) -> float:
    """Smallest 0.9 * 2^(-l) making the smoothed constraint clearly negative
    at the start point, whose evaluated cone point is ``point``.

    The acceptance threshold is one tenth of the (negative) exact constraint
    value, so the starting smoothing error cannot wash out feasibility.
    """
    target = 0.1 * point.support
    mu = 0.9
    while mu >= MU_FLOOR:
        if point.value(mu) <= target:
            return mu
        mu *= 0.5
    raise NumericError(f"initial smoothing search reached the floor {MU_FLOOR:.0e}")


def bb_init(dx, dx2, df, dg, Lf0, Lg0, cfg: SolverConfig):
    """Warm starts for the step after an accepted step ``dx`` with ``dx2 =
    ||dx||^2``, along which the f gradient changed by ``df`` and ``mu grad
    g_mu`` by ``dg``, and which searched from ``Lf0`` and ``Lg0``.  They are
    the spectral ratio ``|dx.df| / ||dx||^2`` and the secant ratio ``||dg|| /
    ||dx||``, which by Cauchy-Schwarz lies between the two spectral ratios of
    ``dg`` and never passes the Lipschitz constant of ``mu grad g_mu`` on the
    step.  A ratio outside [L_min, L_max], or a step below 1e-12, falls back
    to half that step's start, kept above L_min."""
    lo, hi = cfg.L_min, cfg.L_max
    Lf0, Lg0 = max(lo, 0.5 * Lf0), max(lo, 0.5 * Lg0)
    if math.sqrt(dx2) > 1e-12:
        # L_max is finite, so a NaN or inf ratio is not inside
        ratio_f = abs(float(dx.dot(df))) / dx2
        ratio_g = math.sqrt(float(dg.dot(dg)) / dx2)
        Lf0 = ratio_f if lo <= ratio_f <= hi else Lf0
        Lg0 = ratio_g if lo <= ratio_g <= hi else Lg0
    return Lf0, Lg0


def _smoothing_gradient(prob: DCProblem, x, point, mu: float, k: int):
    """``(g_mu(x), grad h_mu(y), grad g_mu(x))`` at the point ``x`` whose
    evaluated cone point is ``point``, from one ``smoothed`` call: the
    smoothed value, the smoothing gradient and its adjoint apply, which
    ``_finite`` checks."""
    gmu, grad_h = point.smoothed(mu)
    return gmu, grad_h, _finite("constraint adjoint", prob.g.adjoint_apply(x, grad_h), k,
                                prob.dim)


def _state(prob: DCProblem, cfg: SolverConfig, k: int, x, mu: float, f: float, psi: float,
           grad_f, gmu: float, grad_gmu, prev: Optional[IterateState] = None,
           step: Optional[InnerResult] = None) -> IterateState:
    """The state of step ``k`` at ``x`` and ``mu``: x0 when ``prev`` is None,
    else the point that ``step`` reached from ``prev``; ``gmu`` and
    ``grad_gmu`` are the smoothed value and the checked smoothing gradient
    there at ``mu``.  Checks that the smoothed value is negative, then forms
    the P2 subgradient, guarded as the adjoint is, and the warm starts."""
    if not gmu < 0:
        if prev is None:
            raise InfeasibleStartError(
                f"smoothed constraint is not negative at x0 for mu0={mu:.3e} (value {gmu:.3e})")
        raise NumericError("strict feasibility chain broken")
    xi = _finite("P2 subgradient", prob.p2.subgradient(x), k, prob.dim)
    if prev is None:
        Lf0 = Lg0 = min(max(1.0, cfg.L_min), cfg.L_max)
    else:
        Lf0, Lg0 = bb_init(step.dx, step.step2, grad_f - prev.grad_f,
                           mu * (grad_gmu - prev.grad_gmu), prev.Lf0, prev.Lg0, cfg)
    return IterateState(x, mu, f, psi, gmu, grad_gmu, grad_f, xi, Lf0, Lg0)


def _secant_rise(curv: float, scale: float, step2: float, factor: float,
                 base: float, e: int, above: bool) -> int:
    """How far a failed trial lifts the exponent ``e`` of a weight ``base *
    2^e`` whose secant is ``2 factor curv / step2``: to the grid point next
    to it (the largest not above it, or with ``above`` the smallest at or
    above it), and at least by one; by one when ``curv`` is not positive and
    finite or within ``SECANT_GUARD`` of ``scale``.  The grid point is exact,
    with no logarithm and no overflow."""
    if not (step2 > 0.0 and curv > SECANT_GUARD * scale):
        return 1
    secant = 2.0 * factor * curv / step2
    if not secant < math.inf:
        return 1
    mv, ev = math.frexp(secant)
    mb, eb = math.frexp(base)
    return max(1, (ev - eb + (mv > mb) if above else ev - eb - (mv < mb)) - e)


def inner_loop_step(state: IterateState, prob: DCProblem, cfg: SolverConfig) -> InnerResult:
    """The first trial from ``state`` that the linesearch (module docstring)
    accepts.  ``i`` counts its descent failures and ``j + 1`` its trials, so
    i <= j.  Raises InnerCapError once ``j`` passes ``max_inner_j``, and
    NumericError for a weight past the float range, a ``G`` value the cone
    rejects, or a non-finite objective at a feasible trial."""
    q = state.grad_f - state.xi
    grad_sq = float(state.grad_gmu.dot(state.grad_gmu))  # every trial's ball uses it
    i = j = a = b = 0
    gmu_cand = math.nan
    while True:
        try:
            Lf, Lg = math.ldexp(state.Lf0, a), math.ldexp(state.Lg0, b)
        except OverflowError:
            raise NumericError("linesearch weight overflowed") from None
        ball = build_ball(state.x, state.grad_gmu, grad_sq, state.gmu, Lg, state.mu)
        x, lam = solve_ball_prox(prob.p1, state.x, q, Lf, ball)
        dx = x - state.x
        step2 = float(dx.dot(dx))
        f_cand, psi_cand = _objective(prob, x, "a trial point")  # f kept for the secant
        decrease = (cfg.tau1 * state.mu + cfg.tau2 * lam) / (2.0 * state.mu) * step2
        finite = math.isfinite(psi_cand)
        if psi_cand <= state.psi - decrease or not finite:
            y = prob.g.value(x)
            point = _cone_point(prob, y, "a trial point")
            gmu_cand = point.value(state.mu)
            if gmu_cand <= 0.0:
                if not finite:
                    raise NumericError("objective value is not finite at a trial point")
                return InnerResult(x, dx, step2, lam, Lf, Lg, i, j, gmu_cand, f_cand,
                                   psi_cand, y, point)
            b += _secant_rise(gmu_cand - state.gmu - float(state.grad_gmu.dot(dx)),
                              abs(gmu_cand) + abs(state.gmu), step2, state.mu,
                              state.Lg0, b, above=True)
        else:
            i += 1
            rise = _secant_rise(f_cand - state.f - float(state.grad_f.dot(dx)),
                                abs(f_cand) + abs(state.f), step2, 1.0,
                                state.Lf0, a, above=False)
            a += rise
            b += rise
        j += 1
        if j > cfg.max_inner_j:
            raise InnerCapError(state.mu, Lg, gmu_cand, i, j)


def run(prob: DCProblem, cfg: SolverConfig, x0) -> SolveReport:
    """Execute the full method from a strictly feasible starting point; on every
    exit the report's point, objective, certificate and metrics are the last row's."""
    t0 = time.perf_counter()
    x0 = checked_array(x0, (prob.dim,), "x0")

    trace: List[TraceRow] = []
    x, psi, cert = x0, math.nan, None
    status, reason, mu0 = SolveStatus.MAX_OUTER, "", math.nan
    advances, capped = 0, (0, 0)

    try:
        # an infeasible start, or a supplied mu0 too large for it, is an input
        # error and raises.  A user oracle returning NaN, inf, a misshapen
        # vector or a non-scalar objective part, a G(x0) the cone rejects
        # included, ends the run where its output is made, before it reaches
        # the subproblem or the cone kernel; so does an initial smoothing
        # search that reaches the floor.  Either ends with no rows
        f0, psi = _objective(prob, x0, "x0")
        point0 = _start_point(prob, x0)
        schedule = cfg.schedule.with_mu0(
            cfg.schedule.mu0 if cfg.schedule.mu0 is not None else _initial_mu(point0))
        mu0 = schedule.mu0  # a Python float, whatever real type the config holds
        # the schedule index s runs apart from the step count k: it jumps
        # ahead when the iterate stalls (module docstring)
        s = 0
        if not math.isfinite(psi):
            raise NumericError("objective value is not finite at step 0")
        grad_f0 = _finite("f gradient", prob.f.gradient(x0), 0, prob.dim)
        gmu0, _, grad_gmu0 = _smoothing_gradient(prob, x0, point0, mu0, 0)
        state = _state(prob, cfg, 0, x0, mu0, f0, psi, grad_f0, gmu0, grad_gmu0)

        for k in range(cfg.max_outer):
            inner = inner_loop_step(state, prob, cfg)

            # the accepted trial's step, G value and cone point serve the
            # certificate, the exact feasibility check, the next warm starts
            # and the next step's smoothing.  The certificate's multiplier
            # and the next step's smoothing gradient share one mu, the next
            # schedule value; at the floor, the step's own
            x_next, point = inner.x, inner.point
            grad_f_next = _finite("f gradient", prob.f.gradient(x_next), k, prob.dim)
            mu_next = mu_at(schedule, s + 1)
            mu_cert = mu_next if mu_next >= MU_FLOOR else state.mu
            gmu_next, grad_h, grad_gmu = _smoothing_gradient(prob, x_next, point, mu_cert, k)
            kkt = diagnostics.kkt_residuals(
                prob, x_next, math.sqrt(inner.step2), inner.lam, inner.y, grad_h, grad_gmu,
                grad_f_next, state.xi,
            )
            x_norm = math.sqrt(x_next.dot(x_next))
            step, slack = diagnostics.termination_metrics(
                kkt, x_norm, inner.lam, state.mu, cfg.tau1, cfg.tau2
            )
            sigma_next = point.support

            # invariants of every accepted step
            if not math.isfinite(kkt.rho):
                raise NumericError(f"KKT residual is not finite at step {k}")
            if sigma_next > FEASIBILITY_SLACK * (1.0 + abs(state.gmu)):
                raise NumericError("exact feasibility lost")

            trace.append(TraceRow(k, inner.psi, inner.gmu, sigma_next, state.mu, inner.lam,
                                  inner.Lf, inner.Lg, inner.i, inner.j, step, slack, kkt.rho,
                                  time.perf_counter() - t0))
            x, psi, cert = x_next, inner.psi, kkt

            if x_norm > DIVERGENCE_NORM:
                raise NumericError("iterate norm diverged")
            if step <= cfg.eps and slack <= cfg.eps:
                status = SolveStatus.CONVERGED
                break

            # advance the smoothing parameter; the shifted family keeps the new
            # iterate strictly feasible at the smaller mu.  The kernel rejects any
            # mu below its floor, so the run stops there
            if step <= cfg.eps < slack:
                s = stall_index(schedule, s)
                advances += 1
                mu_next = mu_at(schedule, s)
            else:
                s += 1
            if mu_next < MU_FLOOR:
                status = SolveStatus.MU_FLOOR
                reason = (f"smoothing schedule falls below the floor {MU_FLOOR:.0e} "
                          f"at step {k + 1} (schedule index {s})")
                break
            if k + 1 < cfg.max_outer:  # no state past the last step
                if mu_next != mu_cert:  # a stall advance moved the schedule index
                    gmu_next, _, grad_gmu = _smoothing_gradient(prob, x_next, point, mu_next, k)
                state = _state(prob, cfg, k + 1, x_next, mu_next, inner.f, inner.psi,
                               grad_f_next, gmu_next, grad_gmu, state, inner)
    except InnerCapError as exc:
        status, reason, capped = SolveStatus.INNER_CAP_EXCEEDED, str(exc), (exc.i, exc.j)
    except NumericError as exc:
        status, reason = SolveStatus.NUMERIC_FAILURE, str(exc)

    return SolveReport(
        status=status, trace=trace, final_kkt=cert, wall_time=time.perf_counter() - t0,
        objective=psi, x=x, mu0=mu0, reason=reason, advances=advances, capped=capped,
    )
