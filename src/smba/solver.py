"""Outer loop of the smoothing moving-balls method.

Each iteration majorizes the smoothed constraint at the current strictly
feasible iterate, solves one ball-constrained prox subproblem, and accepts
the trial point once it is feasible for the smoothed constraint and achieves
a sufficient decrease; the two quadratic weights are found by doubling from
warm starts.  The smoothing parameter then follows a prescheduled decreasing
sequence, and the additive shift of the smoothing family guarantees the next
iterate stays strictly feasible at the smaller parameter.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import diagnostics
from .ball_prox import build_ball, solve_ball_prox
from .cones import MU_FLOOR, ConePoint
from .errors import InfeasibleStartError, NumericError
from .problems import DCProblem, objective_value
from .schedules import ScheduleSpec, mu_at, ramped_log_schedule

TRACE_COLUMNS = (
    "k", "psi", "g_mu", "sigma_B", "mu", "lambda", "Lf", "Lg",
    "i_k", "j_k", "term_step", "term_slack", "rho", "elapsed_s",
)

DIVERGENCE_NORM = 1e8
DESCENT_SLACK = 1e-12
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
        if self.tau1 <= 0 or self.tau2 <= 0 or self.eps <= 0:
            raise ValueError("tau1, tau2 and eps must be positive")
        if not 0 < self.L_min <= self.L_max:
            raise ValueError("need 0 < L_min <= L_max")
        if self.max_outer < 1 or self.max_inner_j < 0:
            raise ValueError("iteration caps are out of range")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["schedule"] = self.schedule.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown solver config keys: {', '.join(sorted(unknown))}")
        d = dict(d)
        if "schedule" in d and isinstance(d["schedule"], dict):
            d["schedule"] = ScheduleSpec.from_dict(d["schedule"])
        return cls(**d)


@dataclass
class IterateState:
    """Mutable working state of one run (one accepted iterate plus warm-start memory)."""

    x: np.ndarray
    k: int
    mu: float
    psi: float
    gmu: float
    grad_gmu: np.ndarray
    grad_f: np.ndarray
    xi: np.ndarray
    Lf0: float = 1.0
    Lg0: float = 1.0
    x_prev: Optional[np.ndarray] = None
    grad_f_prev: Optional[np.ndarray] = None
    grad_gmu_prev: Optional[np.ndarray] = None


@dataclass(frozen=True)
class TraceRow:
    k: int
    psi: float
    g_mu: float
    sigma_B: float
    mu: float
    lam: float
    Lf: float
    Lg: float
    i_k: int
    j_k: int
    term_step: float
    term_slack: float
    rho: float
    elapsed_s: float

    def as_tuple(self):
        return (self.k, self.psi, self.g_mu, self.sigma_B, self.mu, self.lam,
                self.Lf, self.Lg, self.i_k, self.j_k, self.term_step,
                self.term_slack, self.rho, self.elapsed_s)


@dataclass
class SolveReport:
    status: SolveStatus
    iterations: int
    trace: List[TraceRow]
    final_kkt: Optional[diagnostics.KKTCertificate]
    wall_time: float
    objective: float
    x: np.ndarray
    mu0: float
    term_step: float = math.inf
    term_slack: float = math.inf
    reason: str = ""

    def to_dict(self) -> dict:
        # unset metrics (failed before any accepted step) serialize as null
        finite = lambda v: v if math.isfinite(v) else None
        return {
            "status": self.status.value,
            "iterations": self.iterations,
            "wall_time": self.wall_time,
            "objective": self.objective,
            "mu0": self.mu0,
            "term_step": finite(self.term_step),
            "term_slack": finite(self.term_slack),
            "reason": self.reason,
            "x": np.asarray(self.x).tolist(),
            "final_kkt": self.final_kkt.to_dict() if self.final_kkt else None,
        }


class InnerCapError(NumericError):
    """The feasibility/descent loop exhausted its doubling budget."""

    def __init__(self, mu, Lg, g_mu):
        self.mu = mu
        self.Lg = Lg
        self.g_mu = g_mu
        super().__init__(
            f"inner loop cap exceeded at mu={mu:.3e}; last Lg={Lg:.3e}, last g_mu={g_mu:.3e}"
        )


@dataclass(frozen=True)
class InnerResult:
    """The accepted trial, with ``y = G(x)`` and its evaluated cone point."""

    x: np.ndarray
    lam: float
    Lf: float
    Lg: float
    i: int
    j: int
    gmu: float
    psi: float
    y: np.ndarray
    point: ConePoint


def _nonfinite_oracle(state: IterateState) -> str:
    """Name of the first oracle output in ``state`` that is not finite, or ''."""
    for name, value in (("objective value", state.psi), ("f gradient", state.grad_f),
                        ("constraint adjoint", state.grad_gmu), ("P2 subgradient", state.xi)):
        if not np.all(np.isfinite(value)):
            return name
    return ""


def _start_point(prob: DCProblem, x0) -> ConePoint:
    """The evaluated cone point of ``G(x0)``; raises unless x0 is strictly feasible."""
    point = prob.cone.prepare(prob.g.value(x0))
    if not point.support < 0:
        raise InfeasibleStartError(
            f"starting point is not strictly feasible (support value {point.support:.3e})"
        )
    return point


def _initial_mu(point: ConePoint) -> float:
    target = 0.1 * point.support
    mu = 0.9
    while mu >= MU_FLOOR:
        if point.value(mu) <= target:
            return mu
        mu *= 0.5
    raise NumericError(f"initial smoothing search reached the floor {MU_FLOOR:.0e}")


def find_initial_mu(prob: DCProblem, x0) -> float:
    """Smallest 0.9 * 2^(-l) making the smoothed constraint clearly negative at x0.

    The acceptance threshold is one tenth of the (negative) exact constraint
    value, so the starting smoothing error cannot wash out feasibility.
    """
    return _initial_mu(_start_point(prob, np.asarray(x0, dtype=float)))


def bb_init(state: IterateState, prob: DCProblem, cfg: SolverConfig):
    """Spectral warm starts for the two doubling constants, safeguarded into
    [L_min, L_max]; degenerate steps fall back to halving the previous start."""
    lo, hi = cfg.L_min, cfg.L_max
    clip = lambda v: min(max(v, lo), hi)
    if state.k == 0 or state.x_prev is None:
        return clip(1.0), clip(1.0)

    dx = state.x - state.x_prev
    df = state.grad_f - state.grad_f_prev
    dg = state.mu * (state.grad_gmu - state.grad_gmu_prev)

    nx2 = float(np.dot(dx, dx))
    Lf0 = max(lo, 0.5 * state.Lf0)
    if math.sqrt(nx2) > 1e-12:
        ratio = abs(float(np.dot(dx, df))) / nx2
        if math.isfinite(ratio) and lo <= ratio <= hi:
            Lf0 = ratio

    Lg0 = max(lo, 0.5 * state.Lg0)
    cross = abs(float(np.dot(dx, dg)))
    if math.sqrt(cross) > 1e-12:
        ratio = float(np.dot(dg, dg)) / cross
        if math.isfinite(ratio) and lo <= ratio <= hi:
            Lg0 = ratio

    return Lf0, Lg0


def inner_loop_step(state: IterateState, prob: DCProblem, cfg: SolverConfig) -> InnerResult:
    """Doubling search over (i, j): feasibility failures raise only the
    constraint weight, descent failures raise both, so i <= j throughout."""
    q = state.grad_f - state.xi
    i = j = 0
    while True:
        Lf = (2.0**i) * state.Lf0
        Lg = (2.0**j) * state.Lg0
        ball = build_ball(state.x, state.grad_gmu, state.gmu, Lg, state.mu)
        sub = solve_ball_prox(prob.p1, state.x, q, Lf, ball)
        y = prob.g.value(sub.x)
        point = prob.cone.prepare(y)
        gmu_cand = point.value(state.mu)
        if gmu_cand <= 0.0:
            step2 = float(np.dot(sub.x - state.x, sub.x - state.x))
            psi_cand = objective_value(prob, sub.x)
            decrease = (cfg.tau1 * state.mu + cfg.tau2 * sub.lam) / (2.0 * state.mu) * step2
            if psi_cand <= state.psi - decrease:
                return InnerResult(x=sub.x, lam=sub.lam, Lf=Lf, Lg=Lg, i=i, j=j,
                                   gmu=gmu_cand, psi=psi_cand, y=y, point=point)
            i += 1
        j += 1
        if j > cfg.max_inner_j:
            raise InnerCapError(state.mu, Lg, gmu_cand)


def run(prob: DCProblem, cfg: SolverConfig, x0) -> SolveReport:
    """Execute the full method from a strictly feasible starting point."""
    t0 = time.perf_counter()
    x0 = np.asarray(x0, dtype=float)

    point0 = _start_point(prob, x0)
    mu0 = cfg.schedule.mu0 if cfg.schedule.mu0 is not None else _initial_mu(point0)
    schedule = cfg.schedule.with_mu0(mu0)

    gmu0 = point0.value(mu0)
    if not gmu0 < 0:
        raise InfeasibleStartError(
            f"smoothed constraint is not negative at x0 for mu0={mu0:.3e} (value {gmu0:.3e})"
        )

    state = IterateState(
        x=x0, k=0, mu=mu0,
        psi=objective_value(prob, x0), gmu=gmu0,
        grad_gmu=prob.g.adjoint_apply(x0, point0.gradient(mu0)),
        grad_f=prob.f.gradient(x0),
        xi=prob.p2.subgradient(x0),
    )

    trace: List[TraceRow] = []
    cert = None
    term_step = term_slack = math.inf
    status, reason = SolveStatus.MAX_OUTER, ""

    for k in range(cfg.max_outer):
        # a user oracle returning NaN or inf ends the run here, before it
        # reaches the subproblem or the cone kernel
        bad = _nonfinite_oracle(state)
        if bad:
            status, reason = SolveStatus.NUMERIC_FAILURE, f"{bad} is not finite at step {k}"
            break
        state.k = k
        state.Lf0, state.Lg0 = bb_init(state, prob, cfg)

        try:
            inner = inner_loop_step(state, prob, cfg)
        except InnerCapError as exc:
            status, reason = SolveStatus.INNER_CAP_EXCEEDED, str(exc)
            break
        except NumericError as exc:
            status, reason = SolveStatus.NUMERIC_FAILURE, str(exc)
            break

        # the accepted trial's G value and cone point serve the certificate,
        # the exact feasibility check and the next step's smoothing
        x_next, y_next, point = inner.x, inner.y, inner.point
        if inner.lam > 0.0:
            v_next = inner.lam * point.gradient(state.mu)
        else:
            v_next = np.zeros_like(np.asarray(y_next, dtype=float))
        grad_f_next = prob.f.gradient(x_next)
        if not np.all(np.isfinite(grad_f_next)):
            status, reason = SolveStatus.NUMERIC_FAILURE, f"f gradient is not finite at step {k}"
            break
        cert = diagnostics.kkt_residuals(
            prob, x_next, state.x, inner.lam, state.mu, g_next=y_next, v=v_next,
            grad_f=grad_f_next, xi=state.xi,
        )
        term_step, term_slack = diagnostics.termination_metrics(
            state.x, x_next, inner.lam, state.mu, cfg.tau1, cfg.tau2, y_next, v_next
        )
        sigma_next = point.support

        # invariants of every accepted step
        if not math.isfinite(inner.psi) or (
            inner.psi > state.psi + DESCENT_SLACK * (1.0 + abs(state.psi))
        ):
            status, reason = SolveStatus.NUMERIC_FAILURE, "objective increased"
            break
        if sigma_next > FEASIBILITY_SLACK * (1.0 + abs(state.gmu)):
            status, reason = SolveStatus.NUMERIC_FAILURE, "exact feasibility lost"
            break

        trace.append(TraceRow(
            k=k, psi=inner.psi, g_mu=inner.gmu, sigma_B=sigma_next, mu=state.mu,
            lam=inner.lam, Lf=inner.Lf, Lg=inner.Lg, i_k=inner.i, j_k=inner.j,
            term_step=term_step, term_slack=term_slack, rho=cert.rho,
            elapsed_s=time.perf_counter() - t0,
        ))

        if float(np.linalg.norm(x_next)) > DIVERGENCE_NORM:
            status, reason = SolveStatus.NUMERIC_FAILURE, "iterate norm diverged"
            break
        if term_step <= cfg.eps and term_slack <= cfg.eps:
            status = SolveStatus.CONVERGED
            state.x, state.psi = x_next, inner.psi
            break

        # advance the smoothing parameter; the shifted family keeps the new
        # iterate strictly feasible at the smaller mu.  The kernel clamps any
        # mu below its floor, so the run stops there instead
        mu_next = mu_at(schedule, k + 1)
        if mu_next < MU_FLOOR:
            status = SolveStatus.MU_FLOOR
            reason = f"smoothing schedule falls below the floor {MU_FLOOR:.0e} at step {k + 1}"
            state.x, state.psi = x_next, inner.psi
            break
        gmu_next = point.value(mu_next)
        if not gmu_next < 0:
            status, reason = SolveStatus.NUMERIC_FAILURE, "strict feasibility chain broken"
            break

        state.x_prev = state.x
        state.grad_f_prev = state.grad_f
        state.grad_gmu_prev = state.grad_gmu
        state.x = x_next
        state.mu = mu_next
        state.psi = inner.psi
        state.gmu = gmu_next
        state.grad_gmu = prob.g.adjoint_apply(x_next, point.gradient(mu_next))
        state.grad_f = grad_f_next
        state.xi = prob.p2.subgradient(x_next)

    return SolveReport(
        status=status,
        iterations=len(trace),
        trace=trace,
        final_kkt=cert,
        wall_time=time.perf_counter() - t0,
        objective=state.psi,
        x=state.x,
        mu0=mu0,
        term_step=term_step,
        term_slack=term_slack,
        reason=reason,
    )
