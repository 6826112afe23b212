"""Approximate-KKT residuals and the scaled termination metrics.

A converged run is certified by the triple (rho, complementarity, step):
stationarity distance of the Lagrangian inclusion, the duality pairing
``-<v, G(x)>`` with the multiplier element v in the polar cone, and the last
step length (the point where the P2 subgradient was taken).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .problems import DCProblem


def pairing(a, b) -> float:
    """Inner product of two constraint-space elements (trace product for matrices)."""
    return float(np.vdot(np.asarray(a, dtype=float), np.asarray(b, dtype=float)))


@dataclass(frozen=True)
class KKTCertificate:
    rho: float
    complementarity: float
    step: float
    v: np.ndarray
    eps_triple: Tuple[float, float, float]

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "complementarity": self.complementarity,
            "step": self.step,
            "eps_triple": list(self.eps_triple),
            "v": np.asarray(self.v).tolist(),
        }


def kkt_residuals(prob: DCProblem, x_next, x_prev, lam, mu, g_next=None, v=None,
                  grad_f=None, xi=None):
    """Residual certificate at x_next with the multiplier built from lam.

    The P2 subgradient is taken at the previous iterate (deterministic
    oracle), matching what the solver actually used.  ``g_next``, ``v``, the
    f gradient at x_next (``grad_f``) and the P2 subgradient at x_prev
    (``xi``) may be passed in when already computed.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    x_next = np.asarray(x_next, dtype=float)
    x_prev = np.asarray(x_prev, dtype=float)
    if g_next is None:
        g_next = prob.g.value(x_next)
    if v is None:
        if lam == 0.0:
            v = np.zeros_like(np.asarray(g_next, dtype=float))
        else:
            v = lam * prob.cone.msa_gradient(g_next, mu)
    if grad_f is None:
        grad_f = prob.f.gradient(x_next)
    if xi is None:
        xi = prob.p2.subgradient(x_prev)
    u = grad_f - xi + prob.g.adjoint_apply(x_next, v)
    rho = prob.p1.subdiff_distance(x_next, u)
    comp = -pairing(v, g_next)
    step = float(np.linalg.norm(x_next - x_prev))
    return KKTCertificate(rho=rho, complementarity=comp, step=step, v=v,
                          eps_triple=(rho, comp, step))


def termination_metrics(x_prev, x_next, lam_next, mu, tau1, tau2, g_next, v_next):
    """The two scaled stopping quantities checked after every accepted step.

    Returns ``(term_step, term_slack)``: the weighted relative step length
    and the relative complementarity slack.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    scale = max(1.0, float(np.linalg.norm(x_next)))
    term_step = (
        np.sqrt(tau1 * mu + lam_next * tau2) / mu
        * float(np.linalg.norm(x_next - x_prev)) / scale
    )
    term_slack = -pairing(g_next, v_next) / scale
    return float(term_step), float(term_slack)
