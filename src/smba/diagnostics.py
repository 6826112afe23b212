"""Approximate-KKT residuals and the scaled termination metrics.

A converged run is certified by the triple (rho, complementarity, step):
stationarity distance of the Lagrangian inclusion, the duality pairing
``-<v, G(x)>`` with the multiplier element v in the polar cone, and the last
step length (the point where the P2 subgradient was taken).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .cones import ConePoint
from .errors import NumericError
from .problems import DCProblem


@dataclass(frozen=True)
class KKTCertificate:
    rho: float
    complementarity: float
    step: float
    v: np.ndarray

    @property
    def eps_triple(self) -> Tuple[float, float, float]:
        return (self.rho, self.complementarity, self.step)

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "complementarity": self.complementarity,
            "step": self.step,
            "eps_triple": list(self.eps_triple),
            "v": np.asarray(self.v).tolist(),
        }


def kkt_residuals(prob: DCProblem, x_next, step, lam, mu, y, point: ConePoint,
                  grad_f, xi) -> KKTCertificate:
    """Residual certificate at x_next with the multiplier ``lam * grad h_mu(y)``.

    ``step`` is the length ``||x_next - x_k||`` of the step that reached
    x_next; ``y = G(x_next)`` and ``point`` is its prepared cone point;
    ``grad_f`` is the f gradient at x_next and ``xi`` the P2 subgradient
    taken at the previous iterate x_k, as the solver used them.  Raises
    NumericError unless the adjoint's output is an array shaped like x_next.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    v = lam * point.gradient(mu) if lam > 0.0 else np.zeros(np.shape(y))
    w = prob.g.adjoint_apply(x_next, v)
    shape = getattr(w, "shape", None)
    if shape != x_next.shape:
        raise NumericError(f"constraint adjoint has shape {shape} at the certificate, "
                           f"expected {x_next.shape}")
    u = grad_f - xi + w
    rho = prob.p1.subdiff_distance(x_next, u)
    return KKTCertificate(rho=rho, complementarity=-float(np.vdot(v, y)), step=step, v=v)


def termination_metrics(cert: KKTCertificate, x_norm, lam, mu, tau1, tau2):
    """The two scaled stopping quantities checked after every accepted step.

    Returns ``(term_step, term_slack)``: the certificate's step length,
    weighted and relative to ``max(1, x_norm)`` with ``x_norm = ||x_next||``,
    and its relative complementarity slack.
    """
    scale = max(1.0, x_norm)
    term_step = math.sqrt(tau1 * mu + lam * tau2) / mu * cert.step / scale
    return term_step, cert.complementarity / scale
