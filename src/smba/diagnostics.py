"""Approximate-KKT residuals and the scaled termination metrics.

A converged run is certified by the triple (rho, complementarity, step):
stationarity distance of the Lagrangian inclusion, the duality pairing
``-<v, G(x)>`` with the multiplier element v in the polar cone, and the last
step length (the point where the P2 subgradient was taken).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import ConePoint, real_dtype
from .errors import NumericError
from .problems import DCProblem


@dataclass(frozen=True)
class KKTCertificate:
    rho: float
    complementarity: float
    step: float
    v: np.ndarray

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "complementarity": self.complementarity,
            "step": self.step,
            "v": np.asarray(self.v).tolist(),
        }


def kkt_residuals(prob: DCProblem, x_next, step, lam, mu, y, point: ConePoint,
                  grad_f, xi) -> KKTCertificate:
    """Residual certificate at x_next with the multiplier ``lam * grad h_mu(y)``.

    ``step`` is the length ``||x_next - x_k||`` of the step that reached
    x_next; ``y = G(x_next)`` and ``point`` is its prepared cone point;
    ``grad_f`` is the f gradient at x_next and ``xi`` the P2 subgradient
    taken at the previous iterate x_k, as the solver used them; ``mu`` is
    at least the smoothing floor and ``lam >= 0``, as ``run`` passes them.
    Raises NumericError unless the adjoint's output is a real array
    (``real_dtype``) shaped like x_next.
    """
    v = lam * point.gradient(mu) if lam > 0.0 else np.zeros(np.shape(y))
    w = prob.g.adjoint_apply(x_next, v)
    shape = getattr(w, "shape", None)
    if shape != x_next.shape:
        raise NumericError(f"constraint adjoint has shape {shape} at the certificate, "
                           f"expected {x_next.shape}")
    if not real_dtype(w):
        raise NumericError(f"constraint adjoint has dtype {getattr(w, 'dtype', None)} at the "
                           "certificate, expected real numbers")
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
