"""Approximate-KKT residuals and the scaled termination metrics.

A converged run is certified by the triple (rho, complementarity, step):
stationarity distance of the Lagrangian inclusion, the duality pairing
``-<v, G(x)>`` with the multiplier element v in the polar cone, and the last
step length (the point where the P2 subgradient was taken).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .cones import _VDOT
from .problems import DCProblem


class KKTCertificate(NamedTuple):
    rho: float
    complementarity: float
    step: float
    v: np.ndarray

    def to_dict(self) -> dict:
        return {**self._asdict(), "v": self.v.tolist()}


def kkt_residuals(prob: DCProblem, x_next, step, lam, y, grad_h, grad_gmu, grad_f,
                  xi) -> KKTCertificate:
    """Residual certificate at x_next with the multiplier ``v = lam * grad_h``.

    ``step`` is the length ``||x_next - x_k||`` of the step that reached
    x_next; ``y = G(x_next)``; ``grad_h = grad h_mu(y)`` is the smoothing
    gradient there, a point of the polar cone's base, and ``grad_gmu`` its
    checked adjoint apply at x_next, at the mu that ``run`` hands the next
    step; ``grad_f`` is the f gradient at x_next and ``xi`` the P2
    subgradient taken at the previous iterate x_k, as the solver used them;
    ``lam >= 0``, as ``run`` passes it.  ``v`` is exactly zero when ``lam``
    is zero.  No oracle is called.
    """
    v = lam * grad_h if lam > 0.0 else np.zeros(np.shape(y))
    u = grad_f - xi + lam * grad_gmu
    rho = prob.p1.subdiff_distance(x_next, u)
    return KKTCertificate(rho, -float(_VDOT(v, y)), step, v)


def termination_metrics(cert: KKTCertificate, x_norm, lam, mu, tau1, tau2):
    """The two scaled stopping quantities checked after every accepted step.

    Returns ``(term_step, term_slack)``: the certificate's step length,
    weighted and relative to ``max(1, x_norm)`` with ``x_norm = ||x_next||``,
    and its relative complementarity slack.
    """
    scale = max(1.0, x_norm)
    term_step = math.sqrt(tau1 * mu + lam * tau2) / mu * cert.step / scale
    return term_step, cert.complementarity / scale
