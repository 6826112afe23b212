"""Support functions of compact polar-cone bases and their smooth majorants.

Three cone families are provided.  For each one the membership test
``y in K`` is equivalent to ``support_value(y) <= 0``:

* nonpositive orthant: base is the probability simplex, support value is
  ``max_i y_i``, smoothed by a temperature log-sum-exp;
* negative-semidefinite matrices: base is the unit-trace spectraplex,
  support value is the maximum eigenvalue, smoothed by log-sum-exp over
  the spectrum;
* second-order cone (p = 2): support value is ``||y[:m]|| - y[m]``,
  smoothed by the hyperbolic perturbation ``sqrt(||y[:m]||^2 + mu^2)``.

``prepare(y)`` checks an argument and decomposes it once (one
eigendecomposition for matrices); the returned point gives the support value
and the smoothed value and gradient at any mu.

Each smoothed kernel h_mu majorizes the support value with a uniform gap
``alpha3 * mu`` and carries a gradient-Lipschitz certificate
``alpha1 + alpha2 / mu``.  An additive shift ``alpha4 * mu`` makes the
family strictly decreasing in mu, which the solver relies on to keep
iterates strictly feasible while mu shrinks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MuUnderflowWarning, NumericError, UnsupportedFamilyError

MU_FLOOR = 1e-12
SYMMETRY_TOL = 1e-10
DEFAULT_SHIFT = 1e-5


def _clamp_mu(mu: float) -> float:
    """Validate mu > 0 and clamp below the floor (Lipschitz constants blow up otherwise)."""
    mu = float(mu)
    if not math.isfinite(mu) or mu <= 0.0:
        raise ValueError(f"smoothing parameter must be positive, got {mu}")
    if mu < MU_FLOOR:
        warnings.warn(
            f"smoothing parameter {mu:.3e} clamped to {MU_FLOOR:.0e}",
            MuUnderflowWarning,
            stacklevel=3,
        )
        return MU_FLOOR
    return mu


def stable_logsumexp(v, mu):
    """Temperature log-sum-exp with its softmax weights.

    Returns ``(max(v) + mu * log(sum_i exp((v_i - max(v)) / mu)), w)`` where
    ``w`` is the corresponding softmax.  The max shift keeps every exponent
    nonpositive, so the evaluation cannot overflow even for mu near 1e-12.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a non-empty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite entries in log-sum-exp input")
    mu = _clamp_mu(mu)
    top = float(np.max(v))
    expo = np.exp((v - top) / mu)
    total = float(np.sum(expo))
    value = top + mu * math.log(total)
    return value, expo / total


@dataclass(frozen=True)
class SmoothingCert:
    """Certificate of a majorizing smoothing family.

    ``alpha3`` is the reported gap slope and already includes the additive
    shift slope ``alpha4``; ``base_norm_bound`` is sup of the norm over the
    base set.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    base_norm_bound: float

    def __post_init__(self):
        if self.alpha1 < 0 or self.alpha4 < 0:
            raise ValueError("alpha1 and alpha4 must be nonnegative")
        if self.alpha2 <= 0 or self.alpha3 <= 0 or self.base_norm_bound <= 0:
            raise ValueError("alpha2, alpha3 and base_norm_bound must be positive")

    def gradient_lipschitz(self, mu: float) -> float:
        return self.alpha1 + self.alpha2 / _clamp_mu(mu)


def _checked(y, shape):
    y = np.asarray(y, dtype=float)
    if y.shape != shape:
        raise ValueError(f"expected shape {shape}, got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite entries in cone argument")
    return y


class ConePoint:
    """A cone argument checked and decomposed once.

    ``support`` is the support value; ``value(mu)`` (with the ``alpha4 * mu``
    shift) and ``gradient(mu)`` evaluate the smoothed kernel at any mu from
    the stored decomposition.
    """

    support: float

    def value(self, mu) -> float:
        raise NotImplementedError

    def gradient(self, mu):
        raise NotImplementedError


class _LogSumExpPoint(ConePoint):
    """Temperature log-sum-exp over a vector of values; the gradient is its softmax."""

    def __init__(self, vals, alpha4):
        self.vals = vals
        self.alpha4 = alpha4
        self.support = float(np.max(vals))

    def value(self, mu):
        mu = _clamp_mu(mu)  # the shift and the kernel must use the same mu
        return stable_logsumexp(self.vals, mu)[0] + self.alpha4 * mu

    def gradient(self, mu):
        return stable_logsumexp(self.vals, mu)[1]


class _SpectralPoint(_LogSumExpPoint):
    """Log-sum-exp over a spectrum (descending), gradient ``V diag(softmax) V'``."""

    def __init__(self, vals, vecs, alpha4):
        super().__init__(vals, alpha4)
        self.vecs = vecs

    def gradient(self, mu):
        # softmax weights below machine epsilon are harmless
        grad = (self.vecs * super().gradient(mu)) @ self.vecs.T
        return 0.5 * (grad + grad.T)


class _PConePoint(ConePoint):
    """Hyperbolic smoothing ``sqrt(||y[:-1]||^2 + mu^2) - y[-1]``."""

    def __init__(self, y, alpha4):
        self.y = y
        self.alpha4 = alpha4
        self.sq = float(np.dot(y[:-1], y[:-1]))
        self.support = math.sqrt(self.sq) - float(y[-1])

    def value(self, mu):
        mu = _clamp_mu(mu)
        return math.sqrt(self.sq + mu * mu) - self.y[-1] + self.alpha4 * mu

    def gradient(self, mu):
        mu = _clamp_mu(mu)
        grad = np.empty_like(self.y)
        grad[:-1] = self.y[:-1] / math.sqrt(self.sq + mu * mu)
        grad[-1] = -1.0
        return grad


class ConeBaseOracle:
    """Common interface of the per-family kernels.

    Subclasses fix a compact base B of the polar cone and implement
    ``prepare``, which checks an argument and decomposes it once (one
    eigendecomposition for matrices); the value methods below are thin
    wrappers over the evaluated point.
    """

    family: str
    cert: SmoothingCert

    def prepare(self, y) -> ConePoint:
        raise NotImplementedError

    def support_value(self, y) -> float:
        return self.prepare(y).support

    def msa_value(self, y, mu) -> float:
        return self.prepare(y).value(mu)

    def msa_gradient(self, y, mu):
        return self.prepare(y).gradient(mu)

    def polar_residual(self, v) -> float:
        """How far v is from the polar cone (0 means membership)."""
        raise NotImplementedError


class NonposOrthant(ConeBaseOracle):
    """Orthant constraint ``y <= 0``; base is the probability simplex."""

    family = "nonpos_orthant"

    def __init__(self, m: int, alpha4: float = DEFAULT_SHIFT):
        if m < 1:
            raise ValueError("orthant dimension must be >= 1")
        self.m = int(m)
        self.cert = SmoothingCert(0.0, 1.0, math.log(m) + alpha4, alpha4, 1.0)

    def prepare(self, y):
        return _LogSumExpPoint(_checked(y, (self.m,)), self.cert.alpha4)

    def polar_residual(self, v):
        v = np.asarray(v, dtype=float)
        return max(0.0, -float(np.min(v)))


class NegSemidef(ConeBaseOracle):
    """Matrix constraint ``y`` negative semidefinite; base is the spectraplex."""

    family = "neg_semidef"

    def __init__(self, m: int, alpha4: float = DEFAULT_SHIFT):
        if m < 1:
            raise ValueError("matrix order must be >= 1")
        self.m = int(m)
        self.cert = SmoothingCert(0.0, 1.0, math.log(m) + alpha4, alpha4, 1.0)

    def _eigh(self, y):
        try:
            return np.linalg.eigh(y)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericError("symmetric eigendecomposition failed") from exc

    def prepare(self, y):
        y = _checked(y, (self.m, self.m))
        skew = np.linalg.norm(y - y.T)
        if skew > SYMMETRY_TOL * (1.0 + np.linalg.norm(y)):
            raise ValueError(f"matrix asymmetry {skew:.3e} exceeds tolerance")
        vals, vecs = self._eigh(0.5 * (y + y.T))
        return _SpectralPoint(vals[::-1], vecs[:, ::-1], self.cert.alpha4)

    def polar_residual(self, v):
        v = np.asarray(v, dtype=float)
        vals = self._eigh(0.5 * (v + v.T))[0]
        return max(0.0, -float(vals[0]))


class PCone(ConeBaseOracle):
    """Norm cone ``||y[:m]||_p <= y[m]``; only p = 2 carries a smoothing."""

    family = "p_cone"

    def __init__(self, m: int, p: float = 2.0, alpha4: float = DEFAULT_SHIFT):
        if m < 1:
            raise ValueError("block dimension must be >= 1")
        if p != 2:
            raise UnsupportedFamilyError(
                f"p-cone smoothing is only available for p = 2, got p = {p}"
            )
        self.m = int(m)
        self.p = float(p)
        self.cert = SmoothingCert(0.0, 1.0, 1.0 + alpha4, alpha4, math.sqrt(2.0))

    def prepare(self, y):
        return _PConePoint(_checked(y, (self.m + 1,)), self.cert.alpha4)

    def polar_residual(self, v):
        v = np.asarray(v, dtype=float)
        return max(0.0, float(np.linalg.norm(v[:-1]) + v[-1]))
