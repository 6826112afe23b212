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
eigendecomposition for matrices); the returned point, which never changes,
gives the support value ``support``, the smoothed value ``value(mu)`` at
any mu, and with ``smoothed(mu)`` that value and its gradient.  The three
point classes share these names by duck typing, with no common base; each
raises ValueError for a mu outside ``[MU_FLOOR, inf)``.  The linesearch asks
each trial's point for its value and an accepted one for both, so ``value``
forms no gradient.  The module also holds
the package's input rules, each checked once where an input enters:
``checked_array``, the one test that an array is a finite real array of a
given shape, with ``real_dtype`` its dtype rule; ``check_numbers``, the one
test that a number is a finite real or an integer; ``check_keys``, the one
test of a document's keys; and ``symmetrized``, the one symmetry rule.

Each smoothed kernel h_mu majorizes the support value with a gap of at most
``alpha3 * mu``, and its gradient is ``alpha1 + alpha2 / mu`` Lipschitz.  An
additive shift ``alpha4 * mu`` makes the family strictly decreasing in mu,
which the solver relies on to keep iterates strictly feasible while mu
shrinks; ``alpha4`` is the one constant the solver reads, an attribute of
each cone.  The orthant and the NSD cone smooth by a log-sum-exp over m
values on a base of norm at most 1: ``alpha3 = log(m) + alpha4``,
``alpha1 = 0`` and ``alpha2 = 1``.  The second-order cone's base has norm at
most ``sqrt(2)``, with ``alpha3 = 1 + alpha4``, ``alpha1 = 0`` and
``alpha2 = 1``.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np
from numpy.linalg import _umath_linalg

try:  # the C function behind np.count_nonzero, without its two Python-level calls
    from numpy._core.multiarray import count_nonzero
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import count_nonzero

MU_FLOOR = 1e-12
SYMMETRY_TOL = 1e-10
DEFAULT_SHIFT = 1e-5

# The gufunc that numpy's ``eigh`` wrapper calls for a float64 matrix with
# UPLO="L", bound once.  The wrapper's errstate context and type and shape
# checks cost about 2 us a call, near a third of LAPACK's own time on a
# 10x10 matrix.  Every ``y`` that reaches ``NegSemidef._eigh`` is already a
# checked, exactly symmetric float64 array, so the result is the wrapper's
# bit for bit.  Where the wrapper raised on a LAPACK failure, the gufunc
# returns a NaN spectrum.
_EIGH_LO = _umath_linalg.eigh_lo
# The C function behind np.vdot, without the array-function dispatch in front
# of it (about 0.13 us a call).  Unlike ndarray.dot, it lets a sum of squares
# overflow to inf without a warning.
_VDOT = np.vdot._implementation
# the native float64 dtype, one object: ``v.dtype is _FLOAT64`` holds for an
# array numpy built from Python floats and fails for ``>f8`` and every other dtype
_FLOAT64 = np.dtype(float)


def _checked_mu(mu: float) -> float:
    """Validate ``mu >= MU_FLOOR`` (Lipschitz constants blow up below the floor)."""
    if not MU_FLOOR <= mu < math.inf:
        raise ValueError(f"smoothing parameter must lie in [{MU_FLOOR:.0e}, inf), got {mu}")
    return mu


def all_finite(v) -> bool:
    """Whether no entry of ``v`` is NaN or inf.  A finite sum of squares has
    finite terms, so one ``vdot`` accepts nearly every input; a sum that
    overflows falls back to the entrywise test."""
    return math.isfinite(_VDOT(v, v)) or bool(np.isfinite(v).all())


def _shifted_logsumexp(v, top, mu):
    """``(lse, expo, total)``: the temperature log-sum-exp ``lse = top + mu *
    log(total)`` of a checked finite vector ``v`` with ``top = max(v)``, where
    ``expo = exp((v - top) / mu)`` and ``total`` is its sum; the softmax
    weights are ``expo / total``, formed only by a gradient.  ``mu`` passes
    ``_checked_mu``.  The shift keeps every exponent nonpositive, so the
    evaluation cannot overflow even for mu near 1e-12."""
    mu = _checked_mu(mu)
    expo = np.exp((v - top) / mu)
    total = float(np.add.reduce(expo))
    return top + mu * math.log(total), expo, total


def real_dtype(v) -> bool:
    """Whether ``v`` has a numpy integer or floating dtype.  A bool, complex,
    object or text array does not, and neither does a value with no dtype."""
    try:
        return v.dtype.kind in "iuf"
    except AttributeError:
        return False


def checked_array(v, shape, what="cone argument"):
    """``v`` as a float array, a float64 array as it is; raises ValueError,
    naming ``what``, unless it is an array of real numbers (``real_dtype``;
    a complex one is not read as its real part) of exactly ``shape`` with
    finite entries.

    An exact ``np.ndarray`` of native float64 and of ``shape`` whose squared
    norm is finite, as every array the solver builds, passes in one test and
    comes back as the same object.  Anything else (a subclass, another
    dtype, a byte-swapped one, a wrong shape, a NaN or inf, or finite
    entries whose squared norm overflows) takes the general path below."""
    if (type(v) is np.ndarray and v.dtype is _FLOAT64 and v.shape == shape
            and math.isfinite(_VDOT(v, v))):
        return v
    try:
        v = np.asarray(v)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} is not an array of numbers: {exc}") from exc
    if not real_dtype(v):
        raise ValueError(f"{what} is not an array of numbers: dtype {v.dtype} is not real")
    v = v.astype(float, copy=False)
    if v.shape != shape:
        raise ValueError(f"{what}: expected shape {shape}, got {v.shape}")
    if not all_finite(v):
        raise ValueError(f"non-finite entries in {what}")
    return v


def check_numbers(obj, reals=(), integers=()):
    """Raise ValueError naming the first attribute of ``obj`` in ``reals``
    that is not a finite real number, or in ``integers`` that is not an
    integer; a bool, a complex number and text are neither.  Run before any
    range check, which a string would break and which NaN or +inf (JSON's
    ``NaN`` and ``Infinity``) could pass.  It reads attributes one by one,
    not ``vars(obj)``, which would cost every later attribute read of a
    config or schedule its fast path."""
    for names, kind, text in ((reals, numbers.Real, "a finite real number"),
                              (integers, numbers.Integral, "an integer")):
        for name in names:
            value = getattr(obj, name)
            if isinstance(value, bool) or not isinstance(value, kind) or not abs(value) < np.inf:
                raise ValueError(f"{name} must be {text}, got {value!r}")


def check_keys(cls, d, what):
    """Raise ValueError unless ``d`` is a dict whose keys all name fields of
    the dataclass ``cls``; ``what`` names the document in the message."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(sorted(unknown))}")


def symmetrized(y):
    """A finite square matrix, or a stack of them, made exactly symmetric:
    returned as it is when exactly symmetric, else as ``0.5 * (y + y')``, with
    ``ValueError`` (naming the stack index) for a matrix whose asymmetry
    ``||y - y'||_F`` exceeds ``SYMMETRY_TOL * (1 + ||y||_F)``.  For an exactly
    symmetric ``y``, ``0.5 * (y + y)`` is ``y`` bit for bit."""
    yt = y.swapaxes(-1, -2)
    if not count_nonzero(y != yt):
        return y
    skew = np.ravel(np.linalg.norm(y - yt, axis=(-2, -1)))
    bad = (skew > SYMMETRY_TOL * (1.0 + np.ravel(np.linalg.norm(y, axis=(-2, -1))))).nonzero()[0]
    if bad.size:
        where = f" A[{bad[0]}]" if y.ndim == 3 else ""
        raise ValueError(f"matrix{where} asymmetry {skew[bad[0]]:.3e} exceeds tolerance")
    return 0.5 * (y + yt)


class _LogSumExpPoint:
    """Temperature log-sum-exp over a vector of finite values; the gradient is
    its softmax.

    ``support``, the maximum of the values, is both the support value and
    the shift of every exp pass, which ``_shifted_logsumexp`` makes and
    which checks ``mu``.  ``vecs`` is None here and the eigenvectors of a
    spectral point.
    """

    def __init__(self, vals, support, alpha4, vecs=None):
        self.vals = vals
        self.alpha4 = alpha4
        self.support = support
        self.vecs = vecs

    def value(self, mu):
        return _shifted_logsumexp(self.vals, self.support, mu)[0] + self.alpha4 * mu

    def smoothed(self, mu):
        lse, expo, total = _shifted_logsumexp(self.vals, self.support, mu)
        return lse + self.alpha4 * mu, expo / total


class _SpectralPoint(_LogSumExpPoint):
    """Log-sum-exp over a spectrum (descending), gradient ``V diag(softmax) V'``."""

    def smoothed(self, mu):
        lse, expo, total = _shifted_logsumexp(self.vals, self.support, mu)
        # R R' with R = V diag(sqrt(softmax)): numpy runs a product of an
        # array with its own transpose as one syrk, which is exactly
        # symmetric; softmax weights below machine epsilon are harmless
        R = self.vecs * np.sqrt(expo / total)
        return lse + self.alpha4 * mu, R @ R.T


class _PConePoint:
    """Hyperbolic smoothing ``sqrt(||y[:-1]||^2 + mu^2) - y[-1]``."""

    def __init__(self, y, alpha4):
        self.y = y
        self.alpha4 = alpha4
        self.head = head = y[:-1]
        self.sq = float(_VDOT(head, head))
        self.top = y.item(-1)  # a Python float, so value() returns one too
        self.support = math.sqrt(self.sq) - self.top

    def value(self, mu):
        mu = _checked_mu(mu)
        return math.sqrt(self.sq + mu * mu) - self.top + self.alpha4 * mu

    def smoothed(self, mu):
        mu = _checked_mu(mu)
        root = math.sqrt(self.sq + mu * mu)
        # the last entry is never divided: a lifted ball's radius near 1e300
        # would overflow at the floor
        grad = np.empty(self.y.size)
        np.divide(self.head, root, out=grad[:-1])
        grad[-1] = -1.0
        return root - self.top + self.alpha4 * mu, grad


class ConeBaseOracle:
    """Common interface of the per-family kernels.

    Subclasses fix a compact base B of the polar cone and implement
    ``prepare``, which checks an argument and decomposes it once (one
    eigendecomposition for matrices) into the point that holds the support
    value and evaluates the smoothed kernel at any mu.  Each family is built
    from its dimension ``m``, an integer ``>= 1``, and the shift slope
    ``alpha4`` (module docstring), a finite real ``>= 0``.
    """

    family: str

    def __init__(self, m: int, alpha4: float = DEFAULT_SHIFT):
        self.m, self.alpha4 = m, alpha4
        check_numbers(self, reals=("alpha4",), integers=("m",))
        if not (m >= 1 and alpha4 >= 0):
            raise ValueError(f"{self.family}: need m >= 1, alpha4 >= 0; got {m!r}, {alpha4!r}")

    def support_value(self, y) -> float:
        return self.prepare(y).support


class NonposOrthant(ConeBaseOracle):
    """Orthant constraint ``y <= 0``; base is the probability simplex."""

    family = "nonpos_orthant"

    def prepare(self, y):
        y = checked_array(y, (self.m,))
        return _LogSumExpPoint(y, float(y.max()), self.alpha4)


class NegSemidef(ConeBaseOracle):
    """Matrix constraint ``y`` negative semidefinite; base is the spectraplex."""

    family = "neg_semidef"

    def _eigh(self, y):
        """Ascending spectrum and eigenvectors of a checked, exactly symmetric
        ``y``, in one LAPACK call; raises ValueError unless the spectrum is
        finite, which covers an overflow on a finite ``y`` and a LAPACK
        failure alike."""
        vals, vecs = _EIGH_LO(y, signature="d->dd")
        if not all_finite(vals):
            raise ValueError("non-finite spectrum: the eigendecomposition overflowed or failed")
        return vals, vecs

    def prepare(self, y):
        """Check ``y`` and decompose it once.

        ``y`` goes through ``symmetrized``, so an exactly symmetric one (such
        as ``G(x)`` from ``psd_affine_map``) reaches ``_eigh`` as it is, and
        ``_eigh`` checks the spectrum.  It comes back in ascending order, so
        it is reversed to descending, and its first entry is the support value.
        """
        vals, vecs = self._eigh(symmetrized(checked_array(y, (self.m, self.m))))
        return _SpectralPoint(vals[::-1], vals.item(-1), self.alpha4, vecs[:, ::-1])


class PCone(ConeBaseOracle):
    """Second-order cone ``||y[:m]||_2 <= y[m]``."""

    family = "p_cone"

    def prepare(self, y):
        return _PConePoint(checked_array(y, (self.m + 1,)), self.alpha4)
