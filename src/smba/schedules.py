"""Prescheduled smoothing-parameter sequences.

Three variants are available, all strictly decreasing to zero with divergent
half-window partial sums (the condition under which the outer loop's
residuals vanish):

* ``power``: mu0 * (k + 1)^(-r);
* ``blockwise``: the block-indexed decay mu0 * (k2 (n0+1) + nu0 k1 + 1)^(-r_k)
  where k = k2 (n0+1) + k1 and k1 <= n0 -- with nu0 small this stays nearly
  constant for n0 steps and drops between blocks;
* ``ramped_log``: the blockwise stem with a slowly ramped exponent and an
  extra logarithmic factor, evaluated at the fractional block index.

``blockwise`` holds the exponent at ``rbar``; ``ramped_log`` ramps it as
``r_j = 0.01 + min(1, j / ramp_len) * (rbar - 0.01)`` (and
``s_j = min(1, j / ramp_len) * sbar`` for the log factor).  A supplied mu0
must not lie below the kernel's smoothing floor.

Each value is ``mu0`` times factors that depend on the schedule's shape
alone (every field but ``mu0``).  ``mu_at`` reads them from a bounded cache
of fixed chunks keyed by the shape, so every run with that shape shares them
whatever its ``mu0``.  ``stall_index`` is the index that a run which has
stalled at the current mu jumps to.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cones import MU_FLOOR, check_keys, check_numbers

VARIANTS = ("power", "blockwise", "ramped_log")

# experiment defaults: block length 300, tiny intra-block slope, 5000-step ramp
DEFAULT_N0 = 300
DEFAULT_NU0 = 1.0 / (10 * DEFAULT_N0 + 1)
DEFAULT_RAMP_LEN = 5000


@dataclass(frozen=True)
class ScheduleSpec:
    variant: str
    mu0: Optional[float] = None
    r: float = 0.5
    rbar: float = 0.9
    sbar: float = 0.0
    n0: int = DEFAULT_N0
    nu0: float = DEFAULT_NU0
    ramp_len: int = DEFAULT_RAMP_LEN

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown schedule variant {self.variant!r}")
        mu0 = () if self.mu0 is None else ("mu0",)
        check_numbers(self, reals=mu0 + ("r", "rbar", "sbar", "nu0"), integers=("n0", "ramp_len"))
        if self.mu0 is not None and not self.mu0 >= MU_FLOOR:
            raise ValueError(f"mu0 must be at least the smoothing floor {MU_FLOOR:.0e}")
        if self.variant == "power":
            if not 0.0 < self.r < 1.0:
                raise ValueError("power exponent r must lie in (0, 1)")
        else:
            if not 0.01 < self.rbar < 1.0:
                raise ValueError("rbar must lie in (0.01, 1)")
            if not self.sbar >= 0:
                raise ValueError("sbar must be nonnegative")
            if not self.n0 >= 0:
                raise ValueError("n0 must be nonnegative")
            if not 0.0 < self.nu0 <= 1.0:
                raise ValueError("nu0 must lie in (0, 1]")
            if not self.ramp_len >= 1:
                raise ValueError("ramp_len must be >= 1")

    def with_mu0(self, mu0: float) -> "ScheduleSpec":
        return dataclasses.replace(self, mu0=float(mu0))

    @classmethod
    def from_dict(cls, d: dict) -> "ScheduleSpec":
        check_keys(cls, d, "schedule")
        return cls(**d)


def power_schedule(r: float, mu0=None) -> ScheduleSpec:
    return ScheduleSpec(variant="power", r=r, mu0=mu0)


def blockwise_schedule(rbar, n0=DEFAULT_N0, nu0=DEFAULT_NU0, mu0=None) -> ScheduleSpec:
    return ScheduleSpec(variant="blockwise", rbar=rbar, n0=n0, nu0=nu0, mu0=mu0)


def ramped_log_schedule(rbar, sbar, n0=DEFAULT_N0, nu0=DEFAULT_NU0,
                        ramp_len=DEFAULT_RAMP_LEN, mu0=None) -> ScheduleSpec:
    return ScheduleSpec(variant="ramped_log", rbar=rbar, sbar=sbar, n0=n0, nu0=nu0,
                        ramp_len=ramp_len, mu0=mu0)


def _factors(spec: ScheduleSpec, ks: np.ndarray):
    """The mu0-free factors ``(a, b)`` of the schedule at indices ``ks``: the
    schedule is ``mu0 * a``, or ``mu0 * a * b`` for ``ramped_log`` (``b`` is
    None otherwise), multiplied in that order."""
    if spec.variant == "power":
        return (ks.astype(float) + 1.0) ** (-spec.r), None

    block = spec.n0 + 1
    k1 = ks % block
    k2 = ks // block
    kbar = k2 * block + spec.nu0 * k1

    if spec.variant == "blockwise":
        return (kbar + 1.0) ** (-spec.rbar), None

    # ramped_log: exponent rules are indexed by the fractional block index
    frac = np.minimum(1.0, kbar / spec.ramp_len)
    rk = 0.01 + frac * (spec.rbar - 0.01)
    sk = frac * spec.sbar
    return (kbar + 1.0) ** (-rk), np.log(kbar + 3.0) ** (-sk)


# every field but mu0: the shape that _factors reads, one tuple per spec
_SHAPE_FIELDS = tuple(f.name for f in dataclasses.fields(ScheduleSpec) if f.name != "mu0")
_shape = operator.attrgetter(*_SHAPE_FIELDS)
_CHUNK = 1024


@functools.lru_cache(maxsize=64)
def _chunk(shape: tuple, c: int):
    """``_factors`` of the schedule of ``shape`` at indices ``c * _CHUNK``
    to ``(c + 1) * _CHUNK - 1``, as lists of Python floats, which index and
    multiply faster than numpy scalars with the same bits; at most 64 chunks
    (4 MiB) are held."""
    spec = ScheduleSpec(**dict(zip(_SHAPE_FIELDS, shape)))
    a, b = _factors(spec, np.arange(c * _CHUNK, (c + 1) * _CHUNK))
    return a.tolist(), None if b is None else b.tolist()


def mu_at(spec: ScheduleSpec, k: int) -> float:
    """Schedule value at iteration k; k = 0 returns mu0 for every variant.

    Reads ``mu0 * a[k] (* b[k])`` from the cached chunk of the schedule's
    mu0-free factors that holds index k.
    """
    if spec.mu0 is None:
        raise ValueError("schedule has no mu0 set; call with_mu0 first")
    if k < 0:
        raise ValueError("iteration indices must be nonnegative")
    c, i = divmod(k, _CHUNK)
    a, b = _chunk(_shape(spec), c)
    mu = float(spec.mu0) * a[i]
    return mu if b is None else mu * b[i]


def stall_index(spec: ScheduleSpec, s: int) -> int:
    """The schedule index after a stall at index ``s``, where mu has fallen
    clearly: the start of the next block for the block variants, which hold
    mu nearly constant within a block, or for ``power`` the first index
    where mu has halved, ``ceil((s + 1) 2^(1/r)) - 1``.  A halving index
    past the float range (``r`` below about 1/1024) is not taken; the index
    moves by one."""
    if spec.variant != "power":
        block = spec.n0 + 1
        return (s // block + 1) * block
    try:
        return math.ceil((s + 1) * 2.0 ** (1.0 / spec.r)) - 1
    except OverflowError:
        return s + 1
