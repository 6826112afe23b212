"""Prescheduled smoothing-parameter sequences and their partial sums.

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
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cones import MU_FLOOR

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
        if self.mu0 is not None and not self.mu0 >= MU_FLOOR:
            raise ValueError(f"mu0 must be at least the smoothing floor {MU_FLOOR:.0e}")
        if self.variant == "power":
            if not 0.0 < self.r < 1.0:
                raise ValueError("power exponent r must lie in (0, 1)")
        else:
            if not 0.01 < self.rbar < 1.0:
                raise ValueError("rbar must lie in (0.01, 1)")
            if self.sbar < 0:
                raise ValueError("sbar must be nonnegative")
            if self.n0 < 0:
                raise ValueError("n0 must be nonnegative")
            if not 0.0 < self.nu0 <= 1.0:
                raise ValueError("nu0 must lie in (0, 1]")
            if self.ramp_len < 1:
                raise ValueError("ramp_len must be >= 1")

    def with_mu0(self, mu0: float) -> "ScheduleSpec":
        return dataclasses.replace(self, mu0=float(mu0))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScheduleSpec":
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown schedule keys: {', '.join(sorted(unknown))}")
        return cls(**d)


def power_schedule(r: float, mu0=None) -> ScheduleSpec:
    return ScheduleSpec(variant="power", r=r, mu0=mu0)


def blockwise_schedule(rbar, n0=DEFAULT_N0, nu0=DEFAULT_NU0, mu0=None) -> ScheduleSpec:
    return ScheduleSpec(variant="blockwise", rbar=rbar, n0=n0, nu0=nu0, mu0=mu0)


def ramped_log_schedule(rbar, sbar, n0=DEFAULT_N0, nu0=DEFAULT_NU0,
                        ramp_len=DEFAULT_RAMP_LEN, mu0=None) -> ScheduleSpec:
    return ScheduleSpec(variant="ramped_log", rbar=rbar, sbar=sbar, n0=n0, nu0=nu0,
                        ramp_len=ramp_len, mu0=mu0)


def mu_values(spec: ScheduleSpec, ks) -> np.ndarray:
    """Vectorized evaluation of the schedule at iteration indices ``ks``."""
    if spec.mu0 is None:
        raise ValueError("schedule has no mu0 set; call with_mu0 first")
    ks = np.asarray(ks)
    if np.any(ks < 0):
        raise ValueError("iteration indices must be nonnegative")

    if spec.variant == "power":
        return spec.mu0 * (ks.astype(float) + 1.0) ** (-spec.r)

    block = spec.n0 + 1
    k1 = np.asarray(ks) % block
    k2 = np.asarray(ks) // block
    kbar = k2 * block + spec.nu0 * k1

    if spec.variant == "blockwise":
        return spec.mu0 * (kbar + 1.0) ** (-spec.rbar)

    # ramped_log: exponent rules are indexed by the fractional block index
    frac = np.minimum(1.0, kbar / spec.ramp_len)
    rk = 0.01 + frac * (spec.rbar - 0.01)
    sk = frac * spec.sbar
    return spec.mu0 * (kbar + 1.0) ** (-rk) * np.log(kbar + 3.0) ** (-sk)


def mu_at(spec: ScheduleSpec, k: int) -> float:
    """Schedule value at iteration k; k = 0 returns mu0 for every variant."""
    return float(mu_values(spec, np.asarray([int(k)]))[0])


def partial_sum(spec: ScheduleSpec, K: int) -> float:
    """Half-window sum S_K = sum of mu_k for k in [ceil(K/2), K]."""
    K = int(K)
    if K < 0:
        raise ValueError("K must be nonnegative")
    ks = np.arange((K + 1) // 2, K + 1)
    return float(np.sum(mu_values(spec, ks)))


def partial_sum_lower_bound(spec: ScheduleSpec, K: int) -> float:
    """Guaranteed lower bound mu0 * K^(1 - rbar) / 2^(2 rbar + 1) on S_K."""
    rbar = spec.r if spec.variant == "power" else spec.rbar
    return spec.mu0 / 2 ** (2 * rbar + 1) * K ** (1 - rbar)
