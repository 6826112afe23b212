"""Machine-speed calibration for timings taken on a shared host.

On a small shared machine the speed available to one process can swing by
a factor of two within seconds, as neighbours start and stop.  Every solve
is therefore bracketed by a fixed calibration kernel, timed just before and
just after it, and its wall time is rescaled to the speed at which the
kernel takes ``REFERENCE_S``.  The kernel mixes the operation sizes the
solver uses (small symmetric ``eigh`` with vector arithmetic in a Python
loop, a 60x60 ``eigh`` and a contraction over a 101x60x60 stack) and does
not call the solver, so a change to the solver moves the solve time but not
the kernel.  Raw wall times are printed beside the rescaled ones.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.03  # kernel seconds that define the reference speed


def _symmetric(rng, k):
    a = rng.standard_normal((k, k))
    return 0.5 * (a + a.T)


class Calibrator:
    """Fixed kernel whose running time tracks the host's current speed."""

    def __init__(self):
        rng = np.random.Generator(np.random.Philox(key=0))
        self.small = _symmetric(rng, 10)
        self.large = _symmetric(rng, 60)
        self.stack = rng.standard_normal((101, 60, 60))
        self.x = rng.standard_normal(101)
        self.v = rng.standard_normal(200)

    def kernel(self) -> float:
        acc = 0.0
        for _ in range(5):
            for _ in range(150):
                w = np.linalg.eigh(self.small)[0]
                acc += float(w[-1]) + float(np.dot(self.v, self.v)) + float(np.max(np.abs(self.v)))
            for _ in range(3):
                acc += float(np.linalg.eigh(self.large)[0][-1])
                acc += float(np.tensordot(self.x, self.stack, axes=(0, 0))[0, 0])
        return acc

    def sample(self) -> float:
        """Seconds one kernel run takes now."""
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0
