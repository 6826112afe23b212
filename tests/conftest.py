"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from smba import cones
from smba.cones import NegSemidef, NonposOrthant, PCone


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def no_shift(monkeypatch):
    """Cone points evaluate without the shift ``SHIFT * mu``; each reads the
    constant when it evaluates."""
    monkeypatch.setattr(cones, "SHIFT", 0.0)


def random_symmetric(rng, m, scale=3.0):
    y = rng.normal(0.0, scale, (m, m))
    return 0.5 * (y + y.T)


def family_cases():
    """(oracle, sampler) pairs covering the three cone families."""

    def orthant(rng):
        return rng.normal(0.0, 3.0, 5)

    def psd(rng):
        return random_symmetric(rng, 4)

    def pcone(rng):
        return rng.normal(0.0, 3.0, 6)

    return [
        (NonposOrthant(5), orthant),
        (NegSemidef(4), psd),
        (PCone(5), pcone),
    ]


def directional_derivative(fn, y, d, h=1e-6):
    """Central finite difference of a scalar function along direction d."""
    return (fn(y + h * d) - fn(y - h * d)) / (2.0 * h)
