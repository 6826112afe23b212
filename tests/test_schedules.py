import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smba.cones import MU_FLOOR
from smba.schedules import (
    ScheduleSpec,
    blockwise_schedule,
    mu_at,
    mu_values,
    partial_sum,
    partial_sum_lower_bound,
    power_schedule,
    ramped_log_schedule,
)


def sweep_specs(mu0=1.0):
    specs = []
    for rbar in (0.33, 0.6, 0.9):
        specs.append(power_schedule(rbar, mu0=mu0))
        for n0 in (0, 300):
            nu0 = 1.0 if n0 == 0 else 1.0 / (10 * n0 + 1)
            specs.append(blockwise_schedule(rbar, n0=n0, nu0=nu0, mu0=mu0))
            for sbar in (0.0, 3.0):
                specs.append(ramped_log_schedule(rbar, sbar, n0=n0, nu0=nu0, mu0=mu0))
    return specs


class TestMuAt:
    def test_power_value(self):
        assert mu_at(power_schedule(0.5, mu0=1.0), 3) == pytest.approx(0.5)

    def test_anchor_at_zero(self):
        for spec in sweep_specs(mu0=0.37):
            assert mu_at(spec, 0) == pytest.approx(0.37, rel=1e-15)

    def test_blockwise_hand_value(self):
        # k = 4 with block length 3 splits as k2 = 1, k1 = 1
        spec = ScheduleSpec(variant="blockwise", mu0=1.0, rbar=0.5, n0=2, nu0=0.5)
        assert mu_at(spec, 4) == pytest.approx((3 + 0.5 + 1) ** -0.5)

    def test_ramped_log_hand_value(self):
        spec = ramped_log_schedule(0.9, 3.0, n0=2, nu0=0.5, ramp_len=10, mu0=2.0)
        k = 7  # k2 = 2, k1 = 1 -> kbar = 6.5
        kbar = 6.5
        r = 0.01 + min(1.0, kbar / 10) * (0.9 - 0.01)
        s = min(1.0, kbar / 10) * 3.0
        want = 2.0 * (kbar + 1) ** (-r) * np.log(kbar + 3) ** (-s)
        assert mu_at(spec, k) == pytest.approx(want, rel=1e-14)

    def test_missing_mu0_rejected(self):
        with pytest.raises(ValueError):
            mu_at(power_schedule(0.5), 1)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            mu_at(power_schedule(0.5, mu0=1.0), -1)

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            ScheduleSpec(variant="power", r=1.0, mu0=1.0)
        with pytest.raises(ValueError):
            ScheduleSpec(variant="blockwise", rbar=0.005, mu0=1.0)
        with pytest.raises(ValueError):
            ScheduleSpec(variant="ramped_log", rbar=0.9, sbar=-1.0, mu0=1.0)
        with pytest.raises(ValueError):
            ScheduleSpec(variant="blockwise", rbar=0.9, nu0=0.0, mu0=1.0)
        with pytest.raises(ValueError):
            ScheduleSpec(variant="nope", mu0=1.0)
        with pytest.raises(ValueError, match="floor"):
            power_schedule(0.5, mu0=0.5 * MU_FLOOR)

    def test_strict_decrease_sweep_to_1e5(self):
        ks = np.arange(100001)
        for spec in sweep_specs():
            mus = mu_values(spec, ks)
            assert np.all(np.diff(mus) < 0), f"not strictly decreasing: {spec}"
            assert mus[-1] < 1e-1 * mus[0]

    def test_roundtrip_dict(self):
        spec = ramped_log_schedule(0.9, 3.0, mu0=0.45)
        again = ScheduleSpec.from_dict(spec.to_dict())
        assert again == spec


class TestPartialSum:
    def test_single_term(self):
        assert partial_sum(power_schedule(0.5, mu0=1.0), 0) == pytest.approx(1.0)

    def test_direct_sum_small(self):
        spec = power_schedule(0.5, mu0=1.0)
        want = 3**-0.5 + 4**-0.5 + 5**-0.5
        assert partial_sum(spec, 4) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(1.5245639, abs=1e-6)

    def test_divergence_lower_bound(self):
        # the half-window sums dominate mu0 K^(1 - rbar) / 2^(2 rbar + 1)
        for rbar in (0.33, 0.6, 0.9):
            for spec in (
                power_schedule(rbar, mu0=1.0),
                blockwise_schedule(rbar, mu0=1.0),
            ):
                for K in (100, 1000, 10000, 100000):
                    assert partial_sum(spec, K) >= partial_sum_lower_bound(spec, K)

    def test_blockwise_envelope(self):
        # with a constant exponent the blockwise values stay inside the
        # power-law envelope [mu0 (k+1)^-rbar, mu0 nu0^-rbar (k+1)^-rbar]
        rbar, n0 = 0.9, 300
        nu0 = 1.0 / (10 * n0 + 1)
        spec = blockwise_schedule(rbar, n0=n0, nu0=nu0, mu0=1.0)
        ks = np.arange(100001)
        mus = mu_values(spec, ks)
        lower = (ks + 1.0) ** (-rbar)
        upper = nu0 ** (-rbar) * (ks + 1.0) ** (-rbar)
        assert np.all(mus >= lower * (1 - 1e-12))
        assert np.all(mus <= upper * (1 + 1e-12))

    @given(st.integers(0, 500), st.floats(0.1, 0.9))
    @settings(max_examples=100, deadline=None)
    def test_partial_sum_matches_scalar_loop(self, K, r):
        spec = power_schedule(r, mu0=1.0)
        want = sum(mu_at(spec, k) for k in range((K + 1) // 2, K + 1))
        assert partial_sum(spec, K) == pytest.approx(want, rel=1e-12)
