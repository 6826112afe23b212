import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smba import schedules
from smba.cones import MU_FLOOR
from smba.nsdp import generate_nsdp, nsdp_problem
from smba.schedules import (
    ScheduleSpec,
    blockwise_schedule,
    mu_at,
    power_schedule,
    ramped_log_schedule,
)
from smba.solver import SolverConfig, run

from helpers import mu_values, partial_sum, partial_sum_lower_bound


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

    def test_ramped_log_shortest_ramp(self):
        # ramp_len = 1, the least accepted: past index 0 the ramp is complete
        spec = ramped_log_schedule(0.9, 3.0, n0=2, nu0=0.5, ramp_len=1, mu0=2.0)
        want = 2.0 * 7.5 ** -0.9 * np.log(9.5) ** -3.0
        assert mu_at(spec, 7) == pytest.approx(want, rel=1e-14)

    def test_missing_mu0_rejected(self):
        with pytest.raises(ValueError):
            mu_at(power_schedule(0.5), 1)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            mu_at(power_schedule(0.5, mu0=1.0), -1)
        with pytest.raises(ValueError, match="K must be nonnegative"):
            partial_sum(power_schedule(0.5, mu0=1.0), -1)

    @pytest.mark.parametrize("field", ["mu0", "r", "rbar", "sbar", "n0", "nu0", "ramp_len"])
    def test_nan_rejected(self, field):
        variant = "power" if field == "r" else "ramped_log"
        with pytest.raises(ValueError):
            ScheduleSpec(**{"variant": variant, "mu0": 1.0, field: math.nan})

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mu0", "r", "rbar", "sbar", "nu0"])
    def test_infinite_rejected(self, field, value):
        # JSON's Infinity passes every lower-bound check; +inf mu0 and sbar
        # were built, and sbar = inf read NaN at index 0
        variant = "power" if field == "r" else "ramped_log"
        with pytest.raises(ValueError, match=f"^{field} must be a finite real number, got "):
            ScheduleSpec(**{"variant": variant, "mu0": 1.0, field: value})

    def test_invalid_fields_rejected(self):
        for r in (0.0, 1.0):
            with pytest.raises(ValueError, match="power exponent"):
                ScheduleSpec(variant="power", r=r, mu0=1.0)
        for rbar in (0.005, 0.01, 1.0):
            with pytest.raises(ValueError, match="rbar must lie"):
                ScheduleSpec(variant="blockwise", rbar=rbar, mu0=1.0)
        with pytest.raises(ValueError):
            ScheduleSpec(variant="ramped_log", rbar=0.9, sbar=-1.0, mu0=1.0)
        with pytest.raises(ValueError):
            ScheduleSpec(variant="blockwise", rbar=0.9, nu0=0.0, mu0=1.0)
        with pytest.raises(ValueError):
            ScheduleSpec(variant="nope", mu0=1.0)
        with pytest.raises(ValueError, match="n0 must be nonnegative"):
            ScheduleSpec(variant="blockwise", rbar=0.9, n0=-1, mu0=1.0)
        with pytest.raises(ValueError, match="ramp_len must be >= 1"):
            ScheduleSpec(variant="ramped_log", rbar=0.9, ramp_len=0, mu0=1.0)
        with pytest.raises(ValueError, match="floor"):
            power_schedule(0.5, mu0=0.5 * MU_FLOOR)

    def test_strict_decrease_sweep_to_1e5(self):
        ks = np.arange(100001)
        for spec in sweep_specs():
            mus = mu_values(spec, ks)
            assert np.all(np.diff(mus) < 0), f"not strictly decreasing: {spec}"
            assert mus[-1] < 1e-1 * mus[0]

    def test_roundtrip_dict(self):
        # from_dict reads the schedule as SolverConfig.to_dict writes it
        spec = ramped_log_schedule(0.9, 3.0, mu0=0.45)
        again = ScheduleSpec.from_dict(dataclasses.asdict(spec))
        assert again == spec


def one_spec_per_variant(mu0):
    return (power_schedule(0.9, mu0=mu0), blockwise_schedule(0.9, mu0=mu0),
            ramped_log_schedule(0.9, 3.0, mu0=mu0))


def direct_mu(spec, k):
    """Index k evaluated alone: the reference for mu_at's chunks."""
    return float(mu_values(spec, np.asarray([k]))[0])


def cached_chunks():
    return schedules._chunk.cache_info().currsize


class TestMuTable:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        schedules._chunk.cache_clear()
        yield
        schedules._chunk.cache_clear()

    def test_bitwise_equal_to_direct_evaluation(self):
        for spec in one_spec_per_variant(0.45):
            assert all(mu_at(spec, k) == direct_mu(spec, k) for k in range(6001)), spec

    @pytest.mark.parametrize("mu0", [np.float32(0.3), 1, Fraction(1, 3), np.float64(0.7)],
                             ids=["float32", "int", "fraction", "float64"])
    def test_mu0_of_any_real_type(self, mu0):
        # a Python float, with the bits of mu_values, which multiplies in
        # doubles (a float32 mu0 times a Python float would stay float32)
        for spec in one_spec_per_variant(mu0):
            for k in (0, 5, 3000):
                value = mu_at(spec, k)
                assert type(value) is float and value == direct_mu(spec, k), (spec, k)

    def test_chunk_boundaries(self):
        # the last index of a chunk and the first of the next read the same
        # bits as indices evaluated alone, and each chunk is built once
        for spec in one_spec_per_variant(0.3):
            schedules._chunk.cache_clear()
            for k in (1023, 1024, 2047, 2048, 0, 4095, 4096, 1, 1023):
                assert mu_at(spec, k) == direct_mu(spec, k), (spec, k)
            info = schedules._chunk.cache_info()
            assert (info.misses, info.hits, info.currsize) == (5, 4, 5)
            for c in range(5):
                a, b = schedules._chunk(schedules._shape(spec), c)
                assert len(a) == schedules._CHUNK == 1024 and {type(v) for v in a} == {float}
                if spec.variant == "ramped_log":
                    assert len(b) == 1024 and {type(v) for v in b} == {float}
                else:
                    assert b is None
            assert schedules._chunk.cache_info().misses == 5

    def test_alternating_specs(self):
        # specs of equal shape share chunks whatever their mu0; a spec is
        # never read from the chunk of another shape
        first, second = power_schedule(0.5, mu0=0.2), blockwise_schedule(0.9, mu0=0.2)
        for k in (5, 5, 2000, 7, 3000, 1):
            for spec in (first, second, power_schedule(0.5, mu0=0.2)):
                assert mu_at(spec, k) == direct_mu(spec, k), (spec, k)
        assert cached_chunks() == 6  # chunks 0, 1 and 2 of two shapes

    def test_interleaved_mu0_and_shapes(self):
        # every read after the first lands on a chunk built for another mu0,
        # and in the first sweep the previous read was of another shape
        mu0s = (0.9, 0.45, 3.7, 1e-12)
        ks = (0, 1, 300, 301, 1023, 1024, 5000, 2047, 7, 4096, 602)
        for k in ks:
            for mu0 in mu0s:
                for spec in one_spec_per_variant(mu0):
                    assert mu_at(spec, k) == direct_mu(spec, k), (spec, k)
        for spec in one_spec_per_variant(1.0):
            for k in ks:
                for mu0 in mu0s:
                    again = spec.with_mu0(mu0)
                    assert mu_at(again, k) == direct_mu(again, k), (again, k)

    def test_far_index_read_from_its_own_chunk(self):
        # no cap: an index of any size is read from the one chunk holding it
        spec = power_schedule(0.5, mu0=1.0)
        for k in (2**20 - 1, 2**20, 2**20 + 1, 10 * 2**20, 123456789):
            schedules._chunk.cache_clear()
            assert mu_at(spec, k) == direct_mu(spec, k), k
            assert cached_chunks() == 1
            schedules._chunk(schedules._shape(spec), k // 1024)
            assert schedules._chunk.cache_info().hits == 1

    def test_specs_differing_in_one_field_never_share_a_chunk(self):
        # the key holds every field but mu0, however many the spec has
        base = ramped_log_schedule(0.9, 3.0, mu0=0.5)
        other = {"variant": "blockwise", "r": 0.25, "rbar": 0.6, "sbar": 1.0, "n0": 10,
                 "nu0": 0.5, "ramp_len": 100}
        names = {f.name for f in dataclasses.fields(ScheduleSpec)}
        assert set(other) == names - {"mu0"}
        for name, value in other.items():
            changed = dataclasses.replace(base, **{name: value})
            schedules._chunk.cache_clear()
            for spec in (base, changed, base, changed):
                for k in (0, 700, 1023):
                    assert mu_at(spec, k) == direct_mu(spec, k), (name, spec, k)
            assert cached_chunks() == 2, name
        # and mu0 alone shares one
        schedules._chunk.cache_clear()
        for mu0 in (0.5, 0.9, 1e-12):
            assert mu_at(base.with_mu0(mu0), 9) == direct_mu(base.with_mu0(mu0), 9)
        assert cached_chunks() == 1

    def test_cache_has_a_constant_bound(self):
        spec = power_schedule(0.5, mu0=1.0)
        for c in range(200):
            assert mu_at(spec, c * 1024 + 3) == direct_mu(spec, c * 1024 + 3)
        assert schedules._chunk.cache_info().maxsize == cached_chunks() == 64

    def test_back_to_back_runs_share_the_table(self, monkeypatch):
        # two runs whose schedules differ only in mu0 give the same traces,
        # bit for bit, as each run alone on an empty cache, and the second
        # one builds no chunk
        builds = []

        def counted(spec, ks):
            builds.append((ks[0], len(ks)))
            return factors(spec, ks)

        factors = schedules._factors
        monkeypatch.setattr(schedules, "_factors", counted)
        bits = lambda report: [tuple(repr(v) for v in row[:-1]) for row in report.trace]
        cases = [(nsdp_problem(generate_nsdp(6, 4, seed)),
                  SolverConfig(eps=1e-6, schedule=ramped_log_schedule(0.9, 3.0, mu0=mu0)))
                 for seed, mu0 in ((1, 0.9), (4, 0.3))]

        alone = []
        for prob, cfg in cases:
            schedules._chunk.cache_clear()
            alone.append(run(prob, cfg, np.zeros(6)))
        schedules._chunk.cache_clear()
        del builds[:]
        first = run(*cases[0], np.zeros(6))
        assert builds == [(0, 1024)]
        second = run(*cases[1], np.zeros(6))
        assert builds == [(0, 1024)]

        assert len(first.trace) > 10 and len(second.trace) > 10
        assert bits(first) == bits(alone[0]) and bits(second) == bits(alone[1])


def test_import_and_problem_build_leave_the_memo_empty():
    # set-up (import, instance generation, problem build) evaluates no schedule
    code = ("import smba\n"
            "smba.nsdp_problem(smba.generate_nsdp(20, 10, 1))\n"
            "print(smba.schedules._chunk.cache_info().currsize == 0)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(schedules.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "True"


class TestPartialSum:
    def test_single_term(self):
        assert partial_sum(power_schedule(0.5, mu0=1.0), 0) == pytest.approx(1.0)

    def test_direct_sum_small(self):
        spec = power_schedule(0.5, mu0=1.0)
        want = 3**-0.5 + 4**-0.5 + 5**-0.5
        assert partial_sum(spec, 4) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(1.5245639, abs=1e-6)

    def test_lower_bound(self):
        for spec in sweep_specs(mu0=0.37):
            rbar = spec.r if spec.variant == "power" else spec.rbar
            for K in (1, 10, 5000):
                want = 0.37 / 2 ** (2 * rbar + 1) * K ** (1 - rbar)
                assert partial_sum_lower_bound(spec, K) == want
        # the missing-mu0 error of mu_values, not a TypeError
        with pytest.raises(ValueError, match="schedule has no mu0 set"):
            partial_sum_lower_bound(ramped_log_schedule(0.9, 3.0), 10)

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
