import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smba.cones import (
    MU_FLOOR,
    NegSemidef,
    NonposOrthant,
    PCone,
    SmoothingCert,
    stable_logsumexp,
)
from smba.errors import MuUnderflowWarning, UnsupportedFamilyError

from conftest import directional_derivative, family_cases, random_symmetric


class TestSupportValue:
    def test_orthant_max(self):
        oracle = NonposOrthant(3)
        assert oracle.support_value([1.0, -2.0, 3.0]) == 3.0

    def test_psd_lambda_max_diagonal(self):
        oracle = NegSemidef(2)
        assert oracle.support_value(np.diag([-1.0, -5.0])) == pytest.approx(-1.0, abs=1e-14)

    def test_pcone(self):
        oracle = PCone(2)
        assert oracle.support_value([3.0, 4.0, 10.0]) == pytest.approx(-5.0, abs=1e-14)

    def test_membership_sign_convention(self, rng):
        oracle = NonposOrthant(4)
        assert oracle.support_value([-1.0, -2.0, -0.5, -3.0]) < 0
        assert oracle.support_value([-1.0, 0.0, -0.5, -3.0]) == 0.0
        assert oracle.support_value([-1.0, 0.1, -0.5, -3.0]) > 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            NonposOrthant(3).support_value([1.0, 2.0])
        with pytest.raises(ValueError):
            NegSemidef(2).support_value(np.zeros((3, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            NonposOrthant(2).support_value([np.nan, 0.0])

    def test_asymmetry_repaired_below_tolerance(self):
        y = np.diag([1.0, 2.0])
        y[0, 1] = 1e-12
        assert NegSemidef(2).support_value(y) == pytest.approx(2.0, abs=1e-11)

    def test_asymmetry_error_above_tolerance(self):
        y = np.diag([1.0, 2.0])
        y[0, 1] = 1e-3
        with pytest.raises(ValueError):
            NegSemidef(2).support_value(y)


class TestStableLogsumexp:
    def test_symmetric(self):
        value, weights = stable_logsumexp(np.zeros(4), 1.0)
        assert value == pytest.approx(math.log(4.0), abs=1e-15)
        np.testing.assert_allclose(weights, 0.25, atol=1e-15)

    def test_singleton(self):
        value, weights = stable_logsumexp(np.array([1.0]), 0.37)
        assert value == 1.0
        assert weights[0] == 1.0

    def test_no_overflow_extended_precision_oracle(self):
        # oracle: 50-digit arithmetic of the unshifted definition
        v = np.array([700.0, 0.0])
        mu = 1.0
        value, weights = stable_logsumexp(v, mu)
        with mpmath.workdps(50):
            ref = mu * mpmath.log(mpmath.e**700 + mpmath.e**0)
            w0 = mpmath.e**700 / (mpmath.e**700 + 1)
        assert value == pytest.approx(float(ref), rel=1e-15)
        assert weights[0] == pytest.approx(float(w0), abs=1e-15)
        assert weights[1] == pytest.approx(0.0, abs=1e-15)

    def test_tiny_mu_no_overflow(self):
        value, weights = stable_logsumexp(np.array([5.0, -3.0, 1.0]), 1e-12)
        assert value == pytest.approx(5.0, rel=1e-15)
        assert weights[0] == pytest.approx(1.0, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stable_logsumexp(np.array([]), 1.0)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
        st.floats(1e-9, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_properties(self, vals, mu):
        v = np.asarray(vals)
        value, weights = stable_logsumexp(v, mu)
        assert np.all(weights >= 0.0) and np.all(weights <= 1.0)
        assert abs(float(np.sum(weights)) - 1.0) <= 1e-12
        assert value >= np.max(v)
        assert value <= np.max(v) + mu * math.log(len(vals)) + 1e-9 * (1 + abs(value))


class TestMsaValue:
    def test_orthant_symmetric(self):
        oracle = NonposOrthant(2, alpha4=0.0)
        assert oracle.msa_value([0.0, 0.0], 1.0) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_psd_diag(self):
        oracle = NegSemidef(2, alpha4=0.0)
        assert oracle.msa_value(np.zeros((2, 2)), 0.5) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-14
        )

    def test_shifted_evaluation_extreme(self):
        # high-precision oracle for the dominant-entry case
        oracle = NonposOrthant(2, alpha4=0.0)
        val = oracle.msa_value([10.0, 0.0], 0.1)
        with mpmath.workdps(60):
            ref = float(0.1 * mpmath.log(mpmath.e ** (10 / 0.1) + 1))
        assert val == pytest.approx(ref, rel=1e-14)
        assert 10.0 <= val <= 10.0 + 0.1 * math.log(2.0)

    def test_alpha4_shift_added(self):
        base = NonposOrthant(2, alpha4=0.0).msa_value([0.3, -0.7], 0.25)
        shifted = NonposOrthant(2, alpha4=1e-5).msa_value([0.3, -0.7], 0.25)
        assert shifted == pytest.approx(base + 1e-5 * 0.25, abs=1e-16)

    def test_mu_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            NonposOrthant(2).msa_value([0.0, 0.0], 0.0)
        with pytest.raises(ValueError):
            NonposOrthant(2).msa_value([0.0, 0.0], -1.0)

    def test_mu_underflow_clamped_with_warning(self):
        oracle = NonposOrthant(2)
        with pytest.warns(MuUnderflowWarning):
            val = oracle.msa_value([0.0, 0.0], 1e-15)
        assert math.isfinite(val)

    def test_sandwich_1000_random(self, rng):
        for oracle, sample in family_cases():
            a3 = oracle.cert.alpha3
            for _ in range(1000):
                y = sample(rng)
                mu = 10.0 ** rng.uniform(-6, 1)
                sig = oracle.support_value(y)
                val = oracle.msa_value(y, mu)
                slack = 1e-12 * (1.0 + abs(sig))
                assert val >= sig - slack
                assert val <= sig + a3 * mu + slack

    def test_alpha4_monotone_decrease(self, rng):
        # shifted family strictly gains at least alpha4 * (mu0 - mu1)
        for oracle, sample in family_cases(alpha4=1e-5):
            for _ in range(200):
                y = sample(rng)
                mu1 = 10.0 ** rng.uniform(-6, 0)
                mu0 = mu1 * rng.uniform(1.5, 20.0)
                v0 = oracle.msa_value(y, mu0)
                v1 = oracle.msa_value(y, mu1)
                assert v1 <= v0 - 1e-5 * (mu0 - mu1) + 1e-12

    def test_spectral_consistency(self, rng):
        oracle = NegSemidef(4)
        for _ in range(50):
            y = random_symmetric(rng, 4)
            q, _ = np.linalg.qr(rng.normal(0, 1, (4, 4)))
            mu = 10.0 ** rng.uniform(-4, 1)
            a = oracle.msa_value(y, mu)
            b = oracle.msa_value(q @ y @ q.T, mu)
            assert b == pytest.approx(a, rel=1e-10, abs=1e-10)


class TestMsaGradient:
    def test_orthant_symmetric(self):
        grad = NonposOrthant(2).msa_gradient([0.0, 0.0], 1.0)
        np.testing.assert_allclose(grad, [0.5, 0.5], atol=1e-15)

    def test_psd_dominant_eigenvalue(self):
        grad = NegSemidef(2).msa_gradient(np.diag([1.0, 0.0]), 0.01)
        np.testing.assert_allclose(grad, np.diag([1.0, 0.0]), atol=1e-10)

    def test_pcone_zero_block(self):
        grad = PCone(2).msa_gradient([0.0, 0.0, 5.0], 1.0)
        np.testing.assert_allclose(grad, [0.0, 0.0, -1.0], atol=1e-15)

    def test_finite_differences_200_per_family(self, rng):
        for oracle, sample in family_cases():
            for _ in range(200):
                y = sample(rng)
                mu = 10.0 ** rng.uniform(-3, 1)
                d = sample(rng)
                grad = oracle.msa_gradient(y, mu)
                fd = directional_derivative(lambda z: oracle.msa_value(z, mu), y, d)
                exact = float(np.vdot(grad, d))
                assert fd == pytest.approx(exact, rel=1e-6, abs=1e-6)

    def test_base_membership(self, rng):
        for oracle, sample in family_cases():
            for _ in range(200):
                y = sample(rng)
                mu = 10.0 ** rng.uniform(-6, 1)
                u = oracle.msa_gradient(y, mu)
                if isinstance(oracle, NonposOrthant):
                    assert np.all(u >= 0.0)
                    assert abs(float(np.sum(u)) - 1.0) <= 1e-12
                elif isinstance(oracle, NegSemidef):
                    assert abs(float(np.trace(u)) - 1.0) <= 1e-12
                    assert float(np.linalg.eigvalsh(u)[0]) >= -1e-10
                else:
                    assert float(np.linalg.norm(u[:-1])) <= 1.0 + 1e-12
                    assert u[-1] == -1.0

    def test_gradient_lipschitz_certificate(self, rng):
        for oracle, sample in family_cases():
            for _ in range(100):
                y, z = sample(rng), sample(rng)
                mu = 10.0 ** rng.uniform(-3, 1)
                bound = oracle.cert.gradient_lipschitz(mu)
                gy = oracle.msa_gradient(y, mu)
                gz = oracle.msa_gradient(z, mu)
                lhs = float(np.linalg.norm(np.asarray(gy) - np.asarray(gz)))
                assert lhs <= bound * float(np.linalg.norm(np.asarray(y) - np.asarray(z))) * (
                    1 + 1e-8
                ) + 1e-15


class TestCertificates:
    def test_orthant_cert_values(self):
        cert = NonposOrthant(8, alpha4=1e-5).cert
        assert cert.alpha1 == 0.0
        assert cert.alpha2 == 1.0
        assert cert.alpha3 == pytest.approx(math.log(8) + 1e-5)
        assert cert.alpha4 == 1e-5
        assert cert.base_norm_bound == 1.0

    def test_pcone_cert_values(self):
        cert = PCone(3, alpha4=1e-5).cert
        assert cert.alpha3 == pytest.approx(1.0 + 1e-5)
        assert cert.base_norm_bound == pytest.approx(math.sqrt(2.0))

    def test_invalid_cert_rejected(self):
        with pytest.raises(ValueError):
            SmoothingCert(0.0, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            SmoothingCert(0.0, 1.0, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            SmoothingCert(-1.0, 1.0, 1.0, 0.0, 1.0)

    def test_pcone_rejects_other_p(self):
        with pytest.raises(UnsupportedFamilyError):
            PCone(3, p=3.0)


class TestPreparedPoint:
    MUS = (2.0, 0.3, 1e-3, 1e-9, 0.1 * MU_FLOOR)  # the last is clamped to the floor

    def test_one_point_serves_every_mu(self, rng):
        # one prepared point answers bitwise like a fresh one and like the
        # per-call wrappers, whatever mu it was asked about before
        for oracle, sample in family_cases():
            for _ in range(5):
                y = sample(rng)
                point = oracle.prepare(y)
                assert point.support == oracle.prepare(y).support == oracle.support_value(y)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", MuUnderflowWarning)
                    for mu in self.MUS:
                        value, grad = point.value(mu), point.gradient(mu)
                        fresh = oracle.prepare(y)
                        assert value == fresh.value(mu)
                        np.testing.assert_array_equal(grad, fresh.gradient(mu))
                        assert value == oracle.msa_value(y, mu)
                        np.testing.assert_array_equal(grad, oracle.msa_gradient(y, mu))

    def test_below_floor_warns(self):
        for oracle, sample in family_cases():
            point = oracle.prepare(sample(np.random.default_rng(1)))
            with pytest.warns(MuUnderflowWarning):
                assert math.isfinite(point.value(0.1 * MU_FLOOR))
        # every family shifts by alpha4 times the clamped mu it smooths with
        for oracle, sample in family_cases(alpha4=1.0):
            point = oracle.prepare(np.zeros_like(sample(np.random.default_rng(1))))
            with pytest.warns(MuUnderflowWarning):
                assert point.value(1e-15) == point.value(MU_FLOOR)

    def test_invalid_argument_raises_in_prepare(self):
        for oracle, sample in family_cases():
            y = np.array(sample(np.random.default_rng(2)))
            y.flat[0] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                oracle.prepare(y)
            with pytest.raises(ValueError, match="expected shape"):
                oracle.prepare(np.zeros(7))
        y = np.diag([1.0, 2.0])
        y[0, 1] = 1e-3
        with pytest.raises(ValueError, match="asymmetry"):
            NegSemidef(2).prepare(y)
