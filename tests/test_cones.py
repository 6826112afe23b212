import functools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smba import cones
from smba.cones import (
    MU_FLOOR,
    NegSemidef,
    NonposOrthant,
    SYMMETRY_TOL,
    PCone,
    all_finite,
    checked_array,
)
from smba.nsdp import generate_nsdp, nsdp_problem

from conftest import directional_derivative, family_cases, random_symmetric
from helpers import GUARD_INPUTS, polar_residual, smoothing


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


# finite entries whose sum of squares overflows (and, for the first, whose
# plain sum does): a fast check must fall back to the entrywise test on them
HUGE_FINITE = ([1e308, 1e308], [1e200, -1e200])


class TestFiniteGuards:
    @given(st.lists(st.sampled_from([0.0, -1.5, 1e-300, 1e154, 1e200, -1e308, 1e308,
                                     math.inf, -math.inf, math.nan]), min_size=0, max_size=6))
    def test_all_finite_is_the_entrywise_test(self, entries):
        v = np.array(entries, dtype=float)
        assert all_finite(v) == bool(np.isfinite(v).all())
        assert all_finite(np.diag(v)) == bool(np.isfinite(v).all())

    @pytest.mark.parametrize("entries", HUGE_FINITE)
    def test_cone_argument_check_accepts_overflowing_sums(self, entries):
        assert NonposOrthant(2).prepare(entries).support == max(entries)
        with np.errstate(over="ignore"):  # ||y[:1]||^2 overflows, as it may
            assert PCone(1).prepare(entries).support == math.inf
        with pytest.raises(ValueError, match="non-finite"):
            NonposOrthant(2).prepare([entries[0], math.nan])

    def test_pcone_point_overflow_is_silent(self):
        # ||y[:-1]||^2 of a huge trial G overflows to a support value of inf,
        # which the linesearch rejects; numpy printed "overflow encountered
        # in dot" for it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = PCone(5).prepare(np.full(6, 1e300))
        assert point.support == math.inf

    def test_spectrum_check_accepts_overflowing_sums(self):
        # the argument and its spectrum (1e308, 1e308) both overflow a sum
        point = NegSemidef(2).prepare(np.diag([1e308, 1e308]))
        assert point.support == 1e308

    def test_spectrum_check_rejects_overflowed_eigenvalue(self):
        # finite entries, but the eigenvalue 2e308 (or -2e308) overflows in
        # eigh; the polar residual read the bottom one as inf, and the top
        # one, beside a 0.0 bottom, as membership
        for sign in (1.0, -1.0):
            y = sign * np.array([[1e308, -1e308], [-1e308, 1e308]])
            for evaluate in (NegSemidef(2).prepare,
                             functools.partial(polar_residual, NegSemidef(2))):
                with pytest.raises(ValueError, match="non-finite spectrum"):
                    evaluate(y)


class TestCheckedArray:
    def test_float64_passes_as_it_is(self, rng):
        # no copy, even of a strided view
        v = rng.normal(0.0, 1.0, (4, 6))[:, ::2]
        assert checked_array(v, (4, 3)) is v

    def test_integers_become_floats(self):
        v = checked_array(np.arange(3, dtype=np.int32), (3,))
        assert v.dtype == np.float64 and v.tolist() == [0.0, 1.0, 2.0]
        assert checked_array(np.arange(3, dtype=np.uint8), (3,)).dtype == np.float64

    # per input of helpers.GUARD_INPUTS: "same" (returned as it is),
    # "float64" (a native float64 copy), "base" (a plain ndarray view of a
    # subclass), or the start of the ValueError message
    GUARD_VERDICTS = {
        "float64": "same",
        "float32": "float64",
        "float32-inf": "non-finite entries in x",
        "int": "float64",
        "bool": "x is not an array of numbers: dtype bool is not real",
        "complex": "x is not an array of numbers: dtype complex128 is not real",
        "object": "x is not an array of numbers: dtype object is not real",
        "big-endian": "float64",
        "big-endian-nan": "non-finite entries in x",
        "subclass": "base",
        "subclass-nan": "non-finite entries in x",
        "shape-2": "x: expected shape (3,), got (2,)",
        "shape-3x1": "x: expected shape (3,), got (3, 1)",
        "nan": "non-finite entries in x",
        "inf": "non-finite entries in x",
        "squares-overflow": "same",
    }

    @pytest.mark.parametrize("case", GUARD_VERDICTS)
    def test_one_test_acceptance_lets_nothing_new_through(self, case):
        # only an exact float64 ndarray of the right shape with a finite
        # squared norm skips the general path; every other input gets that
        # path's conversion or message
        v, verdict = GUARD_INPUTS[case](), self.GUARD_VERDICTS[case]
        if verdict in ("same", "float64", "base"):
            out = checked_array(v, (3,), "x")
            assert (out is v) == (verdict == "same")
            assert type(out) is np.ndarray and out.dtype == np.dtype(float)
            assert out.dtype.isnative and np.array_equal(out, v)
            assert np.shares_memory(out, v) == (verdict != "float64")
        else:
            with pytest.raises(ValueError, match="^" + re.escape(verdict) + "$"):
                checked_array(v, (3,), "x")

    @pytest.mark.parametrize("bad", [
        np.array([1.0 + 0j, 2.0]), np.array([1.0, 2.0 + 5j]), np.array([1.0, 2.0], dtype=object),
        np.array([True, False]), ["1.0", "2.0"],
    ], ids=["complex-zero-imaginary", "complex", "object", "bool", "text"])
    def test_nonreal_dtype_rejected(self, bad):
        # a complex argument was read as its real part, and an object, bool
        # or text one converted, so a G(x) that is not real passed the cone
        with pytest.raises(ValueError, match=r"^cone argument is not an array of numbers: dtype "):
            checked_array(bad, (2,))
        with pytest.raises(ValueError, match="not an array of numbers"):
            NonposOrthant(2).prepare(bad)


def nan_spectrum(y, signature):
    """What the eigh gufunc returns when LAPACK fails: NaN everywhere."""
    m = len(y)
    return np.full(m, np.nan), np.full((m, m), np.nan)


class TestEigh:
    def cases(self):
        rng = np.random.default_rng(7)
        for m in range(1, 61):
            yield random_symmetric(rng, m)
        # repeated eigenvalues
        yield np.eye(6)
        yield np.diag([3.0, -1.0, 3.0, 0.0, -1.0, 3.0])
        yield np.zeros((4, 4))
        # G(x) of a desk (n=20, m=10) and a large (n=100, m=60) instance
        for n, m in ((20, 10), (100, 60)):
            prob = nsdp_problem(generate_nsdp(n, m, 1))
            yield prob.g.value(rng.normal(0.0, 0.1, n))

    def test_bits_match_numpy_eigh(self):
        # the bound gufunc is numpy's own eigh, bit for bit, on the checked,
        # exactly symmetric arrays that reach it
        oracle = NegSemidef(1)
        for y in self.cases():
            vals, vecs = oracle._eigh(y)
            ref_vals, ref_vecs = np.linalg.eigh(y)
            assert np.array_equal(vals, ref_vals), y.shape
            assert np.array_equal(vecs, ref_vecs), y.shape

    @pytest.mark.parametrize("method", ["prepare", "polar_residual"])
    def test_failed_decomposition_rejected(self, monkeypatch, method):
        # a LAPACK failure comes back as a NaN spectrum; read as it is, the
        # polar residual max(0, -nan) would be 0.0, membership
        monkeypatch.setattr(cones, "_EIGH_LO", nan_spectrum)
        evaluate = {"prepare": NegSemidef(3).prepare,
                    "polar_residual": functools.partial(polar_residual, NegSemidef(3))}[method]
        with pytest.raises(ValueError, match="non-finite spectrum"):
            evaluate(-np.eye(3))


def logsumexp(v, mu):
    """A bare temperature log-sum-exp of ``v`` with its softmax weights: the
    point of an orthant without shift."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cones, "SHIFT", 0.0)
        point = NonposOrthant(len(v)).prepare(v)
        return point.value(mu), point.smoothed(mu)[1]


class TestStableLogsumexp:
    def test_symmetric(self):
        value, weights = logsumexp(np.zeros(4), 1.0)
        assert value == pytest.approx(math.log(4.0), abs=1e-15)
        np.testing.assert_allclose(weights, 0.25, atol=1e-15)

    def test_singleton(self):
        value, weights = logsumexp(np.array([1.0]), 0.37)
        assert value == 1.0
        assert weights[0] == 1.0

    def test_no_overflow_extended_precision_oracle(self):
        # oracle: 50-digit arithmetic of the unshifted definition
        v = np.array([700.0, 0.0])
        mu = 1.0
        value, weights = logsumexp(v, mu)
        with mpmath.workdps(50):
            ref = mu * mpmath.log(mpmath.e**700 + mpmath.e**0)
            w0 = mpmath.e**700 / (mpmath.e**700 + 1)
        assert value == pytest.approx(float(ref), rel=1e-15)
        assert weights[0] == pytest.approx(float(w0), abs=1e-15)
        assert weights[1] == pytest.approx(0.0, abs=1e-15)

    def test_tiny_mu_no_overflow(self):
        value, weights = logsumexp(np.array([5.0, -3.0, 1.0]), 1e-12)
        assert value == pytest.approx(5.0, rel=1e-15)
        assert weights[0] == pytest.approx(1.0, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            logsumexp(np.array([]), 1.0)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
        st.floats(1e-9, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_properties(self, vals, mu):
        v = np.asarray(vals)
        value, weights = logsumexp(v, mu)
        assert np.all(weights >= 0.0) and np.all(weights <= 1.0)
        assert abs(float(np.sum(weights)) - 1.0) <= 1e-12
        assert value >= np.max(v)
        assert value <= np.max(v) + mu * math.log(len(vals)) + 1e-9 * (1 + abs(value))


class TestMsaValue:
    @pytest.mark.usefixtures("no_shift")
    def test_orthant_symmetric(self):
        oracle = NonposOrthant(2)
        assert oracle.prepare([0.0, 0.0]).value(1.0) == pytest.approx(math.log(2.0), abs=1e-14)

    @pytest.mark.usefixtures("no_shift")
    def test_psd_diag(self):
        oracle = NegSemidef(2)
        assert oracle.prepare(np.zeros((2, 2))).value(0.5) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-14
        )

    @pytest.mark.usefixtures("no_shift")
    def test_shifted_evaluation_extreme(self):
        # high-precision oracle for the dominant-entry case
        oracle = NonposOrthant(2)
        val = oracle.prepare([10.0, 0.0]).value(0.1)
        with mpmath.workdps(60):
            ref = float(0.1 * mpmath.log(mpmath.e ** (10 / 0.1) + 1))
        assert val == pytest.approx(ref, rel=1e-14)
        assert 10.0 <= val <= 10.0 + 0.1 * math.log(2.0)

    def test_alpha4_shift_added(self, monkeypatch):
        # one point, read before and after the shift is set to zero
        point = NonposOrthant(2).prepare([0.3, -0.7])
        shifted = point.value(0.25)
        monkeypatch.setattr(cones, "SHIFT", 0.0)
        assert shifted == pytest.approx(point.value(0.25) + 1e-5 * 0.25, abs=1e-16)

    @pytest.mark.parametrize("case", range(3), ids=["orthant", "psd", "pcone"])
    def test_shift_read_when_each_family_evaluates(self, monkeypatch, rng, case):
        # a point prepared under the shift reads SHIFT * mu more in value and
        # smoothed value than after SHIFT is set to zero; the gradient is the
        # same either way
        oracle, sample = family_cases()[case]
        point = oracle.prepare(sample(rng))
        value, (smoothed, grad) = point.value(0.25), point.smoothed(0.25)
        monkeypatch.setattr(cones, "SHIFT", 0.0)
        bare, (bare_smoothed, bare_grad) = point.value(0.25), point.smoothed(0.25)
        tol = 1e-15 * (1.0 + abs(bare))
        assert value == pytest.approx(bare + 1e-5 * 0.25, abs=tol)
        assert smoothed == pytest.approx(bare_smoothed + 1e-5 * 0.25, abs=tol)
        assert np.array_equal(grad, bare_grad)

    def test_mu_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            NonposOrthant(2).prepare([0.0, 0.0]).value(0.0)
        with pytest.raises(ValueError):
            NonposOrthant(2).prepare([0.0, 0.0]).value(-1.0)

    def test_mu_below_floor_rejected(self):
        with pytest.raises(ValueError, match="smoothing parameter"):
            NonposOrthant(2).prepare([0.0, 0.0]).value(1e-15)

    def test_spectral_consistency(self, rng):
        oracle = NegSemidef(4)
        for _ in range(50):
            y = random_symmetric(rng, 4)
            q, _ = np.linalg.qr(rng.normal(0, 1, (4, 4)))
            mu = 10.0 ** rng.uniform(-4, 1)
            a = oracle.prepare(y).value(mu)
            b = oracle.prepare(q @ y @ q.T).value(mu)
            assert b == pytest.approx(a, rel=1e-10, abs=1e-10)


class TestMsaGradient:
    def test_orthant_symmetric(self):
        grad = NonposOrthant(2).prepare([0.0, 0.0]).smoothed(1.0)[1]
        np.testing.assert_allclose(grad, [0.5, 0.5], atol=1e-15)

    def test_psd_dominant_eigenvalue(self):
        grad = NegSemidef(2).prepare(np.diag([1.0, 0.0])).smoothed(0.01)[1]
        np.testing.assert_allclose(grad, np.diag([1.0, 0.0]), atol=1e-10)

    def test_pcone_zero_block(self):
        grad = PCone(2).prepare([0.0, 0.0, 5.0]).smoothed(1.0)[1]
        np.testing.assert_allclose(grad, [0.0, 0.0, -1.0], atol=1e-15)

    def test_finite_differences_200_per_family(self, rng):
        for oracle, sample in family_cases():
            for _ in range(200):
                y = sample(rng)
                mu = 10.0 ** rng.uniform(-3, 1)
                d = sample(rng)
                grad = oracle.prepare(y).smoothed(mu)[1]
                fd = directional_derivative(lambda z: oracle.prepare(z).value(mu), y, d)
                exact = float(np.vdot(grad, d))
                assert fd == pytest.approx(exact, rel=1e-6, abs=1e-6)

    def test_base_membership(self, rng):
        for oracle, sample in family_cases():
            for _ in range(200):
                y = sample(rng)
                mu = 10.0 ** rng.uniform(-6, 1)
                u = oracle.prepare(y).smoothed(mu)[1]
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
                bound = smoothing(oracle).gradient_lipschitz(mu)
                gy = oracle.prepare(y).smoothed(mu)[1]
                gz = oracle.prepare(z).smoothed(mu)[1]
                lhs = float(np.linalg.norm(np.asarray(gy) - np.asarray(gz)))
                assert lhs <= bound * float(np.linalg.norm(np.asarray(y) - np.asarray(z))) * (
                    1 + 1e-8
                ) + 1e-15


class TestCertificates:
    def test_orthant_cert_values(self):
        cert = smoothing(NonposOrthant(8))
        assert cert.alpha1 == 0.0
        assert cert.alpha2 == 1.0
        assert cert.alpha3 == pytest.approx(math.log(8) + 1e-5)
        assert cert.alpha4 == 1e-5
        assert cert.base_norm_bound == 1.0

    def test_psd_cert_values(self):
        cert = smoothing(NegSemidef(4))
        assert (cert.alpha1, cert.alpha2, cert.alpha4) == (0.0, 1.0, 1e-5)
        assert cert.alpha3 == pytest.approx(math.log(4) + 1e-5)
        assert cert.base_norm_bound == 1.0

    def test_pcone_cert_values(self):
        cert = smoothing(PCone(3))
        assert cert.alpha3 == pytest.approx(1.0 + 1e-5)
        assert cert.base_norm_bound == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize("family", [NonposOrthant, NegSemidef, PCone])
    @pytest.mark.parametrize("m, match", [
        (2.5, "m must be an integer"), (2.0, "m must be an integer"),
        (True, "m must be an integer"), (0, "^{family}: need m >= 1, got 0$"),
    ])
    def test_non_numeric_argument_rejected(self, family, m, match):
        # m = 2.5 became 2; the range message names the family's class
        with pytest.raises(ValueError, match=match.format(family=family.__name__)):
            family(m)

    @pytest.mark.usefixtures("no_shift")
    def test_one_value_log_sum_exp_without_shift(self):
        # log-sum-exp over one value is exact: gap slope log(1) + 0 = 0
        assert smoothing(NonposOrthant(1)).alpha3 == 0.0
        assert smoothing(NegSemidef(1)).alpha3 == 0.0


class TestPolarResidual:
    def test_psd_residual_reads_the_smallest_eigenvalue(self, rng):
        # an exactly symmetric v is decomposed as it is
        oracle = NegSemidef(4)
        for _ in range(10):
            v = random_symmetric(rng, 4)
            assert polar_residual(oracle, v) == max(0.0, -float(np.linalg.eigh(v)[0][0]))
        assert polar_residual(oracle, np.eye(4)) == 0.0

    @pytest.mark.parametrize("factor", [1.01, 2.0, 1e6])
    def test_psd_asymmetry_above_tolerance_rejected(self, rng, factor):
        # the symmetry rule of prepare: no silent average past SYMMETRY_TOL
        v = random_symmetric(rng, 10)
        bump = factor * SYMMETRY_TOL * (1.0 + np.linalg.norm(v)) / math.sqrt(2.0)
        v[0, 1] += 0.5 * bump
        v[1, 0] -= 0.5 * bump
        with pytest.raises(ValueError, match="asymmetry"):
            polar_residual(NegSemidef(10), v)

    def test_pcone_residual_reads_the_norm_excess(self):
        oracle = PCone(2)
        assert polar_residual(oracle, [3.0, 4.0, -5.0]) == 0.0
        assert polar_residual(oracle, [3.0, 4.0, -2.0]) == 3.0
        assert polar_residual(oracle, [0.0, 0.0, 1.0]) == 1.0

    @pytest.mark.parametrize("oracle, bad", [
        (NonposOrthant(2), [math.nan, 1.0]), (NonposOrthant(2), [0.0, -math.inf]),
        (PCone(2), [math.nan, 0.0, 0.0]), (PCone(2), [0.0, 0.0, math.inf]),
        (NegSemidef(2), [[math.nan, 0.0], [0.0, 1.0]]),
        (NegSemidef(2), [[0.0, math.inf], [math.inf, 0.0]]),
    ], ids=["orthant-nan", "orthant-inf", "pcone-nan", "pcone-inf", "psd-nan", "psd-inf"])
    def test_nonfinite_multiplier_rejected(self, oracle, bad):
        # a NaN or inf entry is not read as membership of the polar cone
        with pytest.raises(ValueError, match="non-finite entries in multiplier"):
            polar_residual(oracle, bad)

    @pytest.mark.parametrize("oracle, bad", [
        (NonposOrthant(2), [-1.0]), (NonposOrthant(2), -np.ones((2, 1))),
        (PCone(2), [1.0]), (PCone(2), [0.0, 0.0]), (PCone(2), np.zeros(4)),
        (NegSemidef(2), np.eye(3)), (NegSemidef(2), np.zeros(4)),
        (NegSemidef(2), object()),
    ], ids=["orthant-short", "orthant-column", "pcone-one", "pcone-short", "pcone-long",
            "psd-large", "psd-vector", "psd-object"])
    def test_misshapen_multiplier_rejected(self, oracle, bad):
        with pytest.raises(ValueError, match="multiplier"):
            polar_residual(oracle, bad)


class TestPreparedPoint:
    MUS = (2.0, 0.3, 1e-3, 1e-9, MU_FLOOR)

    def test_one_point_serves_every_mu(self, rng):
        # one prepared point answers bitwise like a fresh one, whatever mu
        # it was asked about before
        for oracle, sample in family_cases():
            for _ in range(5):
                y = sample(rng)
                point = oracle.prepare(y)
                assert point.support == oracle.prepare(y).support == oracle.support_value(y)
                for mu in self.MUS:
                    value, (smoothed, grad) = point.value(mu), point.smoothed(mu)
                    fresh = oracle.prepare(y)
                    assert value == smoothed == fresh.value(mu)
                    np.testing.assert_array_equal(grad, fresh.smoothed(mu)[1])

    def test_below_floor_rejected(self):
        # every entry point of every family rejects a mu below the floor, as
        # it rejects a nonpositive one, and accepts the floor itself
        for oracle, sample in family_cases():
            point = oracle.prepare(sample(np.random.default_rng(1)))
            for evaluate in (point.value, lambda mu: point.smoothed(mu)[1]):
                for mu in (0.1 * MU_FLOOR, np.nextafter(MU_FLOOR, 0.0), 0.0, math.inf):
                    with pytest.raises(ValueError, match="smoothing parameter"):
                        evaluate(mu)
                assert np.all(np.isfinite(evaluate(MU_FLOOR)))

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

    def test_interleaved_mu_matches_fresh_logsumexp(self, rng):
        # value and smoothed asked in interleaved mu order read the same bits
        # as a log-sum-exp computed afresh for each question
        alpha4 = cones.SHIFT
        orthant, psd = NonposOrthant(5), NegSemidef(4)
        order = [("v", 0.3), ("g", 0.3), ("g", 1e-3), ("v", 0.3), ("v", 1e-3),
                 ("g", 0.3), ("g", 0.3), ("v", 2.0), ("g", 1e-3), ("v", 2.0)]
        for _ in range(10):
            vec, mat = rng.normal(0.0, 3.0, 5), random_symmetric(rng, 4)
            vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
            vals, vecs = vals[::-1], vecs[:, ::-1]
            points = orthant.prepare(vec), psd.prepare(mat)
            for ask, mu in order:
                if ask == "v":
                    assert points[0].value(mu) == logsumexp(vec, mu)[0] + alpha4 * mu
                    assert points[1].value(mu) == logsumexp(vals, mu)[0] + alpha4 * mu
                else:
                    (value0, grad0), (value1, grad1) = (p.smoothed(mu) for p in points)
                    assert value0 == logsumexp(vec, mu)[0] + alpha4 * mu
                    assert value1 == logsumexp(vals, mu)[0] + alpha4 * mu
                    np.testing.assert_array_equal(grad0, logsumexp(vec, mu)[1])
                    root = vecs * np.sqrt(logsumexp(vals, mu)[1])
                    np.testing.assert_array_equal(grad1, root @ root.T)

    @pytest.mark.parametrize("m", [1, 2, 5, 10, 60])
    def test_spectral_gradient_exactly_symmetric(self, rng, m):
        oracle = NegSemidef(m)
        for _ in range(20):
            point = oracle.prepare(random_symmetric(rng, m))
            for mu in self.MUS:
                grad = point.smoothed(mu)[1]
                np.testing.assert_array_equal(grad, grad.T)

    @pytest.mark.parametrize("n, m", [(20, 10), (100, 60)])
    def test_exactly_symmetric_argument_decomposed_as_is(self, rng, n, m):
        # G(x) from the NSDP map is exactly symmetric; eigh of it as it is
        # gives the bits of eigh of its symmetrization
        g = nsdp_problem(generate_nsdp(n, m, 3)).g
        oracle = NegSemidef(m)
        for _ in range(10):
            y = g.value(rng.normal(0.0, 1.0, n) * rng.uniform(1e-2, 1e2))
            np.testing.assert_array_equal(y, y.T)
            point = oracle.prepare(y)
            vals, vecs = np.linalg.eigh(0.5 * (y + y.T))
            np.testing.assert_array_equal(point.vals, vals[::-1])
            np.testing.assert_array_equal(point.vecs, vecs[:, ::-1])

    def test_rounding_asymmetry_symmetrized(self, rng):
        # a matrix off symmetric by 1e-14 relative is decomposed after
        # symmetrization, not read one triangle
        m = 10
        for _ in range(10):
            y = random_symmetric(rng, m)
            y = y + 1e-14 * np.linalg.norm(y) * rng.normal(0.0, 1.0, (m, m)) / m
            sym = 0.5 * (y + y.T)
            vals, vecs = np.linalg.eigh(sym)
            assert not np.array_equal(np.linalg.eigh(y)[0], vals)
            point = NegSemidef(m).prepare(y)
            np.testing.assert_array_equal(point.vals, vals[::-1])
            np.testing.assert_array_equal(point.vecs, vecs[:, ::-1])

    @pytest.mark.parametrize("factor", [1.01, 2.0, 1e6])
    def test_asymmetry_above_tolerance_rejected(self, rng, factor):
        y = random_symmetric(rng, 10)
        bump = factor * SYMMETRY_TOL * (1.0 + np.linalg.norm(y)) / math.sqrt(2.0)
        y[0, 1] += 0.5 * bump
        y[1, 0] -= 0.5 * bump
        with pytest.raises(ValueError, match="^matrix asymmetry "):
            NegSemidef(10).prepare(y)

    def test_points_hold_no_mutable_state(self, rng):
        # a prepared point is never changed: value and smoothed at every mu
        # leave each attribute as it was, the same object with the same
        # bits, and writing into a returned gradient changes no later answer
        for oracle, sample in family_cases():
            for _ in range(3):
                y = sample(rng)
                point, fresh = oracle.prepare(y), oracle.prepare(y)
                before = dict(vars(point))
                kept = {name: np.copy(v) for name, v in before.items()}
                for mu in self.MUS:
                    point.value(mu)
                    point.smoothed(mu)[1][...] = 7.0
                assert vars(point).keys() == before.keys()
                for name, v in vars(point).items():
                    assert v is before[name], name
                    np.testing.assert_array_equal(v, kept[name], err_msg=name)
                for mu in self.MUS:
                    value, grad = point.smoothed(mu)
                    assert value == point.value(mu) == fresh.value(mu)
                    np.testing.assert_array_equal(grad, fresh.smoothed(mu)[1])
