import copy
import dataclasses
import gc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smba.cones import NonposOrthant
from smba.errors import UnsupportedFamilyError
from smba.nsdp import generate_nsdp, nsdp_problem
from smba.problems import (
    ConstraintMap,
    DCProblem,
    L1Concave,
    L1Regularizer,
    ZeroConcave,
    ZeroRegularizer,
    box_problem,
    norm_ball_problem,
    objective_value,
    pcone_lift_map,
    poly_quartic_objective,
    psd_affine_map,
    psd_affine_problem,
    shift_map,
)
from smba.solver import SolverConfig, run

from conftest import directional_derivative
from helpers import LinearConcave, composite_gradient, composite_value, smoothing


class TestRegularizers:
    def test_zero_contract(self, rng):
        p1 = ZeroRegularizer()
        z = rng.normal(0, 1, 4)
        assert p1.value(z) == 0.0
        np.testing.assert_array_equal(p1.prox(z, 0.7), z)
        u = rng.normal(0, 1, 4)
        assert p1.subdiff_distance(z, u) == pytest.approx(np.linalg.norm(u))

    def test_l1_prox_is_soft_threshold(self):
        p1 = L1Regularizer([1.0, 1.0])
        np.testing.assert_allclose(p1.prox(np.array([2.0, -0.5]), 1.0), [1.0, 0.0])
        np.testing.assert_allclose(p1.prox(np.array([2.0, -3.0]), 0.5), [1.5, -2.5])

    def test_l1_prox_solves_the_prox_problem(self, rng):
        # oracle: dense 1-D scan of P1(u) + (1/2t) (u - z)^2
        w = 0.8
        p1 = L1Regularizer([w])
        for _ in range(20):
            z = float(rng.normal(0, 2))
            t = float(rng.uniform(0.1, 3))
            u = np.linspace(-5, 5, 200001)
            vals = w * np.abs(u) + (u - z) ** 2 / (2 * t)
            best = u[np.argmin(vals)]
            got = p1.prox(np.array([z]), t)[0]
            assert got == pytest.approx(best, abs=1e-4)

    def test_l1_subdiff_distance_cases(self):
        p1 = L1Regularizer([1.0])
        # at zero the subdifferential is the interval [-1, 1]
        assert p1.subdiff_distance(np.array([0.0]), np.array([0.5])) == 0.0
        assert p1.subdiff_distance(np.array([0.0]), np.array([1.5])) == pytest.approx(0.5)
        # away from zero it is the singleton {sign}
        assert p1.subdiff_distance(np.array([1.0]), np.array([0.5])) == pytest.approx(1.5)
        assert p1.subdiff_distance(np.array([-2.0]), np.array([1.0])) == 0.0

    def test_l1_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            L1Regularizer([-0.1])

    @pytest.mark.parametrize("weights", [[np.nan], [1.0, np.nan], [np.nan, -1.0], [1.0, np.inf]])
    def test_l1_nan_weight_rejected(self, weights):
        with pytest.raises(ValueError, match="non-finite entries in l1 weights"):
            L1Regularizer(weights)

    @pytest.mark.parametrize("weights", [
        [1.0 + 0.5j, 2.0], np.array([1.0, 2.0], dtype=complex), [True, False], ["1", "2"],
        np.array([1.0, 2.0], dtype=object),
    ], ids=["complex", "complex-array", "bool", "text", "object"])
    def test_l1_nonreal_weights_rejected(self, weights):
        # complex weights were read as their real part (with one
        # ComplexWarning), bools as 0 and 1, and text parsed as numbers
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="l1 weights is not an array of numbers"):
                L1Regularizer(weights)

    def test_l1_weights_assigned_later_are_checked(self):
        # the one check runs on every assignment, and a rejected one leaves
        # the weights and their thresholds as they were
        p1 = L1Regularizer([1.0, 2.0])
        for weights, match in (([1.0, np.nan], "non-finite"), ([1.0, -2.0], "nonnegative"),
                               ([1j, 2.0], "not an array of numbers")):
            with pytest.raises(ValueError, match=match):
                p1.weights = weights
        np.testing.assert_array_equal(p1.weights, [1.0, 2.0])
        np.testing.assert_array_equal(p1.thresholds, [[1.0, 2.0], [-1.0, -2.0]])

    def test_l1_thresholds_follow_the_weights(self):
        # the (w, -w) rows the ball subproblem reads are formed whenever the
        # weights are assigned, in the constructor or later, and a copy
        # carries them
        p1 = L1Regularizer([1.0, 0.0, 2.5])
        np.testing.assert_array_equal(p1.thresholds, [[1.0, 0.0, 2.5], [-1.0, -0.0, -2.5]])
        other = copy.copy(p1)
        other.weights = np.array([0.5, 3.0, 0.0])
        np.testing.assert_array_equal(other.thresholds, [[0.5, 3.0, 0.0], [-0.5, -3.0, -0.0]])
        np.testing.assert_array_equal(p1.thresholds[0], p1.weights)


class TestConcaveTerms:
    def test_zero(self):
        p2 = ZeroConcave()
        assert p2.value(np.ones(3)) == 0.0
        np.testing.assert_array_equal(p2.subgradient(np.ones(3)), np.zeros(3))

    def test_convexity_probe(self, rng):
        # value(z) >= value(x) + <g, z - x> for every subgradient returned
        terms = [LinearConcave(rng.normal(0, 1, 4)), L1Concave(0.7), ZeroConcave()]
        for p2 in terms:
            for _ in range(50):
                x, z = rng.normal(0, 2, 4), rng.normal(0, 2, 4)
                g = p2.subgradient(x)
                assert p2.value(z) >= p2.value(x) + float(np.dot(g, z - x)) - 1e-10

    @pytest.mark.parametrize("weight, match", [
        (np.nan, "weight must be a finite real number"), (-0.5, "weight must be nonnegative"),
        (np.inf, "weight must be a finite real number"),
    ])
    def test_l1_bad_weight_rejected(self, weight, match):
        with pytest.raises(ValueError, match=match):
            L1Concave(weight)

    @pytest.mark.parametrize("weight", [np.complex128(1), 1 + 0j, True, np.bool_(True), "1"],
                             ids=["numpy-complex", "complex", "bool", "numpy-bool", "text"])
    def test_l1_nonreal_weight_rejected(self, weight):
        # a numpy complex and a bool became weight 1.0; a Python complex
        # escaped as TypeError
        with pytest.raises(ValueError, match="weight must be a finite real number"):
            L1Concave(weight)

    def test_l1_zero_weight_accepted(self):
        p2 = L1Concave(0.0)
        assert p2.value(np.array([1.0, -2.0])) == 0.0

    def test_l1_tie_broken_toward_zero(self):
        g = L1Concave(1.0).subgradient(np.array([0.0, 2.0, -3.0]))
        np.testing.assert_array_equal(g, [0.0, 1.0, -1.0])


class TestObjectives:
    def test_quadratic_plus_l1(self):
        # quadratic with identity curvature plus unit l1 weight
        prob = box_problem(c=[0.0, 0.0], b=[10.0, 10.0], l1_weight=1.0)
        x = np.array([1.0, -1.0])
        assert objective_value(prob, x) == pytest.approx(1.0 + 2.0)

    def test_quartic_term(self):
        f = poly_quartic_objective(np.zeros((1, 1)), np.zeros(1), np.zeros(1), np.array([4.0]))
        assert f.value(np.array([1.0])) == pytest.approx(1.0)
        np.testing.assert_allclose(f.gradient(np.array([1.0])), [4.0])

    def test_cubed_abs_gradient(self):
        # d/dx |x|^3 = 3 x |x|; with coefficient c/3 the gradient is c x |x|
        f = poly_quartic_objective(np.zeros((1, 1)), np.zeros(1), np.array([3.0]), np.zeros(1))
        np.testing.assert_allclose(f.gradient(np.array([-2.0])), [-12.0])

    QUARTIC_ARGS = {"Q": np.eye(2), "b": np.zeros(2), "cubic": np.ones(2), "quartic": np.ones(2)}

    @pytest.mark.parametrize("field, value, match", [
        ("Q", np.eye(2) * (1 + 1j), "Q is not an array of numbers"),
        ("b", ["1", "2"], "b is not an array of numbers"),
        ("quartic", [True, False], "quartic is not an array of numbers"),
        ("cubic", np.array([1.0, 2.0], dtype=object), "cubic is not an array of numbers"),
        ("Q", np.eye(3), r"Q: expected shape \(2, 2\), got \(3, 3\)"),
        ("Q", np.ones(4), r"Q: expected shape \(2, 2\), got \(4,\)"),
        ("b", np.zeros((2, 2)), r"b: expected shape \(4,\), got \(2, 2\)"),
        ("cubic", np.ones(3), r"cubic: expected shape \(2,\), got \(3,\)"),
        ("quartic", [1.0, np.inf], "non-finite entries in quartic"),
    ], ids=["complex-Q", "text-b", "bool-quartic", "object-cubic", "big-Q", "flat-Q",
            "matrix-b", "long-cubic", "inf-quartic"])
    def test_quartic_objective_rejects_bad_arrays(self, field, value, match):
        # each array was converted by np.asarray(dtype=float): a complex Q
        # read as its real part with a ComplexWarning, a text b parsed, a
        # bool quartic taken as 0 and 1, and no shape checked
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{match}"):
                poly_quartic_objective(**{**self.QUARTIC_ARGS, field: value})

    def test_quartic_objective_keeps_float_arrays(self):
        # float64 arrays are kept as they are, lists of numbers converted
        f = poly_quartic_objective([[2.0, 0.0], [0.0, 2.0]], [1, -1], [0.0, 0.0], [0.0, 0.0])
        x = np.array([1.0, 2.0])
        assert f.value(x) == 0.5 * 10.0 - 1.0
        np.testing.assert_array_equal(f.gradient(x), [3.0, 3.0])

    def test_gradient_matches_fd(self, rng):
        n = 4
        Q = rng.normal(0, 1, (n, n))
        Q = Q @ Q.T
        f = poly_quartic_objective(Q, rng.normal(0, 1, n), rng.uniform(0, 2, n), rng.uniform(0, 2, n))
        for _ in range(30):
            x = rng.normal(0, 1.5, n)
            d = rng.normal(0, 1, n)
            fd = directional_derivative(f.value, x, d)
            assert fd == pytest.approx(float(np.dot(f.gradient(x), d)), rel=1e-6, abs=1e-6)


class TestCompositeSmoothing:
    @pytest.mark.usefixtures("no_shift")
    def test_orthant_composite_value_at_boundary(self):
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 1.0])
        assert composite_value(prob, np.array([1.0, 1.0]), 1.0) == pytest.approx(
            np.log(2.0), abs=1e-14
        )

    @pytest.mark.usefixtures("no_shift")
    def test_orthant_composite_value_interior(self):
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 1.0])
        val = composite_value(prob, np.array([0.0, 0.0]), 0.1)
        assert val == pytest.approx(-1.0 + 0.1 * np.log(2.0), abs=1e-12)

    @pytest.mark.usefixtures("no_shift")
    def test_psd_composite_value_diagonal(self):
        # constant map G(x) = -diag(2, 3): kernel evaluated at the matrix itself
        A = np.zeros((2, 2, 2))
        A[0] = np.diag([2.0, 3.0])
        prob = psd_affine_problem(c=[0.0], A=A)
        val = composite_value(prob, np.array([0.0]), 1.0)
        assert val == pytest.approx(np.log(np.exp(-2.0) + np.exp(-3.0)), abs=1e-12)

    def test_orthant_composite_gradient_identity_jacobian(self):
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 1.0])
        grad = composite_gradient(prob, np.array([1.0, 1.0]), 1.0)
        np.testing.assert_allclose(grad, [0.5, 0.5], atol=1e-14)

    def test_pcone_composite_gradient_vanishes_at_origin(self):
        prob = norm_ball_problem(c=[0.0, 0.0], radius=1.0)
        grad = composite_gradient(prob, np.zeros(2), 1.0)
        np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-15)

    def test_pcone_lift_outputs_are_independent(self):
        # the lifted coordinate's tail is built once; each value is a new
        # array, so writing into one leaves the tail and later values as
        # they were, and a later value leaves an earlier one as it was
        g, x = pcone_lift_map(2.5), np.array([1.0, -1.0])
        first = g.value(x)
        first[:] = 7.0
        assert g.value(x).tolist() == [1.0, -1.0, 2.5] and x.tolist() == [1.0, -1.0]
        assert first.tolist() == [7.0, 7.0, 7.0]
        u = np.array([3.0, 4.0, 5.0])
        adj = g.adjoint_apply(x, u)
        adj[:] = 0.0
        assert g.adjoint_apply(x, u).tolist() == [3.0, 4.0] and u.tolist() == [3.0, 4.0, 5.0]

    @pytest.mark.parametrize("t", [2, Fraction(5, 2)], ids=["int", "fraction"])
    def test_pcone_lift_of_any_real_radius(self, t):
        # the lifted coordinate is a float, whatever real type the radius has
        value = pcone_lift_map(t).value(np.array([1.0, -1.0]))
        assert value.dtype == np.float64 and value.tolist() == [1.0, -1.0, float(t)]

    def test_pcone_gradient_never_divides_the_radius(self):
        # the lifted radius 1e300 sits in the last entry of G(0); divided by
        # the root sqrt(0 + mu^2) = 1e-12, it would overflow
        prob = norm_ball_problem(c=[1.0, 2.0], radius=1e300)
        point = prob.cone.prepare(prob.g.value(np.zeros(2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = point.smoothed(1e-12)
        assert value == -1e300 and grad.tolist() == [0.0, 0.0, -1.0]

    def test_composite_sandwich(self, rng):
        prob = box_problem(c=[0.0, 0.0], b=rng.normal(0, 1, 2))
        a3 = smoothing(prob.cone).alpha3
        for _ in range(100):
            x = rng.normal(0, 2, 2)
            mu = 10.0 ** rng.uniform(-5, 1)
            gb = prob.cone.support_value(prob.g.value(x))
            val = composite_value(prob, x, mu)
            assert gb - 1e-12 <= val <= gb + a3 * mu + 1e-12

    def test_composite_mu_monotone(self, rng):
        prob = norm_ball_problem(c=[0.0, 0.0], radius=1.5)
        for _ in range(100):
            x = rng.normal(0, 1, 2)
            mu1 = 10.0 ** rng.uniform(-5, 0)
            mu0 = mu1 * rng.uniform(1.5, 10)
            v0 = composite_value(prob, x, mu0)
            v1 = composite_value(prob, x, mu1)
            assert v1 <= v0 - 1e-5 * (mu0 - mu1) + 1e-12

    def test_midpoint_convexity_affine_map(self, rng):
        # affine G and convex f with P2 = 0: the smoothed constraint is convex
        prob = box_problem(c=[0.0, 0.0, 0.0], b=rng.normal(0, 1, 3))
        for _ in range(200):
            x, z = rng.normal(0, 3, 3), rng.normal(0, 3, 3)
            mu = 10.0 ** rng.uniform(-4, 1)
            mid = composite_value(prob, 0.5 * (x + z), mu)
            avg = 0.5 * (composite_value(prob, x, mu) + composite_value(prob, z, mu))
            assert mid <= avg + 1e-10

    def test_gradient_bounded_over_mu_range(self, rng):
        prob = box_problem(c=[0.0, 0.0], b=[1.0, 1.0])
        x = rng.normal(0, 1, 2)
        for mu in 10.0 ** np.linspace(-6, 1, 15):
            g = composite_gradient(prob, x, mu)
            assert np.all(np.isfinite(g))
            assert float(np.linalg.norm(g)) <= smoothing(prob.cone).base_norm_bound + 1e-12


class TestAdjointConsistency:
    def test_adjoint_matches_fd_of_map(self, rng):
        A = rng.normal(0, 1, (4, 3, 3))
        A = 0.5 * (A + np.transpose(A, (0, 2, 1)))
        maps = [
            shift_map(rng.normal(0, 1, 3)),
            psd_affine_problem(c=np.zeros(3), A=A).g,
        ]
        eps = 1e-6
        for g in maps:
            for _ in range(30):
                x = rng.normal(0, 1, 3)
                d = rng.normal(0, 1, 3)
                u = np.asarray(g.value(x), dtype=float)
                u = rng.normal(0, 1, u.shape)
                if u.ndim == 2:
                    u = 0.5 * (u + u.T)
                lhs = float(np.dot(g.adjoint_apply(x, u), d))
                rhs = float(
                    np.vdot(u, (np.asarray(g.value(x + eps * d)) - np.asarray(g.value(x - eps * d))))
                    / (2 * eps)
                )
                assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-7)


def tensordot_psd_map(A) -> ConstraintMap:
    """The PSD affine map written with tensordot over the full stack: the
    reference for the half-size stack."""
    A = np.asarray(A, dtype=float)
    return ConstraintMap(
        value=lambda x: -A[0] - np.tensordot(np.asarray(x, dtype=float), A[1:], axes=(0, 0)),
        adjoint_apply=lambda x, u: -np.tensordot(A[1:], np.asarray(u, dtype=float),
                                                 axes=([1, 2], [0, 1])),
    )


def random_stack(rng, n, m):
    A = rng.normal(0, 1, (n + 1, m, m))
    return 0.5 * (A + np.transpose(A, (0, 2, 1)))


EPS = np.finfo(float).eps


class TestHalfSizeStack:
    @pytest.mark.parametrize("n, m", [(20, 10), (100, 60)])
    def test_within_rounding_of_tensordot(self, rng, n, m):
        # both maps sum the same terms in different orders, so they agree to
        # the dot-product rounding bound: count * eps * sum |terms|, entrywise
        A = random_stack(rng, n, m)
        fast, ref = psd_affine_map(A), tensordot_psd_map(A)
        absA = np.abs(A)
        for _ in range(50):
            x = rng.normal(0, 1, n) * rng.uniform(1e-3, 1e3)
            y = fast.value(x)
            np.testing.assert_array_equal(y, y.T)
            terms = absA[0] + np.tensordot(np.abs(x), absA[1:], axes=(0, 0))
            assert np.all(np.abs(y - ref.value(x)) <= (n + 1) * EPS * terms)
            u = rng.normal(0, 1, (m, m))
            for v in (u, 0.5 * (u + u.T)):
                terms = np.tensordot(absA[1:], np.abs(v), axes=([1, 2], [0, 1]))
                err = np.abs(fast.adjoint_apply(x, v) - ref.adjoint_apply(x, v))
                assert np.all(err <= (m * m + 1) * EPS * terms)

    def test_trace_equal_across_stack_layouts(self):
        # a whole solve reads the same bits through maps built from C-ordered,
        # Fortran-ordered and non-contiguous copies of one stack
        base = nsdp_problem(generate_nsdp(20, 10, 2))
        A = generate_nsdp(20, 10, 2).A
        wide = np.zeros((21, 10, 20))
        wide[:, :, ::2] = A
        copies = [np.ascontiguousarray(A), np.asfortranarray(A), wide[:, :, ::2]]
        assert not copies[1].flags.c_contiguous
        assert not (copies[2].flags.c_contiguous or copies[2].flags.f_contiguous)
        cfg = SolverConfig(eps=1e-7)
        reports = [run(dataclasses.replace(base, g=psd_affine_map(c)), cfg, np.zeros(20))
                   for c in copies]
        a = reports[0]
        assert a.status.value == "converged"
        assert a.iterations == 84
        # every column but the last, elapsed_s, compared bit for bit
        assert a.trace[0]._fields[-1] == "elapsed_s"
        bits = lambda report: np.array([row[:-1] for row in report.trace], dtype=float).tobytes()
        for b in reports[1:]:
            assert b.iterations == a.iterations
            assert bits(b) == bits(a)
            assert (b.status, b.objective) == (a.status, a.objective)
            np.testing.assert_array_equal(b.x, a.x)

    @pytest.mark.parametrize("n, m", [(20, 10), (100, 60)])
    def test_bits_follow_a_column_major_triangle_stack(self, rng, n, m):
        # the gathered triangle stack is column-major, and its layout picks
        # the BLAS kernel, so the bits: a C-ordered copy changes them
        A = random_stack(rng, n, m)
        g = psd_affine_map(A)
        rows, cols = np.triu_indices(m)
        tri = np.asfortranarray(A[:, rows, cols])
        where = np.empty((m, m), dtype=np.intp)
        where[rows, cols] = where[cols, rows] = np.arange(rows.size)
        weight = np.where(rows == cols, -0.5, -1.0)
        for _ in range(50):
            x, u = rng.normal(0, 1, n), rng.normal(0, 1, (m, m))
            value = (-tri[0] - x @ tri[1:]).take(where)
            adjoint = tri[1:] @ ((u[rows, cols] + u[cols, rows]) * weight)
            assert g.value(x).tobytes() == value.tobytes()
            assert g.adjoint_apply(x, u).tobytes() == adjoint.tobytes()

    def test_asymmetric_stack_rejected(self, rng):
        A = random_stack(rng, 3, 4)
        A[2, 0, 1] += 1e-6
        with pytest.raises(ValueError, match=r"A\[2\] asymmetry"):
            psd_affine_map(A)
        A[2, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            psd_affine_map(A)
        for stack in (np.zeros((3, 4, 5)), np.eye(4)):
            with pytest.raises(ValueError, match="stack of square matrices"):
                psd_affine_map(stack)
        with pytest.raises(ValueError, match="need n \\+ 1 constraint matrices"):
            psd_affine_problem(np.zeros(3), random_stack(rng, 2, 4))

    @pytest.mark.parametrize("dtype", [complex, str, object, bool])
    @pytest.mark.parametrize("build", [psd_affine_map, lambda A: psd_affine_problem([0.0], A)],
                             ids=["map", "problem"])
    def test_nonreal_stack_rejected(self, build, dtype):
        # a complex stack was read as its real part (with a ComplexWarning),
        # a text one parsed as numbers
        A = np.stack([np.eye(2), np.zeros((2, 2))]).astype(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="constraint matrices is not an array of numbers"):
                build(A)

    def test_asymmetry_within_tolerance_symmetrized(self, rng):
        A = random_stack(rng, 3, 4)
        B = A.copy()
        B[1, 0, 1] += 1e-14
        g, ref = psd_affine_map(B), tensordot_psd_map(A)
        x = rng.normal(0, 1, 3)
        np.testing.assert_array_equal(g.value(x), g.value(x).T)
        np.testing.assert_allclose(g.value(x), ref.value(x), rtol=0, atol=1e-13)

    def test_caller_stack_not_kept(self, rng):
        A = random_stack(rng, 5, 6)
        ref = weakref.ref(A)
        g = psd_affine_map(A)
        del A
        gc.collect()
        assert ref() is None
        assert g.value(np.ones(5)).shape == (6, 6)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), m=st.integers(1, 9), scale=st.floats(-6, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_adjoint_identity(self, n, m, scale, seed):
        # <G*(u), d> = <u, G(x + d) - G(x)> for any square u: G is affine, so
        # the two sides differ by rounding only
        rng = np.random.default_rng(seed)
        A = random_stack(rng, n, m)
        g = psd_affine_map(A)
        x = rng.normal(0, 1, n) * 10.0 ** scale
        d = rng.normal(0, 1, n)
        u = rng.normal(0, 1, (m, m))
        lhs = float(np.dot(g.adjoint_apply(x, u), d))
        rhs = float(np.vdot(u, g.value(x + d) - g.value(x)))
        # the differenced side carries the rounding of G at the scale of x
        size = float(np.tensordot(np.abs(u), np.abs(A[0]) + np.tensordot(
            np.abs(x) + np.abs(d), np.abs(A[1:]), axes=(0, 0)), axes=([0, 1], [0, 1])))
        assert abs(lhs - rhs) <= 4 * (n + m * m + 2) * EPS * size


class TestProblemWiring:
    def test_dcproblem_shapes(self):
        prob = box_problem(c=[1.0, 2.0], b=[0.0, 0.0])
        assert prob.dim == 2
        assert isinstance(prob.cone, NonposOrthant)
        assert isinstance(prob, DCProblem)

    def test_unsupported_regularizer_rejected(self):
        prob = box_problem(c=[1.0, 2.0], b=[3.0, 3.0])

        class Elastic:
            def prox(self, z, t):
                return z / (1.0 + t)

        with pytest.raises(UnsupportedFamilyError):
            dataclasses.replace(prob, p1=Elastic())

        # subclasses of a supported regularizer (e.g. instrumented copies) pass
        class CountingL1(L1Regularizer):
            pass

        assert isinstance(dataclasses.replace(prob, p1=CountingL1(np.ones(2))).p1, CountingL1)

    @pytest.mark.parametrize("weights", [np.ones(3), np.ones(1), np.ones((2, 1)), 1.0],
                             ids=["long", "one", "column", "scalar"])
    def test_misshapen_l1_weights_rejected(self, weights):
        # one weight per coordinate, not left to broadcast or fail in a run
        prob = box_problem(c=[1.0, 2.0], b=[3.0, 3.0])
        with pytest.raises(ValueError, match=r"l1 weights must have shape \(2,\)"):
            dataclasses.replace(prob, p1=L1Regularizer(weights))

    @pytest.mark.parametrize("b, match", [
        ([1.0, 1.0, 1.0], "expected shape"), ([1.0], "expected shape"), (1.0, "expected shape"),
        ([1.0, np.nan], "non-finite"), ([1.0, "a"], "not an array of numbers"),
    ], ids=["long", "short", "scalar", "nan", "text"])
    def test_misshapen_box_bound_rejected(self, b, match):
        with pytest.raises(ValueError, match=match):
            box_problem(c=[1.0, 2.0], b=b)

    @pytest.mark.parametrize("c, match", [
        ([[2.0, -1.0]], r"c: expected shape \(2,\), got \(1, 2\)"),
        ([[2.0], [-1.0]], r"c: expected shape \(2,\), got \(2, 1\)"),
        ([2.0, np.nan], "non-finite entries in c"), ([2.0, "a"], "c is not an array of numbers"),
    ], ids=["row", "column", "nan", "text"])
    @pytest.mark.parametrize("build", [
        lambda c: box_problem(c, [1.0, 1.0]),
        lambda c: norm_ball_problem(c, 1.0),
        lambda c: psd_affine_problem(c, np.stack([-np.eye(2), np.zeros((2, 2)), np.eye(2)])),
    ], ids=["box", "norm_ball", "psd_affine"])
    def test_misshapen_center_rejected(self, build, c, match):
        # at build time: a 2-D c escaped run as a bare broadcast error
        with pytest.raises(ValueError, match=match):
            build(c)

    @pytest.mark.parametrize("weight, match", [
        (np.nan, "non-finite entries in l1 weights"), (1j, "l1 weights is not an array of numbers"),
        (True, "l1 weights is not an array of numbers"),
        ("0.3", "l1 weights is not an array of numbers"), (-0.5, "l1 weights must be nonnegative"),
    ])
    def test_bad_box_l1_weight_rejected(self, weight, match):
        # the weight fills the l1 weights, which pass the one array check:
        # text was parsed as a number, True taken as weight 1.0, and 1j
        # escaped as TypeError
        with pytest.raises(ValueError, match=match):
            box_problem(c=[1.0, 2.0], b=[3.0, 3.0], l1_weight=weight)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, 1j, True, "1"])
    def test_nonfinite_radius_rejected(self, radius):
        # at build time: a run blamed the constraint map for it
        with pytest.raises(ValueError, match="radius must be a finite real number"):
            norm_ball_problem([1.0, 2.0], radius)
