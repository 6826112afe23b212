import json
import math

import numpy as np
import pytest

from smba.nsdp import NsdpInstance, generate_nsdp, load_instance, nsdp_problem, save_instance
from smba.problems import objective_value

from conftest import directional_derivative
from helpers import composite_gradient, composite_value


class TestGeneration:
    def test_bitwise_deterministic(self):
        a = generate_nsdp(50, 20, 7)
        b = generate_nsdp(50, 20, 7)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_different_seeds_differ(self):
        a = generate_nsdp(10, 5, 1)
        b = generate_nsdp(10, 5, 2)
        assert not np.array_equal(a.Q, b.Q)

    def test_a0_eigenvalue_window(self):
        for seed in range(10):
            inst = generate_nsdp(8, 6, seed)
            vals = np.linalg.eigvalsh(inst.A[0])
            assert vals[0] >= 10.0 - 1e-8
            assert vals[-1] <= 100.0 + 1e-8

    def test_psd_structure(self):
        inst = generate_nsdp(12, 6, 3)
        assert np.linalg.eigvalsh(inst.Q)[0] >= -1e-10
        for i in range(inst.n + 1):
            assert np.linalg.eigvalsh(inst.A[i])[0] >= -1e-10
            np.testing.assert_allclose(inst.A[i], inst.A[i].T, atol=1e-14)

    def test_sparse_density_statistics(self):
        # each coordinate is nonzero with probability 0.2; over 100 seeds of
        # n = 50 the sample fraction sits within a few binomial sigmas
        count = total = 0
        for seed in range(100):
            inst = generate_nsdp(50, 2, seed)
            count += int(np.count_nonzero(inst.c))
            total += 50
        frac = count / total
        assert abs(frac - 0.2) < 0.03

    def test_nonnegative_coefficients(self):
        inst = generate_nsdp(30, 4, 11)
        assert np.all(inst.c >= 0) and np.all(inst.d >= 0)

    def test_origin_strictly_feasible(self):
        for seed in range(5):
            inst = generate_nsdp(6, 5, seed)
            prob = nsdp_problem(inst)
            assert prob.cone.support_value(prob.g.value(np.zeros(6))) <= -10.0 + 1e-8

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_nsdp(0, 5, 1)
        with pytest.raises(ValueError):
            generate_nsdp(5, 0, 1)

    def test_numpy_integer_arguments_give_a_savable_instance(self, tmp_path):
        # n and m were kept as numpy integers, which JSON cannot write
        inst = generate_nsdp(np.int64(3), np.int32(2), np.uint8(7))
        assert all(type(v) is int for v in (inst.n, inst.m, inst.seed))
        save_instance(inst, tmp_path / "p.json")
        assert load_instance(tmp_path / "p.json").to_dict() == generate_nsdp(3, 2, 7).to_dict()

    def test_smallest_sizes_accepted(self):
        inst = generate_nsdp(1, 1, 3)
        assert (inst.n, inst.m) == (1, 1)

    @pytest.mark.parametrize("n, m, seed, name", [
        (3, 2, 1.5, "seed"), (3, 2, True, "seed"), (3, 2, "1", "seed"), (3.0, 2, 1, "n"),
        (3, 2.5, 1, "m"), (3, 1 + 0j, 1, "m"),
    ])
    def test_non_integer_argument_rejected(self, n, m, seed, name):
        # a seed of 1.5 was used, and recorded, as seed 1
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            generate_nsdp(n, m, seed)


class TestSerialization:
    def test_roundtrip_file(self, tmp_path):
        inst = generate_nsdp(7, 4, 123)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert path.read_text().endswith("}\n")
        again = load_instance(path)
        assert again.n == inst.n and again.m == inst.m and again.seed == inst.seed
        np.testing.assert_array_equal(again.Q, inst.Q)
        np.testing.assert_array_equal(again.b, inst.b)
        np.testing.assert_array_equal(again.A, inst.A)
        assert again.l1_weight == inst.l1_weight

    def test_schema_fields(self):
        doc = generate_nsdp(3, 2, 0).to_dict()
        assert set(doc) == {"family", "n", "m", "seed", "Q", "b", "c", "d", "A", "l1_weight"}
        assert doc["family"] == "nsdp"

    def test_wrong_family_rejected(self):
        with pytest.raises(ValueError):
            NsdpInstance.from_dict({"family": "qp", "n": 1, "m": 1})

    def test_inconsistent_shapes_rejected(self):
        doc = generate_nsdp(3, 2, 0).to_dict()
        doc["b"] = [1.0, 2.0]
        with pytest.raises(ValueError):
            NsdpInstance.from_dict(doc)

    @pytest.mark.parametrize("key, value, match", [
        ("A", [[[0.0]]], r"A: expected shape \(4, 2, 2\)"),
        ("c", [1.0, "x", 0.0], "c is not an array of numbers"),
        ("Q", [[0.0] * 3] * 2, r"Q: expected shape \(3, 3\)"),
        ("l1_wieght", 0.5, "unknown problem file keys: l1_wieght"),
        ("l1_weight", math.inf, "l1_weight must be a finite real number, got inf"),
    ], ids=["A-shape", "c-text", "Q-shape", "unknown-key", "l1-weight-inf"])
    def test_bad_field_rejected_at_load(self, key, value, match):
        # each field is named, and a misspelt key does not leave a field at
        # its default
        doc = generate_nsdp(3, 2, 0).to_dict()
        doc[key] = value
        with pytest.raises(ValueError, match=match):
            NsdpInstance.from_dict(doc)

    def test_nonfinite_constraint_stack_rejected_at_load(self):
        # not left to the constraint map
        doc = generate_nsdp(3, 2, 0).to_dict()
        doc["A"][2][1][0] = float("nan")
        with pytest.raises(ValueError, match="non-finite entries in A"):
            NsdpInstance.from_dict(doc)


@pytest.fixture(scope="module")
def prob():
    return nsdp_problem(generate_nsdp(6, 4, 5))


class TestProblemOracles:

    def test_objective_matches_manual_formula(self, prob, rng):
        inst = generate_nsdp(6, 4, 5)
        for _ in range(10):
            x = rng.normal(0, 0.5, 6)
            manual = (
                0.25 * np.sum(inst.d * x**4)
                + np.sum(inst.c * np.abs(x) ** 3) / 3.0
                + 0.5 * x @ inst.Q @ x
                + inst.b @ x
                + np.sum(np.abs(x))
            )
            assert objective_value(prob, x) == pytest.approx(manual, rel=1e-12)

    def test_f_gradient_fd(self, prob, rng):
        for _ in range(20):
            x = rng.normal(0, 0.5, 6)
            d = rng.normal(0, 1, 6)
            fd = directional_derivative(prob.f.value, x, d)
            assert fd == pytest.approx(float(np.dot(prob.f.gradient(x), d)), rel=1e-6, abs=1e-6)

    def test_constraint_adjoint_is_trace_products(self, prob, rng):
        inst = generate_nsdp(6, 4, 5)
        x = rng.normal(0, 0.5, 6)
        u = rng.normal(0, 1, (4, 4))
        u = 0.5 * (u + u.T)
        got = prob.g.adjoint_apply(x, u)
        want = np.array([-float(np.sum(inst.A[i + 1] * u)) for i in range(6)])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_composite_gradient_fd(self, prob, rng):
        for _ in range(20):
            x = rng.normal(0, 0.3, 6)
            mu = 10.0 ** rng.uniform(-2, 0)
            d = rng.normal(0, 1, 6)
            grad = composite_gradient(prob, x, mu)
            fd = directional_derivative(lambda z: composite_value(prob, z, mu), x, d)
            assert fd == pytest.approx(float(np.dot(grad, d)), rel=1e-5, abs=1e-5)
