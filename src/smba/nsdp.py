"""Random l1-regularized NSDP instances and their on-disk format.

The instance family is

    min  sum_i (d_i x_i^4 / 4 + c_i |x_i|^3 / 3) + x'Qx / 2 + b'x + w ||x||_1
    s.t. -A_0 - sum_i x_i A_i  negative semidefinite,

with Q and every A_i positive semidefinite and A_0 positive definite
(eigenvalues in [10, 100]), so the origin is always strictly feasible.

All randomness comes from one Philox counter-based generator keyed by the
seed, with a fixed draw order and a sign-fixed QR so orthogonal factors are
unique; identical (n, m, seed) therefore regenerate identical instances on
any platform with IEEE-754 doubles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .cones import NegSemidef, check_keys, check_numbers, checked_array, symmetrized
from .problems import DCProblem, L1Regularizer, ZeroConcave, poly_quartic_objective, psd_affine_map

SPARSE_DENSITY = 0.2


@dataclass(frozen=True)
class NsdpInstance:
    n: int
    m: int
    seed: int
    Q: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    A: np.ndarray  # stack of n + 1 symmetric PSD matrices, A[0] positive definite
    l1_weight: float = 1.0

    def to_dict(self) -> dict:
        d = {"family": "nsdp"}
        for field in fields(self):
            value = getattr(self, field.name)
            d[field.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "NsdpInstance":
        if not isinstance(d, dict):
            raise ValueError(f"problem file must hold a JSON object, got {d!r}")
        if d.get("family") != "nsdp":
            raise ValueError(f"unsupported problem family {d.get('family')!r}")
        check_keys(cls, {key: v for key, v in d.items() if key != "family"}, "problem file")
        scalars = SimpleNamespace(n=d["n"], m=d["m"], seed=d.get("seed", -1),
                                  l1_weight=d.get("l1_weight", 1.0))
        check_numbers(scalars, reals=("l1_weight",), integers=("n", "m", "seed"))
        n, m = scalars.n, scalars.m
        arrays = {key: checked_array(d[key], shape, key) for key, shape in
                  (("Q", (n, n)), ("b", (n,)), ("c", (n,)), ("d", (n,)), ("A", (n + 1, m, m)))}
        return cls(n=n, m=m, seed=scalars.seed, l1_weight=float(scalars.l1_weight), **arrays)


def _orthogonal(rng, k):
    # sign-fixed QR: forcing diag(R) > 0 makes the factor unique (a Gaussian
    # draw leaves no zero on the diagonal)
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def _sparse_positive(rng, k):
    mask = rng.random(k) < SPARSE_DENSITY
    vals = rng.uniform(0.0, 100.0, k)
    return np.where(mask, vals, 0.0)


def generate_nsdp(n: int, m: int, seed: int) -> NsdpInstance:
    """Deterministic random instance; draw order is part of the contract.
    ``n``, ``m`` and ``seed`` must be integers, ``n`` and ``m`` at least 1."""
    check_numbers(SimpleNamespace(n=n, m=m, seed=seed), integers=("n", "m", "seed"))
    n, m, seed = int(n), int(m), int(seed)  # a numpy integer too, so the instance saves
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be >= 1, got n={n!r}, m={m!r}")
    rng = np.random.Generator(np.random.Philox(key=seed))

    U = _orthogonal(rng, n)
    a = _sparse_positive(rng, n)
    c = _sparse_positive(rng, n)
    d = _sparse_positive(rng, n)
    b_bar = rng.normal(10.0, 1.0, n)

    A = np.empty((n + 1, m, m))
    U0 = _orthogonal(rng, m)
    a0 = rng.uniform(10.0, 100.0, m)
    A[0] = symmetrized((U0 * a0) @ U0.T)
    for i in range(1, n + 1):
        Ui = _orthogonal(rng, m)
        ai = _sparse_positive(rng, m)
        A[i] = symmetrized((Ui * ai) @ Ui.T)

    Q = symmetrized((U * a) @ U.T)
    a_support = (a != 0.0).astype(float)
    b = U @ (a_support * b_bar)

    return NsdpInstance(n=n, m=m, seed=seed, Q=Q, b=b, c=c, d=d, A=A)


def nsdp_problem(inst: NsdpInstance) -> DCProblem:
    """First-order oracles of the instance; the adjoint of the constraint map
    is n trace inner products with the A_i.

    The constraint map is ``psd_affine_map(inst.A)``, so the stack passes
    ``smba.cones.symmetrized``; the map stores the upper triangles once and
    keeps no reference to ``inst.A``."""
    return DCProblem(
        f=poly_quartic_objective(inst.Q, inst.b, inst.c, inst.d),
        p1=L1Regularizer(np.full(inst.n, inst.l1_weight)),
        p2=ZeroConcave(),
        g=psd_affine_map(inst.A),
        cone=NegSemidef(inst.m),
        dim=inst.n,
        name=f"nsdp(n={inst.n},m={inst.m},seed={inst.seed})",
    )


def save_instance(inst: NsdpInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(inst.to_dict(), fh)
        fh.write("\n")


def load_instance(path) -> NsdpInstance:
    with open(path) as fh:
        return NsdpInstance.from_dict(json.load(fh))
