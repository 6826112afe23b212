"""Seeded instances of the three benchmark workloads.

Seed 0 reproduces the reference panels exactly.  Any other seed applies a
seeded exact symmetry to every reference instance: a permutation of the
variables for all workloads, an orthogonal congruence ``V A_i V'`` of the
constraint matrices for the NSDP workloads, and sign flips for the
second-order-cone workload.  The transformed problem has the same optimal
value and the same difficulty, but a different floating-point trajectory,
so a claim can be rechecked on held-out seeds while the work per pass (and
hence the benchmark's spread across seeds) stays comparable.  Fresh random
NSDP seeds are not used: their outer-iteration counts range from 1 to over
3,000, which no per-pass bound could absorb.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from smba import NsdpInstance, generate_nsdp, norm_ball_problem, nsdp_problem
from smba.problems import DCProblem, L1Concave

SOCP_N = 200
SOCP_RADIUS_SHARE = 0.5
SOCP_P2_WEIGHT = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    instance_seeds: Tuple[int, ...]
    eps: float
    generate: Callable[[int], object]  # instance seed -> raw instance
    transform: Callable[[object, np.random.Generator], object]
    build: Callable[[object], DCProblem]


@dataclass(frozen=True)
class Instance:
    seed: int  # reference instance seed
    problem: DCProblem


def _orthogonal(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _nsdp_transform(inst: NsdpInstance, rng) -> NsdpInstance:
    p = rng.permutation(inst.n)
    V = _orthogonal(rng, inst.m)
    A = np.concatenate([inst.A[:1], inst.A[1:][p]])
    A = V @ A @ V.T
    A = 0.5 * (A + A.transpose(0, 2, 1))
    return dataclasses.replace(inst, Q=inst.Q[p][:, p], b=inst.b[p], c=inst.c[p],
                               d=inst.d[p], A=A)


def _socp_generate(seed: int) -> np.ndarray:
    return np.random.Generator(np.random.Philox(key=int(seed))).standard_normal(SOCP_N)


def _socp_transform(c: np.ndarray, rng) -> np.ndarray:
    p = rng.permutation(c.size)
    return rng.choice([-1.0, 1.0], size=c.size) * c[p]


def _socp_build(c: np.ndarray) -> DCProblem:
    prob = norm_ball_problem(c, SOCP_RADIUS_SHARE * float(np.linalg.norm(c)))
    return dataclasses.replace(prob, p2=L1Concave(SOCP_P2_WEIGHT))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("nsdp-desk", (1, 6, 10, 15, 16), 1e-7,
                 lambda s: generate_nsdp(20, 10, s), _nsdp_transform, nsdp_problem),
        Workload("nsdp-large", (1, 2), 1e-5,
                 lambda s: generate_nsdp(100, 60, s), _nsdp_transform, nsdp_problem),
        Workload("socp-dc", (1, 2), 1e-5, _socp_generate, _socp_transform, _socp_build),
    )
}


def transform_rng(seed: int, instance_seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) << 32) | int(instance_seed)))


def build_panel(workload: Workload, seed: int) -> Tuple[List[Instance], float]:
    """The workload's instances for ``seed`` and the seconds spent generating them."""
    gen_s = 0.0
    panel = []
    for s in workload.instance_seeds:
        t0 = time.perf_counter()
        raw = workload.generate(s)
        if seed:
            raw = workload.transform(raw, transform_rng(seed, s))
        gen_s += time.perf_counter() - t0
        panel.append(Instance(seed=s, problem=workload.build(raw)))
    return panel, gen_s
