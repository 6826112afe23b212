"""Benchmark driver: timed passes over a workload panel, correctness checks,
end-to-end metrics, and the traced run that yields per-layer metrics.

Import this module only after the BLAS thread count is pinned (``run.py``
does that before numpy is loaded).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import smba
from smba.solver import TRACE_COLUMNS, SolveReport

from calibrate import REFERENCE_S, Calibrator
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Instance, Workload, build_panel

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 7
WARMUP_STEPS = 3
PINNED_THREADS = 1
DIGEST_COLUMNS = tuple(c for c in TRACE_COLUMNS if c != "elapsed_s")

END_TO_END_UNITS = {
    "solve_s": "s",
    "iter_ms_p50": "ms",
    "iter_ms_p90": "ms",
    "outer_iters": "count",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "solved_frac": "frac",
}
PER_LAYER_UNITS = {
    "cones.calls_per_iter": "calls/iter",
    "cones.self_s": "s",
    "cones.share": "frac",
    "problems.G.calls_per_iter": "calls/iter",
    "problems.G.self_s": "s",
    "problems.G_adj.calls_per_iter": "calls/iter",
    "problems.G_adj.self_s": "s",
    "problems.f.calls_per_iter": "calls/iter",
    "problems.f.self_s": "s",
    "problems.p1_prox.self_s": "s",
    "problems.p2.self_s": "s",
    "ball_prox.solves": "count",
    "ball_prox.prox_evals_per_solve": "evals/solve",
    "ball_prox.self_s": "s",
    "ball_prox.share": "frac",
    "solver.trials_per_iter": "trials/iter",
    "solver.accept_frac": "frac",
    "solver.self_s": "s",
    "solver.bb_init.self_s": "s",
    "schedules.mu_at.us_per_call": "us",
    "schedules.self_s": "s",
    "diagnostics.calls_per_iter": "calls/iter",
    "diagnostics.self_s": "s",
    "instances.generate_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage": "frac",
}


# ---------------------------------------------------------------------------
# BLAS identification
# ---------------------------------------------------------------------------


def _openblas_query(suffix: str, restype):
    """Call the loaded OpenBLAS's ``*get_<suffix>`` entry point, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas_get_", "openblas_get_"):
            for tail in ("64_", ""):
                fn = getattr(handle, f"{prefix}{suffix}{tail}", None)
                if fn is not None:
                    fn.restype = restype
                    return fn()
    return None


def blas_info() -> Dict[str, object]:
    """BLAS library, the core it dispatched to, and its thread count.

    ``threads_verified`` is false when the library cannot be queried; the
    count is then the pinned environment value.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    threads = _openblas_query("num_threads", ctypes.c_int)
    core = _openblas_query("corename", ctypes.c_char_p)
    return {
        "library": name,
        "core": core.decode() if core else "unknown",
        "threads": threads if threads is not None
        else int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "threads_verified": threads is not None,
    }


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def trace_digest(report: SolveReport) -> str:
    """sha256 of the trace as CSV without the ``elapsed_s`` column.

    Lines are the header and one row per step, fields joined by commas and
    floats written by ``repr``, each line ending in a newline.
    """
    drop = TRACE_COLUMNS.index("elapsed_s")
    h = hashlib.sha256((",".join(DIGEST_COLUMNS) + "\n").encode())
    for row in report.trace:
        vals = [v for i, v in enumerate(row.as_tuple()) if i != drop]
        h.update((",".join(repr(v) for v in vals) + "\n").encode())
    return h.hexdigest()


def check_solve(report: SolveReport, reference: float, rtol: float) -> List[str]:
    """Names of the checks that one solve fails (empty when it passes)."""
    failed = []
    if report.status is not smba.SolveStatus.CONVERGED:
        failed.append(f"status {report.status.value}")
    if not all(row.sigma_B <= 0.0 for row in report.trace):
        failed.append("sigma_B > 0 on a trace row")
    psi = [row.psi for row in report.trace]
    if any(b > a for a, b in zip(psi, psi[1:])):
        failed.append("psi increased")
    if not abs(report.objective - reference) <= rtol * max(1.0, abs(reference)):
        failed.append(f"objective {report.objective!r} vs reference {reference!r}")
    return failed


def load_reference(workload: Workload):
    """Objective tolerance, reference objectives, and committed seed-0 digests."""
    with open(REFERENCE) as fh:
        ref = json.load(fh)[workload.name]
    as_int = lambda d: {int(k): v for k, v in d.items()}
    return ref["objective_rtol"], as_int(ref["objective"]), as_int(ref["seed0_sha256"])


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass
class Solve:
    """What the benchmark keeps of one solve (traces are not retained, so
    memory does not grow with the number of passes)."""

    instance: int
    status: str
    iterations: int
    trials: int
    objective: float
    wall_s: float
    scale: float  # calibration factor to the reference speed
    step_s: np.ndarray  # successive differences of the trace's elapsed_s
    digest: str
    failed: List[str]


@dataclass
class Pass:
    traced: bool
    solves: List[Solve]
    layers: Optional[Dict[str, float]] = None

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.solves)

    @property
    def seconds(self) -> float:
        """Pass time at the reference speed."""
        return sum(s.wall_s * s.scale for s in self.solves)

    @property
    def iters(self) -> int:
        return sum(s.iterations for s in self.solves)


def solve_pass(panel: List[Instance], cfg, check: Callable[[int, SolveReport], List[str]],
               calibrator: Calibrator, tracer: Optional[Tracer] = None) -> Pass:
    """Solve every instance once from the origin, one at a time, each between
    two calibration samples; ``check`` lists the correctness checks a solve
    fails."""
    solves = []
    before = calibrator.sample()
    for inst in panel:
        prob, solve = inst.problem, smba.run
        if tracer is not None:
            prob, solve = tracer.problem(prob), tracer.wrap("solver.run", smba.run)
        x0 = np.zeros(prob.dim)
        with tracer.patched() if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            report = solve(prob, cfg, x0)
            seconds = time.perf_counter() - t0
        after = calibrator.sample()
        scale = REFERENCE_S / (0.5 * (before + after))
        before = after
        solves.append(Solve(
            instance=inst.seed,
            status=report.status.value,
            iterations=report.iterations,
            trials=sum(row.j_k + 1 for row in report.trace),
            objective=report.objective,
            wall_s=seconds,
            scale=scale,
            step_s=scale * np.diff([row.elapsed_s for row in report.trace]),
            digest=trace_digest(report),
            failed=check(inst.seed, report),
        ))
    p = Pass(traced=tracer is not None, solves=solves)
    if tracer is not None:
        p.layers = layer_metrics(tracer.spans(), p.iters, sum(s.trials for s in solves))
        tracer.clear()
    return p


def setup_seconds(workload: str, seed: int) -> List[float]:
    """Set-up time (import, instance generation, problem build) of fresh
    interpreters run one after another, each at the reference speed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        wall_s, kernel_s = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append(wall_s * REFERENCE_S / kernel_s)
    return samples


def probe_setup(workload: str, seed: int, t_start: float) -> None:
    """Print the set-up seconds since ``t_start`` and a calibration sample
    taken right after (the first kernel run only warms up)."""
    build_panel(WORKLOADS[workload], seed)
    wall_s = time.perf_counter() - t_start
    calibrator = Calibrator()
    calibrator.sample()
    print(json.dumps([wall_s, calibrator.sample()]))


# ---------------------------------------------------------------------------
# the benchmark
# ---------------------------------------------------------------------------


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[workload_name]
    blas = blas_info()
    if blas["threads"] != PINNED_THREADS:
        print(f"BLAS thread count {blas['threads']} is not the pinned {PINNED_THREADS}",
              file=sys.stderr)
        return 2
    rtol, reference, seed0_digest = load_reference(workload)
    setup = [] if trace else setup_seconds(workload_name, seed)
    panel, gen_s = build_panel(workload, seed)
    cfg = smba.SolverConfig(eps=workload.eps)

    print(f"workload {workload.name}: seed {seed}, instances "
          f"{','.join(map(str, workload.instance_seeds))}, eps {workload.eps:g}")
    print(f"blas {blas['library']}, core {blas['core']}, threads {blas['threads']}"
          f"{'' if blas['threads_verified'] else ' (pinned by environment, not queried)'}")

    # warm-up: lazy imports and first-call costs stay out of the timed passes
    smba.run(panel[0].problem, smba.SolverConfig(eps=workload.eps, max_outer=WARMUP_STEPS),
             np.zeros(panel[0].problem.dim))

    def check(instance, report):
        return check_solve(report, reference[instance], rtol)

    calibrator = Calibrator()
    tracer = Tracer() if trace else None
    passes: List[Pass] = []
    t0 = time.perf_counter()
    round_s = 0.0
    # a round (one pass, or an untraced and a traced pass) starts only if it
    # is expected to end within the measuring time; the first always runs
    while not passes or time.perf_counter() - t0 + round_s <= seconds:
        r0 = time.perf_counter()
        passes.append(solve_pass(panel, cfg, check, calibrator))
        if tracer is not None:
            passes.append(solve_pass(panel, cfg, check, calibrator, tracer))
        round_s = time.perf_counter() - r0

    # every pass, traced or not, must reproduce the first pass's traces
    first = {s.instance: s.digest for s in passes[0].solves}
    for p in passes:
        for s in p.solves:
            if s.digest != first[s.instance]:
                s.failed.append("trace digest differs from the first pass")
    solves = [s for p in passes for s in p.solves]
    failed = [s for s in solves if s.failed]

    for s in passes[0].solves:
        same = "" if seed else (" (committed seed-0 digest: "
                                f"{'same' if s.digest == seed0_digest[s.instance] else 'differs'})")
        print(f"instance {s.instance}: {s.status}, {s.iterations} steps, "
              f"objective {s.objective!r} (reference {reference[s.instance]!r}), "
              f"trace sha256 {s.digest}{same}")
    for s in failed:
        print(f"FAILED instance {s.instance}: {'; '.join(s.failed)}")

    plain = [p for p in passes if not p.traced]
    if trace:
        traced = [p for p in passes if p.traced]
        metrics = {k: statistics.median(p.layers[k] for p in traced)
                   for k in traced[0].layers}
        metrics["instances.generate_s"] = gen_s
        metrics["trace.overhead_frac"] = (statistics.median(p.seconds for p in traced)
                                          / statistics.median(p.seconds for p in plain) - 1.0)
        units = PER_LAYER_UNITS
        print(f"{len(traced)} traced and {len(plain)} untraced passes")
    else:
        # step-latency percentiles per pass, then their median over passes,
        # so one pass in a slow stretch of the host moves them little
        steps = [1e3 * np.concatenate([s.step_s for s in p.solves]) for p in plain]
        metrics = {
            "solve_s": statistics.median(p.seconds for p in plain),
            "iter_ms_p50": statistics.median(float(np.percentile(x, 50)) for x in steps),
            "iter_ms_p90": statistics.median(float(np.percentile(x, 90)) for x in steps),
            "outer_iters": statistics.median(p.iters for p in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "solved_frac": 1.0 - len(failed) / len(solves),
        }
        units = END_TO_END_UNITS
        print(f"{len(plain)} passes of {', '.join(f'{p.seconds:.3f}' for p in plain)} s "
              f"at reference speed ({', '.join(f'{p.wall_s:.3f}' for p in plain)} s wall); "
              f"step latency over {steps[0].size} steps per pass; "
              f"set-up over {len(setup)} fresh interpreters; "
              f"fail_frac {len(failed) / len(solves)!r} ({len(failed)}/{len(solves)})")

    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not failed else 1
