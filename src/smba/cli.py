"""Command-line driver: instance generation, single solves, schedule sweeps.

Subcommands
-----------
``gen-nsdp``  write a random NSDP instance to a JSON problem file
``solve``     solve one problem file, emitting a CSV trace and a JSON report
``bench``     sweep (seed, rbar, sbar) cells, one trace per cell plus a summary CSV

Exit status: 0 on success, 1 for usage or file errors, 2 when the solver
does not converge (numeric failure, inner cap, smoothing floor or
``max_outer``; partial outputs are kept).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .errors import InfeasibleStartError, NumericError
from .nsdp import generate_nsdp, load_instance, nsdp_problem, save_instance
from .schedules import ramped_log_schedule
from .solver import SolveReport, SolveStatus, SolverConfig, TRACE_COLUMNS, TraceRow, run


def write_trace(report: SolveReport, path) -> None:
    """CSV trace with the fixed 14-column schema; floats use shortest
    round-trip decimals so parsing reproduces them exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in report.trace:
            writer.writerow([
                repr(v) if isinstance(v, float) else str(v) for v in row.as_tuple()
            ])


def read_trace(path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header in {path}")
        for rec in reader:
            vals = [float(v) for v in rec]
            rows.append(TraceRow(
                k=int(vals[0]), psi=vals[1], g_mu=vals[2], sigma_B=vals[3],
                mu=vals[4], lam=vals[5], Lf=vals[6], Lg=vals[7],
                i_k=int(vals[8]), j_k=int(vals[9]), term_step=vals[10],
                term_slack=vals[11], rho=vals[12], elapsed_s=vals[13],
            ))
    return rows


def write_report(report: SolveReport, cfg: SolverConfig, path, problem_name="") -> None:
    doc = report.to_dict()
    doc["problem"] = problem_name
    doc["config"] = cfg.to_dict()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _load_config(path, eps=None) -> SolverConfig:
    if path:
        with open(path) as fh:
            cfg = SolverConfig.from_dict(json.load(fh))
    else:
        cfg = SolverConfig()
    if eps is not None:
        cfg = SolverConfig.from_dict({**cfg.to_dict(), "eps": eps})
    return cfg


def _cmd_gen_nsdp(args) -> int:
    inst = generate_nsdp(args.n, args.m, args.seed)
    save_instance(inst, args.out)
    print(f"wrote nsdp instance n={args.n} m={args.m} seed={args.seed} to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    inst = load_instance(args.problem)
    cfg = _load_config(args.config, eps=args.eps)
    prob = nsdp_problem(inst)
    report = run(prob, cfg, np.zeros(inst.n))
    if args.trace:
        write_trace(report, args.trace)
    if args.report:
        write_report(report, cfg, args.report, problem_name=prob.name)
    print(
        f"{prob.name}: {report.status.value} after {report.iterations} iterations, "
        f"objective {report.objective:.9g}, {report.wall_time:.2f}s"
    )
    if report.status is not SolveStatus.CONVERGED:
        print(f"solver failure: {report.reason or report.status.value}", file=sys.stderr)
        return 2
    return 0


def _parse_seed_range(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def _parse_float_list(text):
    return [float(s) for s in text.split(",") if s]


def _bench_cell(cell):
    """One (seed, rbar, sbar) cell; module-level so it pickles for workers."""
    n, m, seed, rbar, sbar, eps, max_outer, out_dir = cell
    inst = generate_nsdp(n, m, seed)
    cfg = SolverConfig(eps=eps, max_outer=max_outer,
                       schedule=ramped_log_schedule(rbar, sbar))
    report = run(nsdp_problem(inst), cfg, np.zeros(n))
    trace_name = f"trace_n{n}_m{m}_seed{seed}_r{rbar:g}_s{sbar:g}.csv"
    write_trace(report, os.path.join(out_dir, trace_name))
    return {
        "n": n, "m": m, "seed": seed, "rbar": rbar, "sbar": sbar, "eps": eps,
        "status": report.status.value, "iterations": report.iterations,
        "objective": report.objective, "wall_time": report.wall_time,
        "term_step": report.term_step, "term_slack": report.term_slack,
        "trace_file": trace_name,
    }, [row.psi for row in report.trace]


SUMMARY_COLUMNS = ("n", "m", "seed", "rbar", "sbar", "eps", "status", "iterations",
                   "iters_to_best", "objective", "wall_time", "term_step", "term_slack",
                   "trace_file")
BEST_REL_TOL = 1e-6


def _iters_to_best(psis, best):
    """1-based index of the first row within BEST_REL_TOL (relative) of best, or ''."""
    scale = max(1.0, abs(best))
    return next((i for i, psi in enumerate(psis, 1) if (psi - best) / scale <= BEST_REL_TOL), "")


def _cmd_bench(args) -> int:
    seeds = _parse_seed_range(args.seeds)
    rbars = _parse_float_list(args.rbar)
    sbars = _parse_float_list(args.sbar)
    os.makedirs(args.out, exist_ok=True)
    cells = [
        (args.n, args.m, seed, rbar, sbar, args.eps, args.max_outer, args.out)
        for seed in seeds for rbar in rbars for sbar in sbars
    ]
    workers = int(os.environ.get("SMBA_WORKERS", "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_bench_cell, cells))
    else:
        results = [_bench_cell(cell) for cell in cells]

    # iterations each cell needs to come within BEST_REL_TOL of the lowest
    # final objective over its seed's cells
    best = {seed: min(row["objective"] for row, _ in results if row["seed"] == seed)
            for seed in seeds}
    rows = [{**row, "iters_to_best": _iters_to_best(psis, best[row["seed"]])}
            for row, psis in results]
    rows.sort(key=lambda r: (r["seed"], r["rbar"], r["sbar"]))
    summary_path = os.path.join(args.out, "summary.csv")
    with open(summary_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

    failures = [r for r in rows if r["status"] != SolveStatus.CONVERGED.value]
    print(f"bench: {len(rows)} cells -> {summary_path} ({len(failures)} not converged)")
    return 2 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smba", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-nsdp", help="generate a random NSDP problem file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_nsdp)

    p = sub.add_parser("solve", help="solve a problem file")
    p.add_argument("--problem", required=True)
    p.add_argument("--config", default=None, help="JSON solver configuration")
    p.add_argument("--trace", default=None, help="CSV trace output path")
    p.add_argument("--report", default=None, help="JSON report output path")
    p.add_argument("--eps", type=float, default=None, help="override termination eps")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("bench", help="sweep schedule cells over seeded instances")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--seeds", default="0..4", help="range S1..S2 or comma list")
    p.add_argument("--rbar", default="0.33,0.9")
    p.add_argument("--sbar", default="0,3")
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--max-outer", type=int, default=5000)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: missing file {exc.filename}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleStartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
