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
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .nsdp import generate_nsdp, load_instance, nsdp_problem, save_instance
from .schedules import ramped_log_schedule
from .solver import SolveReport, SolveStatus, SolverConfig, TRACE_COLUMNS, run


def write_trace(report: SolveReport, path) -> None:
    """CSV trace with the fixed 14-column schema; ``csv`` writes a float by
    ``repr``, its shortest round-trip decimals, so parsing reproduces it
    exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(report.trace)


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
        cfg = dataclasses.replace(cfg, eps=eps)
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
        f"{prob.name}: {report.status.value} after {report.iterations} iterations "
        f"({report.trials} linesearch trials, {report.cone_evals} cone evaluations, "
        f"{report.advances} schedule advances), "
        f"objective {report.objective:.9g}, {report.wall_time:.2f}s"
    )
    if report.status is not SolveStatus.CONVERGED:
        print(f"solver failure: {report.reason or report.status.value}", file=sys.stderr)
        return 2
    return 0


def _nonempty(values, flag, text):
    if not values:
        raise ValueError(f"{flag} {text!r} selects no value")
    return values


def _parse_seed_range(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        seeds = list(range(int(lo), int(hi) + 1))
    else:
        seeds = [int(s) for s in text.split(",") if s]
    return _nonempty(seeds, "--seeds", text)


def _parse_float_list(text, flag):
    return _nonempty([float(s) for s in text.split(",") if s], flag, text)


def _bench_cell(args, seed, rbar, sbar):
    """Solve one (seed, rbar, sbar) cell and write its trace."""
    n, m = args.n, args.m
    cfg = SolverConfig(eps=args.eps, max_outer=args.max_outer,
                       schedule=ramped_log_schedule(rbar, sbar))
    report = run(nsdp_problem(generate_nsdp(n, m, seed)), cfg, np.zeros(n))
    trace_name = f"trace_n{n}_m{m}_seed{seed}_r{rbar:g}_s{sbar:g}.csv"
    write_trace(report, os.path.join(args.out, trace_name))
    return {
        "n": n, "m": m, "seed": seed, "rbar": rbar, "sbar": sbar, "eps": args.eps,
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
    rbars = _parse_float_list(args.rbar, "--rbar")
    sbars = _parse_float_list(args.sbar, "--sbar")
    os.makedirs(args.out, exist_ok=True)
    results = [_bench_cell(args, seed, rbar, sbar)
               for seed in seeds for rbar in rbars for sbar in sbars]

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
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
