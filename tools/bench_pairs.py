"""Compare a parent tree with this checkout in alternating benchmark pairs.

Usage::

    python tools/bench_pairs.py --parent DIR [--workload W] [--pairs N]
                                [--seed S] [--seconds T]

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` from
``DIR`` (such as a checkout of the parent commit) and from this checkout,
one after the other, ``N`` times; the side that runs first alternates, the
parent first in odd pairs.  Each run starts in its own tree's root, so it
times that tree's ``src``.

For each pair it prints the end-to-end metrics of the last JSON line of
each run, which ``perfbench`` rescales by calibration samples taken around
each solve.  Right after each run, a second interpreter in the same tree
solves the same panel untimed: one warm-up pass, then as many passes in one
process as fill ``UNTIMED_SECONDS`` at the warm-up's speed, and at least
``UNTIMED_PASSES``, each solving every instance once from the origin with no
calibration and no tracing.  The best of them is ``untimed_best_s``.  It
reads the solver alone, so a shift in the speed of ``perfbench``'s
calibration kernel between two trees, which rescales every timed metric,
does not move it; and a short pass (about 1.3 ms on ``socp-dc``) gets
hundreds of passes, so one slow pass cannot set it.  It then prints, for
each metric, the medians over the pairs, parent -> change, the change in
percent, the spread between the quartiles of the parent's runs, in how
many pairs the change read lower, and a verdict.  The verdict reads each
metric's ``better`` direction and relative ``bound`` from the
``end_to_end`` list of ``BENCHMARK.json`` at the root of this checkout
(``untimed_best_s``, not listed there, is lower-better with no bound):

* ``gain``: the change is better in at least 9 of 10 pairs (a tie is not
  a win), and its median is better than the parent's by more than the
  parent's quartile spread;
* ``over bound``: the change's median is worse than the parent's by more
  than ``bound`` times the parent's median;
* ``within bound`` otherwise (``no bound`` for a metric without one).

The tool only runs ``perfbench`` and the untimed passes, and writes no
file of its own.  It exits
with status 2, printing nothing, unless ``DIR/perfbench/run.py`` exists,
and with status 1 as soon as a run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
UNTIMED_PASSES = 7
UNTIMED_SECONDS = 1.0
# run in a tree's root as ``python -c UNTIMED <workload> <seed> <passes>
# <seconds>``; prints the number of timed passes, then the best pass time in
# seconds
UNTIMED = """
import math, os, sys, time
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = ["src", "perfbench"]
import numpy as np
import smba
from workloads import WORKLOADS, build_panel

workload = WORKLOADS[sys.argv[1]]
panel, _ = build_panel(workload, int(sys.argv[2]))
cfg = smba.SolverConfig(eps=workload.eps)


def one_pass():
    t0 = time.perf_counter()
    for inst in panel:
        smba.run(inst.problem, cfg, np.zeros(inst.problem.dim))
    return time.perf_counter() - t0


passes = max(int(sys.argv[3]), math.ceil(float(sys.argv[4]) / one_pass()))
print(passes)
print(min(one_pass() for _ in range(passes)))
"""


def parse_run(stdout: str) -> dict:
    """``{metric: (value, unit)}`` from one run's output: the metrics of its
    last line, a JSON object."""
    last = stdout.strip().splitlines()[-1]
    return {name: (m["value"], m["unit"]) for name, m in json.loads(last)["metrics"].items()}


def quartile_spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent, change, better: str, bound) -> str:
    """The verdict (module docstring) on one metric's ``parent`` and
    ``change`` values, pair by pair; ``better`` is ``"lower"`` or
    ``"higher"`` and ``bound`` a share of the parent's median, or None."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    p50 = statistics.median(parent)
    gain = sign * (p50 - statistics.median(change))
    if 10 * wins >= 9 * len(parent) and gain > quartile_spread(parent):
        return "gain"
    if bound is None:
        return "no bound"
    return "over bound" if -gain > bound * abs(p50) else "within bound"


def summary(pairs) -> list:
    """The summary lines of ``pairs``, a list of ``(parent, change)`` metric
    dicts as ``parse_run`` returns them, with the verdicts that
    ``BENCHMARK.json``'s rules give."""
    rules = {m["name"]: (m["better"], m["bound"])
             for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    lines = [f"medians over {len(pairs)} pairs, parent -> change"]
    for name, (_, unit) in pairs[0][0].items():
        parent = [p[name][0] for p, _ in pairs]
        change = [c[name][0] for _, c in pairs]
        lower = sum(c < p for p, c in zip(parent, change))
        p50, c50 = statistics.median(parent), statistics.median(change)
        rel = f"{100.0 * (c50 / p50 - 1.0):+.1f}%" if p50 else "n/a"
        lines.append(f"  {name} {p50:.6g} -> {c50:.6g} {unit} ({rel}; parent IQR "
                     f"{quartile_spread(parent):.3g}; change lower in {lower}/{len(pairs)}; "
                     f"{verdict(parent, change, *rules.get(name, ('lower', None)))})")
    return lines


def checked_run(cmd, tree: Path) -> str:
    """The stdout of ``cmd`` run in ``tree``; exits with status 1, printing
    the tail of its output, unless it exits 0."""
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"run in {tree} exited {done.returncode}:\n{done.stdout[-2000:]}"
              f"{done.stderr[-2000:]}", file=sys.stderr)
        raise SystemExit(1)
    return done.stdout


def run_side(tree: Path, args) -> dict:
    """The metrics of one ``perfbench`` run in ``tree``, then its
    ``untimed_best_s``."""
    metrics = parse_run(checked_run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"], tree))
    best = checked_run([sys.executable, "-c", UNTIMED, args.workload, str(args.seed),
                        str(UNTIMED_PASSES), str(UNTIMED_SECONDS)], tree)
    metrics["untimed_best_s"] = (float(best.strip().splitlines()[-1]), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the tree to compare against")
    parser.add_argument("--workload", default="nsdp-desk")
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    parent = Path(args.parent).resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        print(f"no perfbench/run.py in {parent}", file=sys.stderr)
        return 2
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    pairs = []
    for k in range(args.pairs):
        order = [("parent", parent), ("change", ROOT)]
        if k % 2:
            order.reverse()
        result = {side: run_side(tree, args) for side, tree in order}
        pairs.append((result["parent"], result["change"]))
        print(f"pair {k + 1} ({order[0][0]} first)")
        for name, (value, unit) in result["parent"].items():
            print(f"  {name} {value:.6g} -> {result['change'][name][0]:.6g} {unit}")
        sys.stdout.flush()
    print("\n".join(summary(pairs)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
