"""Print one bit-exact fingerprint line per benchmark solve.

Usage::

    python tools/trace_digests.py [--src DIR] [--seeds N]

Solves every instance of the three ``perfbench`` workloads (``nsdp-desk``,
``nsdp-large``, ``socp-dc``) at seeds ``0..N-1``, each from the origin with
the workload's ``eps``, the default schedule and one BLAS thread.  Then it
solves the desk panel at each seed again at ``eps = 1e-5`` under each of
``power(0.5)``, ``blockwise(0.9)`` and ``ramped_log(0.6,3.0)`` (one of the
shapes ``smba bench`` sweeps), so every schedule variant is covered.  The
panels come from ``perfbench/workloads.py`` beside this script; ``smba`` is
imported from ``DIR`` (default: this checkout's ``src``), so the same panels
can be solved by another source tree, such as a checkout of the parent
commit.  Each line reads::

    <workload> seed=<s> instance=<i> <status> steps=<n> objective=<hex> trace=<sha256> iterates=<sha256> schedule=<name>

where the objective is written by ``float.hex`` and the trace digest is
``perfbench/harness.py``'s ``trace_digest``, the one ``perfbench/run.py``
prints: a sha256 over every trace column except ``elapsed_s``, row by row.
The iterate digest is taken the same way over every column except
``rho``, ``term_slack`` and ``elapsed_s``: the columns a change to the KKT
certificate alone leaves as they were.  Two trees whose outputs are
identical give bit-identical traces.  The tool
exits with status 2, printing nothing, unless ``DIR/smba/__init__.py``
exists and is the module imported.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

# BLAS threads change traces; pin them before numpy is loaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the smba package to import")
    parser.add_argument("--seeds", type=int, default=4, help="solve seeds 0..N-1")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True  # leave no cache beside either tree
    src = Path(args.src).resolve()
    init = src / "smba" / "__init__.py"
    if not init.is_file():
        print(f"no smba package in {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import smba
    if Path(smba.__file__).resolve() != init:
        print(f"smba was imported from {smba.__file__}, not {init}", file=sys.stderr)
        return 2
    import harness  # the trace digest that perfbench/run.py prints
    import workloads
    print(f"smba imported from {init.parent}", file=sys.stderr)

    solves = [(w, smba.SolverConfig(eps=w.eps)) for w in workloads.WORKLOADS.values()]
    solves += [(workloads.WORKLOADS["nsdp-desk"], smba.SolverConfig(eps=1e-5, schedule=s))
               for s in (smba.power_schedule(0.5), smba.blockwise_schedule(0.9),
                         smba.ramped_log_schedule(0.6, 3.0))]
    for workload, cfg in solves:
        for seed in range(args.seeds):
            panel, _ = workloads.build_panel(workload, seed)
            for inst in panel:
                report = smba.run(inst.problem, cfg, np.zeros(inst.problem.dim))
                print(f"{workload.name} seed={seed} instance={inst.seed} {report.status.value} "
                      f"steps={len(report.trace)} objective={float(report.objective).hex()} "
                      f"trace={harness.trace_digest(report)} "
                      f"iterates={iterate_digest(report)} "
                      f"schedule={schedule_name(cfg.schedule)}", flush=True)
    return 0


# the certificate's columns, and the wall clock
NOT_ITERATES = ("rho", "term_slack", "elapsed_s")


def iterate_digest(report) -> str:
    """sha256 of the trace without the ``NOT_ITERATES`` columns, written as
    ``harness.trace_digest`` writes its rows: a header, then one line per
    step, floats by ``repr``."""
    from smba.solver import TRACE_COLUMNS
    keep = [i for i, name in enumerate(TRACE_COLUMNS) if name not in NOT_ITERATES]
    h = hashlib.sha256((",".join(TRACE_COLUMNS[i] for i in keep) + "\n").encode())
    for row in report.trace:
        h.update((",".join(repr(row[i]) for i in keep) + "\n").encode())
    return h.hexdigest()


def schedule_name(spec) -> str:
    """``power(r)``, ``blockwise(rbar)`` or ``ramped_log(rbar,sbar)``."""
    params = {"power": (spec.r,), "blockwise": (spec.rbar,),
              "ramped_log": (spec.rbar, spec.sbar)}[spec.variant]
    return f"{spec.variant}({','.join(map(repr, params))})"


if __name__ == "__main__":
    sys.exit(main())
