"""Benchmark of the smba solver: time to eps and step latency per workload.

Run from the repository root:

    python3 perfbench/run.py --workload nsdp-desk --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is 0
when every solve passed its checks, 1 when one failed, and 2 for bad
arguments, missing solver sources or an unpinned BLAS thread count.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS threads change timings and traces; pin them before numpy is loaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="nsdp-desk, nsdp-large or socp-dc")
    ap.add_argument("--seed", type=int, default=0,
                    help="0 solves the reference panel; others an exact seeded symmetry of it")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    if not (SRC / "smba" / "__init__.py").is_file():
        print(f"solver sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(harness.WORKLOADS)}")
    if args.setup_probe:
        harness.probe_setup(args.workload, args.seed, T_START)
        return 0
    return harness.run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
