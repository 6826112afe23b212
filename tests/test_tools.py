"""The bit-identity check in ``tools/trace_digests.py``."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from smba import SolverConfig, box_problem, power_schedule, run

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trace_digests.py"


def load_tool(monkeypatch):
    # the tool pins the BLAS thread variables on import; monkeypatch
    # restores them after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("trace_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_digest_reads_every_column_but_elapsed(monkeypatch):
    digest = load_tool(monkeypatch).digest
    cfg = SolverConfig(eps=1e-7, schedule=power_schedule(0.9))
    trace = run(box_problem(c=[2.0, -1.0], b=[1.0, 1.0]), cfg, np.zeros(2)).trace
    assert len(trace) > 2
    base = digest(trace)
    assert digest([row._replace(elapsed_s=row.elapsed_s + 1.0) for row in trace]) == base
    # one ulp (or one count) in any other column of one row shows
    for name, value in trace[1]._asdict().items():
        if name == "elapsed_s":
            continue
        moved = math.nextafter(value, math.inf) if isinstance(value, float) else value + 1
        bumped = [trace[0], trace[1]._replace(**{name: moved}), *trace[2:]]
        assert digest(bumped) != base, name


def test_prints_one_line_per_solve():
    out = subprocess.run([sys.executable, str(TOOL), "--seeds", "1"], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert [line.split()[0] for line in out] == (
        ["nsdp-desk"] * 5 + ["nsdp-large"] * 2 + ["socp-dc"] * 2)
    assert all(line.split()[3] == "converged" for line in out)
