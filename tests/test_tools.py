"""The bit-identity check in ``tools/trace_digests.py`` and the line counter
``tools/code_lines.py``."""

import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from smba import SolverConfig, box_problem, power_schedule, run

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "trace_digests.py"
COUNTER = ROOT / "tools" / "code_lines.py"


def trace_digest(monkeypatch):
    """``perfbench/harness.py``'s ``trace_digest``, the one the tool prints."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import harness
    return harness.trace_digest


def test_digest_reads_every_column_but_elapsed(monkeypatch):
    digest = trace_digest(monkeypatch)
    cfg = SolverConfig(eps=1e-7, schedule=power_schedule(0.9))
    report = run(box_problem(c=[2.0, -1.0], b=[1.0, 1.0]), cfg, np.zeros(2))
    trace = report.trace
    assert len(trace) > 2
    with_trace = lambda rows: dataclasses.replace(report, trace=rows)
    base = digest(report)
    later = [row._replace(elapsed_s=row.elapsed_s + 1.0) for row in trace]
    assert digest(with_trace(later)) == base
    # one ulp (or one count) in any other column of one row shows
    for name, value in trace[1]._asdict().items():
        if name == "elapsed_s":
            continue
        moved = math.nextafter(value, math.inf) if isinstance(value, float) else value + 1
        bumped = [trace[0], trace[1]._replace(**{name: moved}), *trace[2:]]
        assert digest(with_trace(bumped)) != base, name


def test_prints_one_line_per_solve():
    out = subprocess.run([sys.executable, str(TOOL), "--seeds", "1"], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert [line.split()[0] for line in out] == (
        ["nsdp-desk"] * 5 + ["nsdp-large"] * 2 + ["socp-dc"] * 2)
    assert all(line.split()[3] == "converged" for line in out)


def test_refuses_a_src_without_smba(tmp_path):
    # a mistyped --src must not fall back to an installed smba
    done = subprocess.run([sys.executable, str(TOOL), "--src", str(tmp_path), "--seeds", "1"],
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "no smba package" in done.stderr


SAMPLE = '''"""Module docstring,
two lines."""

# a comment
def f(x):  # code with a comment counts
    """Function docstring."""
    text = """a string
that is not a docstring"""
    return (x +

            1)


class C:
    """Class docstring."""
    y = 2
'''


def test_counts_code_lines_without_docstrings_comments_or_blanks(tmp_path):
    (tmp_path / "b.py").write_text(SAMPLE)
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    out = subprocess.run([sys.executable, str(COUNTER), str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    # b.py: the def, both lines of the string, the two lines of the return
    # that hold a token, the class and y = 2
    assert out == ["a.py 1", "b.py 7", "total 8"]
