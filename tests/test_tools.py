"""The bit-identity checks in ``tools/trace_digests.py``, the line counter
``tools/code_lines.py``, the pair runner ``tools/bench_pairs.py`` and the
mutation sweep ``tools/mutants.py`` with its known survivors."""

import dataclasses
import importlib.util
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from smba import SolverConfig, box_problem, power_schedule, run

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "trace_digests.py"
COUNTER = ROOT / "tools" / "code_lines.py"
PAIRS = ROOT / "tools" / "bench_pairs.py"


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


def test_iterate_digest_skips_the_certificate_columns(monkeypatch):
    # rho, term_slack and elapsed_s may move with the iterates unchanged;
    # one ulp (or one count) in any other column of one row shows
    spec = importlib.util.spec_from_file_location("trace_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    cfg = SolverConfig(eps=1e-7, schedule=power_schedule(0.9))
    report = run(box_problem(c=[2.0, -1.0], b=[1.0, 1.0]), cfg, np.zeros(2))
    trace = report.trace
    assert len(trace) > 2
    with_trace = lambda rows: dataclasses.replace(report, trace=rows)
    base = tool.iterate_digest(report)
    assert base != trace_digest(monkeypatch)(report)
    for name, value in trace[1]._asdict().items():
        moved = math.nextafter(value, math.inf) if isinstance(value, float) else value + 1
        bumped = [trace[0], trace[1]._replace(**{name: moved}), *trace[2:]]
        changed = tool.iterate_digest(with_trace(bumped)) != base
        assert changed == (name not in ("rho", "term_slack", "elapsed_s")), name


def test_prints_one_line_per_solve():
    # the three workloads under the default schedule, then the desk panel
    # under each schedule variant
    out = subprocess.run([sys.executable, str(TOOL), "--seeds", "1"], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    default = "schedule=ramped_log(0.9,3.0)"
    assert [(line.split()[0], line.split()[-1]) for line in out] == (
        [("nsdp-desk", default)] * 5 + [("nsdp-large", default)] * 2
        + [("socp-dc", default)] * 2 + [("nsdp-desk", "schedule=power(0.5)")] * 5
        + [("nsdp-desk", "schedule=blockwise(0.9)")] * 5
        + [("nsdp-desk", "schedule=ramped_log(0.6,3.0)")] * 5)
    # every solve converges; desk instance 15 under power(0.5) stops after
    # its stall advances (it ran to max_outer, 5,000 steps, without them)
    assert all(line.split()[3] == "converged" for line in out)
    assert "instance=15 converged steps=168 " in out[12]
    # each line carries both digests, the iterate one after the trace one
    for line in out:
        trace, iterates = line.split()[6:8]
        assert trace.startswith("trace=") and iterates.startswith("iterates=")
        assert len(trace) == 6 + 64 and len(iterates) == 9 + 64


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


def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_run(solve_s, p50, walls):
    """The lines ``perfbench/run.py --trace 0`` prints that the runner reads."""
    return "\n".join([
        "workload nsdp-desk: seed 0, instances 1,6,10,15,16, eps 1e-07",
        f"{len(walls)} passes of 0.370, 0.371 s at reference speed "
        f"({', '.join(walls)} s wall); step latency over 1691 steps per pass; "
        "set-up over 7 fresh interpreters; fail_frac 0.0 (0/10)",
        f"solve_s = {solve_s!r} s",
        json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "solve_s": {"value": solve_s, "unit": "s"},
            "iter_ms_p50": {"value": p50, "unit": "ms"}}}),
    ])


def test_pair_summary_from_canned_output():
    # the run's metrics are those of its last line, a JSON object; the pass
    # walls printed to 3 decimals above it are not read
    tool = bench_pairs()
    run = tool.parse_run(canned_run(0.40, 0.20, ["0.130", "0.125", "0.140"]))
    assert run == {"solve_s": (0.40, "s"), "iter_ms_p50": (0.20, "ms")}
    parent = [canned_run(0.40, 0.20, ["0.13"]), canned_run(0.38, 0.19, ["0.12"]),
              canned_run(0.39, 0.19, ["0.12"])]
    change = [canned_run(0.36, 0.18, ["0.11"]), canned_run(0.39, 0.18, ["0.12"]),
              canned_run(0.37, 0.18, ["0.10"])]
    pairs = [(tool.parse_run(p), tool.parse_run(c)) for p, c in zip(parent, change)]
    assert tool.summary(pairs) == [
        "medians over 3 pairs, parent -> change",
        "  solve_s 0.39 -> 0.37 s (-5.1%; parent IQR 0.01; change lower in 2/3; within bound)",
        "  iter_ms_p50 0.19 -> 0.18 ms (-5.3%; parent IQR 0.005; change lower in 3/3; gain)",
    ]


def test_pair_summary_verdicts_follow_the_benchmark_rules():
    # BENCHMARK.json, read as it is: solve_s and iter_ms_p50 are lower-better
    # with bound 0.25, solved_frac higher-better with bound 0.01
    tool = bench_pairs()
    rules = {m["name"]: (m["better"], m["bound"])
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert rules["iter_ms_p50"] == ("lower", 0.25) and rules["solved_frac"] == ("higher", 0.01)

    def verdicts(parent, change, name="iter_ms_p50"):
        # the verdicts of the named metric and of untimed_best_s, which has no rule
        pairs = [({name: (p, "ms"), "untimed_best_s": (p, "s")},
                  {name: (c, "ms"), "untimed_best_s": (c, "s")}) for p, c in zip(parent, change)]
        return [line.rpartition("; ")[2].rstrip(")") for line in tool.summary(pairs)[1:]]

    parent = [0.100, 0.101, 0.102, 0.103, 0.104, 0.100, 0.101, 0.102, 0.103, 0.104]
    # 9 of 10 pairs lower and a median gap (0.005) above the parent's IQR (0.002)
    assert verdicts(parent, [p - 0.005 for p in parent[:9]] + parent[9:]) == ["gain", "gain"]
    # 8 of 10 is not enough, however large the gap; a tie is not a win
    eight = [p - 0.05 for p in parent[:8]] + parent[8:]
    assert verdicts(parent, eight) == ["within bound", "no bound"]
    assert verdicts(parent, parent[:1] + [p - 0.005 for p in parent[1:]]) == ["gain", "gain"]
    assert verdicts(parent, parent[:2] + [p - 0.005 for p in parent[2:]])[0] == "within bound"
    # 10 of 10 lower by less than the parent's IQR is no gain
    assert verdicts(parent, [p - 0.001 for p in parent])[0] == "within bound"
    # worse by more than 25% of the parent's median: over bound; by 20%: within
    assert verdicts(parent, [1.3 * p for p in parent]) == ["over bound", "no bound"]
    assert verdicts(parent, [1.2 * p for p in parent])[0] == "within bound"
    # higher is better for solved_frac: lower by more than 1% is over bound
    ones = [1.0] * 10
    assert verdicts(ones, [0.985] * 10, "solved_frac")[0] == "over bound"
    assert verdicts(ones, [0.995] * 10, "solved_frac")[0] == "within bound"
    assert verdicts([0.9] * 10, ones, "solved_frac")[0] == "gain"


def test_each_side_adds_its_untimed_best_pass(monkeypatch):
    # before and after the perfbench run, a second interpreter in the same
    # tree times untimed passes; the lower of the two bests joins the side's
    # metrics, whichever probe read it, and the summary gives it a median, an
    # IQR and a lower-count like every other metric
    tool = bench_pairs()
    args = tool.argparse.Namespace(workload="nsdp-desk", seed=12, seconds=10.0)
    for bests in (("0.1113", "0.1098"), ("0.1098", "0.1113")):
        commands = []
        outputs = iter([f"9\n{bests[0]}\n", canned_run(0.40, 0.20, ["0.13"]),
                        f"8\n{bests[1]}\n"])

        def canned(cmd, tree):
            commands.append((cmd, tree))
            return next(outputs)

        monkeypatch.setattr(tool, "checked_run", canned)
        metrics = tool.run_side(Path("/tree"), args)
        assert metrics["untimed_best_s"] == (0.1098, "s")
        assert metrics["solve_s"] == (0.40, "s")
    (before, _), (run, _), (after, _) = commands
    assert run[1:] == [str(Path("/tree/perfbench/run.py")), "--workload", "nsdp-desk",
                       "--seed", "12", "--seconds", "10.0", "--trace", "0"]
    assert before == after
    assert before[1:] == ["-c", tool.UNTIMED, "nsdp-desk", "12", str(tool.UNTIMED_PASSES),
                          str(tool.UNTIMED_SECONDS)]
    assert {tree for _, tree in commands} == {Path("/tree")}
    assert (tool.UNTIMED_PASSES, tool.UNTIMED_SECONDS) == (7, 1.0)

    def side(p50, best):
        run = tool.parse_run(canned_run(0.37, p50, ["0.12"]))
        run["untimed_best_s"] = (best, "s")
        return run

    pairs = [(side(0.17, 0.119), side(0.16, 0.112)), (side(0.17, 0.121), side(0.16, 0.111)),
             (side(0.17, 0.120), side(0.16, 0.113))]
    assert tool.summary(pairs)[-1] == (
        "  untimed_best_s 0.12 -> 0.112 s (-6.7%; parent IQR 0.001; change lower in 3/3; gain)")


@pytest.mark.parametrize("least, seconds", [(2, "0.2"), (40, "0.001")])
def test_untimed_probe_times_a_panel(least, seconds):
    # the probe the runner starts in each tree: a warm-up pass, then as many
    # passes as fill the given seconds at the warm-up's speed, and at least
    # the given number; it prints their number, then the best, in seconds.
    # A socp-dc pass takes a few ms, so 0.2 s holds more than 2 of them
    tool = bench_pairs()
    done = subprocess.run([sys.executable, "-c", tool.UNTIMED, "socp-dc", "0", str(least),
                           seconds], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    passes, best = done.stdout.split()
    assert int(passes) > 2 if least == 2 else int(passes) == 40
    assert 0.0 < float(best) < 1.0


def test_pair_runner_refuses_a_parent_without_perfbench(tmp_path):
    done = subprocess.run([sys.executable, str(PAIRS), "--parent", str(tmp_path)],
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "no perfbench/run.py" in done.stderr


def test_pair_runner_stops_at_a_failed_run(tmp_path):
    # the parent runs first in the first pair; its failed checks end the tool.
    # The untimed probe before the run imports the tree's smba, which here
    # ends it at once with status 0
    (tmp_path / "src" / "smba").mkdir(parents=True)
    (tmp_path / "src" / "smba" / "__init__.py").write_text("raise SystemExit(0)\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('FAILED instance 1: objective')\nsys.exit(1)\n")
    done = subprocess.run([sys.executable, str(PAIRS), "--parent", str(tmp_path)],
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stdout == ""
    assert "FAILED instance 1" in done.stderr


@pytest.fixture
def mutants_tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_mutation_sweep_reports_the_survivor_of_a_toy_package(mutants_tool, tmp_path, capsys,
                                                              monkeypatch):
    # seven mutants: in check, raise -> pass and both forced tests fail the
    # test, but no test sits at x = 0, so the flip of "<" survives; in big,
    # the deleted return fails the test, and the flip of ">" survives too,
    # but it is listed as known, so only its count is printed.  In spin, the
    # deleted decrement never returns.  A second entry names a line that is
    # not in the module, and is reported stale.  The toy tests need no
    # plugin, and a pytest that loads none starts in a fraction of the time
    tool = mutants_tool
    monkeypatch.setattr(tool, "TIMEOUT_MARGIN", 1.0)
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    runs = []
    pytest_run = tool._pytest

    def timed(copy, args, timeout):
        t0 = time.perf_counter()
        passed = pytest_run(copy, args, timeout)
        runs.append((bool(args), timeout, time.perf_counter() - t0, passed))
        return passed

    monkeypatch.setattr(tool, "_pytest", timed)
    (tmp_path / "src" / "toy").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    source = ("def check(x):\n    if x < 0:\n        raise ValueError(x)\n\n\n"
              "def big(x):\n    return x > 10\n\n\n"
              "def spin(n):\n    while n:\n        n -= 1\n")
    (tmp_path / "src" / "toy" / "clip.py").write_text(source)
    (tmp_path / "tests" / "test_clip.py").write_text(
        "import pytest\nfrom toy.clip import big, check, spin\n\n\ndef test_check():\n"
        "    check(1.0)\n    with pytest.raises(ValueError):\n        check(-1.0)\n"
        "    assert big(20) and not big(1)\n    spin(3)\n")
    # a slow file elsewhere in the suite, so that the own file's timeout is
    # the shorter one
    (tmp_path / "tests" / "test_wait.py").write_text(
        "import time\n\n\ndef test_wait():\n    time.sleep(1.0)\n")
    known = tmp_path / "known.json"
    known.write_text(json.dumps([
        {"module": "clip", "line": "return x > 10", "edit": "> -> >=",
         "reason": "no caller asks about 10"},
        {"module": "clip", "line": "return x > 9", "edit": "> -> >=", "reason": "edited since"},
    ]))
    survivors = tool.sweep(tmp_path, package="toy", known=tool.load_known(known))
    assert [m.label() for m in survivors] == ["clip.py:2:7 < -> <="]
    assert capsys.readouterr().out.splitlines() == [
        "survived clip.py:2:7 < -> <=", "stale clip.py > -> >=: return x > 9",
        "total 7 mutants, 5 killed, 2 survived (1 known, 1 new)"]
    # the unmutated suite and own file are timed first; each mutated run of
    # either gets its own timeout, and the hanging mutant is cut at the
    # own file's, the shorter
    assert [(own, timeout) for own, timeout, _, _ in runs[:2]] == [(False, None), (True, None)]
    own_timeout, = {timeout for own, timeout, _, _ in runs[2:] if own}
    suite_timeout, = {timeout for own, timeout, _, _ in runs[2:] if not own}
    assert own_timeout < suite_timeout
    cut = [(own, passed) for own, timeout, seconds, passed in runs[2:] if seconds >= timeout]
    assert cut == [(True, False)]
    assert (tmp_path / "src" / "toy" / "clip.py").read_text() == source  # left as it was
    with pytest.raises(RuntimeError, match="^no module nope in "):
        tool.sweep(tmp_path, ["nope"], package="toy")
