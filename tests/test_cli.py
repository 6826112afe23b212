import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smba

from smba.cli import main, write_trace
from smba.nsdp import load_instance, nsdp_problem
from smba.problems import box_problem, norm_ball_problem, psd_affine_problem
from smba.schedules import power_schedule
from smba.solver import SolverConfig, run

from helpers import read_trace

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"  # formats written by the CLI, pinned byte for byte


@pytest.fixture(scope="module")
def toy_report():
    prob = box_problem(c=[2.0, -1.0], b=[1.0, 1.0])
    cfg = SolverConfig(eps=1e-7, max_outer=2000, schedule=power_schedule(0.9))
    return run(prob, cfg, np.zeros(2))


class TestTraceIO:
    def test_header_and_min_rows(self, toy_report, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(toy_report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "psi", "g_mu", "sigma_B", "mu", "lambda", "Lf", "Lg", "i_k",
                           "j_k", "term_step", "term_slack", "rho", "elapsed_s"]
        assert len(rows) >= 2

    def test_roundtrip_exact(self, toy_report, tmp_path):
        # one problem per cone family, one whose f returns np.float64 and
        # one with an l1 term; every field must be a Python int or float,
        # whose repr the reader parses back exactly
        A = np.zeros((3, 2, 2))
        A[0] = 2.0 * np.eye(2)
        A[1], A[2] = np.diag([-1.0, 0.0]), np.diag([0.0, -1.0])
        cfg = SolverConfig(eps=1e-7, max_outer=2000, schedule=power_schedule(0.9))
        box = box_problem(c=[2.0, -1.0], b=[1.0, 1.0])
        c = np.array([2.0, -1.0])
        numpy_f = dataclasses.replace(box, f=dataclasses.replace(
            box.f, value=lambda x: 0.5 * np.dot(x - c, x - c)))
        reports = [toy_report,
                   run(norm_ball_problem([2.0, -1.0, 0.5], 1.0), cfg, np.zeros(3)),
                   run(psd_affine_problem([3.0, 1.0], A), cfg, np.zeros(2)),
                   run(numpy_f, cfg, np.zeros(2)),
                   run(box_problem(c=[2.0, -1.0], b=[1.0, 1.0], l1_weight=0.3), cfg,
                       np.zeros(2))]
        for i, report in enumerate(reports):
            assert report.trace
            assert all(type(v) in (int, float) for row in report.trace for v in row)
            path = tmp_path / f"trace{i}.csv"
            write_trace(report, path)
            again = read_trace(path)
            assert len(again) == len(report.trace)
            for a, b in zip(again, report.trace):
                assert a.as_tuple() == b.as_tuple()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trace(path)


class TestGenSolve:
    def test_gen_then_solve(self, tmp_path, capsys):
        inst_path = tmp_path / "p.json"
        assert main(["gen-nsdp", "--n", "20", "--m", "10", "--seed", "1",
                     "--out", str(inst_path)]) == 0
        assert capsys.readouterr().out == (
            f"wrote nsdp instance n=20 m=10 seed=1 to {inst_path}\n")
        trace = tmp_path / "t.csv"
        report = tmp_path / "r.json"
        code = main(["solve", "--problem", str(inst_path), "--eps", "1e-5",
                     "--trace", str(trace), "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["status"] == "converged"
        assert doc["iterations"] <= 5000
        assert doc["term_step"] <= 1e-5 and doc["term_slack"] <= 1e-5
        assert doc["config"]["eps"] == 1e-5
        rows = read_trace(trace)
        assert len(rows) == doc["iterations"]

    def test_solve_with_config_file(self, tmp_path):
        inst_path = tmp_path / "p.json"
        main(["gen-nsdp", "--n", "6", "--m", "4", "--seed", "3", "--out", str(inst_path)])
        cfg = SolverConfig(eps=1e-4, schedule=power_schedule(0.9))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        report = tmp_path / "r.json"
        assert main(["solve", "--problem", str(inst_path), "--config", str(cfg_path),
                     "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["config"]["schedule"]["variant"] == "power"

    def test_report_holds_the_certificate_and_problem(self, tmp_path):
        inst_path, report = tmp_path / "p.json", tmp_path / "r.json"
        main(["gen-nsdp", "--n", "6", "--m", "4", "--seed", "1", "--out", str(inst_path)])
        assert main(["solve", "--problem", str(inst_path), "--eps", "1e-6",
                     "--report", str(report)]) == 0
        text = report.read_text()
        assert text.endswith("}\n")
        doc = json.loads(text)
        prob = nsdp_problem(load_instance(inst_path))
        again = run(prob, SolverConfig(eps=1e-6), np.zeros(6))
        assert doc["problem"] == prob.name == "nsdp(n=6,m=4,seed=1)"
        assert doc["final_kkt"] == again.final_kkt.to_dict()
        assert doc["final_kkt"]["rho"] > 0.0

    def test_written_formats_keep_their_bytes(self, tmp_path):
        # the problem file and the certificate are written from their
        # records' fields; both are pinned here, bytes and key order
        inst_path, report = tmp_path / "p.json", tmp_path / "r.json"
        main(["gen-nsdp", "--n", "3", "--m", "2", "--seed", "1", "--out", str(inst_path)])
        assert inst_path.read_bytes() == (DATA / "nsdp_n3_m2_seed1.json").read_bytes()
        assert main(["solve", "--problem", str(inst_path), "--report", str(report)]) == 0
        kkt = json.loads(report.read_text())["final_kkt"]
        assert list(kkt) == ["rho", "complementarity", "step", "v"]
        assert json.dumps(kkt) + "\n" == (DATA / "nsdp_n3_m2_seed1_final_kkt.json").read_text()

    def test_config_without_schedule_uses_the_default(self, tmp_path):
        inst_path, cfg_path = tmp_path / "p.json", tmp_path / "cfg.json"
        main(["gen-nsdp", "--n", "6", "--m", "4", "--seed", "3", "--out", str(inst_path)])
        cfg_path.write_text(json.dumps({"eps": 1e-4}))
        report = tmp_path / "r.json"
        assert main(["solve", "--problem", str(inst_path), "--config", str(cfg_path),
                     "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["config"] == SolverConfig(eps=1e-4).to_dict()

    def test_stale_config_key_exit_1(self, tmp_path, capsys):
        inst_path = tmp_path / "p.json"
        main(["gen-nsdp", "--n", "6", "--m", "4", "--seed", "3", "--out", str(inst_path)])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SolverConfig().to_dict(), "exact_l1_path": True}))
        code = main(["solve", "--problem", str(inst_path), "--config", str(cfg_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exact_l1_path" in err

    def solve_with_config_value(self, tmp_path, path, value, text):
        """Exit code of ``smba solve`` with the default config's field at
        ``path`` set to ``value``, which JSON writes as ``text``; asserts
        that no report is written."""
        inst_path = tmp_path / "p.json"
        main(["gen-nsdp", "--n", "6", "--m", "4", "--seed", "3", "--out", str(inst_path)])
        doc = SolverConfig().to_dict()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert text in cfg_path.read_text()
        report = tmp_path / "r.json"
        code = main(["solve", "--problem", str(inst_path), "--config", str(cfg_path),
                     "--report", str(report)])
        assert not report.exists()
        return code

    @pytest.mark.parametrize("path", [("eps",), ("tau2",), ("schedule", "sbar")],
                             ids=lambda path: ".".join(path))
    def test_nan_config_exit_1(self, tmp_path, capsys, path):
        assert self.solve_with_config_value(tmp_path, path, math.nan, "NaN") == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("path", [("eps",), ("tau1",), ("tau2",), ("L_min",), ("L_max",),
                                      ("schedule", "mu0"), ("schedule", "sbar")],
                             ids=lambda path: ".".join(path))
    def test_infinite_config_exit_1(self, tmp_path, capsys, path):
        # JSON's Infinity: {"eps": Infinity} converged after one step and
        # exited 0; the error names the field
        assert self.solve_with_config_value(tmp_path, path, math.inf, "Infinity") == 1
        err = capsys.readouterr().err
        assert err == f"error: {path[-1]} must be a finite real number, got inf\n"

    @pytest.mark.parametrize("path, value", [
        (("tau1",), "0.01"), (("tau2",), None), (("L_min",), [1e-8]), (("L_max",), True),
        (("eps",), "1e-5"), (("max_outer",), 10.5), (("max_inner_j",), False),
        (("schedule", "mu0"), "0.5"), (("schedule", "r"), "0.5"),
        (("schedule", "rbar"), [0.9]), (("schedule", "sbar"), True),
        (("schedule", "n0"), 2.5), (("schedule", "nu0"), "0.01"),
        (("schedule", "ramp_len"), 5000.0), (("schedule",), "ramped_log"),
    ], ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v))
    def test_wrong_type_config_exit_1(self, tmp_path, capsys, path, value):
        # a value of the wrong type is named in one error line, before it can
        # reach a range check, range() or the schedule's block arithmetic
        inst_path = tmp_path / "p.json"
        main(["gen-nsdp", "--n", "6", "--m", "4", "--seed", "3", "--out", str(inst_path)])
        doc = SolverConfig().to_dict()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        report = tmp_path / "r.json"
        code = main(["solve", "--problem", str(inst_path), "--config", str(cfg_path),
                     "--report", str(report)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path[-1]} must be ") and err.count("\n") == 1
        assert not report.exists()

    def test_missing_problem_file_exit_1(self, tmp_path, capsys):
        code = main(["solve", "--problem", str(tmp_path / "nope.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "nope.json" in err

    def test_gen_out_directory_exit_1(self, tmp_path, capsys):
        code = main(["gen-nsdp", "--n", "3", "--m", "2", "--seed", "0", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--problem", "--trace"])
    def test_solve_directory_path_exit_1(self, tmp_path, capsys, flag):
        inst_path = tmp_path / "p.json"
        main(["gen-nsdp", "--n", "3", "--m", "2", "--seed", "0", "--out", str(inst_path)])
        capsys.readouterr()
        paths = {"--problem": str(inst_path), flag: str(tmp_path)}
        code = main(["solve", "--eps", "1e-3", *(item for pair in paths.items() for item in pair)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_malformed_problem_file_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--problem", str(bad)]) == 1

    @pytest.mark.parametrize("text", ["5", "[]"])
    def test_non_object_problem_file_exit_1(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["solve", "--problem", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: problem file must hold a JSON object")

    @pytest.mark.parametrize("text", ["5", "null", "[1]"])
    def test_non_object_config_file_exit_1(self, tmp_path, capsys, text):
        inst_path = tmp_path / "p.json"
        main(["gen-nsdp", "--n", "6", "--m", "4", "--seed", "3", "--out", str(inst_path)])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert main(["solve", "--problem", str(inst_path), "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("error: solver config must be a JSON object")

    @pytest.mark.parametrize("field, value", [
        ("Q", math.nan), ("b", math.inf), ("c", -math.inf), ("d", math.nan),
        ("l1_weight", math.inf), ("A", math.nan),
    ])
    def test_non_finite_problem_file_exit_1(self, tmp_path, capsys, recwarn, field, value):
        # rejected while loading, not left to end the solve as a numeric failure
        inst_path = tmp_path / "p.json"
        main(["gen-nsdp", "--n", "6", "--m", "4", "--seed", "3", "--out", str(inst_path)])
        doc = json.loads(inst_path.read_text())
        if field == "Q":
            doc["Q"][2][1] = value
        elif field == "A":
            doc["A"][2][1][0] = value
        elif field == "l1_weight":
            doc["l1_weight"] = value
        else:
            doc[field][3] = value
        inst_path.write_text(json.dumps(doc))
        report = tmp_path / "r.json"
        assert main(["solve", "--problem", str(inst_path), "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not report.exists()

    @pytest.mark.parametrize("field, value", [
        ("n", None), ("m", None), ("seed", None), ("l1_weight", None),
        ("m", 2.7), ("seed", 2.7), ("n", 6.0), ("n", "6"), ("n", True), ("seed", False),
        ("l1_weight", "0.5"), ("l1_weight", True),
    ])
    def test_mistyped_problem_field_exit_1(self, tmp_path, capsys, field, value):
        # checked before int()/float(), which would raise TypeError or truncate
        inst_path = tmp_path / "p.json"
        main(["gen-nsdp", "--n", "6", "--m", "4", "--seed", "3", "--out", str(inst_path)])
        doc = json.loads(inst_path.read_text())
        doc[field] = value
        inst_path.write_text(json.dumps(doc))
        report = tmp_path / "r.json"
        assert main(["solve", "--problem", str(inst_path), "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1
        assert not report.exists()

    def test_integer_weight_and_missing_seed_accepted(self, tmp_path):
        inst_path = tmp_path / "p.json"
        main(["gen-nsdp", "--n", "6", "--m", "4", "--seed", "3", "--out", str(inst_path)])
        doc = json.loads(inst_path.read_text())
        doc["l1_weight"] = 1
        del doc["seed"]
        inst_path.write_text(json.dumps(doc))
        assert main(["solve", "--problem", str(inst_path), "--eps", "1e-4"]) == 0
        # read as a float, so a saved copy writes 1.0
        assert json.dumps(load_instance(inst_path).to_dict()["l1_weight"]) == "1.0"

    def test_gen_invalid_size_exit_1(self, tmp_path):
        assert main(["gen-nsdp", "--n", "0", "--m", "3", "--seed", "1",
                     "--out", str(tmp_path / "x.json")]) == 1

    def test_solver_failure_exit_2_with_partial_outputs(self, tmp_path):
        inst_path = tmp_path / "p.json"
        main(["gen-nsdp", "--n", "6", "--m", "4", "--seed", "1", "--out", str(inst_path)])
        # pinned warm starts at 1e-8 with no doubling budget cannot regain
        # feasibility, so the run stops with the inner cap exceeded
        cfg = SolverConfig(eps=1e-7, max_inner_j=0, L_min=1e-8, L_max=1e-8,
                           schedule=power_schedule(0.9))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        report = tmp_path / "r.json"
        trace = tmp_path / "t.csv"
        code = main(["solve", "--problem", str(inst_path), "--config", str(cfg_path),
                     "--report", str(report), "--trace", str(trace)])
        assert code == 2
        assert json.loads(report.read_text())["status"] == "inner_cap_exceeded"
        assert trace.exists()

    def test_max_outer_exit_2_with_outputs(self, tmp_path, capsys):
        inst_path = tmp_path / "p.json"
        main(["gen-nsdp", "--n", "6", "--m", "4", "--seed", "1", "--out", str(inst_path)])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SolverConfig(eps=1e-7, max_outer=3).to_dict()))
        report = tmp_path / "r.json"
        trace = tmp_path / "t.csv"
        code = main(["solve", "--problem", str(inst_path), "--config", str(cfg_path),
                     "--report", str(report), "--trace", str(trace)])
        assert code == 2
        assert "max_outer" in capsys.readouterr().err
        doc = json.loads(report.read_text())
        assert doc["status"] == "max_outer"
        assert len(read_trace(trace)) == doc["iterations"] == 3


    def test_solve_reports_trials_and_cone_evals(self, tmp_path, capsys):
        inst_path = tmp_path / "p.json"
        main(["gen-nsdp", "--n", "6", "--m", "4", "--seed", "1", "--out", str(inst_path)])
        trace, report = tmp_path / "t.csv", tmp_path / "r.json"
        assert main(["solve", "--problem", str(inst_path), "--eps", "1e-6",
                     "--trace", str(trace), "--report", str(report)]) == 0
        rows = read_trace(trace)
        doc = json.loads(report.read_text())
        assert doc["trials"] == sum(row.j_k + 1 for row in rows)
        assert doc["cone_evals"] == 1 + sum(row.j_k + 1 - row.i_k for row in rows)
        assert doc["trials"] >= doc["cone_evals"] - 1 >= doc["iterations"]
        out = capsys.readouterr().out
        assert f"{doc['trials']} linesearch trials, {doc['cone_evals']} cone evaluations" in out

    def test_solve_reports_schedule_advances(self, tmp_path, capsys):
        # this instance stalls once at eps = 1e-6: its step test passes while
        # the slack test does not, and the schedule jumps to the next block
        inst_path = tmp_path / "p.json"
        main(["gen-nsdp", "--n", "10", "--m", "5", "--seed", "12", "--out", str(inst_path)])
        trace, report = tmp_path / "t.csv", tmp_path / "r.json"
        assert main(["solve", "--problem", str(inst_path), "--eps", "1e-6",
                     "--trace", str(trace), "--report", str(report)]) == 0
        stalls = [row for row in read_trace(trace) if row.term_step <= 1e-6 < row.term_slack]
        doc = json.loads(report.read_text())
        assert doc["advances"] == len(stalls) > 0
        assert f"{doc['advances']} schedule advances" in capsys.readouterr().out

    @pytest.mark.parametrize("a0_scale, code", [(1e-14, 2), (-1.0, 1)])
    def test_start_failures(self, tmp_path, capsys, a0_scale, code):
        # A0 = 1e-14 I leaves a margin the initial smoothing search cannot
        # resolve above the floor: exit 2 with a header-only trace and a
        # report.  A0 = -I makes the origin infeasible: an input error
        inst_path = tmp_path / "p.json"
        main(["gen-nsdp", "--n", "6", "--m", "4", "--seed", "1", "--out", str(inst_path)])
        doc = json.loads(inst_path.read_text())
        doc["A"][0] = (a0_scale * np.eye(4)).tolist()
        inst_path.write_text(json.dumps(doc))
        trace, report = tmp_path / "t.csv", tmp_path / "r.json"
        assert main(["solve", "--problem", str(inst_path),
                     "--trace", str(trace), "--report", str(report)]) == code
        err = capsys.readouterr().err
        if code == 1:
            assert err.startswith("error: starting point is not strictly feasible")
            assert not trace.exists() and not report.exists()
            return
        assert "floor" in err
        assert read_trace(trace) == []
        out = json.loads(report.read_text())
        assert (out["status"], out["iterations"], out["mu0"]) == ("numeric_failure", 0, None)
        assert out["final_kkt"] is None


@pytest.mark.parametrize("how", ["main", "module"])
def test_version(capsys, how):
    # "module" runs the file as ``python -m smba.cli``
    if how == "main":
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
    else:
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, "-m", "smba.cli", "--version"], env=env,
                              capture_output=True, text=True, check=True)
        out = done.stdout
    assert out == f"{smba.__version__}\n"


class TestBench:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench", "--n", "6", "--m", "4", "--seeds", "0..1",
                     "--rbar", "0.9", "--sbar", "0,3", "--eps", "1e-4",
                     "--out", str(out)])
        assert code == 0
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 seeds x 1 rbar x 2 sbar
        for row in rows:
            assert row["status"] == "converged"
            assert (out / row["trace_file"]).exists()
            assert int(row["iterations"]) >= 1
            # 1-based row index within 1e-6 of the seed's best objective, or empty
            if row["iters_to_best"]:
                assert 1 <= int(row["iters_to_best"]) <= int(row["iterations"])
        for seed in (0, 1):
            cells = [r for r in rows if int(r["seed"]) == seed]
            best = min(cells, key=lambda r: float(r["objective"]))
            assert best["iters_to_best"]
        # summary is sorted by (seed, rbar, sbar)
        keys = [(int(r["seed"]), float(r["rbar"]), float(r["sbar"])) for r in rows]
        assert keys == sorted(keys)

    def test_summary_sorted_from_an_unsorted_axis(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench", "--n", "5", "--m", "3", "--seeds", "0", "--rbar", "0.9,0.33",
                     "--sbar", "0", "--eps", "1e-3", "--out", str(out)]) == 0
        with open(out / "summary.csv", newline="") as fh:
            assert [row["rbar"] for row in csv.DictReader(fh)] == ["0.33", "0.9"]

    def test_unconverged_cell_exit_2(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["bench", "--n", "6", "--m", "4", "--seeds", "1", "--rbar", "0.9",
                     "--sbar", "0", "--eps", "1e-9", "--max-outer", "2",
                     "--out", str(out)]) == 2
        assert "(1 not converged)" in capsys.readouterr().out
        with open(out / "summary.csv", newline="") as fh:
            assert [row["status"] for row in csv.DictReader(fh)] == ["max_outer"]

    def test_comma_seed_list(self, tmp_path):
        out = tmp_path / "bench2"
        code = main(["bench", "--n", "5", "--m", "3", "--seeds", "2,4",
                     "--rbar", "0.9", "--sbar", "0", "--eps", "1e-3",
                     "--out", str(out)])
        assert code == 0
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted(int(r["seed"]) for r in rows) == [2, 4]

    def test_out_existing_file_exit_1(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["bench", "--n", "3", "--m", "2", "--seeds", "0", "--rbar", "0.9",
                     "--sbar", "0", "--eps", "1e-3", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag, text", [("--seeds", "5..1"), ("--seeds", ""),
                                            ("--seeds", ","), ("--rbar", ""),
                                            ("--sbar", ",")])
    def test_empty_axis_exit_1(self, tmp_path, capsys, flag, text):
        # an axis that selects nothing is a usage error, not an empty sweep
        out = tmp_path / "bench"
        args = {"--seeds": "0", "--rbar": "0.9", "--sbar": "0", flag: text}
        code = main(["bench", "--n", "5", "--m", "3", "--eps", "1e-3", "--out", str(out),
                     *(item for pair in args.items() for item in pair)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and "selects no value" in err
        assert not out.exists()
