import csv
import json

import numpy as np
import pytest

from smba.cli import main, read_trace, write_trace
from smba.problems import box_problem
from smba.schedules import power_schedule
from smba.solver import SolverConfig, TRACE_COLUMNS, run


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
        assert tuple(rows[0]) == TRACE_COLUMNS
        assert len(rows[0]) == 14
        assert len(rows) >= 2

    def test_roundtrip_exact(self, toy_report, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(toy_report, path)
        again = read_trace(path)
        assert len(again) == len(toy_report.trace)
        for a, b in zip(again, toy_report.trace):
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

    def test_stale_config_key_exit_1(self, tmp_path, capsys):
        inst_path = tmp_path / "p.json"
        main(["gen-nsdp", "--n", "6", "--m", "4", "--seed", "3", "--out", str(inst_path)])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SolverConfig().to_dict(), "exact_l1_path": True}))
        code = main(["solve", "--problem", str(inst_path), "--config", str(cfg_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exact_l1_path" in err

    def test_missing_problem_file_exit_1(self, tmp_path, capsys):
        code = main(["solve", "--problem", str(tmp_path / "nope.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "nope.json" in err

    def test_malformed_problem_file_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--problem", str(bad)]) == 1

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

    def test_comma_seed_list(self, tmp_path):
        out = tmp_path / "bench2"
        code = main(["bench", "--n", "5", "--m", "3", "--seeds", "2,4",
                     "--rbar", "0.9", "--sbar", "0", "--eps", "1e-3",
                     "--out", str(out)])
        assert code == 0
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted(int(r["seed"]) for r in rows) == [2, 4]

    def test_worker_pool_matches_serial(self, tmp_path, monkeypatch):
        serial = tmp_path / "serial"
        main(["bench", "--n", "5", "--m", "3", "--seeds", "0..1", "--rbar", "0.9",
              "--sbar", "0", "--eps", "1e-3", "--out", str(serial)])
        monkeypatch.setenv("SMBA_WORKERS", "2")
        pooled = tmp_path / "pooled"
        main(["bench", "--n", "5", "--m", "3", "--seeds", "0..1", "--rbar", "0.9",
              "--sbar", "0", "--eps", "1e-3", "--out", str(pooled)])
        for fname in ("summary.csv",):
            with open(serial / fname, newline="") as fh:
                a = [{k: v for k, v in row.items() if k != "wall_time"}
                     for row in csv.DictReader(fh)]
            with open(pooled / fname, newline="") as fh:
                b = [{k: v for k, v in row.items() if k != "wall_time"}
                     for row in csv.DictReader(fh)]
            assert a == b

