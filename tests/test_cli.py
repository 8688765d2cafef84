import csv
import io
import json

import pytest

from lshaped import FirstStage, RandomEntry, StochasticTemplate, write_native
from lshaped.cli import BENCH_HEADER, _parse_sweep, main
from helpers import (
    P1_CORE, P1_OPTIMUM, P1_STOCH, P1_TIME, build_p1, random_template, record_calls,
)


@pytest.fixture
def p1_json(tmp_path):
    path = tmp_path / "p1.json"
    path.write_text(write_native(build_p1(), name="p1"))
    return str(path)


@pytest.fixture
def p1_smps(tmp_path):
    paths = {}
    for name, text in (("core", P1_CORE), ("time", P1_TIME), ("stoch", P1_STOCH)):
        p = tmp_path / f"p1.{name}"
        p.write_text(text)
        paths[name] = str(p)
    return paths


@pytest.fixture
def template_json(tmp_path):
    path = tmp_path / "template.json"
    path.write_text(write_native(random_template(2), name="t2"))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bench_rows(text: str) -> list[dict]:
    """The rows of ``bench`` CSV output, keyed by the header."""
    return list(csv.DictReader(io.StringIO(text)))


class TestSolve:
    def test_native_single_cut(self, capsys, p1_json):
        code, out, _ = run(capsys, "solve", "--input", p1_json, "--scheme", "single",
                           "--tol", "1e-6")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "converged"
        assert abs(doc["objective"] - P1_OPTIMUM) <= 1e-6
        assert doc["metrics"]["n_iterations"] >= 1
        for rec in doc["iterations"]:
            assert rec["master_pivots"] >= 0 and rec["master_rows"] == rec["k"] - 1

    def test_json_reports_sub_solves(self, capsys, template_json):
        code, out, _ = run(capsys, "solve", "--input", template_json, "--samples", "40",
                           "--seed", "3", "--scheme", "single", "--tol", "1e-6")
        assert code == 0
        doc = json.loads(out)
        from lshaped import EngineConfig, parse_native, parse_scheme, sample_instance, solve_lshaped
        with open(template_json) as fh:
            problem = sample_instance(parse_native(fh.read()), 40, 3)
        report = solve_lshaped(problem, EngineConfig(scheme=parse_scheme("single"), rel_tol=1e-6))
        assert [rec["sub_solves"] for rec in doc["iterations"]] == [
            rec.sub_solves for rec in report.history
        ]
        assert 0 < sum(rec["sub_solves"] for rec in doc["iterations"]) < 40 * len(report.history)

    def test_json_reports_master_time(self, capsys, template_json):
        code, out, _ = run(capsys, "solve", "--input", template_json, "--samples", "40",
                           "--seed", "3", "--scheme", "multi", "--tol", "1e-6")
        assert code == 0
        doc = json.loads(out)
        for key in ("sub_s", "filter_s", "master_s", "agg_s"):
            times = [rec[key] for rec in doc["iterations"]]
            assert len(times) == doc["metrics"]["n_iterations"]
            assert all(isinstance(t, float) and t >= 0 for t in times)
            assert sum(times) <= doc["metrics"]["wall_seconds"]

    def test_json_reports_termination_and_final_gap(self, capsys, p1_json):
        code, out, _ = run(capsys, "solve", "--input", p1_json, "--scheme", "multi",
                           "--tol", "1e-6")
        assert code == 0
        doc = json.loads(out)
        assert doc["termination"] == "gap"
        assert 0.0 <= doc["final_gap"] <= 1e-6
        code, out, _ = run(capsys, "solve", "--input", p1_json, "--max-iters", "1")
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == doc["termination"] == "iteration_limit"
        assert doc["final_gap"] is None  # no iteration had a finite lower bound

    def test_partial_scheme_reports_partition(self, capsys, p1_json):
        code, out, _ = run(capsys, "solve", "--input", p1_json,
                           "--scheme", "partial:T=2", "--tol", "1e-6")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["objective"] - P1_OPTIMUM) <= 1e-6
        assert any(rec["partition_used"] == [[0, 1]] for rec in doc["iterations"])

    def test_smps_input_with_sampling(self, capsys, p1_smps):
        code, out, _ = run(
            capsys, "solve", "--core", p1_smps["core"], "--time", p1_smps["time"],
            "--stoch", p1_smps["stoch"], "--samples", "50", "--seed", "3",
            "--scheme", "partial:T=10", "--tol", "1e-6",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "converged"

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "solve", "--input", "/nonexistent/p.json")
        assert code == 1
        assert "cannot read" in err

    def test_parse_error_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run(capsys, "solve", "--input", str(bad))
        assert code == 1
        assert "parse error" in err

    @pytest.mark.parametrize("tol", ["nan", "0", "-1e-3"])
    def test_invalid_tolerance_rejected(self, capsys, p1_json, tol):
        code, out, err = run(capsys, "solve", "--input", p1_json, f"--tol={tol}")
        assert code == 1
        assert "rel_tol must be positive" in err
        assert out == ""

    def test_iteration_limit_exit_code(self, capsys, p1_json):
        code, out, _ = run(capsys, "solve", "--input", p1_json, "--tol", "1e-9",
                           "--max-iters", "1")
        assert code == 2

    def test_master_infeasible_exit_code(self, capsys, tmp_path):
        doc = {
            "version": 1, "name": "stuck",
            "first_stage": {"c": [1.0], "A": [[1.0]], "b": [3.0]},
            "recourse": {"W": [[1.0]], "m": 1},
            "scenarios": [{"pi": 1.0, "q": [1.0], "T": [[1.0]], "h": [2.0]}],
        }
        path = tmp_path / "stuck.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "solve", "--input", str(path))
        assert code == 3

    def test_output_file_and_objective_bit_for_bit(self, capsys, p1_json, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "solve", "--input", p1_json, "--tol", "1e-6",
                         "--output", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        from lshaped import EngineConfig, solve_lshaped
        report = solve_lshaped(build_p1(), EngineConfig(rel_tol=1e-6))
        assert doc["objective"] == report.objective

    def test_unwritable_output_is_reported(self, capsys, p1_json, tmp_path):
        out_path = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "solve", "--input", p1_json, "--output", str(out_path))
        assert code == 1 and out == ""
        assert f"cannot write {out_path}" in err

    def test_template_without_samples_enumerates(self, capsys, template_json):
        code, out, _ = run(capsys, "solve", "--input", template_json, "--tol", "1e-4")
        assert code == 0

    def test_csv_summary_format(self, capsys, p1_json):
        code, out, _ = run(capsys, "solve", "--input", p1_json, "--tol", "1e-6",
                           "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",")[:2] == ["status", "objective"]
        assert row.split(",")[0] == "converged"

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_workers_flag_is_a_usage_error(self, capsys, p1_json, command):
        code, out, err = run(capsys, command, "--input", p1_json, "--workers", "1")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --workers 1" in err


def test_debug_log_writes_iteration_lines_to_stderr(p1_json):
    import os
    import subprocess
    import sys

    import lshaped

    env = dict(os.environ, LSHAPED_LOG="DEBUG",
               PYTHONPATH=os.path.dirname(os.path.dirname(lshaped.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "lshaped.cli", "solve", "--input", p1_json, "--tol", "1e-6"],
        env=env, capture_output=True, text=True, check=True,
    )
    lines = [line for line in done.stderr.splitlines() if "iteration " in line]
    report = json.loads(done.stdout)
    assert len(lines) == len(report["iterations"]) >= 2
    for line, it in zip(lines, report["iterations"]):
        assert f"lshaped.engine:iteration {it['k']}: lower " in line
    assert "iteration " not in done.stdout


class TestBench:
    def test_sweep_csv(self, capsys, p1_json):
        code, out, _ = run(
            capsys, "bench", "--input", p1_json, "--scheme", "partial",
            "--sweep", "T=1:2:1", "--repeats", "2", "--tol", "1e-6",
        )
        assert code == 0
        rows = bench_rows(out)
        assert [r["value"] for r in rows] == ["1", "2"]
        assert rows[0]["scheme"] == "partial:T=1"
        for row in rows:
            assert row["status"] == "converged"
            assert row["rel_cut"] != ""

    def test_sweep_reaches_the_inner_rule_of_a_granulated_strategy(self, capsys, template_json):
        code, out, _ = run(
            capsys, "bench", "--input", template_json, "--samples", "20", "--seed", "5",
            "--scheme", "granulated:T0=2,inner=kmedoids:k=3", "--sweep", "k=2,4",
            "--repeats", "1", "--tol", "1e-6",
        )
        assert code == 0
        rows = bench_rows(out)
        assert [(r["param"], r["value"]) for r in rows] == [("k", "2"), ("k", "4")]
        assert [r["scheme"] for r in rows] == [
            f"granulated:T0=2,inner=kmedoids:k={k},measure=angular" for k in (2, 4)
        ]
        assert all(r["status"] == "converged" for r in rows)

    def test_rel_cut_recomputable_from_reports(self, capsys, template_json):
        code, out, _ = run(
            capsys, "bench", "--input", template_json, "--samples", "20", "--seed", "5",
            "--scheme", "partial", "--sweep", "T=1,4,20", "--repeats", "1", "--tol", "1e-6",
        )
        assert code == 0
        rows = bench_rows(out)
        multi_cuts = None
        for row in rows:
            if row["value"] == "1":
                multi_cuts = int(row["n_cuts"])  # T=1 equals multi-cut by construction
        assert multi_cuts is not None
        for row in rows:
            assert float(row["rel_cut"]) == pytest.approx(int(row["n_cuts"]) / multi_cuts,
                                                          abs=1e-9)

    def test_multi_target_rel_cut_is_one(self, capsys, p1_json):
        code, out, _ = run(capsys, "bench", "--input", p1_json, "--scheme", "multi",
                           "--repeats", "1", "--tol", "1e-6")
        assert code == 0
        rows = bench_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["rel_cut"]) == pytest.approx(1.0)

    def test_median_of_repeats(self, capsys, p1_json, monkeypatch):
        times = iter([5.0, 1.0, 3.0, 5.0, 1.0, 3.0, 5.0, 1.0, 3.0])
        import lshaped.cli as cli_mod

        original = cli_mod.solve_lshaped

        def fake_solve(problem, config):
            report = original(problem, config)
            report.wall_seconds = next(times)
            return report

        monkeypatch.setattr(cli_mod, "solve_lshaped", fake_solve)
        code, out, _ = run(capsys, "bench", "--input", p1_json, "--scheme", "single",
                           "--repeats", "3", "--tol", "1e-6")
        assert code == 0
        rows = bench_rows(out)
        assert float(rows[0]["time_seconds"]) == pytest.approx(3.0)  # median of 5, 1, 3

    def test_csv_header_fixed(self, capsys, p1_json):
        code, out, _ = run(capsys, "bench", "--input", p1_json, "--scheme", "single",
                           "--repeats", "1", "--tol", "1e-6")
        assert out.splitlines()[0] == ",".join(BENCH_HEADER)

    @pytest.mark.parametrize("sweep, values", [
        # a running sum ended these at 1.0000000000000002 and 1.0000000000000007
        ("tau=0.8:1:0.05", [0.8, 0.8 + 0.05, 0.8 + 2 * 0.05, 0.8 + 3 * 0.05, 1.0]),
        ("tau=0:1:0.01", [i * 0.01 for i in range(100)] + [1.0]),
        ("T=1:32:1", [float(T) for T in range(1, 33)]),
        ("tau=0.1:0.5:0.1", [0.1, 0.2, 0.30000000000000004, 0.4, 0.5]),
        ("tau=0:1:0.3", [0.0, 0.3, 0.6, 0.8999999999999999]),
        ("T=3:3:1", [3.0]),
    ])
    def test_sweep_range_point_i_is_start_plus_i_steps(self, sweep, values):
        assert _parse_sweep(sweep) == (sweep.partition("=")[0], values)

    def test_angular_sweep_up_to_one_runs_every_point(self, capsys, p1_json):
        code, out, err = run(capsys, "bench", "--input", p1_json, "--scheme", "closest:A=2",
                             "--sweep", "tau=0.8:1:0.05", "--repeats", "1", "--tol", "1e-6")
        assert (code, err) == (0, "")
        rows = bench_rows(out)
        assert [r["value"] for r in rows] == ["0.8", "0.85", "0.9", "0.95", "1"]
        assert rows[-1]["scheme"] == "closest:A=2,tau=1.0,measure=angular"

    def test_malformed_sweep(self, capsys, p1_json):
        code, _, err = run(capsys, "bench", "--input", p1_json, "--scheme", "partial",
                           "--sweep", "T=")
        assert code == 1

    @pytest.mark.parametrize("scheme, sweep", [
        ("closest:A=2", "tau=0.1,,0.3"), ("partial", "T=1,2,"),
    ])
    def test_empty_sweep_field_is_malformed(self, capsys, p1_json, scheme, sweep):
        code, out, err = run(capsys, "bench", "--input", p1_json, "--scheme", scheme,
                             "--sweep", sweep, "--repeats", "1", "--tol", "1e-6")
        assert code == 1 and out == ""
        assert "malformed sweep values" in err

    @pytest.mark.parametrize("sweep", ["tau=0:inf:1", "tau=nan:1:0.5", "tau=0:1:inf",
                                       "tau=-inf:1:1"])
    def test_non_finite_sweep_range_rejected(self, capsys, p1_json, sweep):
        code, out, err = run(capsys, "bench", "--input", p1_json, "--scheme", "closest:A=2",
                             "--sweep", sweep, "--repeats", "1")
        assert code == 1 and out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize("scheme, sweep", [
        ("kmedoids:k=2", "k=1:3:0.5"), ("partial", "T=1,1.5"), ("closest", "A=2.5"),
        ("granulated:T0=2,inner=single", "T0=1e-3"),
        ("granulated:T0=2,inner=kmedoids:k=2", "k=2.5"),
    ])
    def test_non_integral_sweep_value_rejected(self, capsys, p1_json, scheme, sweep):
        code, out, err = run(capsys, "bench", "--input", p1_json, "--scheme", scheme,
                             "--sweep", sweep, "--repeats", "1")
        assert code == 1 and out == ""
        assert "must be an integer" in err

    def test_unknown_sweep_parameter_rejected(self, capsys, p1_json):
        code, out, err = run(capsys, "bench", "--input", p1_json, "--scheme", "partial",
                             "--sweep", "k=1,2", "--repeats", "1")
        assert code == 1 and out == ""
        assert "has no parameter 'k'" in err

    def test_kmedoids_seed_sweep_rejected(self, capsys, p1_json):
        code, out, err = run(capsys, "bench", "--input", p1_json, "--scheme", "kmedoids:k=2",
                             "--sweep", "seed=1,2", "--repeats", "1")
        assert code == 1 and out == ""
        assert "has no parameter 'seed'" in err

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_repeats_must_be_positive(self, capsys, p1_json, repeats):
        code, out, err = run(capsys, "bench", "--input", p1_json, "--scheme", "single",
                             "--repeats", repeats)
        assert code == 1 and out == ""
        assert "--repeats must be at least 1" in err

    @pytest.mark.parametrize("extra, message", [
        (["--scheme", "single", "--tol", "nan"], "rel_tol must be positive"),
        (["--scheme", "closest:A=2,measure=absolute", "--sweep", "tau=nan"],
         "invalid aggregation strategy"),
    ])
    def test_invalid_run_reported(self, capsys, p1_json, extra, message):
        code, out, err = run(capsys, "bench", "--input", p1_json, "--repeats", "1", *extra)
        assert code == 1
        assert message in err
        assert out == ""

    def test_invalid_sweep_point_is_rejected_before_any_solve(self, capsys, p1_json,
                                                              monkeypatch):
        import lshaped.cli as cli_mod

        solves = record_calls(monkeypatch, cli_mod, "solve_lshaped")
        code, out, err = run(capsys, "bench", "--input", p1_json, "--scheme", "partial:T=1",
                             "--sweep", "T=0:2:1", "--repeats", "3")
        assert code == 1 and out == ""
        assert "partial block size 0 not in 1..2" in err
        assert solves == []

    def test_json_rows_follow_the_header(self, capsys, p1_json):
        code, out, _ = run(capsys, "bench", "--input", p1_json, "--scheme", "partial",
                           "--sweep", "T=1,2", "--repeats", "1", "--tol", "1e-6",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [(r["param"], r["value"]) for r in rows] == [("T", "1"), ("T", "2")]
        for row in rows:
            assert list(row) == BENCH_HEADER
            assert row["status"] == "converged"
            assert type(row["n_iterations"]) is int and type(row["n_cuts"]) is int
            for name in ("time_seconds", "rel_cut", "rel_iter", "rel_time"):
                assert type(row[name]) is float, name

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unconverged_point_has_no_relative_fields(self, capsys, p1_json, monkeypatch, fmt):
        # the baselines converge, the swept point stops at the iteration cap
        import dataclasses

        import lshaped.cli as cli_mod
        from lshaped.aggregation import MultiCut, SingleCut

        original = cli_mod.solve_lshaped

        def capped(problem, config):
            if not isinstance(config.scheme, (MultiCut, SingleCut)):
                config = dataclasses.replace(config, max_iterations=1)
            return original(problem, config)

        monkeypatch.setattr(cli_mod, "solve_lshaped", capped)
        code, out, _ = run(capsys, "bench", "--input", p1_json, "--scheme", "partial:T=1",
                           "--repeats", "1", "--tol", "1e-6", "--format", fmt)
        assert code == 0
        (row,) = bench_rows(out) if fmt == "csv" else json.loads(out)
        assert row["status"] == "iteration_limit"
        empty = "" if fmt == "csv" else None
        assert [row[name] for name in ("rel_cut", "rel_iter", "rel_time")] == [empty] * 3

    def test_baseline_non_convergence_aborts(self, capsys, p1_json):
        code, _, err = run(capsys, "bench", "--input", p1_json, "--scheme", "single",
                           "--repeats", "1", "--tol", "1e-9", "--max-iters", "1")
        assert code == 2
        assert "baseline" in err


class TestBounds:
    def test_single(self, capsys):
        code, out, _ = run(capsys, "bounds", "--single", "--N", "2", "--b", "2", "--m", "2")
        assert code == 0
        assert out.strip() == "9"

    def test_dynamic(self, capsys):
        code, out, _ = run(capsys, "bounds", "--dynamic", "--N", "2", "--b", "2",
                           "--m", "1", "--A0", "2")
        assert code == 0
        assert out.strip() == "5"

    def test_dynamic_at_large_n(self, capsys):
        # m large enough that the facet sum outgrows the 2391-digit Bell(1200)
        code, out, _ = run(capsys, "bounds", "--dynamic", "--N", "1200", "--b", "2",
                           "--m", "800")
        assert code == 0
        assert out.strip().isdigit() and len(out.strip()) > 2000

    def test_dynamic_below_one_iteration_is_an_error(self, capsys):
        code, out, err = run(capsys, "bounds", "--dynamic", "--N", "7", "--b", "2", "--m", "1")
        assert code == 1 and out == ""
        assert "gives -301 < 1 for N=7, b=2, m=1" in err
        assert "Traceback" not in err

    def test_compare_with_a_dynamic_bound_below_one_is_an_error(self, capsys):
        code, out, err = run(capsys, "bounds", "--compare", "--N", "10", "--b", "2",
                             "--m", "1")
        assert code == 1 and out == ""
        assert "gives -109831 < 1 for N=10, b=2, m=1" in err
        assert "Traceback" not in err

    def test_multi_trivial(self, capsys):
        code, out, _ = run(capsys, "bounds", "--multi", "--N", "1", "--b", "1", "--m", "1")
        assert code == 0
        assert out.strip() == "1"

    def test_aggregated_with_sizes(self, capsys):
        code, out, _ = run(capsys, "bounds", "--aggregated", "--sizes", "2,1",
                           "--b", "2", "--m", "1")
        assert code == 0
        assert out.strip() == "4"

    def test_restricted_reduction(self, capsys):
        code, out, _ = run(capsys, "bounds", "--restricted", "--N", "6", "--b", "3",
                           "--m", "2", "--A0", "1", "--lo", "6", "--hi", "6")
        assert code == 0
        assert out.strip() == str((1 + 6 * 2) ** 2)

    def test_compare(self, capsys):
        code, out, err = run(capsys, "bounds", "--compare", "--N", "4", "--b", "2",
                             "--m", "2", "--A0", "2", "--sizes", "2,2")
        assert code == 0 and err == ""
        # single (1 + 4)^2; multi 1 + 4 (2^2 - 1); aggregated 1 + 2 * 3^2 - 2;
        # dynamic 2 + (4*2^2 + 6*3^2 + 4*4^2 + 5^2) - Bell(4) - 2 = 2 + 159 - 15 - 2
        assert out == "single      25\nmulti       13\naggregated  17\ndynamic     144\n"

    @pytest.mark.parametrize("argv, want", [
        # (1 + 3 (2 - 1))^2
        (["--single", "--N", "3", "--b", "2", "--m", "2"], "16"),
        # 1 + 3 ((1 + 2 (2 - 1))^2 - 1)
        (["--upper", "--A", "3", "--AL", "2", "--b", "2", "--m", "2"], "25"),
        # 2 + (3*2^2 + 3*3^2 + 1*4^2) - (S(3,1) + S(3,2) + S(3,3)) - 1 = 2 + 55 - 5 - 1
        (["--dynamic", "--N", "3", "--b", "2", "--m", "2", "--A0", "1"], "51"),
    ])
    def test_hand_computed_values(self, capsys, argv, want):
        code, out, err = run(capsys, "bounds", *argv)
        assert (code, out, err) == (0, want + "\n", "")

    def test_compare_sizes_must_sum_to_n(self, capsys):
        code, out, err = run(capsys, "bounds", "--compare", "--N", "3", "--b", "2",
                             "--m", "2", "--A0", "2", "--sizes", "2,2")
        assert code == 1 and out == ""
        assert "sum to 4" in err and "--N 3" in err

    @pytest.mark.parametrize("kind", ["--compare", "--aggregated"])
    def test_empty_size_field_is_malformed(self, capsys, kind):
        code, out, err = run(capsys, "bounds", kind, "--N", "3", "--b", "2",
                             "--m", "2", "--sizes", "2,,1")
        assert code == 1 and out == ""
        assert "malformed --sizes" in err

    def test_invalid_args(self, capsys):
        code, _, err = run(capsys, "bounds", "--single", "--N", "0", "--b", "2", "--m", "2")
        assert code == 1
        code, _, err = run(capsys, "bounds", "--N", "2", "--b", "2", "--m", "2")
        assert code == 1


class TestValidate:
    def test_valid_problem(self, capsys, p1_json):
        code, out, _ = run(capsys, "validate", "--input", p1_json)
        assert code == 0
        assert "ok" in out

    def test_template_input(self, capsys, template_json):
        code, out, _ = run(capsys, "validate", "--input", template_json)
        assert code == 0

    def test_malformed_random_entry_is_a_parse_error(self, capsys, tmp_path):
        doc = json.loads(write_native(random_template(2)))
        doc["random"][0]["outcomes"][0][0] = "x"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert code == 1
        assert "$.random[0].outcomes[0]" in err and "Traceback" not in out + err

    def test_template_first_stage_is_checked_as_a_problem_is(self, capsys, tmp_path):
        # A is 1 x 2 against 3 costs and 2 right-hand sides; solve rejects
        # the sampled problem for both, so validate must too
        template = StochasticTemplate(
            first=FirstStage(c=[1.0, 1.0, 1.0], A=[[1.0, 1.0]], b=[1.0, 2.0]),
            W=[[1.0, -1.0]], q=[1.0, 0.0], T=[[1.0, 0.0, 0.0]], h=[2.0],
            entries=(RandomEntry("h", 0, 0, ((2.0, 0.5), (4.0, 0.5))),),
        )
        path = tmp_path / "template.json"
        path.write_text(write_native(template))
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "parse error:",
            "native:1: $: A has 2 columns, expected 3",
            "native:1: $: A has 1 rows but b has 2 entries",
        ]

    def test_smps_triple(self, capsys, p1_smps):
        code, out, _ = run(capsys, "validate", "--core", p1_smps["core"],
                           "--time", p1_smps["time"], "--stoch", p1_smps["stoch"])
        assert code == 0
