import json

import pytest

from lshaped import write_native
from lshaped.cli import BENCH_HEADER, main, parse_bench_csv
from helpers import P1_CORE, P1_OPTIMUM, P1_STOCH, P1_TIME, build_p1, random_template


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
        for key in ("master_s", "agg_s"):
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

    def test_workers_flag_matches_serial_run(self, capsys, p1_json):
        outputs = []
        for workers in ("1", "4"):
            code, out, _ = run(capsys, "solve", "--input", p1_json, "--tol", "1e-6",
                               "--scheme", "multi", "--workers", workers)
            assert code == 0
            doc = json.loads(out)
            doc["metrics"].pop("wall_seconds")
            for rec in doc["iterations"]:
                rec.pop("master_s")
                rec.pop("agg_s")
            outputs.append(doc)
        assert outputs[0] == outputs[1]


class TestBench:
    def test_sweep_csv(self, capsys, p1_json):
        code, out, _ = run(
            capsys, "bench", "--input", p1_json, "--scheme", "partial",
            "--sweep", "T=1:2:1", "--repeats", "2", "--tol", "1e-6",
        )
        assert code == 0
        rows = parse_bench_csv(out)
        assert [r.value for r in rows] == ["1", "2"]
        assert rows[0].scheme == "partial:T=1"
        for row in rows:
            assert row.status == "converged"
            assert row.rel_cut is not None

    def test_rel_cut_recomputable_from_reports(self, capsys, template_json):
        code, out, _ = run(
            capsys, "bench", "--input", template_json, "--samples", "20", "--seed", "5",
            "--scheme", "partial", "--sweep", "T=1,4,20", "--repeats", "1", "--tol", "1e-6",
        )
        assert code == 0
        rows = parse_bench_csv(out)
        multi_cuts = None
        for row in rows:
            if row.value == "1":
                multi_cuts = row.n_cuts  # T=1 equals multi-cut by construction
        assert multi_cuts is not None
        for row in rows:
            assert row.rel_cut == pytest.approx(row.n_cuts / multi_cuts, abs=1e-9)

    def test_multi_target_rel_cut_is_one(self, capsys, p1_json):
        code, out, _ = run(capsys, "bench", "--input", p1_json, "--scheme", "multi",
                           "--repeats", "1", "--tol", "1e-6")
        assert code == 0
        rows = parse_bench_csv(out)
        assert len(rows) == 1
        assert rows[0].rel_cut == pytest.approx(1.0)

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
        rows = parse_bench_csv(out)
        assert rows[0].time_seconds == pytest.approx(3.0)  # median of 5, 1, 3

    def test_csv_header_fixed(self, capsys, p1_json):
        code, out, _ = run(capsys, "bench", "--input", p1_json, "--scheme", "single",
                           "--repeats", "1", "--tol", "1e-6")
        assert out.splitlines()[0] == ",".join(BENCH_HEADER)

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
        ("granulated:T0=2,inner=single", "T0=1e-3"), ("kmedoids", "seed=0.5"),
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
        code, out, _ = run(capsys, "bounds", "--compare", "--N", "4", "--b", "2",
                           "--m", "2", "--A0", "2", "--sizes", "2,2")
        assert code == 0
        assert "single" in out and "dynamic" in out

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

    def test_smps_triple(self, capsys, p1_smps):
        code, out, _ = run(capsys, "validate", "--core", p1_smps["core"],
                           "--time", p1_smps["time"], "--stoch", p1_smps["stoch"])
        assert code == 0
