"""The benchmark at a tiny size: every metric printed with its unit, and
the deterministic counts identical between two runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

pytest.importorskip("scipy")

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY_SCENARIOS = {"multi_master": 20, "single_subproblem": 40, "granulated_kmedoids": 40}
DETERMINISTIC = ("iterations", "cuts", "simplex.master_rows_max", "simplex.master_cols_max",
                 "engine.cuts_added_ratio")


def tiny_run(name: str, trace: bool, capsys, tmp_path) -> tuple[dict, str]:
    workload = replace(WORKLOADS[name], n_scenarios=TINY_SCENARIOS[name], min_iterations=1)
    result = run.run_benchmark(workload, seed=3, seconds=0.0, trace=trace, out_dir=tmp_path)
    return result, capsys.readouterr().out


def test_workloads_match_the_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(TINY_SCENARIOS))
def test_tiny_run_reports_every_metric_and_repeats_its_counts(name, capsys, tmp_path):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        first, out = tiny_run(name, trace, capsys, tmp_path)
        second, _ = tiny_run(name, trace, capsys, tmp_path)
        assert first["correct"] and first["failed"] == 0 and first["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
        lines = out.splitlines()
        for metric, unit in expected.items():
            assert any(line.startswith(f"{metric} ") and line.endswith(f" {unit}")
                       for line in lines), metric
        json.dumps(first)  # the result line must serialise
        for metric, value in first["metrics"].items():
            if metric in DETERMINISTIC or metric.endswith("_calls"):
                assert value == second["metrics"][metric], metric
    assert list(tmp_path.glob(f"{name}-seed3-trace.json"))


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "single_subproblem",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
