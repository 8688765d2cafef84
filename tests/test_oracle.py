"""Differential test against an independent optimum: the extensive form
solved by HiGHS (``helpers.extensive_form_optimum``).  Skipped without
scipy.

The sampled instances cover duplicate-heavy samples (trend, random) and an
all-distinct one (wide); the evaluator instances add a degenerate W
(duplicate columns), scenario-dependent dual feasibility, badly scaled
columns and rows, and a recourse that leaves the extensive form
infeasible."""

import math

import numpy as np
import pytest

from lshaped import (
    EngineConfig, SolveStatus, Termination, parse_scheme, sample_instance, solve_lshaped,
)
from helpers import (
    evaluator_instances, extensive_form_optimum, random_template, trend_template, wide_template,
)

REL_TOL = 1e-6
#: slack on the bounds' sides of the optimum, relative to max(1, |optimum|)
BOUND_SLACK = 1e-9

LABELS = (
    "multi", "single", "kmedoids:k=3", "closest:A=4",
    "granulated:T0=3,inner=kmedoids:k=3", "kmedoids:k=1",
)
TEMPLATES = {
    "trend-3": (trend_template(3), 60, 3),
    "trend-5": (trend_template(5), 45, 5),
    "random-2": (random_template(2), 40, 1002),
    "wide-5": (wide_template(5), 40, 1),
}
#: every scenario of these instances is distinct
ALL_DISTINCT = ("wide-5",)
EVALUATOR_INSTANCES = (
    "duplicate columns", "scenario-dependent dual feasibility", "scaled columns", "scaled rows",
    "dependent rows",
)


@pytest.fixture(scope="module")
def optima():
    pytest.importorskip("scipy")
    out = {}
    for name, (template, count, seed) in TEMPLATES.items():
        problem = sample_instance(template, count, seed)
        if name in ALL_DISTINCT:
            scenarios = np.concatenate(
                [problem.Q, problem.T.reshape(count, -1), problem.H], axis=1
            )
            assert len(np.unique(scenarios, axis=0)) == count
        out[name] = problem, extensive_form_optimum(problem)
    for name, problem in evaluator_instances():
        if name in EVALUATOR_INSTANCES:
            out[name] = problem, extensive_form_optimum(problem)
    return out


@pytest.mark.parametrize("name", list(TEMPLATES) + list(EVALUATOR_INSTANCES))
@pytest.mark.parametrize("label", LABELS)
def test_solve_matches_highs_and_brackets_it(label, name, optima):
    problem, optimum = optima[name]
    report = solve_lshaped(problem, EngineConfig(scheme=parse_scheme(label), rel_tol=REL_TOL))
    assert report.status == SolveStatus.CONVERGED
    scale = max(1.0, abs(optimum))
    assert abs(report.objective - optimum) <= REL_TOL * scale
    slack = BOUND_SLACK * scale
    for rec in report.history:
        assert rec.lower <= optimum + slack, rec.index
        assert rec.upper >= optimum - slack, rec.index
    assert math.isfinite(report.history[-1].lower)


def test_infeasible_recourse_ends_master_infeasible():
    pytest.importorskip("scipy")
    problem = dict(evaluator_instances())["infeasible recourse"]
    with pytest.raises(RuntimeError, match="(?i)infeasible"):
        extensive_form_optimum(problem)
    report = solve_lshaped(problem, EngineConfig(rel_tol=REL_TOL))
    assert report.status == report.termination == Termination.MASTER_INFEASIBLE
    assert report.objective is None
    assert sum(rec.feasibility_cuts for rec in report.history) > 0
