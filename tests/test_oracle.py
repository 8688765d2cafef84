"""Differential test against an independent optimum: the extensive form
solved by HiGHS (``helpers.extensive_form_optimum``).  Skipped without
scipy."""

import math

import pytest

from lshaped import EngineConfig, SolveStatus, parse_scheme, sample_instance, solve_lshaped
from helpers import extensive_form_optimum, random_template, trend_template

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
}


@pytest.fixture(scope="module")
def optima():
    pytest.importorskip("scipy")
    out = {}
    for name, (template, count, seed) in TEMPLATES.items():
        problem = sample_instance(template, count, seed)
        out[name] = problem, extensive_form_optimum(problem)
    return out


@pytest.mark.parametrize("name", list(TEMPLATES))
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
