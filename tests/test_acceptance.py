"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (visible under pytest -s) and asserts
the same condition, so the suite doubles as a checklist run:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from lshaped import (
    EngineConfig,
    Partial,
    SolveStatus,
    bell,
    bound_aggregated,
    bound_aggregated_upper,
    bound_dynamic_restricted,
    bound_multi_cut,
    bound_single_cut,
    build_extensive_form,
    cut_distance,
    DistanceMeasure,
    OptimalityCut,
    parse_scheme,
    sample_instance,
    solve_lp,
    solve_lshaped,
    solve_subproblem,
    stirling2,
)
from helpers import build_p1, random_instance, trend_template
from test_bounds import enumerate_partitions

ORACLE_REL_TOL = 1e-6
SCENARIO_COUNTS = (5, 20, 50)


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def schemes_for(n_scenarios):
    block = max(2, n_scenarios // 5)
    labels = [
        "multi",
        "single",
        f"partial:T={block}",
        f"uniform:T={block}",
        "closest:A=8,tau=0.3,measure=angular",
        "kmedoids:k=20,measure=angular",
        f"granulated:T0={min(5, n_scenarios)},inner=closest:A=4,tau=0.3",
    ]
    return [(label, parse_scheme(label)) for label in labels]


@pytest.fixture(scope="session")
def oracle_suite():
    """25 seeded complete-recourse instances plus the flat-optimum fixture,
    solved with every strategy at rel_tol 1e-6."""
    instances = [("p1", build_p1())]
    for seed in range(25):
        n_scen = SCENARIO_COUNTS[seed % len(SCENARIO_COUNTS)]
        instances.append((f"seed{seed}/N{n_scen}", random_instance(seed, n_scen)))
    started = time.perf_counter()
    results = []
    for name, prob in instances:
        oracle = solve_lp(build_extensive_form(prob))
        runs = {}
        for label, scheme in schemes_for(prob.n_scenarios):
            runs[label] = solve_lshaped(
                prob, EngineConfig(scheme=scheme, rel_tol=ORACLE_REL_TOL)
            )
        results.append((name, prob, oracle.objective, runs))
    elapsed = time.perf_counter() - started
    return results, elapsed


def test_oracle_equivalence(oracle_suite):
    results, elapsed = oracle_suite
    worst = 0.0
    failures = []
    for name, _, oracle, runs in results:
        for label, run in runs.items():
            if run.status != SolveStatus.CONVERGED:
                failures.append(f"{name}/{label}: {run.status}")
                continue
            rel = abs(run.objective - oracle) / max(1.0, abs(oracle))
            worst = max(worst, rel)
            if rel > 1e-6:
                failures.append(f"{name}/{label}: relative error {rel:.2e}")
    ok = not failures and elapsed < 60.0
    report(
        "oracle-equivalence", ok,
        f"({len(results)} instances x {len(results[0][3])} strategies, "
        f"worst rel err {worst:.2e}, {elapsed:.1f}s) {failures[:4]}",
    )


def test_finite_convergence(oracle_suite):
    results, _ = oracle_suite
    limited = [
        f"{name}/{label}"
        for name, _, _, runs in results
        for label, run in runs.items()
        if run.status == SolveStatus.ITERATION_LIMIT
    ]
    report("finite-convergence", not limited, str(limited[:4]))


def test_bound_identities():
    started = time.perf_counter()
    ok = True
    for n in range(1, 21):
        for b in range(1, 21):
            for m in range(1, 21):
                if bound_dynamic_restricted(n, b, m, 1, n, n) != bound_single_cut(n, b, m):
                    ok = False
                if bound_dynamic_restricted(n, b, m, n, 1, 1) != bound_multi_cut(n, b, m):
                    ok = False
    elapsed = time.perf_counter() - started
    report("bound-identities", ok and elapsed < 5.0, f"(8000 triples, {elapsed:.2f}s)")


def test_combinatorics_against_enumeration():
    ok = True
    for n in range(1, 11):
        by_size = {}
        total = 0
        for partition in enumerate_partitions(list(range(n))):
            by_size[len(partition)] = by_size.get(len(partition), 0) + 1
            total += 1
        for k in range(1, n + 1):
            if stirling2(n, k) != by_size.get(k, 0):
                ok = False
        if bell(n) != total:
            ok = False
    report("combinatorics", ok, "(stirling2/bell vs partition enumeration, N <= 10)")


def test_bound_monotonicity_fuzz():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(1000):
        count = int(rng.integers(1, 8))
        sizes = [int(rng.integers(1, 31)) for _ in range(count)]
        b = int(rng.integers(1, 6))
        m = int(rng.integers(1, 5))
        exact = bound_aggregated(sizes, b, m)
        if exact > bound_aggregated_upper(len(sizes), max(sizes), b, m):
            ok = False
        n_total = sum(sizes)
        if bound_aggregated([n_total], b, m) != bound_single_cut(n_total, b, m):
            ok = False
        if bound_aggregated([1] * n_total, b, m) != bound_multi_cut(n_total, b, m):
            ok = False
    report("bound-monotonicity-fuzz", ok, "(1000 size lists, N <= 30)")


def test_cut_validity(oracle_suite):
    results, _ = oracle_suite
    rng = np.random.default_rng(77)
    checked = 0
    worst = -math.inf
    ok = True
    for name, prob, _, runs in results:
        points = [rng.uniform(0.0, 2.0, prob.n) for _ in range(20)]
        # cache pi_s Q_s(x) per point; cuts then check by pure arithmetic
        table = np.array(
            [
                [
                    prob.scenarios[s].pi * solve_subproblem(prob, s, x).value
                    for s in range(prob.n_scenarios)
                ]
                for x in points
            ]
        )
        for label, run in runs.items():
            for cut in run.cuts:
                members = list(cut.members)
                for i, x in enumerate(points):
                    slack = float(table[i, members].sum()) - (
                        cut.offset - float(cut.grad @ x)
                    )
                    worst = max(worst, -slack)
                    if slack < -1e-7:
                        ok = False
                checked += 1
    report(
        "cut-validity", ok,
        f"({checked} cuts x 20 points, worst undershoot {max(worst, 0.0):.2e})",
    )


def test_lower_bound_monotonicity(oracle_suite):
    results, _ = oracle_suite
    ok = True
    for name, _, _, runs in results:
        for label, run in runs.items():
            lows = [rec.lower for rec in run.history if math.isfinite(rec.lower)]
            for a, b in zip(lows, lows[1:]):
                if b < a - 1e-8:
                    ok = False
    report("lower-bound-monotonicity", ok)


def test_tradeoff_trend():
    started = time.perf_counter()
    prob = sample_instance(trend_template(0), 200, 42)
    sweep = {}
    for block in (1, 5, 10, 25, 50, 100, 200):
        run = solve_lshaped(prob, EngineConfig(scheme=Partial(block), rel_tol=1e-4))
        assert run.status == SolveStatus.CONVERGED
        sweep[block] = (run.n_iterations, run.n_cuts)
    elapsed = time.perf_counter() - started
    cuts_drop = sweep[200][1] < sweep[1][1]
    iters_grow = sweep[1][0] <= sweep[200][0]
    ok = cuts_drop and iters_grow and elapsed < 120.0
    report(
        "tradeoff-trend", ok,
        f"(N=200: cuts {sweep[1][1]}->{sweep[200][1]}, iters {sweep[1][0]}->{sweep[200][0]}, "
        f"{elapsed:.1f}s)",
    )


def test_worker_determinism():
    prob = random_instance(11, 20)
    histories = []
    for workers in (1, 4):
        run = solve_lshaped(
            prob,
            EngineConfig(scheme=parse_scheme("partial:T=4"), rel_tol=1e-6, workers=workers),
        )
        histories.append(run)
    a, b = histories
    ok = (
        a.objective == b.objective
        and len(a.history) == len(b.history)
        and all(
            np.array_equal(ra.x, rb.x) and ra.lower == rb.lower and ra.upper == rb.upper
            for ra, rb in zip(a.history, b.history)
        )
    )
    report("worker-determinism", ok, "(bitwise identical histories for 1 and 4 workers)")


def test_distance_measure_examples():
    a = OptimalityCut(grad=[1.0, 0.0], offset=1.0, members=(0,))
    b = OptimalityCut(grad=[0.0, 1.0], offset=1.0, members=(1,))
    c = OptimalityCut(grad=[1.0, 0.0], offset=2.0, members=(1,))
    checks = [
        abs(cut_distance(a, b, DistanceMeasure.ANGULAR) - 1.0) <= 1e-12,
        abs(cut_distance(a, c, DistanceMeasure.SPATIOANGULAR) - 0.5) <= 1e-12,
    ]
    for measure in DistanceMeasure:
        checks.append(abs(cut_distance(a, a, measure)) <= 1e-12)
    report("distance-measures", all(checks))
