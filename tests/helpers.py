"""Shared fixtures-in-code: the P1 instance and seeded instance generators.

P1: one first-stage variable with unit cost and no first-stage rows; two
equally likely scenarios with recourse y - u = h_s - x, recourse costs
(1, 0), and h = 2 or 4.  The expected cost x + 0.5 max(2-x, 0)
+ 0.5 max(4-x, 0) is flat at 3.0 on x in [0, 2].
"""

from __future__ import annotations

import math

import numpy as np

from lshaped import (
    Cluster,
    Dynamic,
    FirstStage,
    RandomEntry,
    Scenario,
    StochasticTemplate,
    TwoStageProblem,
    XorShift64Star,
    aggregate_cuts,
    aggregation_distance,
    kmedoids_cluster,
    make_optimality_cut,
    sample_instance,
    solve_subproblem,
)
from lshaped.engine import ScenarioResults

P1_OPTIMUM = 3.0


def build_p1() -> TwoStageProblem:
    first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[])
    scenarios = (
        Scenario(pi=0.5, q=[1.0, 0.0], T=[[1.0]], h=[2.0]),
        Scenario(pi=0.5, q=[1.0, 0.0], T=[[1.0]], h=[4.0]),
    )
    return TwoStageProblem(first=first, W=[[1.0, -1.0]], scenarios=scenarios)


def random_template(seed: int) -> StochasticTemplate:
    """Complete-recourse template: W = [I | -I] with positive recourse costs
    keeps every subproblem feasible and bounded for any first-stage point."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    q_rows = int(rng.integers(1, 3))
    m = 2 * q_rows
    c = rng.uniform(0.5, 2.0, n)
    A = np.ones((1, n))
    b = [float(rng.uniform(1.0, 3.0))]
    W = np.hstack([np.eye(q_rows), -np.eye(q_rows)])
    q = rng.uniform(0.2, 2.0, m)
    T = rng.uniform(-1.0, 1.0, (q_rows, n))
    h = rng.uniform(-2.0, 2.0, q_rows)
    entries = []
    for _ in range(int(rng.integers(2, 4))):
        target = str(rng.choice(["h", "T", "q"]))
        row, col = int(rng.integers(0, q_rows)), 0
        count = int(rng.integers(2, 4))
        if target == "T":
            col = int(rng.integers(0, n))
            values = rng.uniform(-2.0, 2.0, count)
        elif target == "q":
            row, col = 0, int(rng.integers(0, m))
            values = rng.uniform(0.2, 2.0, count)  # negative costs unbound the recourse
        else:
            values = rng.uniform(-2.0, 2.0, count)
        probs = rng.uniform(0.1, 1.0, count)
        probs = probs / probs.sum()
        entries.append(RandomEntry(target, row, col, tuple(zip(values, probs))))
    return StochasticTemplate(FirstStage(c, A, b), W, q, T, h, tuple(entries))


def random_instance(seed: int, n_scenarios: int) -> TwoStageProblem:
    return sample_instance(random_template(seed), n_scenarios, seed + 1000)


def trend_template(seed: int) -> StochasticTemplate:
    """Larger sweep instance: 3 first-stage variables on a simplex, 2
    recourse rows, randomness on both right-hand sides and two technology
    entries."""
    rng = np.random.default_rng(seed)
    n, q_rows = 3, 2
    m = 2 * q_rows
    c = rng.uniform(0.5, 2.0, n)
    A = np.ones((1, n))
    b = [2.0]
    W = np.hstack([np.eye(q_rows), -np.eye(q_rows)])
    q = rng.uniform(0.2, 2.0, m)
    T = rng.uniform(-1.0, 1.0, (q_rows, n))
    h = rng.uniform(-2.0, 2.0, q_rows)
    entries = []
    for row in range(q_rows):
        values = rng.uniform(-2.0, 2.0, 4)
        probs = rng.uniform(0.1, 1.0, 4)
        probs = probs / probs.sum()
        entries.append(RandomEntry("h", row, 0, tuple(zip(values, probs))))
    for _ in range(2):
        values = rng.uniform(-1.5, 1.5, 3)
        probs = rng.uniform(0.1, 1.0, 3)
        probs = probs / probs.sum()
        entries.append(
            RandomEntry(
                "T", int(rng.integers(0, q_rows)), int(rng.integers(0, n)),
                tuple(zip(values, probs)),
            )
        )
    return StochasticTemplate(FirstStage(c, A, b), W, q, T, h, tuple(entries))


def record_calls(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` by a wrapper that appends (args, kwargs,
    result) of every call to the returned list."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, name, recording)
    return calls


class ReferenceEvaluator:
    """Every scenario at x by its own cold ``solve_subproblem``, in scenario
    order: the per-scenario path that ``lshaped.engine.ScenarioEvaluator``
    replaces, with the same interface."""

    def __init__(self, problem):
        self.problem = problem

    def evaluate(self, x) -> ScenarioResults:
        N = self.problem.n_scenarios
        values = np.full(N, np.nan)
        duals = np.zeros((N, self.problem.q_rows))
        farkas = {}
        for s in range(N):
            res = solve_subproblem(self.problem, s, x)
            if res.feasible:
                values[s] = res.value
                duals[s] = res.duals
            else:
                farkas[s] = res.farkas
        return ScenarioResults(values=values, duals=duals, farkas=farkas, sub_solves=N)


def reference_kmedoids(points, k, measure, seed=0):
    """k-medoids as a plain loop: the distance matrix from pairwise
    aggregation_distance calls, and a swap polish that re-assigns and
    re-sums the full cost for every (medoid, candidate) pair.  Same seeding,
    sweeps, tie rules and swap rule as lshaped.kmedoids_cluster."""
    n = len(points)
    rng = XorShift64Star(seed)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = aggregation_distance(points[i], points[j], measure)

    def tie_pick(candidates):
        if len(candidates) == 1:
            return int(candidates[0])
        return int(candidates[rng.next_uint64() % len(candidates)])

    def assign(medoids):
        return np.argmin(dist[:, medoids], axis=1)

    def total_cost(medoids, assignment):
        return float(sum(dist[i, medoids[assignment[i]]] for i in range(len(assignment))))

    totals = dist.sum(axis=1)
    medoids = [tie_pick(np.flatnonzero(totals == totals.min()))]
    while len(medoids) < k:
        nearest = dist[:, medoids].min(axis=1)
        nearest[medoids] = -1.0
        medoids.append(tie_pick(np.flatnonzero(nearest == nearest.max())))

    assignment = assign(medoids)
    for _ in range(100):
        changed = False
        for c in range(len(medoids)):
            cluster = np.flatnonzero(assignment == c)
            if len(cluster) == 0:
                continue
            inner = dist[np.ix_(cluster, cluster)].sum(axis=1)
            best = cluster[np.flatnonzero(inner == inner.min())[0]]
            if best != medoids[c]:
                medoids[c] = int(best)
                changed = True
        new_assignment = assign(medoids)
        if changed or not np.array_equal(new_assignment, assignment):
            assignment = new_assignment
            continue
        cost = total_cost(medoids, assignment)
        swap = None
        for c in range(len(medoids)):
            for cand in range(n):
                if cand in medoids:
                    continue
                trial = list(medoids)
                trial[c] = cand
                trial_cost = total_cost(trial, assign(trial))
                if trial_cost < cost - 1e-12:
                    cost, swap = trial_cost, (c, cand)
        if swap is None:
            break
        medoids[swap[0]] = swap[1]
        assignment = assign(medoids)
    return [int(a) for a in assignment], [int(m) for m in medoids]


def reference_select_closest(rule, cuts, n_atoms):
    """The closest selection rule as a plain loop that re-aggregates every
    multi-member slot for every incoming cut."""
    full_at = max(1, math.ceil(n_atoms / rule.slots))
    slots = [[] for _ in range(rule.slots)]
    out = []
    for cut in cuts:
        best, best_dist = -1, math.inf
        for i, slot in enumerate(slots):
            if slot:
                agg = slot[0] if len(slot) == 1 else aggregate_cuts(slot)
                dist = aggregation_distance(cut, agg, rule.measure)
                if dist < best_dist:
                    best, best_dist = i, dist
        if best >= 0 and best_dist <= rule.tolerance:
            target = best
        else:
            empty = next((i for i, slot in enumerate(slots) if not slot), None)
            target = empty if empty is not None else best
        slots[target].append(cut)
        if len(slots[target]) >= full_at:
            out.append(aggregate_cuts(slots[target]))
            slots[target] = []
    out.extend(aggregate_cuts(slot) for slot in slots if slot)
    return out


def reference_sum(cuts) -> np.ndarray:
    """The (grad, offset) row of a sum of disjoint cuts as a plain loop:
    one cut at a time from zero, in ascending member order."""
    ordered = sorted(cuts, key=lambda c: c.members)
    grad = np.zeros_like(ordered[0].grad)
    offset = 0.0
    for cut in ordered:
        grad = grad + cut.grad
        offset += cut.offset
    return np.append(grad, offset)


def reference_aggregate(problem, duals, block, inner, granule_members):
    """One iteration's aggregation over ``OptimalityCut`` objects, with the
    interface of ``lshaped.engine._aggregate``: ``make_optimality_cut`` per
    scenario, ``aggregate_cuts`` per block of ``block`` scenarios (none for
    a block of one), then the inner rule on the granule cuts, with
    ``aggregate_cuts`` per k-medoids cluster and the plain-loop closest
    rule."""
    cuts = [make_optimality_cut(s, duals[s], scen) for s, scen in enumerate(problem.scenarios)]
    granules = cuts if block == 1 else [
        aggregate_cuts(cuts[g * block:(g + 1) * block]) for g in range(len(granule_members))
    ]
    if isinstance(inner, Cluster):
        rule = inner.rule
        k = min(rule.clusters, len(granules))
        assignment, _ = kmedoids_cluster(granules, k, rule.measure, rule.seed)
        clusters = {}
        for cut, c in zip(granules, assignment):
            clusters.setdefault(c, []).append(cut)
        aggregates = sorted((aggregate_cuts(group) for group in clusters.values()),
                            key=lambda c: c.members)
    elif isinstance(inner, Dynamic):
        aggregates = reference_select_closest(inner.rule, granules, len(granules))
    else:
        aggregates = granules
    rows = np.array([(*agg.grad, agg.offset) for agg in aggregates])
    groups = [sorted({s // block for s in agg.members}) for agg in aggregates]
    return rows, groups


P1_CORE = """NAME          P1
ROWS
 N  OBJ
 G  R2
COLUMNS
    X         OBJ       1.0        R2        1.0
    Y         OBJ       1.0        R2        1.0
RHS
    RHS1      R2        2.0
ENDATA
"""

P1_TIME = """TIME          P1
PERIODS
    X         OBJ       T1
    Y         R2        T2
ENDATA
"""

P1_STOCH = """STOCH         P1
INDEP         DISCRETE
    RHS1      R2        2.0       0.5
    RHS1      R2        4.0       0.5
ENDATA
"""
