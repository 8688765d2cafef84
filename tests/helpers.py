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
    OptimalityCut,
    RandomEntry,
    Scenario,
    StochasticTemplate,
    TwoStageProblem,
    XorShift64Star,
    aggregation_distance,
    sample_instance,
    solve_subproblem,
)
from lshaped import simplex
from lshaped.engine import ScenarioResults
from lshaped.simplex import (
    FEASIBILITY_TOL, OPTIMALITY_TOL, ZERO_PIVOT_TOL, LpSolution, LpStatus, SimplexError,
)

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


def make_optimality_cut(scenario_index: int, duals, scen: Scenario) -> OptimalityCut:
    """Singleton cut (pi * duals'T, pi * duals'h) of one scenario: the
    per-scenario form of ``lshaped.make_optimality_cuts``."""
    duals = np.atleast_1d(np.asarray(duals, dtype=float))
    if len(duals) != scen.T.shape[0]:
        raise ValueError(
            f"dual vector has {len(duals)} entries, expected {scen.T.shape[0]}"
        )
    grad = scen.pi * (duals @ scen.T)
    offset = scen.pi * float(duals @ scen.h)
    return OptimalityCut(grad=grad, offset=offset, members=(scenario_index,))


def cut_row(cut) -> np.ndarray:
    """The stacked (grad, offset) row of a cut."""
    return np.append(cut.grad, cut.offset)


def cuts_of(rows, members) -> list:
    """``OptimalityCut`` objects of stacked rows covering the member sets."""
    return [OptimalityCut(grad=row[:-1], offset=row[-1], members=m)
            for row, m in zip(rows, members)]


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


def summed_cut(cuts) -> OptimalityCut:
    """The cut of ``reference_sum`` over the union of the members."""
    row = reference_sum(cuts)
    return OptimalityCut(grad=row[:-1], offset=row[-1],
                         members=[s for cut in cuts for s in cut.members])


def cut_distance(a, b, measure) -> float:
    """``lshaped.aggregation_distance`` of two cuts."""
    return aggregation_distance(cut_row(a), len(a.members), cut_row(b), len(b.members), measure)


def reference_kmedoids(points, k, measure, seed=0, visits=None):
    """k-medoids over cuts as a plain loop: the distance matrix from pairwise
    aggregation_distance calls, every cluster re-centred in every sweep, and
    a swap polish that re-assigns and re-sums the full cost for every
    (medoid, candidate) pair.  Same seeding, sweeps, tie rules and swap rule
    as lshaped.kmedoids_cluster.  ``visits``, when given, receives
    (slot, member tuple) for every cluster a sweep visits, and (slot, None)
    for every swap."""
    n = len(points)
    rng = XorShift64Star(seed)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = cut_distance(points[i], points[j], measure)

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
            if visits is not None:
                visits.append((c, tuple(cluster.tolist())))
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
        if visits is not None:
            visits.append((swap[0], None))
        assignment = assign(medoids)
    return [int(a) for a in assignment], [int(m) for m in medoids]


def reference_select_closest(rule, cuts, n_atoms):
    """The closest selection rule over cuts as a plain loop that re-sums
    every slot from scratch for every incoming cut."""
    full_at = max(1, math.ceil(n_atoms / rule.slots))
    slots = [[] for _ in range(rule.slots)]
    out = []
    for cut in cuts:
        best, best_dist = -1, math.inf
        for i, slot in enumerate(slots):
            if slot:
                dist = cut_distance(cut, summed_cut(slot), rule.measure)
                if dist < best_dist:
                    best, best_dist = i, dist
        if best >= 0 and best_dist <= rule.tolerance:
            target = best
        else:
            empty = next((i for i, slot in enumerate(slots) if not slot), None)
            target = empty if empty is not None else best
        slots[target].append(cut)
        if len(slots[target]) >= full_at:
            out.append(summed_cut(slots[target]))
            slots[target] = []
    out.extend(summed_cut(slot) for slot in slots if slot)
    return out


def reference_aggregate(problem, duals, block, inner, counts):
    """One iteration's aggregation over ``OptimalityCut`` objects, with the
    interface of ``lshaped.engine._aggregate``: ``make_optimality_cut`` per
    scenario, ``reference_sum`` per block of ``block`` scenarios (none for
    a block of one), then the inner rule on the granule cuts: the
    plain-loop closest rule, or ``reference_sum`` per cluster of the
    plain-loop k-medoids."""
    cuts = [make_optimality_cut(s, duals[s], scen) for s, scen in enumerate(problem.scenarios)]
    granules = cuts if block == 1 else [
        summed_cut(cuts[g * block:(g + 1) * block]) for g in range(len(counts))
    ]
    if isinstance(inner, Cluster):
        rule = inner.rule
        k = min(rule.clusters, len(granules))
        assignment, _ = reference_kmedoids(granules, k, rule.measure, rule.seed)
        clusters = {}
        for cut, c in zip(granules, assignment):
            clusters.setdefault(c, []).append(cut)
        aggregates = sorted((summed_cut(group) for group in clusters.values()),
                            key=lambda c: c.members)
    elif isinstance(inner, Dynamic):
        aggregates = reference_select_closest(inner.rule, granules, len(granules))
    else:
        aggregates = granules
    rows = np.array([cut_row(agg) for agg in aggregates])
    groups = [sorted({s // block for s in agg.members}) for agg in aggregates]
    return rows, groups


# --- reference simplex pass ----------------------------------------------------
# The pivot loops of ``lshaped.simplex._Simplex`` as they were before the
# pricing state was kept between pivots: the nonbasic positions are
# recomputed from ``in_basis`` and ``at_upper`` on every pass, and the
# ratio test fills a full ``room`` array by masks.  ``use_reference_simplex``
# swaps them in, so a test can compare the two bit for bit.


def _reference_positions(state):
    nonbasic = ~state.in_basis
    at_lo = nonbasic & ~state.at_upper & state.finite_lb
    at_up = nonbasic & state.at_upper
    free = nonbasic & ~state.finite_lb & ~state.finite_ub
    return at_lo, at_up, free


def _reference_improving(state, d):
    at_lo, at_up, free = _reference_positions(state)
    return (
        (at_lo & (d < -OPTIMALITY_TOL))
        | (at_up & (d > OPTIMALITY_TOL))
        | (free & (np.abs(d) > OPTIMALITY_TOL))
    )


def _reference_replace_basic(state, pos, j, leaving_at_upper, w, refactor_every):
    old = int(state.basis[pos])
    state.x[old] = state.ub[old] if leaving_at_upper else state.lb[old]
    state.in_basis[old] = False
    state.at_upper[old] = leaving_at_upper
    state.basis[pos] = j
    state.in_basis[j] = True
    state.at_upper[j] = False
    state._eta_update(w, pos, refactor_every)


def _reference_run(state, c, cap, refactor_every=simplex._REFACTOR_EVERY):
    bland = False
    degenerate_run = 0
    stop = state.pivots + cap
    finite_lb, finite_ub = state.finite_lb, state.finite_ub
    while state.pivots < stop:
        d = state.reduced_costs(c)
        improving = _reference_improving(state, d)
        if not improving.any():
            if state._since_refactor > 0:
                state.refresh()
                continue
            if state._basic_bound_violation() > 1e-6:
                raise SimplexError("basis lost primal feasibility")
            return LpStatus.OPTIMAL
        if bland:
            j = int(np.flatnonzero(improving)[0])
        else:
            score = np.where(improving, np.abs(d), -1.0)
            j = int(np.argmax(score))
        direction = 1.0
        if state.at_upper[j] or (not finite_lb[j] and not finite_ub[j] and d[j] > 0):
            direction = -1.0

        w = state._entering_column(j) if state.m else np.zeros(0)
        delta = -direction * w
        if finite_lb[j] and finite_ub[j]:
            t_own = state.ub[j] - state.lb[j]
        else:
            t_own = np.inf

        xb = state.x[state.basis]
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.full(state.m, np.inf)
            up = delta > ZERO_PIVOT_TOL
            dn = delta < -ZERO_PIVOT_TOL
            room[up] = (state.ub[state.basis[up]] - xb[up]) / delta[up]
            room[dn] = (state.lb[state.basis[dn]] - xb[dn]) / delta[dn]
        room = np.maximum(room, 0.0)
        t_basic = room.min() if state.m else np.inf

        if not np.isfinite(min(t_own, t_basic)):
            return LpStatus.UNBOUNDED

        if t_basic <= t_own:
            ties = np.flatnonzero(room <= t_basic + simplex._RATIO_TIE_TOL)
            if bland:
                leave_pos = int(ties[np.argmin(state.basis[ties])])
            else:
                leave_pos = int(ties[np.argmax(np.abs(w[ties]))])
            if abs(w[leave_pos]) < 1e-7 and state._since_refactor > 0:
                state.refresh()
                continue
            if abs(w[leave_pos]) <= ZERO_PIVOT_TOL:
                raise SimplexError("pivot element below zero tolerance")
            step = float(room[leave_pos])
            state.x[j] += direction * step
            state.x[state.basis] -= direction * step * w
            state._replace_basic(leave_pos, j, bool(delta[leave_pos] > 0), w, refactor_every)
        else:
            step = float(t_own)
            state.x[state.basis] -= direction * step * w
            state.at_upper[j] = not state.at_upper[j]
            state.x[j] = state.ub[j] if state.at_upper[j] else state.lb[j]

        state.pivots += 1
        if step <= ZERO_PIVOT_TOL:
            degenerate_run += 1
            if degenerate_run >= simplex._BLAND_TRIGGER:
                bland = True
        else:
            degenerate_run = 0
    raise SimplexError("simplex iteration limit exceeded")


def _reference_dual_run(state, c, cap, refactor_every=simplex._REFACTOR_EVERY):
    bland = False
    degenerate_run = 0
    stop = state.pivots + cap
    while True:
        xb = state.x[state.basis]
        below = state.lb[state.basis] - xb
        above = xb - state.ub[state.basis]
        violation = np.maximum(below, above)
        violated = violation > FEASIBILITY_TOL
        if not violated.any():
            return True
        if state.pivots >= stop:
            raise SimplexError("simplex iteration limit exceeded")
        if bland:
            candidates = np.flatnonzero(violated)
            r = int(candidates[np.argmin(state.basis[candidates])])
        else:
            r = int(np.argmax(violation))
        to_upper = bool(above[r] > 0)
        sign = 1.0 if to_upper else -1.0
        alpha = state._tableau_row(r)
        d = state.reduced_costs(c)
        at_lo, at_up, free = _reference_positions(state)
        eligible = (
            (at_lo & (sign * alpha > simplex._DUAL_PIVOT_TOL))
            | (at_up & (sign * alpha < -simplex._DUAL_PIVOT_TOL))
            | (free & (np.abs(alpha) > simplex._DUAL_PIVOT_TOL))
        )
        if not eligible.any():
            return False
        slack = np.where(free, np.abs(d), np.maximum(np.where(at_up, -d, d), 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(eligible, slack / np.abs(alpha), np.inf)
        best = ratio.min()
        ties = np.flatnonzero(ratio <= best + simplex._RATIO_TIE_TOL)
        if bland:
            j = int(ties[0])
        else:
            j = int(ties[np.argmax(np.abs(alpha[ties]))])

        w = state._entering_column(j)
        if abs(w[r]) < 1e-7 and state._since_refactor > 0:
            state.refresh()
            continue
        if abs(w[r]) <= ZERO_PIVOT_TOL:
            raise SimplexError("pivot element below zero tolerance")
        bound = state.ub[state.basis[r]] if to_upper else state.lb[state.basis[r]]
        step = (xb[r] - bound) / w[r]
        state.x[j] += step
        state.x[state.basis] -= step * w
        state._replace_basic(r, j, to_upper, w, refactor_every)

        state.pivots += 1
        if best <= ZERO_PIVOT_TOL:
            degenerate_run += 1
            if degenerate_run >= simplex._BLAND_TRIGGER:
                bland = True
        else:
            degenerate_run = 0


def _reference_solve_warm(lp, state, cap):
    state.refresh()
    d = state.reduced_costs(lp.c)
    boxed = ~state.in_basis & state.finite_lb & state.finite_ub
    if boxed.any():
        state.at_upper[boxed] = d[boxed] < 0.0
        state._set_basic_values()
    if state._basic_bound_violation() > FEASIBILITY_TOL:
        if _reference_improving(state, d).any():
            return None
        if not state.dual_run(lp.c, cap):
            return None
    status = state.run(lp.c, cap)
    if status is LpStatus.UNBOUNDED:
        return LpSolution(status=LpStatus.UNBOUNDED, pivots=state.pivots)
    return simplex._optimal(lp, state, lp.c)


def use_reference_simplex(monkeypatch) -> None:
    """Make ``solve_lp`` run the reference pass above, on dense and GUB
    bases alike (``_GubSimplex`` inherits the patched methods)."""
    monkeypatch.setattr(simplex._Simplex, "run", _reference_run)
    monkeypatch.setattr(simplex._Simplex, "dual_run", _reference_dual_run)
    monkeypatch.setattr(simplex._Simplex, "_replace_basic", _reference_replace_basic)
    monkeypatch.setattr(simplex, "_solve_warm", _reference_solve_warm)


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
