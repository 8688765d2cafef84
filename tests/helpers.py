"""Shared fixtures-in-code: the P1 instance and seeded instance generators.

P1: one first-stage variable with unit cost and no first-stage rows; two
equally likely scenarios with recourse y - u = h_s - x, recourse costs
(1, 0), and h = 2 or 4.  The expected cost x + 0.5 max(2-x, 0)
+ 0.5 max(4-x, 0) is flat at 3.0 on x in [0, 2].
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from lshaped import (
    FirstStage,
    Kmedoids,
    OptimalityCut,
    RandomEntry,
    Scenario,
    SelectClosest,
    StochasticTemplate,
    TwoStageProblem,
    XorShift64Star,
    aggregation_distance,
    sample_instance,
    solve_subproblem,
)
from lshaped import simplex
from lshaped.cuts import VIOLATION_SCALE
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
    return TwoStageProblem.from_scenarios(first=first, W=[[1.0, -1.0]], scenarios=scenarios)


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


def wide_template(seed: int) -> StochasticTemplate:
    """All-distinct sample instance: the benchmark's template shape (6
    first-stage variables on a simplex, W = [I | -I] over 3 recourse rows,
    recourse costs scaled by 5) with 3 random h entries and 6 random T
    entries of 8 outcomes each, a support of 8**9 scenarios, so a sample of
    a few thousand repeats none in practice."""
    rng = np.random.default_rng(seed)
    n, q_rows = 6, 3
    m = 2 * q_rows
    c = rng.uniform(0.5, 2.0, n)
    A = np.ones((1, n))
    b = [2.0]
    W = np.hstack([np.eye(q_rows), -np.eye(q_rows)])
    q = 5.0 * rng.uniform(0.2, 2.0, m)
    T = rng.uniform(-1.0, 1.0, (q_rows, n))
    h = rng.uniform(-2.0, 2.0, q_rows)

    def outcomes(low, high):
        values = rng.uniform(low, high, 8)
        probs = rng.uniform(0.1, 1.0, 8)
        return tuple(zip(values, probs / probs.sum()))

    entries = [RandomEntry("h", row, 0, outcomes(-2.0, 2.0)) for row in range(q_rows)]
    for _ in range(6):
        row, col = int(rng.integers(0, q_rows)), int(rng.integers(0, n))
        entries.append(RandomEntry("T", row, col, outcomes(-1.5, 1.5)))
    return StochasticTemplate(FirstStage(c, A, b), W, q, T, h, tuple(entries))


def with_recourse(problem, W, q_of):
    """The problem with recourse matrix W and each scenario's costs q_of(q)."""
    scenarios = tuple(
        Scenario(scen.pi, q_of(scen.q), scen.T, scen.h) for scen in problem.scenarios
    )
    return TwoStageProblem.from_scenarios(first=problem.first, W=W, scenarios=scenarios)


def evaluator_instances():
    """(name, problem) pairs: plain complete recourse, duplicate columns of
    W, scenario-dependent dual feasibility, W scaled by 1e6 and 1e-6, a
    recourse that is infeasible for part of the first-stage region, and a W
    with linearly dependent rows."""
    out = [(f"random {seed}", random_instance(seed, 30)) for seed in range(4)]
    base = random_instance(15, 30)  # mixed-sign residuals at most points
    W = base.W
    out.append((
        "duplicate columns",
        with_recourse(base, np.hstack([W, W[:, :1], W]), lambda q: np.concatenate([q, q[:1], q])),
    ))
    half = W.shape[1] // 2  # W = [I | -I]
    rng = np.random.default_rng(0)
    # a second, doubled copy of I whose costs vary by scenario, so a basis
    # that is optimal for one scenario is dual infeasible for others
    out.append((
        "scenario-dependent dual feasibility",
        with_recourse(base, np.hstack([W, 2.0 * W[:, :half]]),
                      lambda q: np.concatenate([q, rng.uniform(0.4, 4.0, half)])),
    ))
    scale = np.where(np.arange(W.shape[1]) % 2 == 0, 1e6, 1e-6)
    out.append(("scaled columns", with_recourse(base, W * scale, lambda q: q)))
    out.append(("scaled rows", TwoStageProblem.from_scenarios(
        first=base.first, W=W * 1e6,
        scenarios=tuple(
            Scenario(s.pi, s.q, s.T * 1e6, s.h * 1e6) for s in base.scenarios
        ),
    )))
    # keeping only I forces y = h - T x >= 0
    out.append(("infeasible recourse", with_recourse(base, W[:, :half], lambda q: q[:half])))
    # a third row of W, T and h that is the sum of the first two
    out.append(("dependent rows", TwoStageProblem.from_scenarios(
        first=base.first, W=np.vstack([W, W[0] + W[1]]),
        scenarios=tuple(
            Scenario(s.pi, s.q, np.vstack([s.T, s.T[0] + s.T[1]]), np.append(s.h, s.h[0] + s.h[1]))
            for s in base.scenarios
        ),
    )))
    return out


def extensive_form_optimum(problem: TwoStageProblem) -> float:
    """Optimal value of min c'x + sum_s pi_s q_s'y_s over the deterministic
    equivalent, solved by HiGHS through scipy and never by the package's
    own simplex; raises RuntimeError unless HiGHS reports optimal.

    The extensive form is assembled here as a sparse matrix from the
    stacked scenario arrays, independently of ``build_extensive_form``.
    """
    import scipy.sparse as sp
    from scipy.optimize import linprog

    first = problem.first
    n, p = first.n, first.p
    r, m = problem.W.shape
    N = problem.n_scenarios
    cost = np.concatenate([first.c, (problem.pi[:, None] * problem.Q).ravel()])
    scen_rows = p + np.arange(N * r)
    # T_s blocks: row p + s*r + i, column j < n
    t_rows = np.repeat(scen_rows, n)
    t_cols = np.tile(np.arange(n), N * r)
    # W blocks: row p + s*r + i, column n + s*m + k
    wi, wk = np.nonzero(problem.W)
    w_rows = (p + np.arange(N)[:, None] * r + wi).ravel()
    w_cols = (n + np.arange(N)[:, None] * m + wk).ravel()
    w_vals = np.tile(problem.W[wi, wk], N)
    f_rows, f_cols = np.nonzero(first.A)
    A = sp.csr_matrix(
        (
            np.concatenate([first.A[f_rows, f_cols], problem.T.ravel(), w_vals]),
            (np.concatenate([f_rows, t_rows, w_rows]), np.concatenate([f_cols, t_cols, w_cols])),
        ),
        shape=(p + N * r, n + N * m),
    )
    b = np.concatenate([first.b, problem.H.ravel()])
    res = linprog(cost, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the extensive form: {res.message}")
    return float(res.fun)


def _reference_realize(template: StochasticTemplate, choices, pi: float) -> Scenario:
    """One scenario of a template: the nominal data with each entry's chosen
    outcome written in declaration order."""
    q, T, h = np.array(template.q), np.array(template.T), np.array(template.h)
    for entry, idx in zip(template.entries, choices):
        value = entry.outcomes[idx][0]
        if entry.target == "q":
            q[entry.col] = value
        elif entry.target == "T":
            T[entry.row, entry.col] = value
        else:
            h[entry.row] = value
    return Scenario(pi=pi, q=q, T=T, h=h)


def reference_sample(template: StochasticTemplate, n_scenarios: int, seed: int) -> list:
    """``sample_instance`` one scenario object at a time: one draw per
    random entry per scenario, in declaration order."""
    rng = XorShift64Star(seed)
    outcome_probs = [[p for _, p in entry.outcomes] for entry in template.entries]
    return [
        _reference_realize(
            template, [rng.choice_index(probs) for probs in outcome_probs], 1.0 / n_scenarios
        )
        for _ in range(n_scenarios)
    ]


def reference_enumerate(template: StochasticTemplate) -> list:
    """``enumerate_scenarios`` one scenario object at a time, in product
    order (last entry fastest), each probability the running product of
    the normalized outcome probabilities."""
    probs = [np.asarray([p for _, p in entry.outcomes]) for entry in template.entries]
    probs = [p / p.sum() for p in probs]
    out = []
    for combo in itertools.product(*(range(len(e.outcomes)) for e in template.entries)):
        pi = 1.0
        for k, idx in enumerate(combo):
            pi *= probs[k][idx]
        out.append(_reference_realize(template, combo, pi))
    return out


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
            if res.status is LpStatus.OPTIMAL:
                values[s] = res.objective
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


def reference_kmedoids(points, k, measure, visits=None, weights=None):
    """k-medoids over cuts as a plain loop: the distance matrix from pairwise
    aggregation_distance calls, every cluster re-centred in every sweep, and
    a swap polish that re-assigns and re-sums the full cost for every
    (medoid, candidate) pair.  Same seeding, sweeps, tie rules and swap rule
    as lshaped.kmedoids_cluster.  ``weights`` (default all 1) multiply each
    point's distance in every cost: the totals that pick the first medoid,
    the sums that re-centre a cluster and the swap costs.  ``visits``, when
    given, receives (slot, member tuple) for every cluster a sweep visits,
    and (slot, None) for every swap."""
    n = len(points)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = cut_distance(points[i], points[j], measure)

    def assign(medoids):
        return np.argmin(dist[:, medoids], axis=1)

    def total_cost(medoids, assignment):
        return float(sum(dist[i, medoids[assignment[i]]] * w[i] for i in range(len(assignment))))

    totals = (dist * w).sum(axis=1)
    medoids = [int(np.flatnonzero(totals == totals.min())[0])]
    while len(medoids) < k:
        nearest = dist[:, medoids].min(axis=1)
        nearest[medoids] = -1.0
        medoids.append(int(np.flatnonzero(nearest == nearest.max())[0]))

    assignment = assign(medoids)
    for _ in range(100):
        changed = False
        for c in range(len(medoids)):
            cluster = np.flatnonzero(assignment == c)
            if visits is not None:
                visits.append((c, tuple(cluster.tolist())))
            if len(cluster) == 0:
                continue
            inner = (dist[np.ix_(cluster, cluster)] * w[cluster]).sum(axis=1)
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


def distinct_cuts(points):
    """The distinct cuts of a list as a plain loop, a cut being its stacked
    row and member count compared as bytes: the index of each one's first
    occurrence, in order, and the index of each cut among them."""
    first, point_of, seen = [], [], {}
    for i, cut in enumerate(points):
        key = (cut_row(cut).tobytes(), len(cut.members))
        if key not in seen:
            seen[key] = len(first)
            first.append(i)
        point_of.append(seen[key])
    return first, point_of


def reference_kmedoids_distinct(points, k, measure, visits=None):
    """``reference_kmedoids`` over the distinct cuts, each weighted by its
    number of copies, with min(k, distinct count) clusters, expanded back:
    the cluster of every cut and each medoid as its first occurrence.
    ``visits`` lists members as distinct-cut indices."""
    first, point_of = distinct_cuts(points)
    assignment, medoids = reference_kmedoids(
        [points[i] for i in first], min(k, len(first)), measure, visits,
        weights=np.bincount(point_of),
    )
    return [assignment[p] for p in point_of], [first[m] for m in medoids]


def reference_select_closest(rule, cuts):
    """The closest selection rule over cuts as a plain loop that re-sums
    every slot from scratch for every incoming cut."""
    full_at = max(1, math.ceil(len(cuts) / rule.slots))
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
    plain-loop weighted k-medoids over the distinct granule cuts."""
    cuts = [make_optimality_cut(s, duals[s], scen) for s, scen in enumerate(problem.scenarios)]
    granules = cuts if block == 1 else [
        summed_cut(cuts[g * block:(g + 1) * block]) for g in range(len(counts))
    ]
    if isinstance(inner, Kmedoids):
        k = min(inner.clusters, len(granules))
        assignment, _ = reference_kmedoids_distinct(granules, k, inner.measure)
        clusters = {}
        for cut, c in zip(granules, assignment):
            clusters.setdefault(c, []).append(cut)
        aggregates = sorted((summed_cut(group) for group in clusters.values()),
                            key=lambda c: c.members)
    elif isinstance(inner, SelectClosest):
        aggregates = reference_select_closest(inner, granules)
    else:
        aggregates = granules
    rows = np.array([cut_row(agg) for agg in aggregates])
    groups = [sorted({s // block for s in agg.members}) for agg in aggregates]
    flat = np.array([g for group in groups for g in group])
    return rows, flat, np.cumsum([0, *map(len, groups)])


def reference_violation(rows, granules, starts, x, theta) -> np.ndarray:
    """The violation filter one aggregate at a time, with the interface of
    ``lshaped.cuts.violated``: per row one dot product, and a running sum
    of theta over its granules from zero, compared with
    VIOLATION_SCALE * (1 + |offset|)."""
    x = np.asarray(x, dtype=float)
    cols, edges = granules.tolist(), starts.tolist()
    keep = []
    for row, a, b in zip(rows, edges, edges[1:]):
        total = 0.0
        for t in cols[a:b]:
            total += theta[t]
        violation = float(row[-1] - row[:-1] @ x - total)
        keep.append(violation > VIOLATION_SCALE * (1.0 + abs(row[-1])))
    return np.array(keep, dtype=bool)


def groups_of(granules, starts):
    """Each aggregate's granules, as a list, from its (granules, starts)."""
    return [granules[a:b].tolist() for a, b in zip(starts, starts[1:])]


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


def _reference_replace_basic(state, pos, j, leaving_at_upper, w):
    old = int(state.basis[pos])
    state.x[old] = state.ub[old] if leaving_at_upper else state.lb[old]
    state.in_basis[old] = False
    state.at_upper[old] = leaving_at_upper
    state.basis[pos] = j
    state.in_basis[j] = True
    state.at_upper[j] = False
    state._eta_update(w, pos)


def _reference_run(state, c, cap):
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
            state._replace_basic(leave_pos, j, bool(delta[leave_pos] > 0), w)
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


def _reference_dual_run(state, c, cap):
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
        state._replace_basic(r, j, to_upper, w)

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

# RICH: three first-stage columns (X1-X3) and rows (C1-C3), five
# second-stage columns (Y1-Y5) and four rows (D1-D4).  Ranges sit on an
# L row (C1, negative), a G row (D3, negative) and two E rows (C2
# negative, D4 positive); UP, FX, LO 0 and PL bounds sit in both stages;
# h (D1, probabilities that sum to 1 - 2^-53), T (X2 in D2) and q (Y2) are
# random.  Every x that satisfies the first stage leaves every scenario
# feasible, so samples of it solve.
RICH_CORE = """NAME          RICH
ROWS
 N  COST
 L  C1
 E  C2
 G  C3
 G  D1
 L  D2
 G  D3
 E  D4
COLUMNS
    X1        COST      1.0        C1        1.0
    X1        C3        1.0        D1        1.0
    X2        COST      -0.5       C1        1.0
    X2        C2        1.0        C3        -1.0
    X2        D2        -1.0
    X3        COST      0.3        C1        1.0
    X3        C2        1.0
    Y1        COST      2.0        D1        1.0
    Y2        COST      2.0        D1        -1.0
    Y2        D3        1.0
    Y3        COST      1.0        D2        1.0
    Y3        D4        1.0
    Y4        COST      0.5        D2        -1.0
    Y4        D3        1.0
    Y5        COST      0.25       D4        1.0
RHS
    RHS       C1        10.0       C2        4.0
    RHS       C3        -5.0       D1        3.0
    RHS       D2        1.0        D3        1.0
    RHS       D4        2.0
RANGES
    RNG       C1        -4.0       C2        -2.0
    RNG       D3        -2.0       D4        1.5
BOUNDS
 UP BND       X1        6.0
 FX BND       X3        2.0
 LO BND       X2        0.0
 PL BND       X2
 UP BND       Y1        6.0
 FX BND       Y5        1.0
 LO BND       Y3        0.0
 PL BND       Y4
ENDATA
"""

RICH_TIME = """TIME          RICH
PERIODS
    X1        COST      T1
    Y1        D1        T2
ENDATA
"""

RICH_STOCH = """STOCH         RICH
INDEP         DISCRETE
    RHS       D1        2.0       0.2
    RHS       D1        3.0       0.7
    RHS       D1        4.5       0.1
    X2        D2        -1.0      0.25
    X2        D2        -0.5      0.75
    Y2        COST      1.0       0.5
    Y2        COST      3.0       0.5
ENDATA
"""
