"""The decomposition loop: master maintenance, subproblem solves, cuts.

Each iteration solves the master for (x, theta) and evaluates every
scenario subproblem at x.  If any subproblem is infeasible, the iteration
adds only feasibility cuts and repeats.  Otherwise the scenario cuts are
partitioned by the configured strategy over the full scenario set, and each
aggregate that the current iterate violates enters the master as its own
row.  The others are handled by the strategy.  Without an inner rule the
partition is the same in every iteration, so a satisfied aggregate already
has rows over its theta columns, and it is dropped.  Under an inner rule
(closest, k-medoids) the partition changes between iterations, and two or
more satisfied aggregates enter as one extra row: their rows summed in
aggregate order, over the union of their theta columns.  A single one
enters as itself.  A sum of valid cuts is valid (Van Slyke & Wets 1969;
Birge & Louveaux 1988), and each iteration's new rows then cover every
theta column exactly once, so together they imply that iteration's single
cut and the master cannot shift theta between granules at no cost.  An
iteration that violates no aggregate adds no row and ends the run.

Scenario subproblems are evaluated by bunching (Wets 1988; Birge &
Louveaux, section 5.4).  W is shared, so an optimal basis B of W for one
scenario is optimal for every scenario s whose reduced costs
q_s - q_s[B] B^-1 W are nonnegative and whose basic solution B^-1 (h_s - T_s x)
is nonnegative.  ``ScenarioEvaluator`` keeps the optimal bases found so far,
with their inverses, duals and dual-feasibility masks, and tests each one
against all open scenarios in one array expression.  Only a scenario that
no cached basis fits is solved cold: ``solve_subproblem`` hands back the
``LpSolution`` of its LP, with its value and duals or its Farkas ray, and
the optimal basis of W it ends in joins the cache and is tried on the rest
at once.  The cache belongs to one ``solve_lshaped`` call and starts
empty, so a repeated solve repeats every bit.  There is no thread pool:
the batched evaluation leaves little per-scenario work to share out, and
``EngineConfig.workers`` has no effect.

A scenario whose basic solution has a zero component is degenerate: several
bases fit it, with different optimal duals.  It takes the first cached
basis that fits, which need not be the basis a cold solve would end in, so
its cut can differ from the one a per-scenario solve gives.  Both cuts are
valid and tight at x; the values are the same.  These scenarios are common,
because the master's iterates sit at kinks of the recourse function.

Every strategy is a static block size T0 plus an optional inner rule
(``aggregation.granulation``).  One iteration's cuts stay one stacked array
of (grad, offset) rows from the dual batch to the master, with no cut
objects: ``make_optimality_cuts`` builds a row per scenario, ``granulate``
sums them over contiguous blocks of T0 scenarios, and the inner rule places
the granule rows (``aggregation.aggregate_granules``).  The master keeps one
theta column per granule for the whole run.  Coverage has one form from the
inner rule to ``SolveReport``: cut i covers the granules, which are theta
columns, ``granules[starts[i]:starts[i + 1]]``.  The report expands them to
scenarios only on read, granule g being scenarios g*T0 up to the next
block.  ``cuts.violated`` tests all of an iteration's aggregates in one
pass, at ``cuts.VIOLATION_SCALE``.  Its stacked product and segmented theta
sums round differently from a dot product and a running sum per aggregate,
and the decisions sit far from that.  Over 24,965 decisions in 180 solves
(the perfbench workloads, trend and wide instances under ten strategies,
random instances) the two violations differed by at most
1.5e-15 * (1 + |offset|), and the closest any violation came to its
threshold was 3.8e-7 * (1 + |offset|).

The master has one form and one solve rule.  Feasibility and optimality
cuts alike are stacked (grad, offset) rows, a feasibility row covering no
theta column, and ``_Master.program()`` lays every master out as
[X | Theta | -S] in a ``simplex.GubMatrix``.  Each solve after the first,
whatever the widths of its rows, starts from the last optimal basis with
the surplus columns of the new rows basic.  Rows appended that way leave
the basis dual feasible, and the dual simplex restores optimality (Van
Slyke & Wets 1969; Birge & Louveaux, ch. 5).  A theta column covered for
the first time starts basic instead, in place of the surplus of its row
(``_Master._crash``): the first rows over any theta column come in one
batch that partitions the granules, so a fresh column has exactly one
row.  A row over several fresh columns is keyed by its highest one, which
absorbs the row; the others rest at 0 with reduced cost 1 - 1 = 0.  The
keys are distinct unit columns, so the start is nonsingular, and primal
feasible, so the first fully covering master takes a few primal pivots.
Any failure of a warm start falls back to a dense cold solve of
``program().dense()``, so statuses and Farkas rays are those of the cold
solver.

While each row covers at most one theta column (every strategy without an
inner rule, and any master with only feasibility rows), the solve runs on
a GUB basis (Dantzig & Van Slyke 1967; Birge & Louveaux, section 5.1).
The rows of one theta column form a generalized upper bound set; each
covered theta column stays basic, keyed to one tight row of its set, and
the working matrix is at most n x n (``simplex._GubSimplex``).  A master
with rows over several theta columns (closest, k-medoids) runs on the
dense simplex.  Such rows leave the split of theta between columns open,
so a warm solve can end at another optimal vertex than a cold one, and
the violation filter then finds other aggregates violated, which changes
the rows that enter on their own and the summed row: the counts move, the
optimum does not.  On the perfbench granulated_kmedoids instances of run
seeds 1-60 (240 solves), crashing the first covering master instead of
solving it cold kept every iteration count, took master pivots from 52.7
to 32.9 per solve and moved cuts from 38.24 to 38.33 per solve.

The run terminates Converged when the relative gap
(upper_best - lower) / max(1, |upper_best|) reaches the tolerance
(termination ``gap``) or when an iteration adds no cuts at all
(``no_violated_aggregate``); ``SolveReport.final_gap`` says how far apart
the bounds were then.

Every iteration that solves its master ends in one ``IterationRecord``,
whether it added feasibility cuts, reached the gap or aggregated cuts.  Its
field names are the only names an iteration's values go by: the DEBUG line
(``iteration k:`` and then ``name value`` for each scalar field), the
columns of ``SolveReport.iterations`` and the solve JSON, which calls
``index`` ``k`` and ``partition`` ``partition_used``.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .aggregation import (
    AggregationScheme,
    Kmedoids,
    SelectClosest,
    SingleCut,
    aggregate_granules,
    distinct_rows,
    granulate,
    granulation,
    scheme_label,
    validate_scheme,
)
from .cuts import OptimalityCut, make_feasibility_cuts, make_optimality_cuts, violated
from .problem import LinearProgram, TwoStageProblem, validate_problem
from .simplex import (
    FEASIBILITY_TOL, OPTIMALITY_TOL, GubMatrix, GubProgram, LpSolution, LpStatus, solve_lp,
)

logger = logging.getLogger(__name__)
if not logger.hasHandlers():
    logger.addHandler(logging.NullHandler())


@dataclass
class EngineConfig:
    scheme: AggregationScheme = field(default_factory=SingleCut)
    rel_tol: float = 1e-2
    max_iterations: int = 5000
    #: has no effect, because scenarios are evaluated as one batch (see the
    #: module docstring); kept only because the benchmark harness
    #: (``perfbench/run.py``) passes ``workers=1``
    workers: int = 1

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(eq=False, slots=True)
class IterationRecord:
    index: int
    x: np.ndarray
    lower: float
    upper: float
    #: relative gap (upper_best - lower) / max(1, |upper_best|) after this
    #: iteration; inf when it added feasibility cuts or had no lower bound
    gap: float
    #: optimality rows added to the master, the summed row included
    cuts_added: int
    #: aggregates that entered no row of their own: folded into the summed
    #: row under an inner rule, dropped without one, and every aggregate of
    #: an iteration that violated none
    cuts_skipped: int
    feasibility_cuts: int
    #: member sets of the cuts added, in scenario terms, the summed row's
    #: members as one set; ``SolveReport`` reads them back from its cut
    #: granules, and the loop leaves them empty
    partition: tuple[tuple[int, ...], ...]
    #: cold subproblem solves, i.e. scenarios no cached basis fitted
    sub_solves: int
    #: wall time of the iteration's scenario evaluation, in seconds
    sub_s: float
    #: wall time of the iteration's violation filter, the adding of the kept
    #: aggregates to the master included, in seconds; 0 when it added
    #: feasibility cuts or converged
    filter_s: float
    #: wall time of the iteration's master solve, in seconds
    master_s: float
    #: wall time of the iteration's aggregation (``_aggregate``: cut rows,
    #: ``granulate`` and the inner rule), in seconds; 0 when it added
    #: feasibility cuts or converged
    agg_s: float
    master_pivots: int
    master_rows: int


#: IterationRecord's per-iteration values by element type, the fields of
#: ``SolveReport.iterations``; ``partition`` is kept as the cut granules
_COLUMNS = {
    f.name: "float" if f.name == "x" else f.type
    for f in fields(IterationRecord) if f.name != "partition"
}


@functools.lru_cache(maxsize=16)
def _record_type(n: int) -> np.dtype:
    """The record type of ``SolveReport.iterations`` for n first-stage
    variables.  Every report of one n shares it: a structured dtype takes
    about 1.8 KB, more than the records of a short run."""
    return np.dtype([
        (name, kind, (n,)) if name == "x" else (name, kind) for name, kind in _COLUMNS.items()
    ])


def _debug_line(rec: IterationRecord) -> str:
    """The DEBUG line of an iteration: ``iteration k:``, then every other
    scalar field as ``name value``."""
    def text(name):
        value = getattr(rec, name)
        if name.endswith("_s"):
            return f"{name} {value:.3g}"
        return f"{name} {value:.6g}" if isinstance(value, float) else f"{name} {value}"

    return f"iteration {rec.index}: " + " ".join(
        text(name) for name in _COLUMNS if name not in ("index", "x")
    )


class SolveStatus:
    CONVERGED = "converged"
    ITERATION_LIMIT = "iteration_limit"
    MASTER_INFEASIBLE = "master_infeasible"


class Termination:
    """Why a run stopped; ``GAP`` and ``NO_VIOLATED_AGGREGATE`` are both
    reported with status converged, and the other two values are their own
    ``SolveStatus``.

    ``NO_VIOLATED_AGGREGATE`` ends a run whose iteration added no cut: no
    aggregate was violated at ``cuts.VIOLATION_SCALE`` while the gap was
    still above ``rel_tol``.  It can end a run of any strategy: under an
    inner rule the satisfied aggregates enter as a summed row only beside
    a violated one.
    """

    GAP = "gap"
    NO_VIOLATED_AGGREGATE = "no_violated_aggregate"
    ITERATION_LIMIT = "iteration_limit"
    MASTER_INFEASIBLE = "master_infeasible"


@dataclass(eq=False, slots=True)
class SolveReport:
    """Result of one run.

    The iteration history and the optimality cuts left in the master are
    kept as arrays, so a report that callers retain stays small; ``history``
    and ``cuts`` build them as objects on each read.  ``pack`` copies the
    cut rows, so a report shares no array with the master.
    ``iterations`` is one structured array with a record per iteration,
    record i for iteration i + 1, and a field per ``IterationRecord`` field
    but ``partition``: ``iterations[name]`` is that field's column, and
    ``iterations["x"]`` is iterations x n.
    Cuts are kept in the order they were added, iteration by iteration:
    ``cut_rows`` holds each distinct (gradient, offset) pair once, bit for
    bit, in the order of first occurrence, and ``cut_row_of`` the row of
    each cut.  Sampled instances repeat
    scenarios, so their cuts repeat too: a multi-cut solve of one of the
    benchmark's 200-scenario instances adds 409 cuts with 65 distinct rows.
    A cut's coverage is the master's own, as int32: cut i covers the
    granules ``cut_granules[cut_starts[i]:cut_starts[i + 1]]``, its theta
    columns, in ascending order, and granule g is scenarios
    g * ``block_size`` up to the next block, the last one cut short at
    ``n_scenarios``.  An iteration's partition is the member sets of the
    cuts it added.  The ``_s`` columns and ``wall_seconds`` are
    measurements; two runs of one solve agree bit for bit on every other
    field.
    """

    #: a ``Termination`` value; ``status`` is read from it
    termination: str
    #: relative gap (upper_best - lower) / max(1, |upper_best|) at the last
    #: iteration that computed one; inf when none did
    final_gap: float
    x: np.ndarray | None
    objective: float | None
    n_iterations: int
    n_cuts: int
    wall_seconds: float
    scheme: str
    rel_tol: float
    iterations: np.ndarray
    cut_rows: np.ndarray
    cut_row_of: np.ndarray
    cut_granules: np.ndarray
    cut_starts: np.ndarray
    block_size: int
    n_scenarios: int

    @classmethod
    def pack(cls, history: list[IterationRecord], rows: np.ndarray, granules: np.ndarray,
             starts: np.ndarray, block_size: int, n_scenarios: int,
             **summary) -> "SolveReport":
        """Pack a run from its iteration records and the optimality cuts it
        added: their stacked (grad, offset) rows, in the order added, as
        one contiguous array, and their coverage (granules, starts)."""
        iterations = np.array(
            [tuple(getattr(rec, name) for name in _COLUMNS) for rec in history],
            dtype=_record_type(rows.shape[1] - 1),
        )
        first, row_of = distinct_rows(rows)
        return cls(
            n_iterations=len(history),
            n_cuts=len(starts) - 1,
            iterations=iterations,
            cut_rows=rows[first],
            cut_row_of=row_of.astype(np.int32),
            cut_granules=granules.astype(np.int32),
            cut_starts=starts.astype(np.int32),
            block_size=block_size,
            n_scenarios=n_scenarios,
            **summary,
        )

    @property
    def status(self) -> str:
        """The ``SolveStatus``: converged for both converged terminations,
        else the termination itself."""
        if self.termination in (Termination.GAP, Termination.NO_VIOLATED_AGGREGATE):
            return SolveStatus.CONVERGED
        return self.termination

    @property
    def cut_grads(self) -> np.ndarray:
        return self.cut_rows[self.cut_row_of, :-1]

    @property
    def cut_offsets(self) -> np.ndarray:
        return self.cut_rows[self.cut_row_of, -1]

    @property
    def cut_iterations(self) -> np.ndarray:
        """The iteration that added each cut."""
        return np.repeat(self.iterations["index"], self.iterations["cuts_added"])

    def _member_sets(self) -> list[tuple[int, ...]]:
        block, n = self.block_size, self.n_scenarios
        granules, starts = self.cut_granules.tolist(), self.cut_starts.tolist()
        return [
            tuple(s for g in granules[a:b] for s in range(g * block, min(n, g * block + block)))
            for a, b in zip(starts, starts[1:])
        ]

    @property
    def history(self) -> list[IterationRecord]:
        members = self._member_sets()
        columns = {
            name: self.iterations[name].tolist()
            for name in self.iterations.dtype.names if name != "x"
        }
        records: list[IterationRecord] = []
        start = 0
        for i, x in enumerate(self.iterations["x"]):
            stop = start + columns["cuts_added"][i]
            records.append(IterationRecord(
                x=x.copy(), partition=tuple(members[start:stop]),
                **{name: col[i] for name, col in columns.items()},
            ))
            start = stop
        return records

    @property
    def cuts(self) -> list[OptimalityCut]:
        return [
            OptimalityCut(grad=grad, offset=offset, members=members, iteration=k)
            for grad, offset, members, k in zip(
                self.cut_grads, self.cut_offsets.tolist(), self._member_sets(),
                self.cut_iterations.tolist(),
            )
        ]


def solve_subproblem(problem: TwoStageProblem, s: int, x: np.ndarray) -> LpSolution:
    """The recourse LP of scenario s at first-stage point x, solved cold.

    Optimal: ``objective`` is Q_s(x), the equality ``duals`` lam satisfy
    lam'(h_s - T_s x) = Q_s(x), and ``basis`` is an optimal basis of W in
    ``solve_lp``'s order (None when an artificial column stayed basic).
    Infeasible: ``farkas`` is a certificate sigma with sigma'W <= 0.  An
    unbounded recourse is a modeling error and raises.
    """
    x = np.asarray(x, dtype=float)
    lp = LinearProgram(
        c=problem.Q[s],
        A=problem.W,
        b=problem.H[s] - problem.T[s] @ x,
        lb=np.zeros(problem.m),
        ub=np.full(problem.m, np.inf),
    )
    sol = solve_lp(lp)
    if sol.status is LpStatus.UNBOUNDED:
        raise RuntimeError(
            f"scenario {s} has an unbounded recourse problem; the model violates "
            "standard complete-recourse assumptions"
        )
    return sol


@dataclass(eq=False)
class ScenarioResults:
    """Every scenario subproblem at one first-stage point."""

    #: recourse values Q_s(x); NaN where the recourse is infeasible
    values: np.ndarray
    #: optimal equality duals, one row per scenario; zero where infeasible
    duals: np.ndarray
    #: Farkas certificate of each infeasible scenario, in scenario order
    farkas: dict[int, np.ndarray]
    #: scenarios solved cold by ``solve_subproblem``
    sub_solves: int


class ScenarioEvaluator:
    """All scenario subproblems of one problem at a point, by bunching over
    the optimal bases of W found so far (see the module docstring).

    Each cached basis keeps its columns in ``solve_lp``'s order, the inverse
    of W restricted to them, the duals q_s[B] B^-1 of every scenario, and
    which scenarios those duals are feasible for.
    """

    def __init__(self, problem: TwoStageProblem):
        self.problem = problem
        self.bases: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    def _add_basis(self, cols: np.ndarray) -> None:
        W, Q = self.problem.W, self.problem.Q
        Binv = np.linalg.inv(W[:, cols])
        duals = Q[:, cols] @ Binv
        dual_feasible = (Q - duals @ W >= -OPTIMALITY_TOL).all(axis=1)
        self.bases.append((cols, Binv, duals, dual_feasible))

    def evaluate(self, x: np.ndarray) -> ScenarioResults:
        problem = self.problem
        N = problem.n_scenarios
        resid = problem.H - problem.T @ x
        values = np.full(N, np.nan)
        duals = np.zeros_like(resid)
        is_open = np.ones(N, dtype=bool)

        def bunch(basis) -> None:
            cols, Binv, basis_duals, dual_feasible = basis
            cand = np.flatnonzero(is_open & dual_feasible)
            y = resid[cand] @ Binv.T
            fits = (y >= -FEASIBILITY_TOL).all(axis=1)
            hit = cand[fits]
            values[hit] = np.einsum("sk,sk->s", problem.Q[hit][:, cols], y[fits])
            duals[hit] = basis_duals[hit]
            is_open[hit] = False

        for basis in self.bases:
            bunch(basis)
        farkas: dict[int, np.ndarray] = {}
        cold = 0
        while is_open.any():
            s = int(np.argmax(is_open))
            is_open[s] = False
            sol = solve_subproblem(self.problem, s, x)
            cold += 1
            if sol.status is LpStatus.INFEASIBLE:
                farkas[s] = sol.farkas
                continue
            values[s] = sol.objective
            duals[s] = sol.duals
            if sol.basis is not None:
                self._add_basis(sol.basis)
                bunch(self.bases[-1])
        return ScenarioResults(values=values, duals=duals, farkas=farkas, sub_solves=cold)


class _Master:
    """Cut pool plus deterministic LP assembly and warm-started solves.

    Columns: x (n), theta (one per granule of the strategy's static block,
    so one per scenario for T0 = 1), then one surplus per cut row in
    insertion order (``simplex.GubMatrix``).  Theta columns enter the
    objective only once covered by at least one row.  The rows are held in
    the exact-size arrays ``grads`` and ``offsets``, which each append
    regrows (the loop appends at most once per iteration): the first-stage
    rows, then every cut's gradient and offset; cut row i covers the theta
    columns ``granules[starts[i]:starts[i + 1]]``.  A feasibility row covers
    none, and the optimality cuts are the rows that cover some.

    Every master is ``program()``, and every solve after the first starts
    from the last optimal basis with the surplus columns of the new rows
    basic and each fresh theta column crashed in (``_crash``), whatever the
    rows' widths.
    """

    def __init__(self, problem: TwoStageProblem, n_theta: int):
        first = problem.first
        self.problem = problem
        self.n_theta = n_theta
        self.p = first.p
        self.grads = np.array(first.A, dtype=float).reshape(first.p, first.n)
        self.offsets = np.array(first.b, dtype=float)
        self.granules = np.zeros(0, dtype=np.intp)
        self.starts = np.zeros(1, dtype=np.intp)
        self.covered = np.zeros(n_theta, dtype=bool)
        # theta columns covered since the last solve
        self.fresh = np.zeros(n_theta, dtype=bool)
        self.basis: np.ndarray | None = None
        self.solved_shape = (0, 0)

    def _append(self, rows: np.ndarray, granules: np.ndarray, starts: np.ndarray) -> None:
        """Append stacked (grad, offset) rows, row i covering the theta
        columns ``granules[starts[i]:starts[i + 1]]``."""
        self.grads = np.vstack([self.grads, rows[:, :-1]])
        self.offsets = np.concatenate([self.offsets, rows[:, -1]])
        self.granules = np.concatenate([self.granules, granules])
        self.starts = np.concatenate([self.starts, self.starts[-1] + starts[1:]])

    def add_optimality(self, rows: np.ndarray, granules: np.ndarray, starts: np.ndarray) -> None:
        """Append optimality cuts: stacked (grad, offset) rows, row i
        covering the theta columns ``granules[starts[i]:starts[i + 1]]``."""
        self.fresh[granules] |= ~self.covered[granules]
        self.covered[granules] = True
        self._append(rows, granules, starts)

    def optimality_cuts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (grad, offset) rows of the optimality cuts, copied out of the
        row arrays in insertion order, and their (granules, starts)."""
        cuts = np.flatnonzero(np.diff(self.starts))
        rows = np.column_stack([self.grads[self.p + cuts], self.offsets[self.p + cuts]])
        return rows, self.granules, np.append(self.starts[cuts], self.starts[-1])

    def add_feasibility(self, rows: np.ndarray) -> None:
        """Append feasibility cuts: stacked (grad, offset) rows over no theta
        column."""
        self._append(rows, self.granules[:0], np.zeros(len(rows) + 1, dtype=np.intp))

    @property
    def all_covered(self) -> bool:
        return bool(self.covered.all())

    def program(self) -> GubProgram:
        """The master LP over [X | Theta | -S]; ``program().dense()`` is
        the same LP with its matrix as an array."""
        n, p = self.problem.first.n, self.p
        widths = np.diff(self.starts)
        rows = p + np.repeat(np.arange(len(widths)), widths)
        A = GubMatrix(self.grads, rows, self.granules, self.n_theta, p)
        n_cols = A.shape[1]
        c = np.zeros(n_cols)
        c[:n] = self.problem.first.c
        c[n : n + self.n_theta] = self.covered
        lb = np.zeros(n_cols)
        lb[n : n + self.n_theta] = -np.inf
        return GubProgram(c=c, A=A, b=self.offsets, lb=lb, ub=np.full(n_cols, np.inf))

    def _crash(self, start: np.ndarray, A: GubMatrix) -> None:
        """Key each new row over fresh theta columns by its highest fresh
        column, basic in place of the row's surplus; a row whose column an
        earlier row took keeps its surplus.  The rows that cover a fresh
        column are all new since the last solve, so ordered by their highest
        fresh column the new rows' block of the start basis is triangular.
        The loop adds one partition per solve, so there each fresh column is
        in exactly one new row: each key absorbs its row, and the row's
        other fresh columns rest at 0 with reduced cost 1 - 1 = 0."""
        new = self.fresh[A.theta_of_rows]
        rows, cols = A.theta_rows[new], A.theta_of_rows[new]
        last = np.diff(rows, append=-1) != 0  # rows ascend: each row's last pair
        cols, first = np.unique(cols[last], return_index=True)
        start[rows[last][first]] = self.problem.first.n + cols

    def solve(self) -> LpSolution:
        """Solve the master from the last optimal basis, the new rows'
        surplus columns basic and fresh theta columns crashed in; cold when
        there is no basis, or when the warm start fails."""
        lp = self.program()
        start = None
        if self.basis is not None:
            start = np.concatenate([self.basis, np.arange(self.solved_shape[1], lp.A.shape[1])])
            self._crash(start, lp.A)
        sol = solve_lp(lp, basis=start)
        self.basis = sol.basis
        self.solved_shape = lp.A.shape
        self.fresh[:] = False
        return sol


def _aggregate(
    problem: TwoStageProblem, duals: np.ndarray, block: int,
    inner: SelectClosest | Kmedoids | None, counts: list[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One iteration's aggregates: the scenario cuts at the stacked duals,
    summed over blocks of ``block`` scenarios (``granulate``) and placed by
    the inner rule, given each granule's scenario count.  Returns the
    aggregate rows and their (granules, starts); the granules are theta
    columns."""
    rows = granulate(make_optimality_cuts(duals, problem), block)
    return aggregate_granules(inner, rows, counts)


def _filter(
    rows: np.ndarray, granules: np.ndarray, starts: np.ndarray, keep: np.ndarray, fold: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The aggregates that enter the master, given the violated ones
    (``keep``, at least one but not all), as rows with their (granules,
    starts), and how many aggregates enter only through the summed row.

    Without ``fold`` the other aggregates are dropped, and all of them are
    counted.  With it a single other aggregate enters as itself, in place,
    and two or more enter as one row after the violated ones: their rows
    summed in aggregate order, over the union of their theta columns in
    ascending order.
    """
    skip = ~keep
    n_skipped = int(skip.sum())
    if fold and n_skipped == 1:
        return rows, granules, starts, 0
    widths = np.diff(starts)
    cover = np.repeat(keep, widths)
    kept_rows, kept_granules, widths = rows[keep], granules[cover], widths[keep]
    if fold:
        kept_rows = np.vstack([kept_rows, rows[skip].sum(axis=0)])
        folded = np.sort(granules[~cover])
        kept_granules = np.concatenate([kept_granules, folded])
        widths = np.append(widths, len(folded))
    return kept_rows, kept_granules, np.concatenate([[0], np.cumsum(widths)]), n_skipped


def solve_lshaped(problem: TwoStageProblem, config: EngineConfig) -> SolveReport:
    """Run the decomposition until convergence, iteration cap, or an
    infeasible master."""
    issues = validate_problem(problem)
    if issues:
        raise ValueError("invalid problem: " + "; ".join(issues))
    scheme_issues = validate_scheme(config.scheme, problem.n_scenarios)
    if scheme_issues:
        raise ValueError("invalid aggregation strategy: " + "; ".join(scheme_issues))

    start = time.perf_counter()
    n = problem.n
    N = problem.n_scenarios
    block, inner = granulation(config.scheme, N)
    n_theta = math.ceil(N / block)
    counts = [min(block, N - g * block) for g in range(n_theta)]

    master = _Master(problem, n_theta)
    evaluator = ScenarioEvaluator(problem)
    history: list[IterationRecord] = []
    upper_best = math.inf
    x_star: np.ndarray | None = None
    termination = Termination.ITERATION_LIMIT
    final_gap = math.inf

    for k in range(1, config.max_iterations + 1):
        started = time.perf_counter()
        sol = master.solve()
        master_s = time.perf_counter() - started
        if sol.status is LpStatus.INFEASIBLE:
            termination = Termination.MASTER_INFEASIBLE
            break
        if sol.status is LpStatus.UNBOUNDED:
            raise RuntimeError(
                "master problem is unbounded; add first-stage constraints "
                "that bound the feasible region"
            )
        x = sol.x[:n].copy()
        theta = sol.x[n : n + n_theta]
        covered = master.all_covered
        lower = sol.objective if covered else -math.inf
        started = time.perf_counter()
        results = evaluator.evaluate(x)
        sub_s = time.perf_counter() - started
        upper, gap, added, skipped, agg_s, filter_s = math.inf, math.inf, 0, 0, 0.0, 0.0

        if results.farkas:
            master.add_feasibility(make_feasibility_cuts(results.farkas, problem))
        else:
            upper = float(problem.first.c @ x + sum((problem.pi * results.values).tolist()))
            if upper < upper_best:
                upper_best = upper
                x_star = x
            final_gap = gap = (upper_best - lower) / max(1.0, abs(upper_best))
            if math.isfinite(lower) and final_gap <= config.rel_tol:
                termination = Termination.GAP
            else:
                # every scenario participates in aggregation each iteration,
                # so the new aggregates partition the theta columns;
                # filtering happens only at the aggregate level (``_filter``
                # drops or folds the satisfied ones).  The first aggregates
                # all enter an uncovered master, and from then on every
                # column is covered, so one coverage test decides for all.
                started = time.perf_counter()
                rows, granules, starts = _aggregate(problem, results.duals, block, inner, counts)
                aggregated = time.perf_counter()
                agg_s = aggregated - started
                if covered:
                    keep = violated(rows, granules, starts, x, theta)
                else:
                    keep = np.ones(len(rows), dtype=bool)
                added = int(keep.sum())
                skipped = len(keep) - added
                if added and skipped:
                    rows, granules, starts, skipped = _filter(
                        rows, granules, starts, keep, fold=inner is not None
                    )
                    added = len(rows)
                if added:
                    master.add_optimality(rows, granules, starts)
                filter_s = time.perf_counter() - aggregated
                if added == 0:
                    termination = Termination.NO_VIOLATED_AGGREGATE

        record = IterationRecord(
            index=k, x=x, lower=lower, upper=upper, gap=gap, cuts_added=added,
            cuts_skipped=skipped, feasibility_cuts=len(results.farkas), partition=(),
            sub_solves=results.sub_solves, sub_s=sub_s, filter_s=filter_s, master_s=master_s,
            agg_s=agg_s, master_pivots=sol.pivots, master_rows=master.solved_shape[0],
        )
        history.append(record)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(_debug_line(record))
        if termination != Termination.ITERATION_LIMIT:  # gap or no violated aggregate
            break

    wall = time.perf_counter() - start
    logger.debug(
        "finished: termination %s final_gap %.3g iterations %d cuts %d",
        termination, final_gap, len(history), sum(rec.cuts_added for rec in history),
    )
    return SolveReport.pack(
        history, *master.optimality_cuts(), block, N,
        termination=termination,
        final_gap=final_gap,
        x=x_star,
        objective=upper_best if math.isfinite(upper_best) else None,
        wall_seconds=wall,
        scheme=scheme_label(config.scheme),
        rel_tol=config.rel_tol,
    )


def compute_relative_complexities(
    run: SolveReport, multi_baseline: SolveReport, single_baseline: SolveReport
) -> tuple[float, float, float]:
    """(cuts / multi-cut cuts, iterations / single-cut iterations,
    wall time / single-cut wall time); all three runs must have converged."""
    for name, report in (
        ("run", run), ("multi baseline", multi_baseline), ("single baseline", single_baseline)
    ):
        if report.status != SolveStatus.CONVERGED:
            raise ValueError(f"{name} did not converge")
    return (
        run.n_cuts / multi_baseline.n_cuts,
        run.n_iterations / single_baseline.n_iterations,
        run.wall_seconds / single_baseline.wall_seconds,
    )
