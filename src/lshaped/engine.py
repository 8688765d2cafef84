"""The decomposition loop: master maintenance, subproblem solves, cuts.

Each iteration solves the master for (x, theta) and evaluates every
scenario subproblem at x.  If any subproblem is infeasible, the iteration
adds only feasibility cuts and repeats.  Otherwise the scenario cuts are
partitioned by the configured strategy over the full scenario set, and each
aggregate enters the master unless the current iterate already satisfies it.
Filtering at the aggregate level keeps every new iteration's rows covering
all theta columns, which is what rules out objective-neutral theta
redistribution between scenarios.

Scenario subproblems are evaluated by bunching (Wets 1988; Birge &
Louveaux, section 5.4).  W is shared, so an optimal basis B of W for one
scenario is optimal for every scenario s whose reduced costs
q_s - q_s[B] B^-1 W are nonnegative and whose basic solution B^-1 (h_s - T_s x)
is nonnegative.  ``ScenarioEvaluator`` keeps the optimal bases found so far,
with their inverses, duals and dual-feasibility masks, and tests each one
against all open scenarios in one array expression.  Only a scenario that
no cached basis fits gets a cold ``solve_subproblem``; the basis it returns
joins the cache and is tried on the rest at once.  The cache belongs to one
``solve_lshaped`` call and starts empty, so a repeated solve repeats every
bit.  There is no thread pool: the batched evaluation leaves little
per-scenario work to share out, and ``EngineConfig.workers`` has no effect.

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
theta column per granule for the whole run, and a cut's coverage is its list
of granules, which are its theta columns; only ``SolveReport.pack`` expands
it to scenarios, granule g being scenarios g*T0 up to the next block.  A
k-medoids rule with no seed of its own takes ``EngineConfig.seed``, and the
report's ``scheme`` names the seed used.  An aggregate is skipped unless
``cuts.row_is_violated`` over its theta columns, at
``EngineConfig.violation_tol``; the test takes one aggregate at a time, as
one dot product per row, because a stacked product rounds differently and
would move the skip decisions.

Without an inner rule every optimality row covers one theta column, and the
master is solved on a GUB basis
(Dantzig & Van Slyke 1967; Birge & Louveaux, section 5.1).  The rows of one
theta column form a generalized upper bound set; each covered theta column
stays basic, keyed to one tight row of its set, and the working matrix is
at most n x n (``simplex._GubSimplex``).  ``_Master`` keeps its rows as
appended arrays and hands ``solve_lp`` a ``GubProgram`` in place of a dense
LP.  Each solve starts from the last optimal basis with the surplus columns
of the new rows basic, and the dual simplex restores optimality.  A theta
column covered for the first time starts basic instead, in its new row that
is largest at the last x (ties to the lowest row): that start is primal
feasible, so the first fully covering master takes a pivot or two where it
used to need a cold solve.  Any failure on the GUB path falls back to a
dense cold solve of ``build()``.

Every other master stays on the dense path.  Masters with only feasibility
rows, and masters whose optimality rows each cover every theta column, are
warm-started from the last basis in the same way, except that a master
whose objective just gained a theta column is solved cold.  There the theta
sum over each row's columns is the largest of those rows at x, so every
optimal vertex gives the aggregate filter the same violations.  Rows over
other sets of granules (closest, k-medoids) leave the split of theta
between columns open, and a different optimal vertex would change which
aggregates are added, so those masters are solved cold.  Warm-starting them
was measured and rejected: on the 32 instances of the perfbench
granulated_kmedoids workload for run seeds 1-8 it made solves faster, but
the other vertices moved the filter and the mean iteration count rose from
10.03 to 10.84.

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

import itertools
import logging
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .aggregation import (
    AggregationScheme,
    Cluster,
    Granulated,
    SingleCut,
    aggregate_granules,
    granulate,
    granulation,
    scheme_label,
    validate_scheme,
)
from .cuts import (
    VIOLATION_SCALE, FeasibilityCut, OptimalityCut, make_feasibility_cut, make_optimality_cuts,
    row_is_violated,
)
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
    violation_tol: float = VIOLATION_SCALE
    max_iterations: int = 5000
    #: accepted and validated for compatibility; has no effect, because
    #: scenarios are evaluated as one batch (see the module docstring)
    workers: int = 1
    seed: int = 0

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if not 0 <= self.violation_tol < math.inf:
            raise ValueError("violation_tol must be finite and nonnegative")
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
    cuts_added: int
    cuts_skipped: int
    feasibility_cuts: int
    #: member sets of the cuts added, in scenario terms; ``SolveReport``
    #: reads them back from its cut member bits, and the loop leaves them empty
    partition: tuple[tuple[int, ...], ...]
    #: cold subproblem solves, i.e. scenarios no cached basis fitted
    sub_solves: int
    #: wall time of the iteration's master solve, in seconds
    master_s: float
    #: wall time of the iteration's aggregation (``_aggregate``: cut rows,
    #: ``granulate`` and the inner rule), in seconds; 0 when it added
    #: feasibility cuts or converged
    agg_s: float
    master_pivots: int
    master_rows: int


#: IterationRecord's per-iteration values by element type, the columns of
#: ``SolveReport.iterations``; ``partition`` is kept as the cut member bits
_COLUMNS = {
    f.name: "float" if f.name == "x" else f.type
    for f in fields(IterationRecord) if f.name != "partition"
}


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
    reported with status converged."""

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
    cut rows out of the master's row arrays, not its grown buffers.
    ``iterations`` maps each ``IterationRecord`` field but ``partition`` to
    one array, row i for iteration i + 1 (``x`` is one row per iteration).
    Cuts are kept in the order they were added, iteration by iteration:
    ``cut_rows`` holds each distinct (gradient, offset) pair once, bit for
    bit, ``cut_row_of`` the row of each cut, ``cut_members`` each distinct
    member set once as a bit row (``np.packbits`` of a scenario mask), and
    ``cut_member_of`` the member row of each cut.  Sampled instances repeat
    scenarios, so their cuts repeat too: a multi-cut solve of one of the
    benchmark's 200-scenario instances adds 409 cuts with 65 distinct rows,
    and it repeats a scenario's member set in every iteration that cuts for
    it.  An iteration's partition is the member sets of the cuts it added.
    The ``_s`` columns and ``wall_seconds`` are measurements; two runs of
    one solve agree bit for bit on every other field.
    """

    status: str
    #: a ``Termination`` value
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
    iterations: dict[str, np.ndarray]
    cut_rows: np.ndarray
    cut_row_of: np.ndarray
    cut_members: np.ndarray
    cut_member_of: np.ndarray

    @classmethod
    def pack(cls, history: list[IterationRecord], rows: np.ndarray,
             coverage: list[tuple[int, ...]], block: int, n_scenarios: int,
             **summary) -> "SolveReport":
        """Pack a run from its iteration records and the optimality cuts it
        added: their stacked (grad, offset) rows, in the order added, as
        one contiguous array, and the granules each covers, granule g
        being scenarios g * block up to the next block."""
        mask = np.zeros((len(coverage), math.ceil(n_scenarios / block)), dtype=bool)
        mask[_incidence(coverage)] = True
        packed = np.packbits(np.repeat(mask, block, axis=1)[:, :n_scenarios], axis=1)
        iterations = {
            name: np.array([getattr(rec, name) for rec in history], dtype=kind)
            for name, kind in _COLUMNS.items()
        }
        iterations["x"] = iterations["x"].reshape(len(history), rows.shape[1] - 1)
        rows, row_of = _distinct_rows(rows)
        packed, member_of = _distinct_rows(packed)
        return cls(
            n_iterations=len(history),
            n_cuts=len(coverage),
            iterations=iterations,
            cut_rows=rows,
            cut_row_of=row_of,
            cut_members=packed,
            cut_member_of=member_of,
            **summary,
        )

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
        sets = [tuple(np.flatnonzero(np.unpackbits(row)).tolist()) for row in self.cut_members]
        return [sets[i] for i in self.cut_member_of.tolist()]

    @property
    def history(self) -> list[IterationRecord]:
        members = self._member_sets()
        columns = {name: col.tolist() for name, col in self.iterations.items() if name != "x"}
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


def _incidence(theta_cols: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of every (row, theta column it covers) pair,
    rows numbered in list order."""
    widths = [len(cols) for cols in theta_cols]
    cols = np.fromiter(itertools.chain.from_iterable(theta_cols), dtype=np.intp,
                       count=sum(widths))
    return np.repeat(np.arange(len(theta_cols)), widths), cols


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d array, compared as raw bytes so that only
    bitwise-equal rows merge, and the int32 index of each row among them."""
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, row_of = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], row_of.reshape(-1).astype(np.int32)


@dataclass(eq=False)
class SubproblemResult:
    feasible: bool
    value: float | None = None
    duals: np.ndarray | None = None
    farkas: np.ndarray | None = None
    #: optimal basis of W, one column per row, in ``solve_lp``'s order
    #: (None when infeasible or an artificial column stayed basic)
    basis: np.ndarray | None = None


def solve_subproblem(problem: TwoStageProblem, s: int, x: np.ndarray) -> SubproblemResult:
    """Recourse value and duals of scenario s at first-stage point x.

    Optimal: value Q_s(x) with equality duals lam such that
    lam'(h_s - T_s x) = Q_s(x).  Infeasible: a certificate sigma with
    sigma'W <= 0.  An unbounded recourse is a modeling error and raises.
    """
    scen = problem.scenarios[s]
    x = np.asarray(x, dtype=float)
    lp = LinearProgram(
        c=scen.q,
        A=problem.W,
        b=scen.h - scen.T @ x,
        lb=np.zeros(problem.m),
        ub=np.full(problem.m, np.inf),
        n_structural=problem.m,
    )
    sol = solve_lp(lp)
    if sol.status is LpStatus.OPTIMAL:
        return SubproblemResult(
            feasible=True, value=sol.objective, duals=sol.duals, basis=sol.basis
        )
    if sol.status is LpStatus.INFEASIBLE:
        return SubproblemResult(feasible=False, farkas=sol.farkas)
    raise RuntimeError(
        f"scenario {s} has an unbounded recourse problem; the model violates "
        "standard complete-recourse assumptions"
    )


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
        W, Q = self.problem.W, self.problem.arrays.Q
        Binv = np.linalg.inv(W[:, cols])
        duals = Q[:, cols] @ Binv
        dual_feasible = (Q - duals @ W >= -OPTIMALITY_TOL).all(axis=1)
        self.bases.append((cols, Binv, duals, dual_feasible))

    def evaluate(self, x: np.ndarray) -> ScenarioResults:
        data = self.problem.arrays
        N = len(data.pi)
        resid = data.H - data.T @ x
        values = np.full(N, np.nan)
        duals = np.zeros_like(resid)
        is_open = np.ones(N, dtype=bool)

        def bunch(basis) -> None:
            cols, Binv, basis_duals, dual_feasible = basis
            cand = np.flatnonzero(is_open & dual_feasible)
            y = resid[cand] @ Binv.T
            fits = (y >= -FEASIBILITY_TOL).all(axis=1)
            hit = cand[fits]
            values[hit] = np.einsum("sk,sk->s", data.Q[hit][:, cols], y[fits])
            duals[hit] = basis_duals[hit]
            is_open[hit] = False

        for basis in self.bases:
            bunch(basis)
        farkas: dict[int, np.ndarray] = {}
        cold = 0
        while is_open.any():
            s = int(np.argmax(is_open))
            is_open[s] = False
            res = solve_subproblem(self.problem, s, x)
            cold += 1
            if not res.feasible:
                farkas[s] = res.farkas
                continue
            values[s] = res.value
            duals[s] = res.duals
            if res.basis is not None:
                self._add_basis(res.basis)
                bunch(self.bases[-1])
        return ScenarioResults(values=values, duals=duals, farkas=farkas, sub_solves=cold)


class _Master:
    """Cut pool plus deterministic LP assembly and warm-started solves.

    Columns: x (n), theta (one per granule of the strategy's static block,
    so one per scenario for T0 = 1), then one surplus per cut row in
    insertion order.  Theta columns
    enter the objective only once covered by at least one row.  The rows
    are kept as appended arrays: the first-stage rows, then every cut's
    gradient and offset, and the theta column of each row that covers
    exactly one (-1 for first-stage and feasibility rows, and for rows
    over several columns, which only ``build()`` reads).  The optimality
    cuts are those rows (``optimality``) and their theta columns; no cut
    objects are kept.
    """

    def __init__(self, problem: TwoStageProblem, n_theta: int):
        first = problem.first
        self.problem = problem
        self.n_theta = n_theta
        self.p = first.p
        self.n_rows = first.p
        self._grads = np.array(first.A, dtype=float).reshape(first.p, first.n)
        self._offsets = np.array(first.b, dtype=float)
        self._theta = np.full(first.p, -1)
        self.theta_cols: list[tuple[int, ...]] = []
        # row index of each optimality cut, in insertion order
        self.optimality: list[int] = []
        self.covered: set[int] = set()
        # theta-column counts of the optimality rows so far
        self.widths: set[int] = set()
        # theta columns covered since the last solve
        self.fresh: list[int] = []
        self.basis: np.ndarray | None = None
        self.solved_shape = (0, 0)
        self.x: np.ndarray | None = None

    def _append(self, grad: np.ndarray, offset: float, theta_cols: tuple[int, ...]) -> None:
        if self.n_rows == len(self._offsets):
            size = max(16, 2 * self.n_rows)
            for name in ("_grads", "_offsets", "_theta"):
                old = getattr(self, name)
                grown = np.empty((size,) + old.shape[1:], dtype=old.dtype)
                grown[: self.n_rows] = old[: self.n_rows]
                setattr(self, name, grown)
        i = self.n_rows
        self._grads[i] = grad
        self._offsets[i] = offset
        self._theta[i] = theta_cols[0] if len(theta_cols) == 1 else -1
        self.theta_cols.append(theta_cols)
        self.n_rows += 1

    @property
    def grads(self) -> np.ndarray:
        return self._grads[: self.n_rows]

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets[: self.n_rows]

    @property
    def theta(self) -> np.ndarray:
        return self._theta[: self.n_rows]

    def add_optimality(self, row: np.ndarray, theta_cols: tuple[int, ...]) -> None:
        """Append an optimality cut, a stacked (grad, offset) row that covers
        the given theta columns."""
        self.fresh.extend(t for t in theta_cols if t not in self.covered)
        self.optimality.append(self.n_rows)
        self._append(row[:-1], row[-1], theta_cols)
        self.covered.update(theta_cols)
        self.widths.add(len(theta_cols))

    def optimality_cuts(self) -> tuple[np.ndarray, list[tuple[int, ...]]]:
        """The (grad, offset) rows of the optimality cuts, copied out of the
        row arrays in insertion order, and the theta columns of each."""
        rows = np.column_stack([self._grads[self.optimality], self._offsets[self.optimality]])
        return rows, [self.theta_cols[i - self.p] for i in self.optimality]

    def add_feasibility(self, cut: FeasibilityCut) -> None:
        self._append(cut.grad, cut.offset, ())

    @property
    def all_covered(self) -> bool:
        return len(self.covered) == self.n_theta

    def _objective(self, n_cols: int) -> np.ndarray:
        n = self.problem.first.n
        c = np.zeros(n_cols)
        c[:n] = self.problem.first.c
        c[[n + t for t in self.covered]] = 1.0
        return c

    def _bounds(self, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
        n = self.problem.first.n
        lb = np.zeros(n_cols)
        lb[n : n + self.n_theta] = -np.inf
        return lb, np.full(n_cols, np.inf)

    def build(self) -> LinearProgram:
        n, p, m = self.problem.first.n, self.p, self.n_rows
        n_cols = n + self.n_theta + m - p
        A = np.zeros((m, n_cols))
        A[:, :n] = self.grads
        rows, cols = _incidence(self.theta_cols)
        A[p + rows, n + cols] = 1.0
        cut_rows = np.arange(m - p)
        A[p + cut_rows, n + self.n_theta + cut_rows] = -1.0  # surplus: row is >= offset
        lb, ub = self._bounds(n_cols)
        return LinearProgram(c=self._objective(n_cols), A=A, b=self.offsets, lb=lb, ub=ub,
                             n_structural=n + self.n_theta)

    def program(self) -> GubProgram:
        """The master with its constraint matrix in GUB form, for masters
        whose optimality rows each cover one theta column."""
        n = self.problem.first.n
        A = GubMatrix(self.grads, self.theta, self.n_theta, self.p)
        n_cols = A.shape[1]
        lb, ub = self._bounds(n_cols)
        return GubProgram(c=self._objective(n_cols), A=A, b=self.offsets, lb=lb, ub=ub,
                          n_structural=n + self.n_theta)

    def _crash(self, start: np.ndarray) -> None:
        """Make each fresh theta column basic in place of the surplus of its
        row that is largest at the last x, ties to the lowest row."""
        n = self.problem.first.n
        rows = np.arange(self.solved_shape[0], self.n_rows)
        theta = self.theta[rows]
        fresh = np.zeros(self.n_theta + 1, dtype=bool)
        fresh[self.fresh] = True
        rows, theta = rows[fresh[theta]], theta[fresh[theta]]
        value = self.offsets[rows] - self.grads[rows] @ self.x
        order = np.lexsort((rows, -value, theta))
        cols, first = np.unique(theta[order], return_index=True)
        start[rows[order[first]]] = n + cols

    def solve(self) -> LpSolution:
        """Build and solve the master, in GUB form when every optimality row
        covers one theta column, warm-started from the last optimal basis
        plus the surplus columns of the rows added since (fresh theta
        columns crashed in) when the module docstring's conditions allow."""
        gub = self.widths == {1}
        lp = self.program() if gub else self.build()
        start = None
        warm = gub or (not self.fresh and self.widths <= {self.n_theta})
        if warm and self.basis is not None:
            start = np.concatenate([self.basis, np.arange(self.solved_shape[1], lp.A.shape[1])])
            if self.fresh:
                self._crash(start)
        sol = solve_lp(lp, basis=start)
        self.basis = sol.basis
        self.solved_shape = lp.A.shape
        self.fresh = []
        if sol.x is not None:
            self.x = sol.x[: self.problem.first.n]
        return sol


def _aggregate(
    problem: TwoStageProblem, duals: np.ndarray, block: int, inner: AggregationScheme,
    counts: list[int],
) -> tuple[np.ndarray, list[list[int]]]:
    """One iteration's aggregates: the scenario cuts at the stacked duals,
    summed over blocks of ``block`` scenarios (``granulate``) and placed by
    the inner rule, given each granule's scenario count.  Returns the
    aggregate rows and, for each, its granules, which are its theta
    columns."""
    granules = granulate(make_optimality_cuts(duals, problem.arrays), block)
    return aggregate_granules(inner, granules, counts, len(counts))


def _seeded(scheme: AggregationScheme, seed: int) -> AggregationScheme:
    """The strategy with ``seed`` filled into a k-medoids rule that has none."""
    if isinstance(scheme, Granulated):
        return replace(scheme, inner=_seeded(scheme.inner, seed))
    if isinstance(scheme, Cluster) and scheme.rule.seed is None:
        return Cluster(replace(scheme.rule, seed=seed))
    return scheme


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
    data = problem.arrays
    scheme = _seeded(config.scheme, config.seed)
    block, inner = granulation(scheme, N)
    n_theta = math.ceil(N / block)
    counts = [min(block, N - g * block) for g in range(n_theta)]

    master = _Master(problem, n_theta)
    evaluator = ScenarioEvaluator(problem)
    history: list[IterationRecord] = []
    upper_best = math.inf
    x_star: np.ndarray | None = None
    status = SolveStatus.ITERATION_LIMIT
    termination = Termination.ITERATION_LIMIT
    final_gap = math.inf

    for k in range(1, config.max_iterations + 1):
        started = time.perf_counter()
        sol = master.solve()
        master_s = time.perf_counter() - started
        if sol.status is LpStatus.INFEASIBLE:
            status = SolveStatus.MASTER_INFEASIBLE
            termination = Termination.MASTER_INFEASIBLE
            break
        if sol.status is LpStatus.UNBOUNDED:
            raise RuntimeError(
                "master problem is unbounded; add first-stage constraints "
                "that bound the feasible region"
            )
        x = sol.x[:n].copy()
        theta = sol.x[n : n + n_theta]
        lower = sol.objective if master.all_covered else -math.inf
        results = evaluator.evaluate(x)
        upper, added, skipped, agg_s = math.inf, 0, 0, 0.0

        if results.farkas:
            for s, sigma in results.farkas.items():
                master.add_feasibility(
                    make_feasibility_cut(sigma, problem.scenarios[s], problem.W, s)
                )
        else:
            upper = float(problem.first.c @ x + sum((data.pi * results.values).tolist()))
            if upper < upper_best:
                upper_best = upper
                x_star = x
            final_gap = (upper_best - lower) / max(1.0, abs(upper_best))
            if math.isfinite(lower) and final_gap <= config.rel_tol:
                status, termination = SolveStatus.CONVERGED, Termination.GAP
            else:
                # every scenario participates in aggregation each iteration,
                # so the new aggregates cover all theta columns; filtering
                # happens only at the aggregate level (a satisfied aggregate
                # is skipped)
                started = time.perf_counter()
                rows, groups = _aggregate(problem, results.duals, block, inner, counts)
                agg_s = time.perf_counter() - started
                for row, cols in zip(rows, groups):
                    if master.covered.issuperset(cols) and not row_is_violated(
                        row, x, theta, config.violation_tol, cols
                    ):
                        skipped += 1
                        continue
                    master.add_optimality(row, tuple(cols))
                    added += 1
                if added == 0:
                    status = SolveStatus.CONVERGED
                    termination = Termination.NO_VIOLATED_AGGREGATE

        record = IterationRecord(
            index=k, x=x, lower=lower, upper=upper, cuts_added=added, cuts_skipped=skipped,
            feasibility_cuts=len(results.farkas), partition=(), sub_solves=results.sub_solves,
            master_s=master_s, agg_s=agg_s, master_pivots=sol.pivots,
            master_rows=master.solved_shape[0],
        )
        history.append(record)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(_debug_line(record))
        if status == SolveStatus.CONVERGED:
            break

    wall = time.perf_counter() - start
    logger.debug(
        "finished: termination %s final_gap %.3g iterations %d cuts %d",
        termination, final_gap, len(history), len(master.optimality),
    )
    converged = status == SolveStatus.CONVERGED
    objective = upper_best if (converged or math.isfinite(upper_best)) else None
    return SolveReport.pack(
        history, *master.optimality_cuts(), block, N,
        status=status,
        termination=termination,
        final_gap=final_gap,
        x=x_star,
        objective=objective,
        wall_seconds=wall,
        scheme=scheme_label(scheme),
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
