"""Data model for two-stage stochastic linear programs.

A problem is

    min  c'x + sum_s pi_s q_s' y_s
    s.t. A x = b
         T_s x + W y_s = h_s          for every scenario s
         x >= 0, y_s >= 0

with a recourse matrix W shared by all scenarios.  Scenario indices are
0-based everywhere in this package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .rng import XorShift64Star

PROBABILITY_TOL = 1e-9

DEFAULT_SCENARIO_CAP = 1_000_000


def _frozen_vector(value) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float)).copy()
    arr.setflags(write=False)
    return arr


def _frozen_matrix(value, width_hint: int | None = None) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.size == 0:
        width = width_hint if width_hint is not None else (arr.shape[-1] if arr.ndim == 2 else 0)
        arr = np.zeros((0, width))
    arr = np.atleast_2d(arr).copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FirstStage:
    """First-stage data: min c'x s.t. A x = b, x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", _frozen_vector(self.c))
        object.__setattr__(self, "A", _frozen_matrix(self.A, width_hint=len(self.c)))
        object.__setattr__(self, "b", _frozen_vector(self.b))

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def p(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class Scenario:
    """One realization: probability pi, recourse cost q, technology T, rhs h."""

    pi: float
    q: np.ndarray
    T: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pi", float(self.pi))
        object.__setattr__(self, "q", _frozen_vector(self.q))
        object.__setattr__(self, "T", _frozen_matrix(self.T))
        object.__setattr__(self, "h", _frozen_vector(self.h))


@dataclass(frozen=True, eq=False)
class ScenarioArrays:
    """All scenarios stacked, read-only: H (N x r), T (N x r x n), Q (N x m)
    and pi (N), row s for scenario s."""

    H: np.ndarray
    T: np.ndarray
    Q: np.ndarray
    pi: np.ndarray


@dataclass(frozen=True, eq=False)
class TwoStageProblem:
    first: FirstStage
    W: np.ndarray
    scenarios: tuple[Scenario, ...]

    def __post_init__(self):
        object.__setattr__(self, "W", _frozen_matrix(self.W))
        object.__setattr__(self, "scenarios", tuple(self.scenarios))

    @cached_property
    def arrays(self) -> ScenarioArrays:
        """The scenario data as stacked arrays, built on first use and kept.

        Scenario shapes must agree (``validate_problem``).
        """
        scens = self.scenarios
        N, r, n, m = len(scens), self.q_rows, self.n, self.m

        def stack(values, shape) -> np.ndarray:
            arr = np.array(values, dtype=float).reshape(shape)
            arr.setflags(write=False)
            return arr

        return ScenarioArrays(
            H=stack([s.h for s in scens], (N, r)),
            T=stack([s.T for s in scens], (N, r, n)),
            Q=stack([s.q for s in scens], (N, m)),
            pi=stack([s.pi for s in scens], (N,)),
        )

    @property
    def n(self) -> int:
        return self.first.n

    @property
    def m(self) -> int:
        return self.W.shape[1]

    @property
    def q_rows(self) -> int:
        return self.W.shape[0]

    @property
    def n_scenarios(self) -> int:
        return len(self.scenarios)


@dataclass(frozen=True, eq=False)
class RandomEntry:
    """One independent discrete coordinate of a stochastic template.

    target selects the vector or matrix ("q", "T" or "h"); the unused index
    must be 0 (col for "h", row for "q").  outcomes is a (value, probability)
    list.
    """

    target: str
    row: int
    col: int
    outcomes: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "outcomes", tuple((float(v), float(p)) for v, p in self.outcomes)
        )


@dataclass(frozen=True, eq=False)
class StochasticTemplate:
    """Deterministic skeleton plus independent discrete random entries."""

    first: FirstStage
    W: np.ndarray
    q: np.ndarray
    T: np.ndarray
    h: np.ndarray
    entries: tuple[RandomEntry, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "W", _frozen_matrix(self.W))
        object.__setattr__(self, "q", _frozen_vector(self.q))
        object.__setattr__(self, "T", _frozen_matrix(self.T))
        object.__setattr__(self, "h", _frozen_vector(self.h))
        object.__setattr__(self, "entries", tuple(self.entries))


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Equality-form LP: min c'x s.t. A x = b, lb <= x <= ub.

    Inequality rows are stored as equalities through slack columns appended
    by ``with_rows``; ``n_structural`` remembers how many leading columns
    belong to the caller.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    n_structural: int = -1

    def __post_init__(self):
        c = _frozen_vector(self.c)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", _frozen_matrix(self.A, width_hint=len(c)))
        object.__setattr__(self, "b", _frozen_vector(self.b))
        object.__setattr__(self, "lb", _frozen_vector(self.lb))
        object.__setattr__(self, "ub", _frozen_vector(self.ub))
        if self.n_structural < 0:
            object.__setattr__(self, "n_structural", len(c))
        n = len(c)
        if self.A.shape != (len(self.b), n):
            raise ValueError(
                f"constraint matrix is {self.A.shape}, expected ({len(self.b)}, {n})"
            )
        if len(self.lb) != n or len(self.ub) != n:
            raise ValueError("bound vectors must match the number of columns")
        for name, arr in (("c", c), ("A", self.A), ("b", self.b)):
            if np.isnan(arr).any():
                raise ValueError(f"{name} contains NaN")

    @classmethod
    def with_rows(cls, objective, rows, senses, rhs, lb=None, ub=None) -> "LinearProgram":
        """Assemble an LP from rows with senses 'E', 'L' or 'G'.

        'L' and 'G' rows each receive a fresh slack column (>= 0) so the
        stored system is pure equalities.  Slack columns come after the
        structural ones, in row order.
        """
        c = np.atleast_1d(np.asarray(objective, dtype=float))
        n = len(c)
        rows = [np.atleast_1d(np.asarray(r, dtype=float)) for r in rows]
        rhs = [float(v) for v in rhs]
        if not (len(rows) == len(senses) == len(rhs)):
            raise ValueError("rows, senses and rhs must have equal length")
        slack_rows = [i for i, s in enumerate(senses) if s in ("L", "G")]
        n_slack = len(slack_rows)
        m = len(rows)
        A = np.zeros((m, n + n_slack))
        for i, r in enumerate(rows):
            if len(r) != n:
                raise ValueError(f"row {i} has {len(r)} coefficients, expected {n}")
            A[i, :n] = r
        for k, i in enumerate(slack_rows):
            A[i, n + k] = 1.0 if senses[i] == "L" else -1.0
        lb_full = np.zeros(n + n_slack)
        ub_full = np.full(n + n_slack, np.inf)
        if lb is not None:
            lb_full[:n] = np.asarray(lb, dtype=float)
        if ub is not None:
            ub_full[:n] = np.asarray(ub, dtype=float)
        return cls(c=np.concatenate([c, np.zeros(n_slack)]), A=A, b=np.asarray(rhs),
                   lb=lb_full, ub=ub_full, n_structural=n)


def validate_problem(problem: TwoStageProblem) -> list[str]:
    """Return every invariant violation as a human-readable string.

    An empty list means the problem is well formed.  Violations are data,
    not exceptions, so callers can report all of them at once.
    """
    out: list[str] = []
    first = problem.first
    n = first.n
    if first.A.shape[1] != n and first.A.size > 0:
        out.append(f"A has {first.A.shape[1]} columns, expected {n}")
    if first.A.shape[0] != len(first.b):
        out.append(f"A has {first.A.shape[0]} rows but b has {len(first.b)} entries")
    for name, arr in (("c", first.c), ("A", first.A), ("b", first.b), ("W", problem.W)):
        if arr.size and not np.isfinite(arr).all():
            out.append(f"{name} contains non-finite entries")
    q_rows, m = problem.W.shape
    if problem.n_scenarios < 1:
        out.append("problem has no scenarios")
        return out
    shape = ((m,), (q_rows, n), (q_rows,))
    if all((s.q.shape, s.T.shape, s.h.shape) == shape for s in problem.scenarios):
        data = problem.arrays
        if (data.pi > 0.0).all() and all(
            np.isfinite(arr).all() for arr in (data.Q, data.T, data.H)
        ):
            total = sum(data.pi.tolist())
            if abs(total - 1.0) > PROBABILITY_TOL:
                out.append(f"probabilities sum to {total:g}")
            return out
    # ragged shapes or a failed array check: word the messages per scenario
    total = 0.0
    for i, scen in enumerate(problem.scenarios):
        if scen.pi <= 0.0:
            out.append(f"scenario {i} has non-positive probability {scen.pi:g}")
        total += scen.pi
        if len(scen.q) != m:
            out.append(f"q[{i}] has {len(scen.q)} entries, expected {m}")
        if scen.T.shape[1] != n:
            out.append(f"T[{i}] has {scen.T.shape[1]} columns, expected {n}")
        if scen.T.shape[0] != q_rows:
            out.append(f"T[{i}] has {scen.T.shape[0]} rows, expected {q_rows}")
        if len(scen.h) != q_rows:
            out.append(f"h[{i}] has {len(scen.h)} entries, expected {q_rows}")
        for name, arr in (("q", scen.q), ("T", scen.T), ("h", scen.h)):
            if arr.size and not np.isfinite(arr).all():
                out.append(f"{name}[{i}] contains non-finite entries")
    if abs(total - 1.0) > PROBABILITY_TOL:
        out.append(f"probabilities sum to {total:g}")
    return out


def validate_template(template: StochasticTemplate) -> list[str]:
    """Invariant violations of a stochastic template, as strings."""
    out: list[str] = []
    q_rows, m = template.W.shape
    n = template.first.n
    if len(template.q) != m:
        out.append(f"nominal q has {len(template.q)} entries, expected {m}")
    if template.T.shape != (q_rows, n):
        out.append(f"nominal T is {template.T.shape}, expected ({q_rows}, {n})")
    if len(template.h) != q_rows:
        out.append(f"nominal h has {len(template.h)} entries, expected {q_rows}")
    limits = {"q": (1, m), "T": (q_rows, n), "h": (q_rows, 1)}
    for i, entry in enumerate(template.entries):
        if entry.target not in limits:
            out.append(f"random entry {i} targets unknown field {entry.target!r}")
            continue
        rows, cols = limits[entry.target]
        if not (0 <= entry.row < rows) or not (0 <= entry.col < cols):
            out.append(
                f"random entry {i} coordinate ({entry.row}, {entry.col}) out of range "
                f"for {entry.target}"
            )
        if not entry.outcomes:
            out.append(f"random entry {i} has no outcomes")
            continue
        total = sum(p for _, p in entry.outcomes)
        if abs(total - 1.0) > PROBABILITY_TOL:
            out.append(f"random entry {i} outcome probabilities sum to {total:g}")
        if any(p <= 0.0 for _, p in entry.outcomes):
            out.append(f"random entry {i} has a non-positive outcome probability")
    return out


def _apply_entry(q, T, h, entry: RandomEntry, value: float) -> None:
    if entry.target == "q":
        q[entry.col] = value
    elif entry.target == "T":
        T[entry.row, entry.col] = value
    else:
        h[entry.row] = value


def _realize(template: StochasticTemplate, choices, pi: float) -> Scenario:
    q = np.array(template.q)
    T = np.array(template.T)
    h = np.array(template.h)
    for entry, idx in zip(template.entries, choices):
        _apply_entry(q, T, h, entry, entry.outcomes[idx][0])
    return Scenario(pi=pi, q=q, T=T, h=h)


def enumerate_scenarios(
    template: StochasticTemplate, max_scenarios: int = DEFAULT_SCENARIO_CAP
) -> TwoStageProblem:
    """Expand all outcome combinations into one scenario each.

    Scenario probability is the product of the outcome probabilities and the
    ordering is lexicographic over outcome indices (last entry fastest).
    """
    issues = validate_template(template)
    if issues:
        raise ValueError("invalid template: " + "; ".join(issues))
    count = 1
    for entry in template.entries:
        count *= len(entry.outcomes)
    if count > max_scenarios:
        raise ValueError(
            f"enumeration would produce {count} scenarios, above the cap of {max_scenarios}"
        )
    probs = [
        np.asarray([p for _, p in entry.outcomes]) for entry in template.entries
    ]
    probs = [p / p.sum() for p in probs]
    scenarios = []
    for combo in itertools.product(*(range(len(e.outcomes)) for e in template.entries)):
        pi = 1.0
        for k, idx in enumerate(combo):
            pi *= probs[k][idx]
        scenarios.append(_realize(template, combo, pi))
    return TwoStageProblem(first=template.first, W=template.W, scenarios=tuple(scenarios))


def sample_instance(template: StochasticTemplate, n_scenarios: int, seed: int) -> TwoStageProblem:
    """Draw n_scenarios independent samples, each weighted 1/n_scenarios.

    A pure function of (template, n_scenarios, seed): the xorshift64* stream
    consumes one draw per random entry per scenario, in declaration order.
    """
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be at least 1")
    issues = validate_template(template)
    if issues:
        raise ValueError("invalid template: " + "; ".join(issues))
    rng = XorShift64Star(seed)
    weight = 1.0 / n_scenarios
    outcome_probs = [[p for _, p in entry.outcomes] for entry in template.entries]
    scenarios = []
    for _ in range(n_scenarios):
        combo = [rng.choice_index(probs) for probs in outcome_probs]
        scenarios.append(_realize(template, combo, weight))
    return TwoStageProblem(first=template.first, W=template.W, scenarios=tuple(scenarios))


def build_extensive_form(problem: TwoStageProblem) -> LinearProgram:
    """Deterministic-equivalent LP over (x, y_0, ..., y_{N-1}).

    Column order is x first, then each scenario's recourse block in scenario
    order; rows are the first-stage equalities followed by one recourse block
    per scenario.  Used as the correctness oracle for the decomposition.
    """
    issues = validate_problem(problem)
    if issues:
        raise ValueError("invalid problem: " + "; ".join(issues))
    first = problem.first
    n, p = first.n, first.p
    q_rows, m = problem.W.shape
    N = problem.n_scenarios
    n_cols = n + N * m
    n_rows = p + N * q_rows
    c = np.zeros(n_cols)
    c[:n] = first.c
    A = np.zeros((n_rows, n_cols))
    b = np.zeros(n_rows)
    if p:
        A[:p, :n] = first.A
        b[:p] = first.b
    for s, scen in enumerate(problem.scenarios):
        c[n + s * m : n + (s + 1) * m] = scen.pi * scen.q
        r0 = p + s * q_rows
        A[r0 : r0 + q_rows, :n] = scen.T
        A[r0 : r0 + q_rows, n + s * m : n + (s + 1) * m] = problem.W
        b[r0 : r0 + q_rows] = scen.h
    return LinearProgram(
        c=c, A=A, b=b, lb=np.zeros(n_cols), ub=np.full(n_cols, np.inf), n_structural=n_cols
    )
