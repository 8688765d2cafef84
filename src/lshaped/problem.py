"""Data model for two-stage stochastic linear programs.

A problem is

    min  c'x + sum_s pi_s q_s' y_s
    s.t. A x = b
         T_s x + W y_s = h_s          for every scenario s
         x >= 0, y_s >= 0

with a recourse matrix W shared by all scenarios.  Scenario indices are
0-based everywhere in this package.  A problem holds its scenarios as
stacked arrays, one row per scenario, which sampling and enumeration fill
directly; ``Scenario`` objects exist only to build a problem and to hand
its rows out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
class TwoStageProblem:
    """A two-stage problem with its scenarios stacked: row s of the
    read-only arrays pi (N), Q (N x m), T (N x r x n) and H (N x r) is
    scenario s's probability, recourse cost, technology and right-hand
    side.  ``from_scenarios`` stacks ``Scenario`` objects, and
    ``scenarios`` hands the rows back as objects."""

    first: FirstStage
    W: np.ndarray
    pi: np.ndarray
    Q: np.ndarray
    T: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "W", _frozen_matrix(self.W))
        for name, ndim in (("pi", 1), ("Q", 2), ("T", 3), ("H", 2)):
            arr = np.array(getattr(self, name), dtype=float, ndmin=ndim)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_scenarios(
        cls, first: FirstStage, W, scenarios: Sequence[Scenario]
    ) -> "TwoStageProblem":
        """Stack scenario objects; a ValueError names every scenario whose
        shapes disagree with W and the first stage."""
        W = _frozen_matrix(W)
        (q_rows, m), n = W.shape, first.n
        issues = []
        for i, scen in enumerate(scenarios):
            if len(scen.q) != m:
                issues.append(f"q[{i}] has {len(scen.q)} entries, expected {m}")
            if scen.T.shape[1] != n:
                issues.append(f"T[{i}] has {scen.T.shape[1]} columns, expected {n}")
            if scen.T.shape[0] != q_rows:
                issues.append(f"T[{i}] has {scen.T.shape[0]} rows, expected {q_rows}")
            if len(scen.h) != q_rows:
                issues.append(f"h[{i}] has {len(scen.h)} entries, expected {q_rows}")
        if issues:
            raise ValueError("invalid problem: " + "; ".join(issues))
        N = len(scenarios)
        return cls(
            first, W,
            pi=[s.pi for s in scenarios],
            Q=np.reshape([s.q for s in scenarios], (N, m)),
            T=np.reshape([s.T for s in scenarios], (N, q_rows, n)),
            H=np.reshape([s.h for s in scenarios], (N, q_rows)),
        )

    @property
    def scenarios(self) -> tuple[Scenario, ...]:
        """The rows as ``Scenario`` objects, built on each read."""
        rows = zip(self.pi.tolist(), self.Q, self.T, self.H)
        return tuple(Scenario(pi, q, T, h) for pi, q, T, h in rows)

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
        return len(self.pi)


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
    """Equality-form LP: min c'x s.t. A x = b, lb <= x <= ub."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        c = _frozen_vector(self.c)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", _frozen_matrix(self.A, width_hint=len(c)))
        object.__setattr__(self, "b", _frozen_vector(self.b))
        object.__setattr__(self, "lb", _frozen_vector(self.lb))
        object.__setattr__(self, "ub", _frozen_vector(self.ub))
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


def _first_stage_issues(first: FirstStage, W: np.ndarray) -> list[str]:
    """Violations of the first stage's shapes, and non-finite c, A, b or W."""
    out: list[str] = []
    if first.A.shape[1] != first.n and first.A.size > 0:
        out.append(f"A has {first.A.shape[1]} columns, expected {first.n}")
    if first.A.shape[0] != len(first.b):
        out.append(f"A has {first.A.shape[0]} rows but b has {len(first.b)} entries")
    for name, arr in (("c", first.c), ("A", first.A), ("b", first.b), ("W", W)):
        if arr.size and not np.isfinite(arr).all():
            out.append(f"{name} contains non-finite entries")
    return out


def validate_problem(problem: TwoStageProblem) -> list[str]:
    """Return every invariant violation as a human-readable string.

    An empty list means the problem is well formed.  Violations are data,
    not exceptions, so callers can report all of them at once.
    """
    out = _first_stage_issues(problem.first, problem.W)
    n = problem.n
    q_rows, m = problem.W.shape
    N = problem.n_scenarios
    if N < 1:
        out.append("problem has no scenarios")
        return out
    shapes = {"pi": (N,), "Q": (N, m), "T": (N, q_rows, n), "H": (N, q_rows)}
    wrong = [
        f"{name} is {getattr(problem, name).shape}, expected {shape}"
        for name, shape in shapes.items() if getattr(problem, name).shape != shape
    ]
    if wrong:
        return out + wrong
    pi = problem.pi
    for i in np.flatnonzero(~(pi > 0.0)):
        out.append(f"scenario {i} has non-positive probability {pi[i]:g}")
    for name, arr in (("q", problem.Q), ("T", problem.T), ("h", problem.H)):
        for i in np.flatnonzero(~np.isfinite(arr.reshape(N, -1)).all(axis=1)):
            out.append(f"{name}[{i}] contains non-finite entries")
    total = sum(pi.tolist())
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
    out += _first_stage_issues(template.first, template.W)
    for name, arr in (("nominal q", template.q), ("nominal T", template.T),
                      ("nominal h", template.h)):
        if arr.size and not np.isfinite(arr).all():
            out.append(f"{name} contains non-finite entries")
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
        if not all(p > 0.0 for _, p in entry.outcomes):
            out.append(f"random entry {i} has a non-positive outcome probability")
        if not all(math.isfinite(v) for v, _ in entry.outcomes):
            out.append(f"random entry {i} has a non-finite outcome value")
    return out


def _stacked(template: StochasticTemplate, choices: np.ndarray, pi: np.ndarray) -> TwoStageProblem:
    """The problem whose scenario s takes outcome ``choices[s, k]`` of random
    entry k: the nominal data tiled N times, then each entry's draws written
    in declaration order, so a later entry on the same coordinate wins."""
    N = len(pi)
    Q = np.tile(template.q, (N, 1))
    T = np.tile(template.T, (N, 1, 1))
    H = np.tile(template.h, (N, 1))
    for k, entry in enumerate(template.entries):
        values = np.array([v for v, _ in entry.outcomes])[choices[:, k]]
        if entry.target == "q":
            Q[:, entry.col] = values
        elif entry.target == "T":
            T[:, entry.row, entry.col] = values
        else:
            H[:, entry.row] = values
    return TwoStageProblem(template.first, template.W, pi, Q, T, H)


def enumerate_scenarios(template: StochasticTemplate) -> TwoStageProblem:
    """Expand all outcome combinations into one scenario each.

    Scenario probability is the product of the outcome probabilities, in
    entry order, and the ordering is lexicographic over outcome indices
    (last entry fastest).  More than ``DEFAULT_SCENARIO_CAP`` scenarios
    raise ValueError.
    """
    issues = validate_template(template)
    if issues:
        raise ValueError("invalid template: " + "; ".join(issues))
    sizes = [len(entry.outcomes) for entry in template.entries]
    count = math.prod(sizes)
    if count > DEFAULT_SCENARIO_CAP:
        raise ValueError(
            f"enumeration would produce {count} scenarios, "
            f"above the cap of {DEFAULT_SCENARIO_CAP}"
        )
    choices = np.indices(sizes).reshape(len(sizes), count).T
    pi = np.ones(count)
    for k, entry in enumerate(template.entries):
        probs = np.asarray([p for _, p in entry.outcomes])
        pi *= (probs / probs.sum())[choices[:, k]]
    return _stacked(template, choices, pi)


def sample_instance(template: StochasticTemplate, n_scenarios: int, seed: int) -> TwoStageProblem:
    """Draw n_scenarios independent samples, each weighted 1/n_scenarios.

    A pure function of (template, n_scenarios, seed): the xorshift64* stream
    consumes one draw per random entry per scenario, in declaration order,
    and each draw picks the outcome ``XorShift64Star.choice_index`` would.
    """
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be at least 1")
    issues = validate_template(template)
    if issues:
        raise ValueError("invalid template: " + "; ".join(issues))
    entries = template.entries
    u = np.array(XorShift64Star(seed).uniforms(n_scenarios * len(entries)))
    u = u.reshape(n_scenarios, len(entries))
    choices = np.empty(u.shape, dtype=np.intp)
    for k, entry in enumerate(entries):
        choices[:, k] = choice_indices([p for _, p in entry.outcomes], u[:, k])
    return _stacked(template, choices, np.full(n_scenarios, 1.0 / n_scenarios))


def choice_indices(probabilities, u: np.ndarray) -> np.ndarray:
    """``XorShift64Star.choice_index`` for each uniform in u: the first index
    whose sequential cumulative probability exceeds u, the last index when
    none does (a probability shortfall)."""
    cum = np.cumsum(np.asarray(probabilities, dtype=float))
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


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
    c[n:] = (problem.pi[:, None] * problem.Q).ravel()
    A[p:, :n] = problem.T.reshape(N * q_rows, n)
    b[p:] = problem.H.ravel()
    for s in range(N):
        A[p + s * q_rows : p + (s + 1) * q_rows, n + s * m : n + (s + 1) * m] = problem.W
    return LinearProgram(c=c, A=A, b=b, lb=np.zeros(n_cols), ub=np.full(n_cols, np.inf))
