"""Optimality and feasibility cuts: construction, aggregation, distances.

An optimality cut covering scenario set S is the row

    grad . x + sum_{s in S} theta_s >= offset

where grad and offset are probability-weighted dual combinations of the
covered scenarios' data.  Cuts over disjoint scenario sets can be summed
coefficient-wise into an aggregate covering the union; that sum is the whole
aggregation algebra.

On the solver's path one iteration's cuts are one stacked array of
(grad, offset) rows, one row per scenario in scenario order
(``make_optimality_cuts``), and every aggregate is a row-ordered
``sum(axis=0)`` over such rows.  numpy reduces a non-last axis one row at
a time from +0.0, so that sum is the ascending sequential sum of
``aggregate_cuts`` bit for bit.  ``OptimalityCut`` objects are the public
form of a cut, built from rows where a caller asks for them
(``cuts_from_rows``, ``cut_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .problem import Scenario, ScenarioArrays

FARKAS_TOL = 1e-9

#: a cut is treated as violated when its violation exceeds
#: VIOLATION_SCALE * (1 + |offset|)
VIOLATION_SCALE = 1e-6


class DistanceMeasure(Enum):
    ABSOLUTE = "absolute"
    ANGULAR = "angular"
    SPATIOANGULAR = "spatioangular"


def _frozen(vec) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(vec, dtype=float)).copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False, slots=True)
class OptimalityCut:
    grad: np.ndarray
    offset: float
    members: tuple[int, ...]
    iteration: int = 0

    def __post_init__(self):
        object.__setattr__(self, "grad", _frozen(self.grad))
        object.__setattr__(self, "offset", float(self.offset))
        members = tuple(sorted(set(int(s) for s in self.members)))
        if not members:
            raise ValueError("an optimality cut must cover at least one scenario")
        object.__setattr__(self, "members", members)


@dataclass(frozen=True, eq=False, slots=True)
class FeasibilityCut:
    """Theta-free row grad . x >= offset excluding first-stage points with
    infeasible recourse in the source scenario."""

    grad: np.ndarray
    offset: float
    scenario: int

    def __post_init__(self):
        object.__setattr__(self, "grad", _frozen(self.grad))
        object.__setattr__(self, "offset", float(self.offset))


def make_optimality_cut(
    scenario_index: int, duals: np.ndarray, scen: Scenario, iteration: int = 0
) -> OptimalityCut:
    """Singleton cut (pi * duals'T, pi * duals'h) for one scenario."""
    duals = np.atleast_1d(np.asarray(duals, dtype=float))
    if len(duals) != scen.T.shape[0]:
        raise ValueError(
            f"dual vector has {len(duals)} entries, expected {scen.T.shape[0]}"
        )
    grad = scen.pi * (duals @ scen.T)
    offset = scen.pi * float(duals @ scen.h)
    return OptimalityCut(grad=grad, offset=offset, members=(scenario_index,), iteration=iteration)


def make_optimality_cuts(duals: np.ndarray, data: ScenarioArrays) -> np.ndarray:
    """``make_optimality_cut`` for every scenario at once, from the stacked
    duals (one row per scenario), as one N x (n+1) array of (grad, offset)
    rows in the scenario order of ``data``.

    Each row is the same vector-matrix product that ``make_optimality_cut``
    takes per scenario, bit for bit.
    """
    lam = np.asarray(duals, dtype=float)[:, None, :]
    rows = np.empty((len(data.pi), data.T.shape[2] + 1))
    np.multiply(data.pi[:, None], np.matmul(lam, data.T)[:, 0, :], out=rows[:, :-1])
    np.multiply(data.pi, np.matmul(lam, data.H[:, :, None])[:, 0, 0], out=rows[:, -1])
    return rows


def cut_rows(cuts: Sequence[OptimalityCut]) -> np.ndarray:
    """The stacked (grad, offset) rows of cuts, one row per cut."""
    grads = np.array([cut.grad for cut in cuts], dtype=float)
    return np.column_stack([grads, [cut.offset for cut in cuts]])


def cuts_from_rows(
    rows: np.ndarray, members: Sequence[tuple[int, ...]]
) -> list[OptimalityCut]:
    """``OptimalityCut`` objects of stacked (grad, offset) rows covering the
    given member sets, which must be sorted tuples.

    The cuts are built without re-validation: their gradients are read-only
    row views of one copy of ``rows``.
    """
    rows = np.array(rows, dtype=float)
    rows.setflags(write=False)
    cuts = []
    for row, offset, m in zip(rows, rows[:, -1].tolist(), members):
        cut = object.__new__(OptimalityCut)
        object.__setattr__(cut, "grad", row[:-1])
        object.__setattr__(cut, "offset", offset)
        object.__setattr__(cut, "members", m)
        object.__setattr__(cut, "iteration", 0)
        cuts.append(cut)
    return cuts


def make_feasibility_cut(
    sigma: np.ndarray, scen: Scenario, recourse_matrix: np.ndarray, scenario_index: int
) -> FeasibilityCut:
    """Cut (sigma'T) . x >= sigma'h from a recourse infeasibility certificate.

    sigma must satisfy sigma'W <= 0 componentwise; any x with feasible
    recourse then satisfies the cut, while the offending x violates it.
    """
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    ray_check = sigma @ recourse_matrix
    if np.max(ray_check, initial=0.0) > FARKAS_TOL:
        raise ValueError("sigma is not a valid certificate: sigma'W has positive entries")
    grad = sigma @ scen.T
    offset = float(sigma @ scen.h)
    return FeasibilityCut(grad=grad, offset=offset, scenario=scenario_index)


def aggregate_cuts(cuts: Sequence[OptimalityCut]) -> OptimalityCut:
    """Coefficient-wise sum of cuts with pairwise disjoint member sets.

    Summation runs in ascending scenario-index order so the floating-point
    result is independent of the caller's ordering: it is the row-ordered
    ``sum(axis=0)`` of the cuts' stacked rows, the sum the solver takes.
    """
    if not cuts:
        raise ValueError("cannot aggregate an empty cut list")
    ordered = sorted(cuts, key=lambda c: c.members)
    members: list[int] = []
    for cut in ordered:
        members.extend(cut.members)
    union = tuple(sorted(members))
    if len(set(union)) != len(members):
        raise ValueError("cut member sets overlap")
    row = cut_rows(ordered).sum(axis=0)
    return OptimalityCut(grad=row[:-1], offset=row[-1], members=union,
                         iteration=ordered[0].iteration)


Theta = Mapping[int, float] | np.ndarray


def row_violation(
    row: np.ndarray, x: np.ndarray, theta: Theta, columns: Sequence[int]
) -> float:
    """offset - grad.x - the sum of theta over the given theta columns, for a
    stacked (grad, offset) row.  Positive means the master iterate fails to
    support the cut."""
    total = 0.0
    for t in columns:
        try:
            total += theta[t]
        except (KeyError, IndexError):
            raise ValueError(f"theta value missing for column {t}") from None
    return float(row[-1] - row[:-1] @ np.asarray(x, dtype=float) - total)


def row_is_violated(
    row: np.ndarray, x: np.ndarray, theta: Theta, scale: float, columns: Sequence[int]
) -> bool:
    """The violation test of the solver's filter, on a stacked row."""
    return row_violation(row, x, theta, columns) > scale * (1.0 + abs(row[-1]))


def cut_violation(
    cut: OptimalityCut, x: np.ndarray, theta: Theta, columns: Sequence[int] | None = None
) -> float:
    """``row_violation`` of a cut; ``theta`` is indexed by column and the
    columns default to the cut's members, one theta per scenario."""
    row = np.append(cut.grad, cut.offset)
    return row_violation(row, x, theta, cut.members if columns is None else columns)


def is_violated(
    cut: OptimalityCut, x: np.ndarray, theta: Theta, scale: float = VIOLATION_SCALE,
    columns: Sequence[int] | None = None,
) -> bool:
    """``row_is_violated`` of a cut, with ``cut_violation``'s columns."""
    row = np.append(cut.grad, cut.offset)
    return row_is_violated(row, x, theta, scale, cut.members if columns is None else columns)


def _stacked(cut: OptimalityCut) -> np.ndarray:
    return np.concatenate([cut.grad, [cut.offset]]) / len(cut.members)


def cut_distance(a: OptimalityCut, b: OptimalityCut, measure: DistanceMeasure) -> float:
    """Distance between two cuts under one of the three measures.

    absolute       ||a~ - b~|| / max(||a~||, ||b~||) over stacked (grad, offset)
                   vectors, each divided by its member count;
    angular        1 - |grad_a . grad_b| / (||grad_a|| ||grad_b||);
    spatioangular  angular term plus |qa - qb| / max(|qa|, |qb|) on the
                   member-normalized offsets.

    Nonnegative, and zero for identical cuts.  Angular requires nonzero
    gradients; absolute requires at least one nonzero stacked vector.
    """
    if measure is DistanceMeasure.ABSOLUTE:
        va, vb = _stacked(a), _stacked(b)
        denom = max(float(np.linalg.norm(va)), float(np.linalg.norm(vb)))
        if denom == 0.0:
            raise ValueError("absolute distance needs a nonzero stacked vector")
        return float(np.linalg.norm(va - vb)) / denom

    na = float(np.linalg.norm(a.grad))
    nb = float(np.linalg.norm(b.grad))
    if na == 0.0 or nb == 0.0:
        raise ValueError("angular distance is undefined for a zero-gradient cut")
    angular = 1.0 - abs(float(a.grad @ b.grad)) / (na * nb)
    angular = max(angular, 0.0)
    if measure is DistanceMeasure.ANGULAR:
        return angular

    qa = a.offset / len(a.members)
    qb = b.offset / len(b.members)
    if qa == qb:
        return angular
    return angular + abs(qa - qb) / max(abs(qa), abs(qb))


def aggregation_distance(a: OptimalityCut, b: OptimalityCut, measure: DistanceMeasure) -> float:
    """cut_distance with a fallback for zero-gradient cuts.

    Cuts with a vanishing gradient have no direction, so the angular family
    falls back to the absolute measure (which reduces to the offset gap);
    identical zero cuts sit at distance zero.
    """
    if measure is not DistanceMeasure.ABSOLUTE:
        if float(np.linalg.norm(a.grad)) == 0.0 or float(np.linalg.norm(b.grad)) == 0.0:
            measure = DistanceMeasure.ABSOLUTE
    if measure is DistanceMeasure.ABSOLUTE:
        va, vb = _stacked(a), _stacked(b)
        denom = max(float(np.linalg.norm(va)), float(np.linalg.norm(vb)))
        if denom == 0.0:
            return 0.0
        return float(np.linalg.norm(va - vb)) / denom
    return cut_distance(a, b, measure)
