"""Optimality and feasibility cuts: construction, aggregation, distances.

An optimality cut covering scenario set S is the row

    grad . x + sum_{s in S} theta_s >= offset

where grad and offset are probability-weighted dual combinations of the
covered scenarios' data.  Cuts over disjoint scenario sets can be summed
coefficient-wise into an aggregate covering the union; that sum is the whole
aggregation algebra.
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


def make_optimality_cuts(
    duals: np.ndarray, data: ScenarioArrays, iteration: int = 0
) -> list[OptimalityCut]:
    """``make_optimality_cut`` for every scenario at once, from the stacked
    duals (one row per scenario).

    Each row of the stacked products is the same vector-matrix product that
    ``make_optimality_cut`` takes per scenario.  The cuts are built without
    re-validation: their gradients are rows of one read-only array and
    their members are the scenario indices of ``data``.
    """
    lam = np.asarray(duals, dtype=float)[:, None, :]
    grads = data.pi[:, None] * np.matmul(lam, data.T)[:, 0, :]
    grads.setflags(write=False)
    offsets = (data.pi * np.matmul(lam, data.H[:, :, None])[:, 0, 0]).tolist()
    cuts = []
    for grad, offset, s in zip(grads, offsets, data.indices):
        cut = object.__new__(OptimalityCut)
        object.__setattr__(cut, "grad", grad)
        object.__setattr__(cut, "offset", offset)
        object.__setattr__(cut, "members", (s,))
        object.__setattr__(cut, "iteration", iteration)
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
    result is independent of the caller's ordering.
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
    grad = np.zeros_like(ordered[0].grad)
    offset = 0.0
    for cut in ordered:
        grad = grad + cut.grad
        offset += cut.offset
    return OptimalityCut(grad=grad, offset=offset, members=union, iteration=ordered[0].iteration)


Theta = Mapping[int, float] | np.ndarray


def cut_violation(
    cut: OptimalityCut, x: np.ndarray, theta: Theta, columns: Sequence[int] | None = None
) -> float:
    """offset - grad.x - the sum of theta over the cut's theta columns.

    ``theta`` is indexed by column; the columns default to the cut's
    members, one theta per scenario.  Positive means the master iterate
    fails to support the cut.
    """
    total = 0.0
    for t in cut.members if columns is None else columns:
        try:
            total += theta[t]
        except (KeyError, IndexError):
            raise ValueError(f"theta value missing for column {t}") from None
    return float(cut.offset - cut.grad @ np.asarray(x, dtype=float) - total)


def is_violated(
    cut: OptimalityCut, x: np.ndarray, theta: Theta, scale: float = VIOLATION_SCALE,
    columns: Sequence[int] | None = None,
) -> bool:
    return cut_violation(cut, x, theta, columns) > scale * (1.0 + abs(cut.offset))


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
