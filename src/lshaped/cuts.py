"""Optimality and feasibility cuts: construction and the violation test.

An optimality cut covering scenario set S is the row

    grad . x + sum_{s in S} theta_s >= offset

where grad and offset are probability-weighted dual combinations of the
covered scenarios' data.  Cuts over disjoint scenario sets can be summed
coefficient-wise into an aggregate covering the union; that sum is the whole
aggregation algebra (see ``aggregation``).

On the solver's path one iteration's cuts are one stacked array of
(grad, offset) rows: one per scenario in scenario order for optimality cuts
(``make_optimality_cuts``), or one per infeasible scenario for the
theta-free feasibility cuts grad . x >= offset (``make_feasibility_cuts``).
Every aggregate is the ascending sequential sum of optimality rows from
zero.  numpy reduces a non-last axis one row at a time from +0.0, so a
row-ordered ``sum(axis=0)`` is that sum bit for bit.
``OptimalityCut`` is the form in which ``SolveReport.cuts`` hands the
master's cuts out.

``violated`` tests all of one iteration's aggregates against the master
iterate in one pass: one matrix-vector product for the grad . x terms and
one segmented sum of theta over each aggregate's granules.  That rounds
differently from a dot product per row and a running sum per aggregate,
in the last bits only, far inside the margin the solver's decisions have
(see ``engine``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .problem import TwoStageProblem, _frozen_vector

FARKAS_TOL = 1e-9

#: a cut is treated as violated when its violation exceeds
#: VIOLATION_SCALE * (1 + |offset|)
VIOLATION_SCALE = 1e-6


@dataclass(frozen=True, eq=False, slots=True)
class OptimalityCut:
    grad: np.ndarray
    offset: float
    members: tuple[int, ...]
    iteration: int = 0

    def __post_init__(self):
        object.__setattr__(self, "grad", _frozen_vector(self.grad))
        object.__setattr__(self, "offset", float(self.offset))
        members = tuple(sorted(set(int(s) for s in self.members)))
        if not members:
            raise ValueError("an optimality cut must cover at least one scenario")
        object.__setattr__(self, "members", members)


def make_optimality_cuts(duals: np.ndarray, problem: TwoStageProblem) -> np.ndarray:
    """The singleton cuts (pi * duals'T, pi * duals'h) of every scenario at
    once, from the stacked duals (one row per scenario), as one N x (n+1)
    array of (grad, offset) rows in scenario order.

    Each row is the vector-matrix product that one scenario's duals give on
    their own, bit for bit.
    """
    lam = np.asarray(duals, dtype=float)[:, None, :]
    pi, T = problem.pi, problem.T
    rows = np.empty((len(pi), T.shape[2] + 1))
    np.multiply(pi[:, None], np.matmul(lam, T)[:, 0, :], out=rows[:, :-1])
    np.multiply(pi, np.matmul(lam, problem.H[:, :, None])[:, 0, 0], out=rows[:, -1])
    return rows


def make_feasibility_cuts(
    farkas: Mapping[int, np.ndarray], problem: TwoStageProblem
) -> np.ndarray:
    """The cuts (sigma'T_s) . x >= sigma'h_s from the recourse infeasibility
    certificates sigma of the scenarios s in ``farkas``, as one stacked
    array of (grad, offset) rows in ``farkas`` order.

    Each sigma must satisfy sigma'W <= 0 componentwise; any x with feasible
    recourse in s then satisfies its cut, while the offending x violates it.
    """
    rows = np.empty((len(farkas), problem.T.shape[2] + 1))
    for row, (s, sigma) in zip(rows, farkas.items()):
        sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
        if np.max(sigma @ problem.W, initial=0.0) > FARKAS_TOL:
            raise ValueError(
                f"sigma of scenario {s} is not a valid certificate: sigma'W has positive entries"
            )
        row[:-1] = sigma @ problem.T[s]
        row[-1] = sigma @ problem.H[s]
    return rows


def violated(
    rows: np.ndarray, granules: np.ndarray, starts: np.ndarray, x: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Which aggregates the master iterate (x, theta) violates, as a mask:
    stacked (grad, offset) rows, aggregate i over the theta columns
    ``granules[starts[i]:starts[i + 1]]`` (at least one each).  Its
    violation is offset - grad.x - the sum of those theta, and it is
    violated above VIOLATION_SCALE * (1 + |offset|)."""
    offsets = rows[:, -1]
    violation = offsets - rows[:, :-1] @ x - np.add.reduceat(theta[granules], starts[:-1])
    return violation > VIOLATION_SCALE * (1.0 + np.abs(offsets))
