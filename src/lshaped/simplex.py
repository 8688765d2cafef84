"""Self-contained bounded-variable simplex for equality-form LPs.

Solves   min c'x   s.t.   A x = b,   lb <= x <= ub   (bounds may be infinite)

with a two-phase revised simplex that maintains an explicit basis inverse.
Phase 1 minimizes the sum of artificial variables from a signed artificial
basis; a positive phase-1 optimum yields an infeasibility certificate sigma
(the phase-1 duals) with sigma'A_j <= 0 for columns bounded only below,
sigma'A_j >= 0 for columns bounded only above, sigma'A_j = 0 for free
columns, and sigma'b minus the finite-bound terms strictly positive.

Warm start: given a basis (one structural column per row), the solve
factorizes it directly, with no artificial columns.  Boxed nonbasic columns
rest at the bound their reduced cost favours.  A primal-feasible basis goes
straight to the primal iterations.  A dual-feasible one is first repaired
by the dual simplex (Van Slyke & Wets 1969; Birge & Louveaux, ch. 5): the
most violated basic variable leaves at its bound, and the dual ratio test
picks the entering column so that every reduced cost keeps its sign.  That
is the situation after cut rows are appended to an optimal basis with their
surplus columns basic, and it usually takes far fewer pivots than a cold
solve.  The primal iterations then confirm optimality from a fresh
factorization.  A basis that is neither, is singular, or loses numerical
footing falls back to the cold two-phase solve, as does a row whose
violation no column can reduce: that proves infeasibility, and the cold
solve returns the Farkas certificate.

GUB masters: a ``GubProgram`` is an L-shaped master, an LP over
[X | Theta | -S] whose free unit theta columns are the epigraph columns
(``GubMatrix``).  When each row holds at most one of them (Dantzig & Van
Slyke 1967), its warm solves run the same ``_Simplex`` iterations on a
key-row basis (``_GubSimplex``): each basic theta column is keyed to one
tight row of its set, and the rows left after substituting it out form a
working matrix over the basic x columns only.
Every pivot that no theta column enters or leaves updates that factor in
place (``_GubSimplex._update_factor``): a key swap, where a key row's
surplus enters and the surplus of another row of its set leaves, changes
no entry of the matrix; a surplus that leaves or enters adds or drops a
working row; an x column that enters or leaves adds or drops a column.
The matrix is then inverted afresh from the entries a rebuild would
gather, so the factor equals the rebuild bit for bit.  Refreshes and theta
pivots rebuild it (``_factor``).  A pivot then costs O(rows * n) and no
rows x rows inverse is held.  Its cold solve, every fallback, and every
solve of a master with a row over several theta columns, warm or cold, run
the dense method on ``GubProgram.dense()``.

Pricing is Dantzig (largest reduced-cost violation); after 50 consecutive
degenerate steps the solve switches to Bland's rule, which guarantees
termination; the dual simplex switches to the dual form of the rule.  All
choices are index-deterministic: identical input produces an identical
pivot sequence and identical floating-point output.

Pricing state is kept between pivots (Maros 2003): each column's
pricing sign (-1 nonbasic at its lower bound, +1 at its upper bound, 0
basic), the mask of free nonbasic columns, and the bounds of each basis
position.  ``_replace_basic`` and bound flips update it; every ``run`` and
``dual_run`` rebuilds it on entry, because the phase switch and the warm
start move bounds and positions between calls.  A column prices in iff
sign * d (|d| when free) exceeds OPTIMALITY_TOL, and the ratio test reads
the cached bounds, so the choices and divisions are those of recomputing
the positions on every pass.

The dual simplex also keeps the reduced costs d between pivots (Maros
2003; Koberstein 2005): after column q enters on the row whose tableau row
is alpha, d <- d - (d_q / alpha_q) alpha and d_q = 0, which saves one BTRAN
and one pricing pass per pivot.  They are recomputed from the costs after
every refactorization, the regular cadence and the retry of a suspicious
pivot alike, and a warm solve starts from the d it has already computed.
Updated d rounds differently from recomputed d; the ratio test runs on the
few eligible columns only, and the primal iterations that end every warm
solve confirm optimality from a fresh factorization and fresh reduced
costs, so returned solutions come from a rebuild.

Dual sign convention: duals y are the equality-row multipliers with
y = c_B' B^{-1}, so for a minimization subproblem whose nonbasic variables
sit at zero lower bounds, y'b equals the optimal objective.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .problem import LinearProgram

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-9
ZERO_PIVOT_TOL = 1e-11

_PHASE1_TOL = 1e-7
_BLAND_TRIGGER = 50
_REFACTOR_EVERY = 64
_RATIO_TIE_TOL = 1e-12
_DUAL_PIVOT_TOL = 1e-9


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class SimplexError(RuntimeError):
    """Raised when the pivot cap is hit or a pivot becomes numerically unusable."""


@dataclass(eq=False)
class LpSolution:
    status: LpStatus
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None
    farkas: np.ndarray | None = None
    #: optimal basis, one column index per row (None when infeasible,
    #: unbounded, or an artificial column stayed basic)
    basis: np.ndarray | None = None
    pivots: int = 0


@dataclass
class KktReport:
    primal: float
    dual: float
    complementarity: float


class GubMatrix:
    """Constraint matrix [X | Theta | -S] of an L-shaped master; the one
    place that layout is written out.

    X is dense, rows x n.  Theta is 0/1 and given by its nonzero entries as
    (row, theta column) pairs ``theta_rows``, ``theta_of_rows`` in ascending
    row order: row i has a 1 in column n + t for each pair (i, t).  Every
    row from p on has its own surplus column, -1, in row order after the
    theta columns.  Products with vectors cost O(rows * n + pairs);
    ``ndarray @ GubMatrix`` works as well as ``GubMatrix @ v``.
    ``np.add.at`` adds each pair's term on its own, so a row that holds one
    theta column gets the same bits as an indexed add.

    When every row holds at most one theta column (``one_per_row``), the
    rows of a theta column form its generalized upper bound set (Dantzig &
    Van Slyke 1967), ``theta`` gives each row's column (-1 for none), and
    ``solve_lp`` warm-solves on a key-row basis; otherwise it solves
    ``toarray()``, warm or cold.
    """

    __array_ufunc__ = None  # make ndarray @ GubMatrix call __rmatmul__

    def __init__(self, X: np.ndarray, theta_rows: np.ndarray, theta_of_rows: np.ndarray,
                 n_theta: int, p: int):
        self.X = X
        self.theta_rows = np.asarray(theta_rows, dtype=np.intp)
        self.theta_of_rows = np.asarray(theta_of_rows, dtype=np.intp)
        self.n_theta = n_theta
        self.p = p
        m, n = X.shape
        self.shape = (m, n + n_theta + m - p)
        self.one_per_row = bool(np.bincount(self.theta_rows, minlength=m).max(initial=0) <= 1)
        self.theta = np.full(m, -1)
        self.theta[self.theta_rows] = self.theta_of_rows

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        n = self.X.shape[1]
        out = self.X @ v[:n]
        np.add.at(out, self.theta_rows, v[n + self.theta_of_rows])
        out[self.p:] -= v[n + self.n_theta:]
        return out

    def __rmatmul__(self, y: np.ndarray) -> np.ndarray:
        per_theta = np.bincount(
            self.theta_of_rows, weights=y[self.theta_rows], minlength=self.n_theta
        )
        return np.concatenate([y @ self.X, per_theta, -y[self.p:]])

    def column(self, j: int) -> np.ndarray:
        n = self.X.shape[1]
        if j < n:
            return self.X[:, j]
        col = np.zeros(self.shape[0])
        if j < n + self.n_theta:
            col[self.theta_rows[self.theta_of_rows == j - n]] = 1.0
        else:
            col[self.p + j - n - self.n_theta] = -1.0
        return col

    def toarray(self) -> np.ndarray:
        m, n = self.X.shape
        A = np.zeros(self.shape)
        A[:, :n] = self.X
        A[self.theta_rows, n + self.theta_of_rows] = 1.0
        surplus = np.arange(m - self.p)
        A[self.p + surplus, n + self.n_theta + surplus] = -1.0
        return A


@dataclass(frozen=True, eq=False)
class GubProgram:
    """An equality-form LP, as ``LinearProgram``, whose A is a ``GubMatrix``.

    ``solve_lp`` warm-solves it on a key-row basis of at most n columns (see
    ``_GubSimplex``) when each row holds at most one theta column, and on
    ``dense()``, the same LP with A as an array, otherwise.
    """

    c: np.ndarray
    A: GubMatrix
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def dense(self) -> LinearProgram:
        return LinearProgram(c=self.c, A=self.A.toarray(), b=self.b, lb=self.lb, ub=self.ub)


def _drop(a: np.ndarray, i: int, axis: int = 0) -> np.ndarray:
    """A copy of a without its entry i (a column when axis is 1)."""
    if axis:
        return np.concatenate((a[:, :i], a[:, i + 1:]), axis=1)
    return np.concatenate((a[:i], a[i + 1:]))


def _put(a: np.ndarray, i: int, v, axis: int = 0) -> np.ndarray:
    """A copy of a with v inserted as its entry i (a column when axis is 1)."""
    if axis:
        return np.concatenate((a[:, :i], np.reshape(v, (-1, 1)), a[:, i:]), axis=1)
    return np.concatenate((a[:i], np.reshape(v, (1,) + a.shape[1:]), a[i:]))


class _Simplex:
    """Working state of one solve: columns, bounds, basis and basis inverse."""

    #: eta updates between refactorizations; ``solve_lp`` retries a failed
    #: cold solve with 4
    refactor_every = _REFACTOR_EVERY

    def __init__(self, A: np.ndarray, b: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                 basis: np.ndarray):
        self.A = A
        self.b = b
        self.lb = lb
        self.ub = ub
        self.m = A.shape[0]
        self.basis = basis
        self.in_basis = np.zeros(A.shape[1], dtype=bool)
        self.in_basis[basis] = True
        self.finite_lb = np.isfinite(lb)
        self.finite_ub = np.isfinite(ub)
        # nonbasic resting spot: at finite ub when lb is infinite, else at lb
        # (or at zero for doubly-infinite columns)
        self.at_upper = ~self.finite_lb & self.finite_ub
        self.at_upper[basis] = False
        self.x: np.ndarray | None = None
        self.Binv: np.ndarray | None = None
        self.pivots = 0
        self._since_refactor = 0

    @classmethod
    def artificial(cls, lp: LinearProgram) -> "_Simplex":
        """Structurals at a finite bound (or zero); one signed artificial
        column per row, all of them basic."""
        A, b, lb, ub = lp.A, lp.b, lp.lb, lp.ub
        m, n = A.shape
        start = np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))
        resid = b - A @ start if n else b.copy()
        sign = np.where(resid >= 0.0, 1.0, -1.0)
        state = cls(
            np.hstack([A, np.diag(sign)]) if m else A.copy(),
            b,
            np.concatenate([lb, np.zeros(m)]),
            np.concatenate([ub, np.full(m, np.inf)]),
            np.arange(n, n + m, dtype=int),
        )
        state.x = np.concatenate([start, np.abs(resid)])
        state.Binv = np.diag(sign) if m else np.zeros((0, 0))
        return state

    def _nonbasic_values(self) -> np.ndarray:
        vals = np.where(self.at_upper, self.ub, np.where(self.finite_lb, self.lb, 0.0))
        vals[self.in_basis] = 0.0
        return vals

    def _set_basic_values(self) -> None:
        vals = self._nonbasic_values()
        rhs = self.b - self.A @ vals
        vals[self.basis] = self._ftran(rhs)
        self.x = vals

    # linear algebra on the basis; ``_GubSimplex`` replaces these five
    def _ftran(self, v: np.ndarray) -> np.ndarray:
        """B^-1 v, by basis position."""
        return self.Binv @ v

    def _btran(self, cb: np.ndarray) -> np.ndarray:
        """cb' B^-1 for costs cb given by basis position."""
        return cb @ self.Binv

    def _entering_column(self, j: int) -> np.ndarray:
        return self.Binv @ self.A[:, j]

    def _tableau_row(self, r: int) -> np.ndarray:
        """Row r of B^-1 A."""
        return self.Binv[r] @ self.A

    def refresh(self) -> None:
        """Refactorize and recompute basic values from scratch."""
        self.Binv = None  # free the old inverse before building the new one
        self.Binv = np.linalg.inv(self.A[:, self.basis])
        self._set_basic_values()
        self._since_refactor = 0

    def duals(self, c: np.ndarray) -> np.ndarray:
        return self._btran(c[self.basis]) if self.m else np.zeros(0)

    def reduced_costs(self, c: np.ndarray) -> np.ndarray:
        return c - self.duals(c) @ self.A if self.m else c.copy()

    def _track_positions(self) -> None:
        """Rebuild the pricing state from the basis and the nonbasic
        positions: each column's pricing sign (-1 nonbasic at its lower
        bound, +1 nonbasic at its upper bound, 0 otherwise), the mask of
        free nonbasic columns, and the bounds of each basis position.
        ``_replace_basic`` and bound flips keep it current."""
        nonbasic = ~self.in_basis
        at_up = nonbasic & self.at_upper
        at_lo = nonbasic & ~self.at_upper & self.finite_lb
        self._sign = np.where(at_up, 1.0, np.where(at_lo, -1.0, 0.0))
        self._free = nonbasic & ~self.finite_lb & ~self.finite_ub
        self._lb_B = self.lb[self.basis]
        self._ub_B = self.ub[self.basis]

    def _score(self, d: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """Pricing score of reduced costs d: sign * d, |d| on free columns
        (on the columns ``cols`` only, when given).  A column violates dual
        feasibility iff its score exceeds OPTIMALITY_TOL, and the score is
        then |d|."""
        free, sign = self._free, self._sign
        if cols is not None:
            d, free, sign = d[cols], free[cols], sign[cols]
        return np.where(free, np.abs(d), sign * d)

    def _eta_update(self, w: np.ndarray, row: int) -> None:
        pivot = w[row]
        new_row = self.Binv[row] / pivot
        self.Binv -= np.outer(w, new_row)
        self.Binv[row] = new_row
        self._since_refactor += 1
        if self._since_refactor >= self.refactor_every:
            self.refresh()

    def _replace_basic(self, pos: int, j: int, leaving_at_upper: bool, w: np.ndarray) -> None:
        """Column j enters at basis position pos; the leaving column rests at
        the bound its value has reached."""
        old = int(self.basis[pos])
        self.x[old] = self.ub[old] if leaving_at_upper else self.lb[old]
        self.in_basis[old] = False
        self.at_upper[old] = leaving_at_upper
        # a leaving column has reached a finite bound, so it is not free
        self._sign[old] = 1.0 if leaving_at_upper else -1.0
        self.basis[pos] = j
        self.in_basis[j] = True
        self.at_upper[j] = False
        self._sign[j] = 0.0
        self._free[j] = False
        self._lb_B[pos] = self.lb[j]
        self._ub_B[pos] = self.ub[j]
        self._eta_update(w, pos)

    def _basic_bound_violation(self) -> float:
        if self.m == 0:
            return 0.0
        xb = self.x[self.basis]
        low = np.maximum(self.lb[self.basis] - xb, 0.0)
        high = np.maximum(xb - self.ub[self.basis], 0.0)
        return float(max(low.max(initial=0.0), high.max(initial=0.0)))

    def run(self, c: np.ndarray, cap: int) -> LpStatus:
        """Primal iterations for objective c until optimal or unbounded.

        Claimed optima and suspiciously small pivots are re-verified against
        a fresh factorization before being acted on; ratio-test ties go to
        the largest pivot element (Bland mode: lowest variable index).
        """
        bland = False
        degenerate_run = 0
        stop = self.pivots + cap
        finite_lb, finite_ub = self.finite_lb, self.finite_ub
        self._track_positions()
        while self.pivots < stop:
            d = self.reduced_costs(c)
            score = self._score(d)
            improving = score > OPTIMALITY_TOL
            if not improving.any():
                if self._since_refactor > 0:
                    self.refresh()
                    continue  # confirm optimality with a clean inverse
                if self._basic_bound_violation() > 1e-6:
                    raise SimplexError("basis lost primal feasibility")
                return LpStatus.OPTIMAL
            if bland:
                j = int(np.flatnonzero(improving)[0])
            else:
                j = int(np.argmax(score))
            direction = 1.0
            if self.at_upper[j] or (not finite_lb[j] and not finite_ub[j] and d[j] > 0):
                direction = -1.0

            w = self._entering_column(j) if self.m else np.zeros(0)
            delta = -direction * w  # basic-value rate of change per unit step

            # own-bound flip distance
            if finite_lb[j] and finite_ub[j]:
                t_own = self.ub[j] - self.lb[j]
            else:
                t_own = np.inf

            xb = self.x[self.basis]
            bound = np.where(delta > 0.0, self._ub_B, self._lb_B)
            room = np.full(self.m, np.inf)
            np.divide(bound - xb, delta, out=room, where=np.abs(delta) > ZERO_PIVOT_TOL)
            np.maximum(room, 0.0, out=room)
            t_basic = room.min() if self.m else np.inf

            if not np.isfinite(min(t_own, t_basic)):
                return LpStatus.UNBOUNDED

            if t_basic <= t_own:
                ties = np.flatnonzero(room <= t_basic + _RATIO_TIE_TOL)
                if bland:
                    leave_pos = int(ties[np.argmin(self.basis[ties])])
                else:
                    leave_pos = int(ties[np.argmax(np.abs(w[ties]))])
                if abs(w[leave_pos]) < 1e-7 and self._since_refactor > 0:
                    self.refresh()  # suspicious pivot: retry from a clean inverse
                    continue
                if abs(w[leave_pos]) <= ZERO_PIVOT_TOL:
                    raise SimplexError("pivot element below zero tolerance")
                step = float(room[leave_pos])
                self.x[j] += direction * step
                self.x[self.basis] -= direction * step * w
                self._replace_basic(leave_pos, j, bool(delta[leave_pos] > 0), w)
            else:
                step = float(t_own)
                self.x[self.basis] -= direction * step * w
                self.at_upper[j] = not self.at_upper[j]
                self._sign[j] = 1.0 if self.at_upper[j] else -1.0
                self.x[j] = self.ub[j] if self.at_upper[j] else self.lb[j]

            self.pivots += 1
            if step <= ZERO_PIVOT_TOL:
                degenerate_run += 1
                if degenerate_run >= _BLAND_TRIGGER:
                    bland = True
            else:
                degenerate_run = 0
        raise SimplexError("simplex iteration limit exceeded")

    def _next_reduced_costs(self, d: np.ndarray, c: np.ndarray, alpha: np.ndarray,
                            j: int) -> np.ndarray:
        """Reduced costs after column j entered on the row whose tableau row
        was alpha: d - (d_j / alpha_j) alpha with d_j = 0, updated in place,
        or recomputed from c when the pivot refactorized."""
        if self._since_refactor == 0:
            return self.reduced_costs(c)
        d -= (d[j] / alpha[j]) * alpha
        d[j] = 0.0
        return d

    def dual_run(self, c: np.ndarray, cap: int, d: np.ndarray | None = None) -> bool:
        """Dual iterations from a dual-feasible basis until every basic value
        is within its bounds; False when a violated row admits no entering
        column, which proves the LP primal infeasible.

        The leaving row is the largest bound violation and the entering
        column wins the dual ratio test, ties to the largest pivot element.
        After 50 consecutive degenerate steps both choices switch to the
        lowest index (Bland's rule for the dual), which guarantees
        termination.  The reduced costs d (of the current basis, computed
        from c when not given, and updated in place) are kept from pivot to
        pivot and recomputed after every refactorization.
        """
        bland = False
        degenerate_run = 0
        stop = self.pivots + cap
        if self.m == 0:
            return True
        self._track_positions()
        # pivots only take columns out of the free set
        any_free = bool(self._free.any())
        if d is None:
            d = self.reduced_costs(c)
        while True:
            xb = self.x[self.basis]
            violation = np.maximum(self._lb_B - xb, xb - self._ub_B)
            r = int(np.argmax(violation))
            if violation[r] <= FEASIBILITY_TOL:
                return True
            if self.pivots >= stop:
                raise SimplexError("simplex iteration limit exceeded")
            if bland:
                candidates = np.flatnonzero(violation > FEASIBILITY_TOL)
                r = int(candidates[np.argmin(self.basis[candidates])])
            to_upper = bool(xb[r] - self._ub_B[r] > 0)
            alpha = self._tableau_row(r)
            # moving nonbasic j by t changes basic r by -alpha_j t; r must
            # fall when above its upper bound and rise when below its lower,
            # so a column at a bound is eligible when its pricing sign times
            # alpha_j is negative (above) or positive (below)
            rate = self._sign * alpha
            eligible = rate < -_DUAL_PIVOT_TOL if to_upper else rate > _DUAL_PIVOT_TOL
            if any_free:
                eligible |= self._free & (np.abs(alpha) > _DUAL_PIVOT_TOL)
            eligible = np.flatnonzero(eligible)
            if not len(eligible):
                return False
            # the ratio test runs on the eligible columns only, which are
            # few: alpha is sparse
            score = self._score(d, eligible)
            slack = np.where(self._free[eligible], score, np.maximum(-score, 0.0))
            ratio = slack / np.abs(alpha[eligible])
            best = ratio.min()
            ties = eligible[ratio <= best + _RATIO_TIE_TOL]
            if bland:
                j = int(ties[0])
            else:
                j = int(ties[np.argmax(np.abs(alpha[ties]))])

            w = self._entering_column(j)
            if abs(w[r]) < 1e-7 and self._since_refactor > 0:
                self.refresh()  # suspicious pivot: retry from a clean inverse
                d = self.reduced_costs(c)
                continue
            if abs(w[r]) <= ZERO_PIVOT_TOL:
                raise SimplexError("pivot element below zero tolerance")
            bound = self._ub_B[r] if to_upper else self._lb_B[r]
            step = (xb[r] - bound) / w[r]
            self.x[j] += step
            self.x[self.basis] -= step * w
            self._replace_basic(r, j, to_upper, w)
            d = self._next_reduced_costs(d, c, alpha, j)

            self.pivots += 1
            if best <= ZERO_PIVOT_TOL:
                degenerate_run += 1
                if degenerate_run >= _BLAND_TRIGGER:
                    bland = True
            else:
                degenerate_run = 0


class _GubSimplex(_Simplex):
    """``_Simplex`` over a ``GubProgram``, with the basis in key-row form.

    Each basic theta column is keyed to one tight row of its set, a row
    whose surplus is nonbasic (rows before p have no surplus and are always
    tight).  A row whose surplus is basic drops out of the system; its
    surplus follows from the other basic values.  Subtracting each key row
    from the other tight rows of its set leaves a working matrix M over the
    basic x columns only, one row per non-key tight row.  M is square and
    at most n x n.  Pivots update the factor in place (``_update_factor``)
    unless a theta column enters or leaves; those and every refresh rebuild
    it (``_factor``), so no eta file and no rows x rows inverse exist.
    FTRAN, BTRAN, pricing and the dual row each cost O(rows * n).

    A key changes only when its row's surplus enters the basis; a basic
    theta column without a tight key takes the lowest tight row of its set.
    The substitution is a determinant-preserving row operation, so any
    tight row of the set gives a nonsingular M when the basis is
    nonsingular.  Basis positions, and with them every pivot rule and tie
    rule of ``_Simplex``, are unchanged.
    """

    def __init__(self, A: GubMatrix, b: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                 basis: np.ndarray):
        super().__init__(A, b, lb, ub, basis)
        self.key = np.full(A.n_theta, -1)

    def _factor(self) -> None:
        A = self.A
        m, n = A.X.shape
        N, p = A.n_theta, A.p
        tight = np.ones(m, dtype=bool)
        tight[p:] = ~self.in_basis[n + N:]
        theta_basic = self.in_basis[n : n + N]
        key = self.key
        keep = theta_basic & (key >= 0)
        keep[keep] = tight[key[keep]]
        key[~keep] = -1
        need = theta_basic & ~keep
        if need.any():
            rows = A.theta_rows[tight[A.theta_rows] & need[A.theta_of_rows]]
            cols, first = np.unique(A.theta[rows], return_index=True)
            key[cols] = rows[first]
            if (key[need] < 0).any():
                raise np.linalg.LinAlgError("a basic theta column has no tight row")
        # each row's key row; m stands for none and indexes a zero row
        key_row = np.full(m, m)
        keys_of_rows = key[A.theta_of_rows]
        key_row[A.theta_rows] = np.where(keys_of_rows >= 0, keys_of_rows, m)
        self._W = np.flatnonzero(tight & (key_row != np.arange(m)))

        basis = self.basis
        is_x, is_s = basis < n, basis >= n + N
        self._pos_x = np.flatnonzero(is_x)
        self._pos_t = np.flatnonzero(~is_x & ~is_s)
        self._pos_s = np.flatnonzero(is_s)
        xb = basis[self._pos_x]
        if len(xb) != len(self._W):
            raise np.linalg.LinAlgError("singular basis")
        self._tb = basis[self._pos_t] - n
        self._keys = key[self._tb]
        # position of each basic theta column in _tb
        self._t_of = np.zeros(N, dtype=int)
        self._t_of[self._tb] = np.arange(len(self._tb))
        self._rs = basis[self._pos_s] - (n + N) + p
        # theta column of the working and surplus-basic rows; N stands for none
        self._tw = np.where(A.theta[self._W] >= 0, A.theta[self._W], N)
        self._ts = np.where(A.theta[self._rs] >= 0, A.theta[self._rs], N)
        XB = np.zeros((m + 1, len(xb)))
        XB[:m] = A.X[:, xb]
        self._kW = key_row[self._W]
        self._Minv = np.linalg.inv(XB[self._W] - XB[self._kW])
        self._XK = XB[self._keys]
        self._XS = XB[self._rs]

    def _ftran(self, v: np.ndarray) -> np.ndarray:
        v0 = np.append(v, 0.0)
        zx = self._Minv @ (v[self._W] - v0[self._kW])
        zt = v[self._keys] - self._XK @ zx
        theta_z = np.zeros(self.A.n_theta + 1)
        theta_z[self._tb] = zt
        w = np.empty(self.m)
        w[self._pos_x] = zx
        w[self._pos_t] = zt
        w[self._pos_s] = self._XS @ zx + theta_z[self._ts] - v[self._rs]
        return w

    def _btran(self, cb: np.ndarray) -> np.ndarray:
        size = self.A.n_theta + 1
        ys = -cb[self._pos_s]
        u = np.zeros(size)
        u[self._tb] = cb[self._pos_t]
        u -= np.bincount(self._ts, weights=ys, minlength=size)
        ut = u[self._tb]
        yw = (cb[self._pos_x] - ut @ self._XK - ys @ self._XS) @ self._Minv
        y = np.empty(self.m)
        y[self._rs] = ys
        y[self._W] = yw
        y[self._keys] = ut - np.bincount(self._tw, weights=yw, minlength=size)[self._tb]
        return y

    def _entering_column(self, j: int) -> np.ndarray:
        return self._ftran(self.A.column(j))

    def _tableau_row(self, r: int) -> np.ndarray:
        unit = np.zeros(self.m)
        unit[r] = 1.0
        return self._btran(unit) @ self.A

    def refresh(self) -> None:
        self._factor()
        self._set_basic_values()
        self._since_refactor = 0

    def _update_factor(self, pos: int) -> bool:
        """Bring the factor up to date in place after the pivot at basis
        position pos, and say whether it could; False, with the factor
        untouched, when a theta column entered or left.

        The factor still describes the basis before the pivot, so the
        leaving column is read from it.  Tight rows are the working rows
        and the key rows.  A surplus that leaves makes its row tight, and
        the row joins W under its set's key.  A surplus that enters takes
        its row out of W or, if the row was its set's key, hands the key to
        the lowest working row of the set; in a key swap that is the row
        whose surplus left, and W stays as it is.  An x column that enters
        or leaves adds or drops a column of M, XK and XS.  M is at most
        n x n and is inverted afresh whenever it changes, from the entries
        ``_factor`` would gather, so the factor equals a rebuild bit for
        bit.  Arrays keep the C order ``_factor`` gives them: BLAS rounds
        XS @ zx differently on an F-ordered copy.
        """
        A = self.A
        X, theta, key = A.X, A.theta, self.key
        m, n = X.shape
        N, p = A.n_theta, A.p
        new = int(self.basis[pos])
        if n <= new < n + N:
            return False
        pos_x, pos_s = self._pos_x, self._pos_s
        i_s = int(pos_s.searchsorted(pos))
        old_s = i_s < len(pos_s) and pos_s[i_s] == pos
        i_x = int(pos_x.searchsorted(pos))
        if not old_s and not (i_x < len(pos_x) and pos_x[i_x] == pos):
            return False  # a theta column left
        new_x = new < n
        W0, kW0 = self._W.tolist(), self._kW.tolist()
        W, kW, tw = list(W0), list(kW0), self._tw.tolist()
        rekey = -1
        if not new_x:  # row r_in leaves the tight rows
            r_in = new - (n + N) + p
            s_in = int(theta[r_in])
            t_in = s_in if s_in >= 0 else N  # its entry of _ts
            if r_in in W:
                k = W.index(r_in)
                del W[k], kW[k], tw[k]
            else:
                rekey = s_in
        if old_s:  # row r_out joins them
            r_out = int(self._rs[i_s])
            s = int(theta[r_out])
            k = bisect.bisect(W, r_out)
            W.insert(k, r_out)
            kW.insert(k, int(key[s]) if s >= 0 and key[s] >= 0 else m)
            tw.insert(k, s if s >= 0 else N)
        if rekey >= 0:
            if rekey not in tw:
                raise np.linalg.LinAlgError("a basic theta column has no tight row")
            k = tw.index(rekey)
            r_key = W[k]
            key[rekey] = r_key
            kW = [r_key if t == rekey else kr for t, kr in zip(tw, kW)]
            del W[k], kW[k], tw[k]

        if not old_s and not new_x:
            pos_x = _drop(pos_x, i_x)
        elif old_s and new_x:
            pos_x = _put(pos_x, i_x, pos)
        xb = self.basis[pos_x]
        XK, XS, rs, ts = self._XK, self._XS, self._rs, self._ts
        if not old_s:
            if new_x:
                XK[:, i_x] = X[self._keys, new]
                XS[:, i_x] = X[rs, new]
            else:
                XK, XS = _drop(XK, i_x, axis=1), _drop(XS, i_x, axis=1)
        if old_s and not new_x:
            rs[i_s] = r_in
            ts[i_s] = t_in
            XS[i_s] = X[r_in, xb]
        elif old_s:
            self._pos_s = _drop(pos_s, i_s)
            rs, ts = _drop(rs, i_s), _drop(ts, i_s)
            XK = _put(XK, i_x, X[self._keys, new], axis=1)
            XS = _put(_drop(XS, i_s), i_x, X[rs, new], axis=1)
        elif not new_x:
            self._pos_s = _put(pos_s, i_s, pos)
            rs = _put(rs, i_s, r_in)
            ts = _put(ts, i_s, t_in)
            XS = _put(XS, i_s, X[r_in, xb])
        if rekey >= 0:
            t = self._t_of[rekey]
            self._keys[t] = key[rekey]
            XK[t] = X[key[rekey], xb]

        if new_x or not old_s or W != W0 or kW != kW0:
            dtype = self._W.dtype
            self._W, self._kW = np.array(W, dtype=dtype), np.array(kW, dtype=dtype)
            self._tw = np.array(tw, dtype=dtype)
            M = X[self._W][:, xb]
            for k, r in enumerate(kW):
                if r < m:
                    M[k] -= X[r, xb]
            self._Minv = np.linalg.inv(M)
        self._pos_x, self._XK, self._XS, self._rs, self._ts = pos_x, XK, XS, rs, ts
        return True

    def _eta_update(self, w: np.ndarray, row: int) -> None:
        if not self._update_factor(row):
            self._factor()
        self._since_refactor += 1
        if self._since_refactor >= self.refactor_every:
            self.refresh()


def _optimal(lp: LinearProgram, state: _Simplex, c: np.ndarray) -> LpSolution:
    """Solution record of an optimal state whose objective, extended by any
    artificial columns, is c."""
    n = lp.A.shape[1]
    x = state.x[:n].copy()
    basis = state.basis if (state.basis < n).all() else None
    return LpSolution(
        status=LpStatus.OPTIMAL, x=x, objective=float(lp.c @ x), duals=state.duals(c).copy(),
        basis=basis, pivots=state.pivots,
    )


def _solve_two_phase(lp: LinearProgram, cap: int, refactor_every: int) -> LpSolution:
    m, n = lp.A.shape
    state = _Simplex.artificial(lp)
    state.refactor_every = refactor_every

    phase1_c = np.concatenate([np.zeros(n), np.ones(m)])
    status = state.run(phase1_c, cap)
    if status is not LpStatus.OPTIMAL:  # pragma: no cover - phase 1 is bounded below
        raise SimplexError("phase 1 terminated without an optimum")
    infeas = float(phase1_c @ state.x)
    if infeas > _PHASE1_TOL:
        sigma = state.duals(phase1_c)
        scale = np.max(np.abs(sigma))
        if scale > 0:
            sigma = sigma / scale
        return LpSolution(status=LpStatus.INFEASIBLE, farkas=sigma, pivots=state.pivots)

    # pin artificials at zero for phase 2
    state.ub[n:] = 0.0
    state.finite_ub[n:] = True
    state.x[n:] = np.where(state.in_basis[n:], state.x[n:], 0.0)
    state.at_upper[n:] = False
    phase2_c = np.concatenate([lp.c, np.zeros(m)])
    status = state.run(phase2_c, cap)
    if status is LpStatus.UNBOUNDED:
        return LpSolution(status=LpStatus.UNBOUNDED, pivots=state.pivots)
    return _optimal(lp, state, phase2_c)


def _solve_warm(lp: LinearProgram, state: _Simplex, cap: int) -> LpSolution | None:
    """Re-optimize from the caller's basis; None when the cold solve must
    decide instead (neither primal nor dual feasible, or a row that proves
    infeasibility, which the cold solve certifies with a Farkas ray)."""
    state.refresh()
    d = state.reduced_costs(lp.c)
    # a boxed nonbasic column rests at the bound its reduced cost favours,
    # so only one-sided and free columns can make the basis dual infeasible
    boxed = ~state.in_basis & state.finite_lb & state.finite_ub
    if boxed.any():
        state.at_upper[boxed] = d[boxed] < 0.0
        state._set_basic_values()
    if state._basic_bound_violation() > FEASIBILITY_TOL:
        state._track_positions()
        if (state._score(d) > OPTIMALITY_TOL).any():
            return None
        if not state.dual_run(lp.c, cap, d):
            return None
    status = state.run(lp.c, cap)
    if status is LpStatus.UNBOUNDED:
        return LpSolution(status=LpStatus.UNBOUNDED, pivots=state.pivots)
    return _optimal(lp, state, lp.c)


def _start_basis(basis, m: int, n: int) -> np.ndarray:
    basis = np.array(basis, dtype=int).reshape(-1)
    if len(basis) != m:
        raise ValueError(f"basis has {len(basis)} columns, the LP has {m} rows")
    if len(basis) and (basis.min() < 0 or basis.max() >= n):
        raise ValueError("basis refers to a column outside the LP")
    if len(set(basis.tolist())) != m:
        raise ValueError("basis repeats a column")
    return basis


def solve_lp(lp: LinearProgram | GubProgram, basis: np.ndarray | None = None) -> LpSolution:
    """Solve an equality-form LP; status-complete and deterministic.

    Optimal solutions carry equality-row duals and, when no artificial
    column is left in it, the optimal basis; infeasible ones carry a Farkas
    certificate normalized to unit max-norm.  ``basis`` (one column index
    per row) warm-starts the solve; a basis that is singular, neither
    primal nor dual feasible, or loses numerical footing falls back to the
    cold two-phase solve, as does a row that proves infeasibility.  A cold
    solve that loses numerical footing is retried once with an aggressive
    refactorization cadence before the error propagates.  ``pivots`` counts
    every pivot and bound flip of the call, a failed warm start included.

    A ``GubProgram`` whose every row holds at most one theta column
    (``GubMatrix.one_per_row``) is warm-started on the key-row basis; any
    other is warm-started on ``lp.dense()``.  Cold solves and every
    fallback run on ``lp.dense()``.
    """
    if isinstance(lp, GubProgram) and not lp.A.one_per_row:
        lp = lp.dense()
    m, n = lp.A.shape
    cap = max(2000, 100 * (n + m))
    spent = 0
    gub = isinstance(lp, GubProgram)
    if basis is not None:
        simplex = _GubSimplex if gub else _Simplex
        state = simplex(lp.A, lp.b, lp.lb, lp.ub, _start_basis(basis, m, n))
        try:
            sol = _solve_warm(lp, state, cap)
        except (SimplexError, np.linalg.LinAlgError):
            sol = None
        if sol is not None:
            return sol
        spent = state.pivots
    if gub:
        lp = lp.dense()
    try:
        sol = _solve_two_phase(lp, cap, _REFACTOR_EVERY)
    except SimplexError:
        sol = _solve_two_phase(lp, cap, 4)
    sol.pivots += spent
    return sol


def verify_kkt(lp: LinearProgram, sol: LpSolution) -> KktReport:
    """Residuals of the optimality conditions for a claimed optimal solution.

    primal: worst equality and bound violation; dual: worst reduced-cost sign
    violation given each variable's position; complementarity: worst product
    of a reduced cost with the distance to its finite active bound.
    """
    if sol.status is not LpStatus.OPTIMAL:
        raise ValueError("verify_kkt requires an optimal solution")
    x, y = sol.x, sol.duals
    primal = 0.0
    if len(lp.b):
        primal = float(np.max(np.abs(lp.A @ x - lp.b)))
    primal = max(primal, float(np.max(np.maximum(lp.lb - x, 0.0), initial=0.0)))
    primal = max(primal, float(np.max(np.maximum(x - lp.ub, 0.0), initial=0.0)))

    reduced = lp.c - (y @ lp.A if len(lp.b) else 0.0)
    pos_tol = FEASIBILITY_TOL * 10
    dual = 0.0
    comp = 0.0
    for j in range(len(x)):
        at_lower = np.isfinite(lp.lb[j]) and x[j] <= lp.lb[j] + pos_tol
        at_upper = np.isfinite(lp.ub[j]) and x[j] >= lp.ub[j] - pos_tol
        r = float(reduced[j])
        if at_lower and at_upper:
            continue  # fixed variable: any reduced cost is fine
        if at_lower:
            dual = max(dual, -r)
        elif at_upper:
            dual = max(dual, r)
        else:
            dual = max(dual, abs(r))
        if np.isfinite(lp.lb[j]):
            comp = max(comp, max(r, 0.0) * (x[j] - lp.lb[j]))
        if np.isfinite(lp.ub[j]):
            comp = max(comp, max(-r, 0.0) * (lp.ub[j] - x[j]))
    return KktReport(primal=primal, dual=max(dual, 0.0), complementarity=comp)


def verify_farkas(lp: LinearProgram, sigma: np.ndarray, tol: float = FEASIBILITY_TOL) -> bool:
    """Check that sigma certifies infeasibility of {A x = b, lb <= x <= ub}.

    Requires sup over the box of sigma'(A x) to fall strictly short of
    sigma'b: sign conditions on columns with an infinite bound, finite-bound
    contributions subtracted explicitly.
    """
    sA = sigma @ lp.A
    bound_sum = 0.0
    for j, v in enumerate(sA):
        if v > tol:
            if not np.isfinite(lp.ub[j]):
                return False
            bound_sum += v * lp.ub[j]
        elif v < -tol:
            if not np.isfinite(lp.lb[j]):
                return False
            bound_sum += v * lp.lb[j]
    return float(sigma @ lp.b) - bound_sum > tol
