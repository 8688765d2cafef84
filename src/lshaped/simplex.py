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

GUB masters: a ``GubProgram`` is an LP whose rows each hold at most one
free unit column, the epigraph column of an L-shaped master with one theta
per row (Dantzig & Van Slyke 1967).  Its warm solves run the same
``_Simplex`` iterations on a key-row basis (``_GubSimplex``): each basic
theta column is keyed to one tight row of its set, and the rows left after
substituting it out form a working matrix over the basic x columns only.
A key swap, where a key row's surplus enters and the surplus of another row
of its set leaves, leaves that matrix as it is and updates the factor in
place; every other pivot rebuilds it.  A pivot then costs O(rows * n) and
no rows x rows inverse is held.  Its cold solve, and every fallback, runs the
dense two-phase method on ``GubProgram.dense()``.

Pricing is Dantzig (largest reduced-cost violation); after 50 consecutive
degenerate steps the solve switches to Bland's rule, which guarantees
termination; the dual simplex switches to the dual form of the rule.  All
choices are index-deterministic: identical input produces an identical
pivot sequence and identical floating-point output.

Dual sign convention: duals y are the equality-row multipliers with
y = c_B' B^{-1}, so for a minimization subproblem whose nonbasic variables
sit at zero lower bounds, y'b equals the optimal objective.
"""

from __future__ import annotations

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
    """Constraint matrix [X | Theta | -S] of a master whose rows each hold at
    most one free unit column (Dantzig & Van Slyke 1967).

    X is dense, rows x n.  Row i has a 1 in column n + theta[i] when
    theta[i] >= 0, so the rows of one theta column form its generalized
    upper bound set.  Every row from p on has its own surplus column, -1,
    in row order after the theta columns.  Products with vectors cost
    O(rows * n); ``ndarray @ GubMatrix`` works as well as ``GubMatrix @ v``.
    """

    __array_ufunc__ = None  # make ndarray @ GubMatrix call __rmatmul__

    def __init__(self, X: np.ndarray, theta: np.ndarray, n_theta: int, p: int):
        self.X = X
        self.theta = theta
        self.n_theta = n_theta
        self.p = p
        m, n = X.shape
        self.shape = (m, n + n_theta + m - p)
        #: the rows that hold a theta column, and that column
        self.theta_rows = np.flatnonzero(theta >= 0)
        self.theta_of_rows = theta[self.theta_rows]

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        n = self.X.shape[1]
        out = self.X @ v[:n]
        out[self.theta_rows] += v[n + self.theta_of_rows]
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
            col[self.theta == j - n] = 1.0
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

    ``solve_lp`` solves it on a key-row basis of at most n columns (see
    ``_GubSimplex``) and ``dense()`` gives the same LP with A as an array.
    """

    c: np.ndarray
    A: GubMatrix
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    n_structural: int

    def dense(self) -> LinearProgram:
        return LinearProgram(c=self.c, A=self.A.toarray(), b=self.b, lb=self.lb, ub=self.ub,
                             n_structural=self.n_structural)


class _Simplex:
    """Working state of one solve: columns, bounds, basis and basis inverse."""

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

    def _positions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Masks of the nonbasic columns at their lower bound, at their upper
        bound, and free at zero."""
        nonbasic = ~self.in_basis
        at_lo = nonbasic & ~self.at_upper & self.finite_lb
        at_up = nonbasic & self.at_upper
        free = nonbasic & ~self.finite_lb & ~self.finite_ub
        return at_lo, at_up, free

    def improving(self, d: np.ndarray) -> np.ndarray:
        """Nonbasic columns whose reduced cost d violates dual feasibility."""
        at_lo, at_up, free = self._positions()
        return (
            (at_lo & (d < -OPTIMALITY_TOL))
            | (at_up & (d > OPTIMALITY_TOL))
            | (free & (np.abs(d) > OPTIMALITY_TOL))
        )

    def _eta_update(self, w: np.ndarray, row: int, refactor_every: int) -> None:
        pivot = w[row]
        new_row = self.Binv[row] / pivot
        self.Binv -= np.outer(w, new_row)
        self.Binv[row] = new_row
        self._since_refactor += 1
        if self._since_refactor >= refactor_every:
            self.refresh()

    def _replace_basic(self, pos: int, j: int, leaving_at_upper: bool, w: np.ndarray,
                       refactor_every: int) -> None:
        """Column j enters at basis position pos; the leaving column rests at
        the bound its value has reached."""
        old = int(self.basis[pos])
        self.x[old] = self.ub[old] if leaving_at_upper else self.lb[old]
        self.in_basis[old] = False
        self.at_upper[old] = leaving_at_upper
        self.basis[pos] = j
        self.in_basis[j] = True
        self.at_upper[j] = False
        self._eta_update(w, pos, refactor_every)

    def _basic_bound_violation(self) -> float:
        if self.m == 0:
            return 0.0
        xb = self.x[self.basis]
        low = np.maximum(self.lb[self.basis] - xb, 0.0)
        high = np.maximum(xb - self.ub[self.basis], 0.0)
        return float(max(low.max(initial=0.0), high.max(initial=0.0)))

    def run(self, c: np.ndarray, cap: int, refactor_every: int = _REFACTOR_EVERY) -> LpStatus:
        """Primal iterations for objective c until optimal or unbounded.

        Claimed optima and suspiciously small pivots are re-verified against
        a fresh factorization before being acted on; ratio-test ties go to
        the largest pivot element (Bland mode: lowest variable index).
        """
        bland = False
        degenerate_run = 0
        stop = self.pivots + cap
        finite_lb, finite_ub = self.finite_lb, self.finite_ub
        while self.pivots < stop:
            d = self.reduced_costs(c)
            improving = self.improving(d)
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
                score = np.where(improving, np.abs(d), -1.0)
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
            with np.errstate(divide="ignore", invalid="ignore"):
                room = np.full(self.m, np.inf)
                up = delta > ZERO_PIVOT_TOL
                dn = delta < -ZERO_PIVOT_TOL
                room[up] = (self.ub[self.basis[up]] - xb[up]) / delta[up]
                room[dn] = (self.lb[self.basis[dn]] - xb[dn]) / delta[dn]
            room = np.maximum(room, 0.0)
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
                self._replace_basic(leave_pos, j, bool(delta[leave_pos] > 0), w, refactor_every)
            else:
                step = float(t_own)
                self.x[self.basis] -= direction * step * w
                self.at_upper[j] = not self.at_upper[j]
                self.x[j] = self.ub[j] if self.at_upper[j] else self.lb[j]

            self.pivots += 1
            if step <= ZERO_PIVOT_TOL:
                degenerate_run += 1
                if degenerate_run >= _BLAND_TRIGGER:
                    bland = True
            else:
                degenerate_run = 0
        raise SimplexError("simplex iteration limit exceeded")

    def dual_run(self, c: np.ndarray, cap: int, refactor_every: int = _REFACTOR_EVERY) -> bool:
        """Dual iterations from a dual-feasible basis until every basic value
        is within its bounds; False when a violated row admits no entering
        column, which proves the LP primal infeasible.

        The leaving row is the largest bound violation and the entering
        column wins the dual ratio test, ties to the largest pivot element.
        After 50 consecutive degenerate steps both choices switch to the
        lowest index (Bland's rule for the dual), which guarantees
        termination.
        """
        bland = False
        degenerate_run = 0
        stop = self.pivots + cap
        while True:
            xb = self.x[self.basis]
            below = self.lb[self.basis] - xb
            above = xb - self.ub[self.basis]
            violation = np.maximum(below, above)
            violated = violation > FEASIBILITY_TOL
            if not violated.any():
                return True
            if self.pivots >= stop:
                raise SimplexError("simplex iteration limit exceeded")
            if bland:
                candidates = np.flatnonzero(violated)
                r = int(candidates[np.argmin(self.basis[candidates])])
            else:
                r = int(np.argmax(violation))
            to_upper = bool(above[r] > 0)
            # moving nonbasic j by t changes basic r by -alpha_j t; r must
            # fall when above its upper bound and rise when below its lower
            sign = 1.0 if to_upper else -1.0
            alpha = self._tableau_row(r)
            d = self.reduced_costs(c)
            at_lo, at_up, free = self._positions()
            eligible = (
                (at_lo & (sign * alpha > _DUAL_PIVOT_TOL))
                | (at_up & (sign * alpha < -_DUAL_PIVOT_TOL))
                | (free & (np.abs(alpha) > _DUAL_PIVOT_TOL))
            )
            if not eligible.any():
                return False
            slack = np.where(free, np.abs(d), np.maximum(np.where(at_up, -d, d), 0.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(eligible, slack / np.abs(alpha), np.inf)
            best = ratio.min()
            ties = np.flatnonzero(ratio <= best + _RATIO_TIE_TOL)
            if bland:
                j = int(ties[0])
            else:
                j = int(ties[np.argmax(np.abs(alpha[ties]))])

            w = self._entering_column(j)
            if abs(w[r]) < 1e-7 and self._since_refactor > 0:
                self.refresh()  # suspicious pivot: retry from a clean inverse
                continue
            if abs(w[r]) <= ZERO_PIVOT_TOL:
                raise SimplexError("pivot element below zero tolerance")
            bound = self.ub[self.basis[r]] if to_upper else self.lb[self.basis[r]]
            step = (xb[r] - bound) / w[r]
            self.x[j] += step
            self.x[self.basis] -= step * w
            self._replace_basic(r, j, to_upper, w, refactor_every)

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
    at most n x n.  Key swaps update the factor in place (``_swap_key``);
    every other pivot rebuilds it (``_factor``), so no eta file and no
    rows x rows inverse exist.  FTRAN, BTRAN, pricing and the dual row each
    cost O(rows * n).

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

    def _swap_key(self, pos: int) -> bool:
        """Bring the factor up to date in place after a key swap at basis
        position pos, and say whether the pivot was one.

        In a key swap the surplus of the key row r_new of theta set s enters
        and the surplus of another row r_old of s leaves, while s owns no
        working row.  r_new was then the only tight row of s and r_old is now,
        so r_old becomes the key and W, kW, the basic x columns, M and its
        inverse all stay as they are.  The factor still describes the basis
        before the pivot, so r_old is read from ``_rs``.
        """
        A = self.A
        surplus = int(self.basis[pos]) - A.X.shape[1] - A.n_theta
        if surplus < 0:
            return False
        r_new = surplus + A.p
        s = int(A.theta[r_new])
        if s < 0 or self.key[s] != r_new:
            return False
        i = int(np.searchsorted(self._pos_s, pos))
        if i == len(self._pos_s) or self._pos_s[i] != pos:
            return False
        r_old = int(self._rs[i])
        if A.theta[r_old] != s or (self._tw == s).any():
            return False
        t = int(np.flatnonzero(self._tb == s)[0])
        xb = self.basis[self._pos_x]
        self.key[s] = r_old
        # rows are written into the existing C-ordered arrays: a gather such
        # as X[rows][:, xb] is F-ordered, and BLAS would then round XS @ zx
        # differently from a rebuild
        self._rs[i] = r_new
        self._XS[i] = A.X[r_new, xb]
        self._keys[t] = r_old
        self._XK[t] = A.X[r_old, xb]
        return True

    def _eta_update(self, w: np.ndarray, row: int, refactor_every: int) -> None:
        if not self._swap_key(row):
            self._factor()
        self._since_refactor += 1
        if self._since_refactor >= refactor_every:
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

    phase1_c = np.concatenate([np.zeros(n), np.ones(m)])
    status = state.run(phase1_c, cap, refactor_every)
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
    status = state.run(phase2_c, cap, refactor_every)
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
        if state.improving(d).any():
            return None
        if not state.dual_run(lp.c, cap):
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


def solve_lp(lp: LinearProgram | GubProgram, max_pivots: int | None = None,
             basis: np.ndarray | None = None) -> LpSolution:
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
    A ``GubProgram`` is warm-solved on its key-row basis; its cold solve,
    and every fallback, runs on ``lp.dense()``.
    """
    m, n = lp.A.shape
    cap = max_pivots if max_pivots is not None else max(2000, 100 * (n + m))
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
