"""Independent optimum of a two-stage problem: its extensive form solved by
HiGHS through scipy, never by the package's own simplex.

The extensive form is assembled here as a sparse matrix rather than through
``lshaped.build_extensive_form``, whose dense matrix grows as N^2 and would
dominate the benchmark's memory at the sizes it runs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog


def extensive_form_optimum(problem) -> float:
    """Optimal value of min c'x + sum_s pi_s q_s'y_s over the deterministic
    equivalent; raises RuntimeError unless HiGHS reports optimal."""
    first = problem.first
    n, p = first.n, first.p
    r, m = problem.W.shape
    N = problem.n_scenarios
    pi = np.array([s.pi for s in problem.scenarios])
    Q = np.array([s.q for s in problem.scenarios])
    T = np.array([s.T for s in problem.scenarios])
    H = np.array([s.h for s in problem.scenarios])

    cost = np.concatenate([first.c, (pi[:, None] * Q).ravel()])
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
            np.concatenate([first.A[f_rows, f_cols], T.ravel(), w_vals]),
            (np.concatenate([f_rows, t_rows, w_rows]), np.concatenate([f_cols, t_cols, w_cols])),
        ),
        shape=(p + N * r, n + N * m),
    )
    b = np.concatenate([first.b, H.ravel()])
    res = linprog(cost, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the extensive form: {res.message}")
    return float(res.fun)
