import itertools

import numpy as np
import pytest

from lshaped import (
    EngineConfig,
    LinearProgram,
    LpSolution,
    LpStatus,
    parse_scheme,
    sample_instance,
    solve_lp,
    solve_lshaped,
    verify_farkas,
    verify_kkt,
)
from lshaped import simplex as simplex_mod
from lshaped.simplex import GubMatrix, GubProgram, _GubSimplex, _Simplex
from helpers import record_calls, trend_template, use_reference_simplex


def brute_force_optimum(lp):
    """Vertex enumeration over basic solutions; needs finite bounds on every
    nonbasic choice, which the generated LPs guarantee."""
    m, n = lp.A.shape
    if m == 0:
        x = np.where(lp.c >= 0, lp.lb, lp.ub)
        return float(lp.c @ x)
    best = np.inf
    for basis in itertools.combinations(range(n), m):
        B = lp.A[:, basis]
        if abs(np.linalg.det(B)) < 1e-9:
            continue
        nonbasis = [j for j in range(n) if j not in basis]
        for bits in itertools.product((0, 1), repeat=len(nonbasis)):
            xn = np.array(
                [lp.lb[j] if bit == 0 else lp.ub[j] for j, bit in zip(nonbasis, bits)]
            )
            if not np.isfinite(xn).all():
                continue
            x = np.zeros(n)
            x[list(nonbasis)] = xn
            rhs = lp.b - lp.A[:, nonbasis] @ xn if nonbasis else lp.b
            xb = np.linalg.solve(B, rhs)
            x[list(basis)] = xb
            if (x >= lp.lb - 1e-9).all() and (x <= lp.ub + 1e-9).all():
                best = min(best, float(lp.c @ x))
    return best


def random_box_lp(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    n = int(rng.integers(m + 1, 11))
    A = rng.uniform(-2.0, 2.0, (m, n))
    lb = np.zeros(n)
    ub = rng.uniform(0.5, 3.0, n)
    x0 = rng.uniform(0.0, 1.0, n) * ub  # interior point makes the LP feasible
    b = A @ x0
    c = rng.uniform(-1.5, 1.5, n)
    return LinearProgram(c=c, A=A, b=b, lb=lb, ub=ub)


class TestExamples:
    def test_bound_active_optimum(self):
        lp = LinearProgram(c=[-1.0], A=np.zeros((0, 1)), b=[], lb=[0.0], ub=[2.0])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(2.0)
        assert sol.objective == pytest.approx(-2.0)

    def test_symmetric_lp_dual(self):
        lp = LinearProgram(
            c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0], lb=[0.0, 0.0], ub=[np.inf, np.inf]
        )
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(1.0)
        assert sol.duals[0] == pytest.approx(1.0)

    def test_one_row_infeasibility_certificate(self):
        lp = LinearProgram(c=[0.0], A=[[1.0]], b=[-1.0], lb=[0.0], ub=[np.inf])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.INFEASIBLE
        assert sol.farkas[0] == pytest.approx(-1.0)
        assert sol.farkas @ lp.b > 1e-9
        assert (sol.farkas @ lp.A <= 1e-9).all()

    def test_unbounded(self):
        lp = LinearProgram(c=[-1.0], A=np.zeros((0, 1)), b=[], lb=[0.0], ub=[np.inf])
        assert solve_lp(lp).status is LpStatus.UNBOUNDED

    def test_failed_cold_solve_is_retried_refactorizing_every_4_pivots(self, monkeypatch):
        lp = random_box_lp(3)
        want = solve_lp(lp)
        original = simplex_mod._solve_two_phase
        cadences = []

        def failing_once(lp, cap, refactor_every):
            cadences.append(refactor_every)
            if len(cadences) == 1:
                raise simplex_mod.SimplexError("lost numerical footing")
            return original(lp, cap, refactor_every)

        monkeypatch.setattr(simplex_mod, "_solve_two_phase", failing_once)
        sol = solve_lp(lp)
        assert cadences == [simplex_mod._REFACTOR_EVERY, 4]
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-12)
        rep = verify_kkt(lp, sol)
        assert max(rep.primal, rep.dual, rep.complementarity) <= 1e-8


class TestKkt:
    def test_solver_output_has_small_residuals(self):
        for seed in range(10):
            lp = random_box_lp(seed)
            sol = solve_lp(lp)
            rep = verify_kkt(lp, sol)
            assert max(rep.primal, rep.dual, rep.complementarity) <= 1e-8

    def test_perturbed_solution_shows_primal_residual(self):
        lp = random_box_lp(3)
        sol = solve_lp(lp)
        shifted = np.array(sol.x)
        shifted[0] += 1e-3
        fake = LpSolution(
            status=LpStatus.OPTIMAL, x=shifted, objective=float(lp.c @ shifted),
            duals=sol.duals,
        )
        expected = 1e-3 * float(np.max(np.abs(lp.A[:, 0])))
        rep = verify_kkt(lp, fake)
        assert rep.primal == pytest.approx(expected, rel=1e-6)

    def test_zero_objective_zero_duals(self):
        lp = LinearProgram(
            c=[0.0, 0.0], A=[[1.0, 1.0]], b=[1.0], lb=[0.0, 0.0], ub=[np.inf, np.inf]
        )
        sol = solve_lp(lp)
        rep = verify_kkt(lp, sol)
        assert rep.dual <= 1e-12
        assert np.allclose(sol.duals, 0.0)

    def test_requires_optimal_status(self):
        lp = LinearProgram(c=[0.0], A=[[1.0]], b=[-1.0], lb=[0.0], ub=[np.inf])
        with pytest.raises(ValueError):
            verify_kkt(lp, solve_lp(lp))


class TestProperties:
    def test_brute_force_cross_check_100_lps(self):
        for seed in range(100):
            lp = random_box_lp(seed)
            sol = solve_lp(lp)
            assert sol.status is LpStatus.OPTIMAL, seed
            assert sol.objective == pytest.approx(brute_force_optimum(lp), abs=1e-7)

    def test_weak_duality(self):
        for seed in range(30):
            lp = random_box_lp(seed)
            sol = solve_lp(lp)
            reduced = lp.c - sol.duals @ lp.A
            dual_obj = float(sol.duals @ lp.b)
            dual_obj += float(np.sum(np.maximum(reduced, 0.0) * lp.lb))
            dual_obj += float(np.sum(np.minimum(reduced, 0.0) * lp.ub))
            assert dual_obj <= sol.objective + 1e-8

    def test_farkas_certificates_on_infeasible_lps(self):
        rng = np.random.default_rng(11)
        found = 0
        for seed in range(60):
            lp = random_box_lp(seed)
            # push the rhs outside the reachable box image
            span = np.abs(lp.A).sum(axis=1) * np.max(lp.ub)
            bad_b = lp.b + span + rng.uniform(1.0, 2.0, len(lp.b))
            bad = LinearProgram(c=lp.c, A=lp.A, b=bad_b, lb=lp.lb, ub=lp.ub)
            sol = solve_lp(bad)
            if sol.status is not LpStatus.INFEASIBLE:
                continue
            found += 1
            assert verify_farkas(bad, sol.farkas)
            for _ in range(5):
                x = rng.uniform(0.0, 1.0, bad.A.shape[1]) * bad.ub
                assert float(sol.farkas @ (bad.A @ x - bad.b)) < 0.0
        assert found >= 30

    def test_determinism(self):
        for seed in (1, 17):
            lp = random_box_lp(seed)
            a = solve_lp(lp)
            b = solve_lp(lp)
            assert np.array_equal(a.x, b.x)
            assert a.objective == b.objective
            assert np.array_equal(a.duals, b.duals)

    def test_iteration_cap_raises(self):
        from lshaped import SimplexError

        lp = random_box_lp(0)
        with pytest.raises(SimplexError, match="iteration limit"):
            simplex_mod._solve_two_phase(lp, 1, simplex_mod._REFACTOR_EVERY)

    def test_degenerate_duplicate_rows(self):
        lp = LinearProgram(
            c=[1.0, 2.0, 0.0],
            A=[[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
            b=[1.0, 1.0],
            lb=np.zeros(3),
            ub=np.full(3, np.inf),
        )
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.0)


def append_cut_rows(lp, x_cut, x_keep, rng, k):
    """Append k rows a'x - s = beta, each with a fresh surplus column
    s >= 0, that x_cut violates and the feasible point x_keep satisfies."""
    m, n = lp.A.shape
    rows, rhs = [], []
    while len(rows) < k:
        a = rng.uniform(-1.0, 1.0, n)
        gap = float(a @ x_keep - a @ x_cut)
        if abs(gap) < 1e-3:
            continue
        if gap < 0:
            a, gap = -a, -gap
        rows.append(a)
        rhs.append(float(a @ x_cut) + 0.5 * gap)
    A = np.zeros((m + k, n + k))
    A[:m, :n] = lp.A
    A[m:, :n] = rows
    A[m:, n:] = -np.eye(k)
    return LinearProgram(
        c=np.r_[lp.c, np.zeros(k)], A=A, b=np.r_[lp.b, rhs],
        lb=np.r_[lp.lb, np.zeros(k)], ub=np.r_[lp.ub, np.full(k, np.inf)],
    )


def warm_start_case(seed, infeasible=False):
    """(LP with appended rows, optimal basis of the original extended by the
    new surplus columns)."""
    rng = np.random.default_rng(seed)
    lp = random_box_lp(seed)
    sol = solve_lp(lp)
    m, n = lp.A.shape
    if infeasible:
        a = rng.uniform(-1.0, 1.0, n)
        beta = float(np.sum(np.maximum(a, 0.0) * lp.ub)) + 1.0  # above a'x on the box
        big = LinearProgram(
            c=np.r_[lp.c, 0.0], A=np.block([[lp.A, np.zeros((m, 1))], [a, -1.0]]),
            b=np.r_[lp.b, beta], lb=np.r_[lp.lb, 0.0], ub=np.r_[lp.ub, np.inf],
        )
        k = 1
    else:
        flipped = LinearProgram(c=-lp.c, A=lp.A, b=lp.b, lb=lp.lb, ub=lp.ub)
        k = 1 + seed % 3
        big = append_cut_rows(lp, sol.x, solve_lp(flipped).x, rng, k)
    return big, np.r_[sol.basis, np.arange(n, n + k)]


class TestWarmStart:
    def test_appended_rows_match_cold_solve(self):
        warm_pivots = cold_pivots = 0
        for seed in range(40):
            lp, basis = warm_start_case(seed)
            warm = solve_lp(lp, basis=basis)
            cold = solve_lp(lp)
            assert warm.status is cold.status is LpStatus.OPTIMAL, seed
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12), seed
            rep = verify_kkt(lp, warm)
            assert max(rep.primal, rep.dual, rep.complementarity) <= 1e-8, seed
            warm_pivots += warm.pivots
            cold_pivots += cold.pivots
        # a warm start that fell back to the cold solve would count both
        assert warm_pivots < cold_pivots

    def test_infeasible_row_returns_farkas_ray(self):
        for seed in range(20):
            lp, basis = warm_start_case(seed, infeasible=True)
            sol = solve_lp(lp, basis=basis)
            assert sol.status is LpStatus.INFEASIBLE, seed
            assert verify_farkas(lp, sol.farkas), seed

    def test_optimal_basis_takes_no_pivots(self):
        for seed in range(10):
            lp = random_box_lp(seed)
            cold = solve_lp(lp)
            warm = solve_lp(lp, basis=cold.basis)
            assert warm.pivots == 0
            assert warm.objective == pytest.approx(cold.objective, rel=1e-12, abs=1e-12)
            assert np.array_equal(warm.basis, cold.basis)

    def test_singular_basis_falls_back_to_cold_solve(self):
        lp = LinearProgram(
            c=[1.0, 2.0, 0.0], A=[[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]], b=[1.0, 1.0],
            lb=np.zeros(3), ub=np.full(3, np.inf),
        )
        sol = solve_lp(lp, basis=[0, 1])
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.0)

    def test_malformed_basis_rejected(self):
        lp = LinearProgram(
            c=[1.0, 1.0, 1.0], A=[[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], b=[1.0, 1.0],
            lb=np.zeros(3), ub=np.full(3, np.inf),
        )
        for basis in ([0], [0, 1, 2], [1, 1], [0, 3], [-1, 0]):
            with pytest.raises(ValueError, match="basis"):
                solve_lp(lp, basis=basis)

    def test_warm_start_determinism(self):
        for seed in (2, 9):
            lp, basis = warm_start_case(seed)
            a = solve_lp(lp, basis=basis)
            b = solve_lp(lp, basis=basis)
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.duals, b.duals)
            assert a.objective == b.objective and a.pivots == b.pivots


def gub_matrix(X, theta, N, p):
    """The GubMatrix whose row i holds theta column theta[i], none when -1."""
    rows = np.flatnonzero(theta >= 0)
    return GubMatrix(X, rows, theta[rows], N, p)


def random_gub_program(seed):
    """A master-shaped GubProgram: x on a simplex (one first-stage row),
    then cut rows over one of N theta columns, or over none, each with a
    surplus column; covered theta columns cost 1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    N = int(rng.integers(1, 5))
    R = int(rng.integers(N, 3 * N + 4))
    X = np.vstack([np.ones(n), rng.uniform(-1.0, 1.0, (R, n))])
    theta = np.r_[-1, rng.integers(-1, N, R)]
    x0 = np.full(n, 2.0 / n)
    # feasibility rows (theta -1) hold at x0, so the LP is feasible
    b = np.r_[2.0, np.where(theta[1:] < 0, X[1:] @ x0 - 0.5, rng.uniform(-2.0, 2.0, R))]
    A = gub_matrix(X, theta, N, 1)
    m, cols = A.shape
    c = np.zeros(cols)
    c[:n] = rng.uniform(0.5, 2.0, n)
    c[n + np.unique(theta[theta >= 0])] = 1.0
    lb = np.zeros(cols)
    lb[n : n + N] = -np.inf
    return GubProgram(c=c, A=A, b=b, lb=lb, ub=np.full(cols, np.inf))


class TestGubProgram:
    def test_matrix_products_match_dense(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            lp = random_gub_program(seed)
            dense = lp.A.toarray()
            m, cols = dense.shape
            v, y = rng.normal(size=cols), rng.normal(size=m)
            np.testing.assert_allclose(lp.A @ v, dense @ v, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(y @ lp.A, y @ dense, rtol=1e-12, atol=1e-12)
            for j in range(cols):
                assert np.array_equal(lp.A.column(j), dense[:, j]), (seed, j)

    def test_rows_over_several_theta_columns(self):
        # (row, theta column) pairs may repeat a row; the products, columns
        # and array agree with the matrix written out pair by pair
        rng = np.random.default_rng(3)
        for seed in range(20):
            m, n, N, p = 8, 3, 4, 2
            X = rng.uniform(-1.0, 1.0, (m, n))
            pairs = sorted({(int(i), int(t)) for i, t in zip(rng.integers(p, m, 12),
                                                            rng.integers(0, N, 12))})
            rows, cols = np.array(pairs).T
            A = GubMatrix(X, rows, cols, N, p)
            want = np.zeros((m, n + N + m - p))
            want[:, :n] = X
            for i, t in pairs:
                want[i, n + t] = 1.0
            for i in range(p, m):
                want[i, n + N + i - p] = -1.0
            assert A.one_per_row == (len(set(rows.tolist())) == len(rows))
            assert A.toarray().tobytes() == want.tobytes()
            v, y = rng.normal(size=want.shape[1]), rng.normal(size=m)
            np.testing.assert_allclose(A @ v, want @ v, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(y @ A, y @ want, rtol=1e-12, atol=1e-12)
            for j in range(want.shape[1]):
                assert np.array_equal(A.column(j), want[:, j]), (seed, j)

    def test_two_column_row_never_takes_the_key_row_path(self, monkeypatch):
        # a start basis for a program with a row over two theta columns is
        # used on the dense form, exactly as for lp.dense()
        made = record_calls(monkeypatch, _GubSimplex, "__init__")
        checked = 0
        for seed in range(30):
            lp = random_gub_program(seed)
            A = lp.A
            free = np.flatnonzero(A.theta[A.p:] < 0) + A.p
            if not len(free) or A.n_theta < 2:
                continue
            # one row without a theta column gains two
            pairs = sorted([*zip(A.theta_rows.tolist(), A.theta_of_rows.tolist()),
                            (int(free[0]), 0), (int(free[0]), 1)])
            rows, cols = np.array(pairs).T
            wide = GubProgram(c=lp.c, A=GubMatrix(A.X, rows, cols, A.n_theta, A.p), b=lp.b,
                              lb=lp.lb, ub=lp.ub)
            assert not wide.A.one_per_row
            cold = solve_lp(wide.dense())
            if cold.basis is None:
                continue
            rng = np.random.default_rng(seed)
            moved = GubProgram(c=wide.c, A=wide.A, b=wide.b + rng.normal(0.0, 0.3, len(wide.b)),
                               lb=wide.lb, ub=wide.ub)
            assert_same_solution(solve_lp(moved, basis=cold.basis),
                                 solve_lp(moved.dense(), basis=cold.basis))
            checked += 1
        assert checked >= 5
        assert not made

    def test_key_row_basis_matches_dense_inverse(self):
        rng = np.random.default_rng(1)
        checked = 0
        for seed in range(30):
            lp = random_gub_program(seed)
            dense = lp.dense()
            sol = solve_lp(dense)
            if sol.basis is None:
                continue
            gub = _GubSimplex(lp.A, lp.b, lp.lb, lp.ub, sol.basis.copy())
            ref = _Simplex(dense.A, dense.b, dense.lb, dense.ub, sol.basis.copy())
            gub.refresh()
            ref.refresh()
            m, cols = dense.A.shape
            v = rng.normal(size=m)
            tol = dict(rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(gub._ftran(v), ref._ftran(v), **tol)
            np.testing.assert_allclose(gub._btran(v), ref._btran(v), **tol)
            np.testing.assert_allclose(gub.x, ref.x, **tol)
            for r in range(m):
                np.testing.assert_allclose(gub._tableau_row(r), ref._tableau_row(r), **tol)
            for j in range(cols):
                np.testing.assert_allclose(
                    gub._entering_column(j), ref._entering_column(j), **tol
                )
            checked += 1
        assert checked >= 20

    def test_warm_solve_matches_dense_solve(self, monkeypatch):
        # appended violated rows: the key-row dual simplex reaches the dense
        # cold optimum without falling back, and its duals pass the dense
        # KKT check
        import lshaped.simplex as simplex_mod

        cold_solves = record_calls(monkeypatch, simplex_mod, "_solve_two_phase")
        checked = 0
        for seed in range(30):
            lp = random_gub_program(seed)
            sol = solve_lp(lp.dense())
            X, theta, N = lp.A.X, lp.A.theta, lp.A.n_theta
            covered = np.unique(theta[theta >= 0])
            if sol.basis is None or not len(covered):
                continue
            rng = np.random.default_rng(seed)
            k = 3
            new_X = rng.uniform(-1.0, 1.0, (k, X.shape[1]))
            new_theta = rng.choice(covered, k)  # no theta column is fresh
            n = X.shape[1]
            # each new row is violated by the old optimum by 0.5
            lhs = new_X @ sol.x[:n] + sol.x[n + new_theta]
            A = gub_matrix(np.vstack([X, new_X]), np.r_[theta, new_theta], N, 1)
            cols = A.shape[1]
            c = np.zeros(cols)
            c[: len(lp.c)] = lp.c
            c[n + new_theta] = 1.0
            lb = np.zeros(cols)
            lb[n : n + N] = -np.inf
            big = GubProgram(c=c, A=A, b=np.r_[lp.b, lhs + 0.5], lb=lb,
                             ub=np.full(cols, np.inf))
            start = np.r_[sol.basis, np.arange(len(lp.c), cols)]
            cold_solves.clear()
            warm = solve_lp(big, basis=start)
            assert not cold_solves, seed
            cold = solve_lp(big.dense())
            assert warm.status is cold.status is LpStatus.OPTIMAL, seed
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12), seed
            rep = verify_kkt(big.dense(), warm)
            assert max(rep.primal, rep.dual, rep.complementarity) <= 1e-8, seed
            checked += 1
        assert checked >= 20

    def test_in_place_factor_equals_rebuild(self, monkeypatch):
        # after every pivot of warm GUB solves, the factor (updated in place
        # unless a theta column enters or leaves) equals the one _factor()
        # builds from the basis and the keys before the pivot
        names = ("key", "_W", "_kW", "_pos_x", "_pos_t", "_pos_s", "_tb", "_keys", "_rs",
                 "_tw", "_ts", "_XK", "_XS", "_Minv")
        updates = record_calls(monkeypatch, _GubSimplex, "_update_factor")
        original = _GubSimplex._eta_update
        checked = []
        # (leaving, entering) column kinds of the pivots updated in place:
        # x, theta or surplus; "key swap" when only the key moved
        in_place = set()

        def kind(state, col):
            n, N = state.A.X.shape[1], state.A.n_theta
            return "x" if col < n else "theta" if col < n + N else "surplus"

        def checking(state, w, row):
            leaving = "x" if row in state._pos_x else "theta" if row in state._pos_t else "surplus"
            entering = kind(state, int(state.basis[row]))
            W, key = state._W.copy(), state.key.copy()
            calls = len(updates)
            original(state, w, row)
            if updates[calls][2]:
                swap = np.array_equal(W, state._W) and not np.array_equal(key, state.key)
                in_place.add("key swap" if swap else (leaving, entering))
            held = {name: getattr(state, name) for name in names}
            held = {name: (value.copy(order="K"), value.flags.c_contiguous)
                    for name, value in held.items()}
            # rebuild from the keys before the pivot, as a rebuild at every
            # pivot would: a key that is no longer tight moves to the lowest
            # tight row of its set
            state.key[:] = key
            state._factor()
            for name, (value, c_order) in held.items():
                rebuilt = getattr(state, name)
                assert np.array_equal(value, rebuilt) and value.dtype == rebuilt.dtype, name
                assert c_order == rebuilt.flags.c_contiguous, name
            checked.append(row)

        monkeypatch.setattr(_GubSimplex, "_eta_update", checking)
        for seed in range(30):
            lp = random_gub_program(seed)
            sol = solve_lp(lp.dense())
            X, theta, N = lp.A.X, lp.A.theta, lp.A.n_theta
            covered = np.unique(theta[theta >= 0])
            if sol.basis is None or not len(covered):
                continue
            rng = np.random.default_rng(seed)
            n, k = X.shape[1], 4
            new_X = rng.uniform(-1.0, 1.0, (k, n))
            # one feasibility row (theta -1) among the appended rows
            new_theta = np.r_[rng.choice(covered, k - 1), -1]
            lhs = new_X @ sol.x[:n] + np.where(new_theta >= 0, sol.x[n + new_theta], 0.0)
            A = gub_matrix(np.vstack([X, new_X]), np.r_[theta, new_theta], N, 1)
            cols = A.shape[1]
            c = np.zeros(cols)
            c[: len(lp.c)] = lp.c
            lb = np.zeros(cols)
            lb[n : n + N] = -np.inf
            big = GubProgram(c=c, A=A, b=np.r_[lp.b, lhs + 0.5], lb=lb,
                             ub=np.full(cols, np.inf))
            solve_lp(big, basis=np.r_[sol.basis, np.arange(len(lp.c), cols)])
        random_pivots = len(checked)
        problem = sample_instance(trend_template(3), 60, 3)
        solve_lshaped(problem, EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6))
        assert random_pivots >= 20 and len(checked) > random_pivots
        # rows join W when a surplus leaves, and leave it when one enters
        assert in_place >= {"key swap", ("surplus", "surplus"), ("surplus", "x"),
                            ("x", "surplus"), ("x", "x")}

    def test_key_swaps_skip_the_rebuild(self, monkeypatch):
        factors = record_calls(monkeypatch, _GubSimplex, "_factor")
        pivots = record_calls(monkeypatch, _GubSimplex, "_replace_basic")
        problem = sample_instance(trend_template(3), 60, 3)
        solve_lshaped(problem, EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6))
        assert 0 < len(factors) < len(pivots)

    def test_only_refreshes_rebuild_the_factor(self, monkeypatch):
        # no theta column enters or leaves a multi-cut master's warm solve,
        # so every pivot updates the factor in place
        factors = record_calls(monkeypatch, _GubSimplex, "_factor")
        refreshes = record_calls(monkeypatch, _GubSimplex, "refresh")
        pivots = record_calls(monkeypatch, _GubSimplex, "_replace_basic")
        problem = sample_instance(trend_template(3), 60, 3)
        solve_lshaped(problem, EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6))
        assert len(pivots) > 2 * len(refreshes) > 0
        assert len(factors) == len(refreshes)


class TestKeptReducedCosts:
    """``dual_run`` updates the reduced costs from the pivot row instead of
    recomputing them; after every dual pivot they must agree with a fresh
    ``reduced_costs``."""

    @staticmethod
    def checked_pivots(monkeypatch, solves):
        original = _Simplex._next_reduced_costs
        seen = {_Simplex: 0, _GubSimplex: 0, "refactored": 0}

        def checking(state, d, c, alpha, j):
            d = original(state, d, c, alpha, j)
            fresh = state.reduced_costs(c)
            if state._since_refactor == 0:  # recomputed after the refactor
                assert np.array_equal(d, fresh)
                seen["refactored"] += 1
            else:
                assert (np.abs(d - fresh) <= 1e-9 * (1.0 + np.abs(fresh))).all()
                assert d[j] == 0.0
            seen[type(state)] += 1
            return d

        monkeypatch.setattr(_Simplex, "_next_reduced_costs", checking)
        for lp, basis in solves:
            solve_lp(lp, basis=basis)
        return seen

    def test_dense_warm_solves(self, monkeypatch):
        cases = [warm_start_case(seed, infeasible) for seed in range(40)
                 for infeasible in (False, True)]
        cases += [zero_cost_surplus_lp(seed) for seed in range(2)]
        seen = self.checked_pivots(monkeypatch, cases)
        assert seen[_Simplex] >= 100 and seen["refactored"] > 0

    def test_gub_warm_solves(self, monkeypatch):
        import lshaped.engine as engine_mod

        masters = record_calls(monkeypatch, engine_mod, "solve_lp")
        for label in ("multi", "granulated:T0=3,inner=multi"):
            problem = sample_instance(trend_template(3), 150, 3)
            solve_lshaped(problem, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
        solves = [(args[0], kwargs.get("basis")) for args, kwargs, _ in masters]
        monkeypatch.undo()
        assert any(isinstance(lp, GubProgram) for lp, _ in solves)
        seen = self.checked_pivots(monkeypatch, solves)
        assert seen[_GubSimplex] >= 200 and seen["refactored"] > 0


def mixed_bounds_lp(seed):
    """A feasible LP whose columns are boxed, bounded below only, bounded
    above only or free, in random order."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 8))
    n = int(rng.integers(m + 1, 15))
    kind = rng.integers(0, 4, n)  # boxed, lower only, upper only, free
    low, width = rng.uniform(-1.0, 0.5, n), rng.uniform(0.2, 2.0, n)
    high = rng.uniform(-0.5, 1.0, n)
    lb = np.where(kind <= 1, low, -np.inf)
    ub = np.select([kind == 0, kind == 2], [low + width, high], np.inf)
    x0 = np.select(
        [kind == 0, kind == 1, kind == 2],
        [low + rng.uniform(0.0, 1.0, n) * width, low + rng.exponential(1.0, n),
         high - rng.exponential(1.0, n)],
        rng.normal(size=n),
    )
    A = rng.uniform(-2.0, 2.0, (m, n))
    return LinearProgram(c=rng.uniform(-1.0, 1.0, n), A=A, b=A @ x0, lb=lb, ub=ub)


def degenerate_cone_lp(seed):
    """min c'x over A x = 0, x >= 0, with c in the dual cone: every basic
    solution is x = 0, so every pivot is degenerate until the optimum."""
    rng = np.random.default_rng(seed)
    m, n = 40, 80
    A = rng.uniform(-1.0, 1.0, (m, n))
    c = rng.uniform(-1.0, 1.0, m) @ A + rng.uniform(0.0, 0.1, n)
    return LinearProgram(c=c, A=A, b=np.zeros(m), lb=np.zeros(n), ub=np.full(n, np.inf))


def zero_cost_surplus_lp(seed):
    """[R | -I] x = b > 0 with zero costs, warm-started from the surplus
    basis: every row is violated, every reduced cost is zero, and every
    dual step is degenerate."""
    rng = np.random.default_rng(seed)
    m = n = 40
    A = np.hstack([rng.uniform(-1.0, 1.0, (m, n)), -np.eye(m)])
    lp = LinearProgram(c=np.zeros(n + m), A=A, b=rng.uniform(0.1, 1.0, m),
                       lb=np.zeros(n + m), ub=np.full(n + m, np.inf))
    return lp, np.arange(n, n + m)


def assert_same_solution(a, b):
    assert a.status is b.status
    assert a.pivots == b.pivots
    assert repr(a.objective) == repr(b.objective)
    for name in ("x", "duals", "farkas", "basis"):
        u, v = getattr(a, name), getattr(b, name)
        assert (u is None) == (v is None), name
        if u is not None:
            assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), name


class TestReferencePass:
    """``solve_lp`` keeps the pricing state between pivots; it must pivot
    exactly as the reference pass (``helpers.use_reference_simplex``),
    which recomputes the nonbasic positions on every pass."""

    @staticmethod
    def check(monkeypatch, lp, basis=None):
        new = solve_lp(lp, basis=basis)
        with monkeypatch.context() as patch:
            use_reference_simplex(patch)
            ref = solve_lp(lp, basis=basis)
        assert_same_solution(new, ref)
        return new

    def test_mixed_bounds(self, monkeypatch):
        statuses = set()
        for seed in range(60):
            lp = mixed_bounds_lp(seed)
            sol = self.check(monkeypatch, lp)
            statuses.add(sol.status)
            rng = np.random.default_rng(seed)
            # out of reach of A x whenever the bounds confine it
            far_b = lp.b + 10.0 * np.abs(lp.A).sum(axis=1) + 1.0
            far = LinearProgram(c=lp.c, A=lp.A, b=far_b, lb=lp.lb, ub=lp.ub)
            statuses.add(self.check(monkeypatch, far).status)
            if sol.basis is None:
                continue
            # warm starts: other costs (primal repair), another rhs (dual
            # repair) and a random basis (often singular or infeasible)
            moved_c = LinearProgram(c=lp.c + rng.normal(0.0, 0.5, len(lp.c)), A=lp.A, b=lp.b,
                                    lb=lp.lb, ub=lp.ub)
            moved_b = LinearProgram(c=lp.c, A=lp.A, b=lp.b + rng.normal(0.0, 0.5, len(lp.b)),
                                    lb=lp.lb, ub=lp.ub)
            self.check(monkeypatch, moved_c, sol.basis)
            self.check(monkeypatch, moved_b, sol.basis)
            self.check(monkeypatch, lp, rng.permutation(lp.A.shape[1])[: lp.A.shape[0]])
        assert statuses == set(LpStatus)

    def test_box_lps_and_warm_starts(self, monkeypatch):
        for seed in range(40):
            self.check(monkeypatch, random_box_lp(seed))
            for infeasible in (False, True):
                lp, basis = warm_start_case(seed, infeasible)
                self.check(monkeypatch, lp, basis)

    def test_degenerate_runs_reach_bland(self, monkeypatch):
        # every pivot of these solves is degenerate, so a run or dual run
        # that pivots more than _BLAND_TRIGGER times has switched rules
        events = []
        for name in ("run", "dual_run", "_replace_basic"):
            original = getattr(_Simplex, name)

            def recording(state, *args, _name=name, _original=original, **kwargs):
                events.append(_name)
                return _original(state, *args, **kwargs)

            monkeypatch.setattr(_Simplex, name, recording)
        longest = {}
        for seed in range(3):
            for lp, basis in ((degenerate_cone_lp(seed), None), zero_cost_surplus_lp(seed)):
                events.clear()
                self.check(monkeypatch, lp, basis)
                loop, count = None, 0
                for event in events:
                    if event == "_replace_basic":
                        count += 1
                        longest[loop] = max(longest.get(loop, 0), count)
                    else:
                        loop, count = event, 0
        assert longest["run"] > simplex_mod._BLAND_TRIGGER
        assert longest["dual_run"] > simplex_mod._BLAND_TRIGGER

    def test_gub_masters(self, monkeypatch):
        checked = 0
        for seed in range(30):
            lp = random_gub_program(seed)
            sol = solve_lp(lp.dense())
            if sol.basis is None:
                continue
            rng = np.random.default_rng(seed)
            moved = GubProgram(c=lp.c, A=lp.A, b=lp.b + rng.normal(0.0, 0.3, len(lp.b)),
                               lb=lp.lb, ub=lp.ub)
            self.check(monkeypatch, moved, sol.basis)
            self.check(monkeypatch, lp.dense())
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("label", ["multi", "granulated:T0=3,inner=kmedoids:k=4",
                                       "partial:T=7"])
    def test_engine_masters(self, monkeypatch, label):
        import lshaped.engine as engine_mod

        problem = sample_instance(trend_template(3), 60, 3)
        config = EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6)
        calls = record_calls(monkeypatch, engine_mod, "solve_lp")
        solve_lshaped(problem, config)
        masters = [(args[0], kwargs.get("basis")) for args, kwargs, _ in calls]
        monkeypatch.undo()
        assert len(masters) >= 4
        for lp, basis in masters:
            self.check(monkeypatch, lp, basis)
