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
from lshaped.simplex import GubMatrix, GubProgram, _GubSimplex, _Simplex
from helpers import record_calls, trend_template


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
            solve_lp(lp, max_pivots=1)

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
    A = GubMatrix(X, theta, N, 1)
    m, cols = A.shape
    c = np.zeros(cols)
    c[:n] = rng.uniform(0.5, 2.0, n)
    c[n + np.unique(theta[theta >= 0])] = 1.0
    lb = np.zeros(cols)
    lb[n : n + N] = -np.inf
    return GubProgram(c=c, A=A, b=b, lb=lb, ub=np.full(cols, np.inf), n_structural=n + N)


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
            A = GubMatrix(np.vstack([X, new_X]), np.r_[theta, new_theta], N, 1)
            cols = A.shape[1]
            c = np.zeros(cols)
            c[: len(lp.c)] = lp.c
            c[n + new_theta] = 1.0
            lb = np.zeros(cols)
            lb[n : n + N] = -np.inf
            big = GubProgram(c=c, A=A, b=np.r_[lp.b, lhs + 0.5], lb=lb,
                             ub=np.full(cols, np.inf), n_structural=n + N)
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
        # on key swaps) equals the one _factor() builds from the basis
        names = ("key", "_W", "_kW", "_pos_x", "_pos_t", "_pos_s", "_tb", "_keys", "_rs",
                 "_tw", "_ts", "_XK", "_XS", "_Minv")
        swaps = record_calls(monkeypatch, _GubSimplex, "_swap_key")
        original = _GubSimplex._eta_update
        checked = []

        def checking(state, w, row, refactor_every):
            original(state, w, row, refactor_every)
            held = {name: getattr(state, name) for name in names}
            held = {name: (value.copy(order="K"), value.flags.c_contiguous)
                    for name, value in held.items()}
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
            A = GubMatrix(np.vstack([X, new_X]), np.r_[theta, new_theta], N, 1)
            cols = A.shape[1]
            c = np.zeros(cols)
            c[: len(lp.c)] = lp.c
            lb = np.zeros(cols)
            lb[n : n + N] = -np.inf
            big = GubProgram(c=c, A=A, b=np.r_[lp.b, lhs + 0.5], lb=lb,
                             ub=np.full(cols, np.inf), n_structural=n + N)
            solve_lp(big, basis=np.r_[sol.basis, np.arange(len(lp.c), cols)])
        random_pivots = len(checked)
        problem = sample_instance(trend_template(3), 60, 3)
        solve_lshaped(problem, EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6))
        assert random_pivots >= 20 and len(checked) > random_pivots
        assert any(result for _, _, result in swaps)

    def test_key_swaps_skip_the_rebuild(self, monkeypatch):
        factors = record_calls(monkeypatch, _GubSimplex, "_factor")
        pivots = record_calls(monkeypatch, _GubSimplex, "_replace_basic")
        problem = sample_instance(trend_template(3), 60, 3)
        solve_lshaped(problem, EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6))
        assert 0 < len(factors) < len(pivots)
