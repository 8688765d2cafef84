import gc
import math
import tracemalloc

import numpy as np
import pytest

from lshaped import (
    EngineConfig,
    FirstStage,
    LinearProgram,
    LpStatus,
    Scenario,
    SingleCut,
    SolveStatus,
    Termination,
    TwoStageProblem,
    build_extensive_form,
    compute_relative_complexities,
    parse_scheme,
    sample_instance,
    solve_lp,
    solve_lshaped,
    solve_subproblem,
    verify_farkas,
    verify_kkt,
)
from lshaped.aggregation import granulation
from helpers import (
    P1_OPTIMUM, ReferenceEvaluator, build_p1, evaluator_instances, groups_of, random_instance,
    record_calls, reference_aggregate, reference_violation, trend_template, wide_template,
)

SCHEME_LABELS = (
    "multi", "single", "partial:T=2", "uniform:T=2",
    "closest:A=4,tau=0.3", "kmedoids:k=3", "granulated:T0=2,inner=single",
)


def infeasible_recourse_problem():
    # y = h - x without surplus; the first stage pins x = 3 while recourse
    # needs x <= 2, so the feasibility cut makes the master infeasible
    first = FirstStage(c=[1.0], A=[[1.0]], b=[3.0])
    return TwoStageProblem.from_scenarios(
        first=first, W=[[1.0]], scenarios=(Scenario(1.0, [1.0], [[1.0]], [2.0]),)
    )


class TestSubproblem:
    def test_p1_scenario_two_at_one(self, p1):
        res = solve_subproblem(p1, 1, np.array([1.0]))
        assert res.status is LpStatus.OPTIMAL
        assert res.objective == pytest.approx(3.0)  # max(4 - 1, 0)
        assert res.duals[0] == pytest.approx(1.0)

    def test_p1_scenario_one_beyond_kink(self, p1):
        res = solve_subproblem(p1, 0, np.array([5.0]))
        assert res.status is LpStatus.OPTIMAL
        assert res.objective == pytest.approx(0.0)
        assert res.duals[0] == pytest.approx(0.0)

    def test_dual_value_identity(self, p1):
        # duals satisfy lam'(h - T x) = Q_s(x)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(0.0, 5.0, 1)
            for s, scen in enumerate(p1.scenarios):
                res = solve_subproblem(p1, s, x)
                assert res.duals @ (scen.h - scen.T @ x) == pytest.approx(res.objective, abs=1e-8)

    def test_infeasible_returns_certificate(self):
        prob = infeasible_recourse_problem()
        res = solve_subproblem(prob, 0, np.array([3.0]))
        assert res.status is LpStatus.INFEASIBLE
        assert res.farkas[0] == pytest.approx(-1.0)

    def test_unbounded_recourse_raises(self):
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[])
        prob = TwoStageProblem.from_scenarios(
            first=first, W=[[1.0, -1.0]],
            scenarios=(Scenario(1.0, [-1.0, 0.0], [[1.0]], [2.0]),),
        )
        with pytest.raises(RuntimeError, match="unbounded"):
            solve_subproblem(prob, 0, np.array([0.0]))


class TestSolve:
    def test_p1_single_cut(self, p1):
        report = solve_lshaped(p1, EngineConfig(scheme=parse_scheme("single"), rel_tol=1e-6))
        assert report.status == SolveStatus.CONVERGED
        assert report.objective == pytest.approx(P1_OPTIMUM, abs=1e-6)

    def test_p1_multi_cut_iterations(self, p1):
        single = solve_lshaped(p1, EngineConfig(scheme=parse_scheme("single"), rel_tol=1e-6))
        multi = solve_lshaped(p1, EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6))
        assert multi.objective == pytest.approx(P1_OPTIMUM, abs=1e-6)
        assert multi.n_iterations <= single.n_iterations

    def test_single_scenario_any_scheme(self):
        prob = random_instance(0, 1)
        oracle = solve_lp(build_extensive_form(prob)).objective
        for label in SCHEME_LABELS:
            scheme = parse_scheme(label)
            if label.startswith(("partial", "uniform", "granulated", "closest")):
                continue  # block sizes above N=1 are invalid by contract
            report = solve_lshaped(prob, EngineConfig(scheme=scheme, rel_tol=1e-6))
            assert report.objective == pytest.approx(oracle, abs=1e-6)

    def test_master_infeasible_after_feasibility_cut(self):
        report = solve_lshaped(infeasible_recourse_problem(), EngineConfig(rel_tol=1e-6))
        assert report.status == SolveStatus.MASTER_INFEASIBLE
        assert report.history[0].feasibility_cuts == 1

    def test_feasibility_cut_then_convergence(self):
        # min -x with x in [0, 5]; recourse forces x <= 2, optimum at x = 2
        first = FirstStage(c=[-1.0, 0.0], A=[[1.0, 1.0]], b=[5.0])
        prob = TwoStageProblem.from_scenarios(
            first=first, W=[[1.0]],
            scenarios=(Scenario(1.0, [1.0], [[1.0, 0.0]], [2.0]),),
        )
        report = solve_lshaped(prob, EngineConfig(rel_tol=1e-6))
        assert report.status == SolveStatus.CONVERGED
        assert any(rec.feasibility_cuts for rec in report.history)
        assert report.objective == pytest.approx(-2.0, abs=1e-6)
        assert report.x[0] == pytest.approx(2.0, abs=1e-6)

    def test_debug_log_reports_master_size(self, caplog):
        # the feasibility-cut problem logs a feasibility and a converged line
        first = FirstStage(c=[-1.0, 0.0], A=[[1.0, 1.0]], b=[5.0])
        prob = TwoStageProblem.from_scenarios(
            first=first, W=[[1.0]],
            scenarios=(Scenario(1.0, [1.0], [[1.0, 0.0]], [2.0]),),
        )
        with caplog.at_level("DEBUG", logger="lshaped.engine"):
            report = solve_lshaped(prob, EngineConfig(rel_tol=1e-6))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("iteration")]
        assert len(lines) == len(report.history) >= 3
        for line, rec in zip(lines, report.history):
            assert line.startswith(f"iteration {rec.index}:")
            assert line.endswith(
                f"master_pivots {rec.master_pivots} master_rows {rec.master_rows}"
            )

    def test_feasibility_cuts_with_mixed_scenarios(self):
        # scenario 0 always feasible, scenario 1 needs x <= 2
        first = FirstStage(c=[-1.0, 0.0], A=[[1.0, 1.0]], b=[5.0])
        prob = TwoStageProblem.from_scenarios(
            first=first, W=[[1.0]],
            scenarios=(
                Scenario(0.5, [1.0], [[-1.0, 0.0]], [0.5]),  # y = 0.5 + x, feasible
                Scenario(0.5, [1.0], [[1.0, 0.0]], [2.0]),   # y = 2 - x, needs x <= 2
            ),
        )
        oracle = solve_lp(build_extensive_form(prob)).objective
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6))
        assert report.status == SolveStatus.CONVERGED
        assert any(rec.feasibility_cuts for rec in report.history)
        assert report.objective == pytest.approx(oracle, abs=1e-6)

    def test_granulated_kmedoids_inner_against_oracle(self):
        prob = random_instance(9, 30)
        oracle = solve_lp(build_extensive_form(prob)).objective
        report = solve_lshaped(
            prob,
            EngineConfig(
                scheme=parse_scheme("granulated:T0=4,inner=kmedoids:k=3"), rel_tol=1e-6
            ),
        )
        assert report.status == SolveStatus.CONVERGED
        assert report.objective == pytest.approx(oracle, abs=1e-6 * max(1.0, abs(oracle)))
        # theta layout is per granule: every master row covers whole granules
        blocks = [set(range(g, min(g + 4, 30))) for g in range(0, 30, 4)]
        for cut in report.cuts:
            members = set(cut.members)
            touched = [b for b in blocks if b & members]
            assert members == set().union(*touched)

    @pytest.mark.parametrize("label, want", [
        ("kmedoids:k=3", "kmedoids:k=3,measure=angular"),
        ("granulated:T0=2,inner=kmedoids:k=3",
         "granulated:T0=2,inner=kmedoids:k=3,measure=angular"),
        ("multi", "multi"),
    ])
    def test_report_names_the_scheme(self, label, want):
        report = solve_lshaped(random_instance(9, 30),
                               EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
        assert report.scheme == want

    def test_unbounded_master_is_reported(self):
        # a cheap first stage with a steep recourse slope leaves the early
        # master unbounded in x; the engine surfaces that instead of looping
        first = FirstStage(c=[0.1], A=np.zeros((0, 1)), b=[])
        prob = TwoStageProblem.from_scenarios(
            first=first, W=[[1.0, -1.0]],
            scenarios=(Scenario(1.0, [1.0, 0.0], [[1.0]], [2.0]),),
        )
        with pytest.raises(RuntimeError, match="unbounded"):
            solve_lshaped(prob, EngineConfig(rel_tol=1e-6))

    def test_invalid_scheme_rejected(self, p1):
        with pytest.raises(ValueError, match="strategy"):
            solve_lshaped(p1, EngineConfig(scheme=parse_scheme("partial:T=5")))

    def test_invalid_problem_rejected(self):
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[])
        scen = (Scenario(0.3, [1.0], [[1.0]], [1.0]),)
        bad = TwoStageProblem.from_scenarios(first, [[1.0]], scen)
        with pytest.raises(ValueError, match="probabilities"):
            solve_lshaped(bad, EngineConfig())

    @pytest.mark.parametrize("field, value", [
        ("rel_tol", math.nan), ("rel_tol", 0.0), ("rel_tol", -1e-3),
    ])
    def test_invalid_tolerances_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            EngineConfig(**{field: value})

    @pytest.mark.parametrize("field", ["max_iterations", "workers"])
    def test_counts_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1$"):
            EngineConfig(**{field: 0})

    def test_iteration_limit_status(self, p1):
        report = solve_lshaped(p1, EngineConfig(rel_tol=1e-9, max_iterations=1))
        assert report.status == SolveStatus.ITERATION_LIMIT
        assert report.n_iterations == 1

    def test_report_counts(self, p1):
        report = solve_lshaped(p1, EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6))
        assert report.n_iterations == len(report.history)
        assert report.n_cuts == len(report.cuts)
        assert report.wall_seconds > 0.0
        assert report.scheme == "multi"


class TestInvariants:
    def test_oracle_equivalence_small(self):
        for seed in (0, 1, 2):
            prob = random_instance(seed, 12)
            oracle = solve_lp(build_extensive_form(prob)).objective
            for label in SCHEME_LABELS:
                report = solve_lshaped(
                    prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6)
                )
                assert report.status == SolveStatus.CONVERGED, (seed, label)
                assert report.objective == pytest.approx(
                    oracle, abs=1e-6 * max(1.0, abs(oracle))
                ), (seed, label)

    def test_lower_bounds_non_decreasing(self):
        prob = random_instance(4, 20)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6))
        lows = [rec.lower for rec in report.history if math.isfinite(rec.lower)]
        assert all(b >= a - 1e-8 for a, b in zip(lows, lows[1:]))

    def test_lower_below_upper_each_iteration(self):
        prob = random_instance(5, 20)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme("single"), rel_tol=1e-6))
        for rec in report.history:
            if math.isfinite(rec.lower):
                assert rec.lower <= rec.upper + 1e-6

    def test_objective_reproducible_from_fresh_subproblem_solves(self):
        prob = random_instance(6, 15)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme("kmedoids:k=3"), rel_tol=1e-6))
        recourse = sum(
            prob.pi[s] * solve_subproblem(prob, s, report.x).objective
            for s in range(prob.n_scenarios)
        )
        fresh = float(prob.first.c @ report.x) + recourse
        assert fresh == pytest.approx(report.objective, abs=1e-6)

    def test_worker_determinism(self):
        prob = random_instance(7, 16)
        runs = [
            solve_lshaped(
                prob,
                EngineConfig(scheme=parse_scheme("partial:T=4"), rel_tol=1e-6, workers=w),
            )
            for w in (1, 4)
        ]
        assert runs[0].objective == runs[1].objective  # bitwise
        assert len(runs[0].history) == len(runs[1].history)
        for a, b in zip(runs[0].history, runs[1].history):
            assert np.array_equal(a.x, b.x)
            assert a.lower == b.lower and a.upper == b.upper

    def test_partition_recorded(self, p1):
        report = solve_lshaped(p1, EngineConfig(scheme=parse_scheme("partial:T=2"), rel_tol=1e-6))
        assert any(rec.partition == ((0, 1),) for rec in report.history)


class TestRelativeComplexities:
    def test_definition(self, p1):
        cfg = lambda label: EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6)
        multi = solve_lshaped(p1, cfg("multi"))
        single = solve_lshaped(p1, cfg("single"))
        run = solve_lshaped(p1, cfg("partial:T=2"))
        rel_cut, rel_iter, rel_time = compute_relative_complexities(run, multi, single)
        assert rel_cut == run.n_cuts / multi.n_cuts
        assert rel_iter == run.n_iterations / single.n_iterations
        assert rel_time == run.wall_seconds / single.wall_seconds
        self_cut, _, _ = compute_relative_complexities(multi, multi, single)
        assert self_cut == 1.0
        _, self_iter, self_time = compute_relative_complexities(single, multi, single)
        assert self_iter == 1.0 and self_time == 1.0

    def test_requires_convergence(self, p1):
        good = solve_lshaped(p1, EngineConfig(rel_tol=1e-6))
        bad = solve_lshaped(p1, EngineConfig(rel_tol=1e-9, max_iterations=1))
        with pytest.raises(ValueError, match="converge"):
            compute_relative_complexities(bad, good, good)


class TestWarmMaster:
    @staticmethod
    def cold_master_pivots(prob, report):
        """Pivots of a cold solve of each iteration's master, rebuilt from
        the report's cuts; also checks the recorded master size and bound."""
        from lshaped.engine import _Master

        pivots = []
        for rec in report.history:
            master = _Master(prob, prob.n_scenarios)
            for cut in report.cuts:
                if cut.iteration < rec.index:
                    master.add_optimality(np.append(cut.grad, cut.offset)[None],
                                          np.array(cut.members), np.array([0, len(cut.members)]))
            lp = master.program().dense()
            sol = solve_lp(lp)
            assert rec.master_rows == lp.A.shape[0]
            if master.all_covered:
                assert sol.objective == pytest.approx(rec.lower, rel=1e-9, abs=1e-9)
            pivots.append(sol.pivots)
        return pivots

    def test_multi_cut_warm_start_saves_pivots(self):
        prob = sample_instance(trend_template(3), 60, 3)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6))
        assert report.n_iterations >= 3  # at least one warm-started master
        cold = self.cold_master_pivots(prob, report)
        warm = [rec.master_pivots for rec in report.history]
        assert sum(warm) < sum(cold)

    def test_aggregated_master_warm_start_saves_pivots(self):
        prob = sample_instance(trend_template(3), 60, 3)
        report = solve_lshaped(
            prob, EngineConfig(scheme=parse_scheme("kmedoids:k=5"), rel_tol=1e-6)
        )
        assert report.n_iterations >= 3  # at least one warm-started master
        cold = self.cold_master_pivots(prob, report)
        warm = [rec.master_pivots for rec in report.history]
        assert sum(warm) < sum(cold)

    @pytest.mark.parametrize("label", ["kmedoids:k=1", "closest:A=1"])
    def test_masters_over_every_granule_are_warm_after_the_first(self, label, monkeypatch):
        # one aggregate over all scenarios each iteration: every row covers
        # every theta column, and every master after the first, the one
        # that covers them first included, starts from the last optimal basis
        import lshaped.engine as engine_mod
        import lshaped.simplex as simplex_mod
        from lshaped.simplex import GubProgram

        cold_solves = record_calls(monkeypatch, simplex_mod, "_solve_two_phase")
        original = engine_mod.solve_lp
        masters = []  # (start basis, cold solves it made)

        def solving(lp, **kwargs):
            before = len(cold_solves)
            sol = original(lp, **kwargs)
            if isinstance(lp, GubProgram):
                masters.append((kwargs.get("basis"), len(cold_solves) - before))
            return sol

        monkeypatch.setattr(engine_mod, "solve_lp", solving)
        prob = sample_instance(trend_template(3), 37, 3)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
        assert (report.n_iterations, report.n_cuts) == (5, 4)
        assert len(masters) == 5
        # the first master has no rows
        assert masters[0][0] is None
        assert all(basis is not None and cold == 0 for basis, cold in masters[1:])

    @pytest.mark.parametrize("label", ["single", "partial:T=5"])
    @pytest.mark.parametrize("kind", ["trend", "random"])
    def test_granule_master_matches_scenario_master(self, label, kind):
        # one theta column per granule: each lower bound is the optimum of
        # the master over one theta column per scenario with the same rows
        if kind == "trend":
            prob = sample_instance(trend_template(3), 60, 3)
        else:
            prob = random_instance(0, 40)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
        assert report.status == SolveStatus.CONVERGED
        assert all(math.isfinite(rec.lower) for rec in report.history[1:])
        self.cold_master_pivots(prob, report)

    def test_multi_cut_bitwise_repeatable(self):
        prob = sample_instance(trend_template(3), 60, 3)
        config = EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6)
        a, b = solve_lshaped(prob, config), solve_lshaped(prob, config)
        assert a.objective == b.objective
        assert np.array_equal(a.x, b.x)
        assert len(a.history) == len(b.history)
        for ra, rb in zip(a.history, b.history):
            assert np.array_equal(ra.x, rb.x)
            assert (ra.lower, ra.upper, ra.master_pivots, ra.master_rows) == (
                rb.lower, rb.upper, rb.master_pivots, rb.master_rows
            )
        for ca, cb in zip(a.cuts, b.cuts):
            assert np.array_equal(ca.grad, cb.grad) and ca.offset == cb.offset


def mixed_feasibility_problem():
    # scenario 0 always feasible, scenario 1 needs x <= 2; the first master
    # picks x = 5, so multi-cut masters after it carry a feasibility row
    first = FirstStage(c=[-1.0, 0.0], A=[[1.0, 1.0]], b=[5.0])
    return TwoStageProblem.from_scenarios(
        first=first, W=[[1.0]],
        scenarios=(
            Scenario(0.5, [1.0], [[-1.0, 0.0]], [0.5]),
            Scenario(0.5, [1.0], [[1.0, 0.0]], [2.0]),
        ),
    )


def per_row_master_matrix(master):
    """The master's [X | Theta | -S] matrix written out row by row."""
    n, p, m = master.problem.first.n, master.p, len(master.offsets)
    want = np.zeros((m, n + master.n_theta + m - p))
    want[:, :n] = master.grads
    for i, cols in enumerate(groups_of(master.granules, master.starts)):
        for t in cols:
            want[p + i, n + t] = 1.0
        want[p + i, n + master.n_theta + i] = -1.0
    return want


class TestMasterBuild:
    def test_theta_entries_match_a_per_row_loop(self, monkeypatch):
        from lshaped.engine import _Master

        built = []
        original = _Master.program

        def recording(self):
            built.append(self)
            return original(self)

        monkeypatch.setattr(_Master, "program", recording)
        prob = sample_instance(trend_template(3), 60, 3)
        solve_lshaped(prob, EngineConfig(scheme=parse_scheme("kmedoids:k=5"), rel_tol=1e-6))
        master = built[-1]
        master.add_feasibility(np.append(-np.ones(prob.n), -50.0)[None])
        assert len(set(np.diff(master.starts).tolist())) > 2  # 0 and mixed widths
        want = per_row_master_matrix(master)
        lp = master.program()
        assert not lp.A.one_per_row
        assert lp.dense().A.tobytes() == want.tobytes()
        # the products of the pair form agree with the array
        rng = np.random.default_rng(0)
        v, y = rng.normal(size=want.shape[1]), rng.normal(size=want.shape[0])
        np.testing.assert_allclose(lp.A @ v, want @ v, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(y @ lp.A, y @ want, rtol=1e-12, atol=1e-12)
        for j in range(want.shape[1]):
            assert np.array_equal(lp.A.column(j), want[:, j]), j

    def test_optimality_cuts_skip_feasibility_rows(self):
        from lshaped.engine import _Master

        master = _Master(mixed_feasibility_problem(), 2)
        master.add_optimality(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]), np.array([1, 0]),
                              np.array([0, 1, 2]))
        master.add_feasibility(np.array([[1.0, 0.0, 4.0]]))
        master.add_optimality(np.array([[0.5, 0.5, 3.0]]), np.array([0, 1]), np.array([0, 2]))
        assert master.all_covered
        rows, granules, starts = master.optimality_cuts()
        assert rows.tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 2.0], [0.5, 0.5, 3.0]]
        assert groups_of(granules, starts) == [[1], [0], [0, 1]]


class TestFieldNames:
    """Each iteration's fields carry one name in the API, the solve JSON
    and the DEBUG line."""

    @pytest.mark.parametrize("kind", ["feasibility", "converged"])
    def test_outputs_agree_on_field_names(self, kind, caplog):
        import json

        from lshaped.cli import _report_json

        if kind == "feasibility":
            prob, label = mixed_feasibility_problem(), "multi"
        else:
            prob, label = sample_instance(trend_template(3), 60, 3), "partial:T=7"
        with caplog.at_level("DEBUG", logger="lshaped.engine"):
            report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
        assert report.status == SolveStatus.CONVERGED
        history = report.history
        assert any(rec.feasibility_cuts for rec in history) == (kind == "feasibility")
        scalars = [name for name in history[0].__slots__
                   if isinstance(getattr(history[0], name), (int, float))]
        assert {"index", "lower", "upper", "cuts_added", "master_s"} <= set(scalars)
        doc = json.loads(json.dumps(_report_json(report)))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("iteration")]
        assert len(lines) == len(doc["iterations"]) == len(history)
        for rec, obj, line in zip(history, doc["iterations"], lines):
            # the DEBUG line leads with the index as "iteration k:", the JSON names it k
            lead, _, rest = line.partition(": ")
            words = rest.split()
            pairs = dict(zip(words[::2], words[1::2]))
            assert lead == f"iteration {rec.index}" and len(pairs) == len(words) // 2
            for name in scalars:
                value = getattr(rec, name)
                assert name in report.iterations.dtype.names, name
                assert obj["k" if name == "index" else name] == (
                    value if math.isfinite(value) else None
                ), name
                if name != "index":
                    logged = float(pairs[name])
                    assert logged == value or logged == pytest.approx(value, rel=1e-2), name


class TestGubMaster:
    """Every master after the first starts from the last optimal basis,
    on the key-row (GUB) basis while each row covers at most one theta
    column and on the dense simplex otherwise; every master, warm or cold,
    must agree with a dense cold solve of ``_Master.program().dense()`` and
    pass ``verify_kkt``."""

    @staticmethod
    def install_check(monkeypatch):
        """Wrap ``_Master.solve`` so that every master is re-solved cold and
        densely; returns the per-master records of the warm-started ones."""
        import lshaped.engine as engine_mod
        import lshaped.simplex as simplex_mod
        from lshaped.engine import _Master

        records = []
        cold_solves = record_calls(monkeypatch, simplex_mod, "_solve_two_phase")
        solves = record_calls(monkeypatch, engine_mod, "solve_lp")
        original = _Master.solve

        def solve(self):
            cold_solves.clear()
            solves.clear()
            sol = original(self)
            (_, kwargs, _), = solves
            lp = self.program().dense()
            if kwargs.get("basis") is not None:
                records.append(dict(
                    fallbacks=len(cold_solves),
                    feasibility_rows=int((np.diff(self.starts) == 0).sum()),
                ))
                n = self.problem.first.n
                covered = set(self.granules.tolist())
                c = [1.0 if j - n in covered else 0.0 for j in range(n, lp.A.shape[1])]
                assert np.array_equal(lp.A, per_row_master_matrix(self))
                assert np.array_equal(lp.b, self.offsets)
                assert np.array_equal(lp.c, np.r_[self.problem.first.c, c])
            dense = solve_lp(lp)
            assert sol.status is dense.status
            if sol.status is LpStatus.OPTIMAL:
                assert sol.objective == pytest.approx(dense.objective, rel=1e-9, abs=1e-12)
                # the GUB program has the dense column layout, so its
                # (x, duals) map onto its dense form one to one
                assert sol.x.shape == (lp.A.shape[1],) and sol.duals.shape == lp.b.shape
                rep = verify_kkt(lp, sol)
                assert max(rep.primal, rep.dual, rep.complementarity) <= 1e-8
            return sol

        monkeypatch.setattr(_Master, "solve", solve)
        return records

    @pytest.mark.parametrize("label, kind, seed", [
        pytest.param(label, kind, seed,
                     id=f"{kind}-{seed}" if label == "multi" else f"{label}-{kind}-{seed}")
        for label in ("multi", "single", "partial:T=5", "granulated:T0=3,inner=multi",
                      "kmedoids:k=3", "closest:A=4", "granulated:T0=3,inner=kmedoids:k=3",
                      "kmedoids:k=1")
        for kind, seed in [("trend", s) for s in range(3, 7)] + [("random", s) for s in range(4)]
    ])
    def test_masters_match_dense_cold_solve(self, label, kind, seed, monkeypatch):
        if kind == "trend":
            prob = sample_instance(trend_template(seed), 60, seed)
        else:
            prob = random_instance(seed, 40)
        records = self.install_check(monkeypatch)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
        assert report.status == SolveStatus.CONVERGED
        # every master but the first is warm, whatever the rows' widths
        assert len(records) == report.n_iterations - 1
        assert sum(r["fallbacks"] for r in records) == 0

    def test_master_with_feasibility_rows(self, monkeypatch):
        records = self.install_check(monkeypatch)
        report = solve_lshaped(
            mixed_feasibility_problem(),
            EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6),
        )
        assert report.status == SolveStatus.CONVERGED
        assert records and all(r["feasibility_rows"] == 1 for r in records)
        assert sum(r["fallbacks"] for r in records) == 0

    def test_feasibility_only_master_is_warm_on_key_rows(self, monkeypatch):
        import lshaped.engine as engine_mod
        import lshaped.simplex as simplex_mod
        from lshaped.simplex import GubProgram

        cold_solves = record_calls(monkeypatch, simplex_mod, "_solve_two_phase")
        original = engine_mod.solve_lp
        masters = []  # (program, start basis, cold solves it made)

        def solving(lp, **kwargs):
            before = len(cold_solves)
            sol = original(lp, **kwargs)
            if isinstance(lp, GubProgram):
                masters.append((lp, kwargs.get("basis"), len(cold_solves) - before))
            return sol

        monkeypatch.setattr(engine_mod, "solve_lp", solving)
        report = solve_lshaped(
            mixed_feasibility_problem(),
            EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6),
        )
        assert report.status == SolveStatus.CONVERGED
        feasibility_only = [(basis, cold) for lp, basis, cold in masters
                            if lp.A.shape[0] > lp.A.p and not len(lp.A.theta_rows)]
        assert feasibility_only
        assert all(basis is not None and cold == 0 for basis, cold in feasibility_only)
        assert all(cold == 0 for _, basis, cold in masters if basis is not None)

    @pytest.mark.parametrize("label", ["multi", "partial:T=5", "granulated:T0=3,inner=multi",
                                       "kmedoids:k=3", "closest:A=4",
                                       "granulated:T0=3,inner=kmedoids:k=3"])
    @pytest.mark.parametrize("kind, seed", [("trend", 3), ("trend", 5), ("random", 1)])
    def test_fresh_theta_has_one_row(self, label, kind, seed, monkeypatch):
        # the loop adds one partition per master solve, so each theta column
        # covered for the first time is in exactly one row when it is crashed
        from lshaped.engine import _Master

        rows_per_fresh = []
        original = _Master._crash

        def crash(self, start, A):
            theta = A.theta_of_rows[self.fresh[A.theta_of_rows]]
            rows_per_fresh.extend(np.bincount(theta)[theta].tolist())
            return original(self, start, A)

        monkeypatch.setattr(_Master, "_crash", crash)
        if kind == "trend":
            prob = sample_instance(trend_template(seed), 60, seed)
        else:
            prob = random_instance(seed, 40)
        solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
        assert rows_per_fresh and set(rows_per_fresh) == {1}

    def test_crashed_start_is_optimal(self, monkeypatch):
        import lshaped.engine as engine_mod
        from lshaped.engine import _Master

        calls = record_calls(monkeypatch, engine_mod, "solve_lp")
        master = _Master(mixed_feasibility_problem(), 2)
        master.solve()  # first-stage row only: x = (5, 0)
        # one row per theta column: x2 + theta0 >= 3 and 0.2 x1 + theta1 >= 2
        master.add_optimality(np.array([[0.0, 1.0, 3.0], [0.2, 0.0, 2.0]]), np.array([0, 1]),
                              np.array([0, 1, 2]))
        sol = master.solve()
        n = 2
        assert calls[-1][1]["basis"].tolist() == [0, n + 0, n + 1]
        assert sol.status is LpStatus.OPTIMAL
        assert sol.pivots == 0  # the crashed start is already optimal here

    def test_multi_granule_rows_key_their_highest_fresh_column(self, monkeypatch):
        import lshaped.engine as engine_mod
        import lshaped.simplex as simplex_mod
        from lshaped.engine import _Master

        calls = record_calls(monkeypatch, engine_mod, "solve_lp")
        cold_solves = record_calls(monkeypatch, simplex_mod, "_solve_two_phase")
        master = _Master(mixed_feasibility_problem(), 3)
        master.solve()  # first-stage row only: x = (5, 0)
        # one row over granules {0, 1}, one over {2}
        master.add_optimality(np.array([[0.0, 1.0, 3.0], [0.2, 0.0, 2.0]]),
                              np.array([0, 1, 2]), np.array([0, 2, 3]))
        cold_solves.clear()
        sol = master.solve()
        n = 2
        assert calls[-1][1]["basis"].tolist() == [0, n + 1, n + 2]
        assert not cold_solves
        dense = solve_lp(master.program().dense())
        assert sol.status is dense.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(dense.objective, rel=1e-12, abs=1e-12)

    def test_rows_sharing_a_fresh_column_key_it_once(self, monkeypatch):
        import lshaped.engine as engine_mod
        from lshaped.engine import _Master

        calls = record_calls(monkeypatch, engine_mod, "solve_lp")
        master = _Master(mixed_feasibility_problem(), 1)
        master.solve()  # first-stage row only: x = (5, 0)
        # two new rows over granule 0: only the first is keyed with its
        # theta column, and the second keeps its surplus basic
        master.add_optimality(np.array([[0.0, 1.0, 3.0], [0.2, 0.0, 2.0]]),
                              np.array([0, 0]), np.array([0, 1, 2]))
        sol = master.solve()
        n = 2
        # columns x (2), theta (1), then one surplus per cut row
        assert calls[-1][1]["basis"].tolist() == [0, n, n + 2]
        dense = solve_lp(master.program().dense())
        assert sol.status is dense.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(dense.objective, rel=1e-12, abs=1e-12)

    def test_multi_cut_infeasible_master_has_farkas_ray(self, monkeypatch):
        import lshaped.engine as engine_mod

        calls = record_calls(monkeypatch, engine_mod, "solve_lp")
        report = solve_lshaped(
            infeasible_recourse_problem(),
            EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6),
        )
        assert report.status == SolveStatus.MASTER_INFEASIBLE
        (lp,), _, sol = calls[-1]
        assert sol.status is LpStatus.INFEASIBLE
        assert verify_farkas(lp, sol.farkas)

    def test_infeasible_gub_master_falls_back_to_farkas_ray(self, monkeypatch):
        import lshaped.engine as engine_mod
        from lshaped.engine import _Master
        from lshaped.simplex import GubProgram

        calls = record_calls(monkeypatch, engine_mod, "solve_lp")
        master = _Master(mixed_feasibility_problem(), 2)
        for t in (0, 1):
            master.add_optimality(np.array([[0.5, -0.25, 1.0 + t]]), np.array([t]),
                                  np.array([0, 1]))
        assert master.solve().status is LpStatus.OPTIMAL
        # x1 >= 4 and x1 <= 1 together exclude every first-stage point
        master.add_feasibility(np.array([[1.0, 0.0, 4.0]]))
        master.add_feasibility(np.array([[-1.0, 0.0, -1.0]]))
        sol = master.solve()
        assert isinstance(calls[-1][0][0], GubProgram)
        assert sol.status is LpStatus.INFEASIBLE
        assert verify_farkas(master.program().dense(), sol.farkas)
        assert verify_farkas(master.program(), sol.farkas)


#: trend_template(3), N=60, seed 3, rel_tol=1e-6: iterations, cuts, and per
#: iteration master_pivots, master_rows and sub_solves
PINNED_COUNTS = {
    "multi": (4, 135, [2, 1, 28, 20], [1, 61, 116, 136], [2, 2, 0, 0]),
    "single": (6, 5, [2, 1, 1, 1, 1, 1], [1, 2, 3, 4, 5, 6], [2, 2, 0, 0, 0, 0]),
    "partial:T=5": (5, 37, [2, 1, 6, 17, 1], [1, 13, 25, 37, 38], [2, 2, 0, 0, 0]),
    "granulated:T0=4,inner=kmedoids:k=3": (
        6, 14, [2, 1, 3, 3, 3, 2], [1, 4, 7, 10, 13, 15], [2, 2, 0, 0, 0, 0],
    ),
    "closest:A=4": (6, 23, [2, 1, 6, 4, 4, 3], [1, 7, 13, 17, 21, 24], [2, 2, 0, 0, 0, 0]),
}


@pytest.mark.parametrize("label", list(PINNED_COUNTS))
def test_pinned_counts(label):
    """Deterministic counts; a change to pivoting on the GUB or the dense
    master, to bunching or to aggregation shows up here first."""
    prob = sample_instance(trend_template(3), 60, 3)
    report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
    history = report.history
    assert (
        report.n_iterations, report.n_cuts,
        [rec.master_pivots for rec in history],
        [rec.master_rows for rec in history],
        [rec.sub_solves for rec in history],
    ) == PINNED_COUNTS[label]


class TestTermination:
    def test_gap(self):
        prob = sample_instance(trend_template(3), 60, 3)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6))
        assert report.status == SolveStatus.CONVERGED
        assert report.termination == Termination.GAP
        assert 0.0 <= report.final_gap <= 1e-6

    def test_no_violated_aggregate(self):
        # a gap tolerance below rounding is never reached: the run stops
        # when the iterate violates no aggregate
        prob = sample_instance(trend_template(3), 20, 3)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-300))
        assert report.status == SolveStatus.CONVERGED
        assert report.termination == Termination.NO_VIOLATED_AGGREGATE
        history = report.history
        assert history[-1].cuts_added == 0
        upper_best = min(rec.upper for rec in history)
        gap = (upper_best - history[-1].lower) / max(1.0, abs(upper_best))
        assert report.final_gap == gap > report.rel_tol

    def test_iteration_limit(self, p1):
        report = solve_lshaped(p1, EngineConfig(rel_tol=1e-9, max_iterations=1))
        assert report.status == SolveStatus.ITERATION_LIMIT
        assert report.termination == Termination.ITERATION_LIMIT
        assert report.final_gap == math.inf  # the first master bounds nothing

    def test_master_infeasible(self):
        report = solve_lshaped(infeasible_recourse_problem(), EngineConfig(rel_tol=1e-6))
        assert report.status == SolveStatus.MASTER_INFEASIBLE
        assert report.termination == Termination.MASTER_INFEASIBLE
        assert report.final_gap == math.inf

    def test_final_debug_line(self, caplog):
        prob = sample_instance(trend_template(3), 20, 3)
        with caplog.at_level("DEBUG", logger="lshaped.engine"):
            report = solve_lshaped(
                prob, EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-300)
            )
        last = caplog.records[-1].getMessage()
        assert last == (
            f"finished: termination no_violated_aggregate final_gap {report.final_gap:.3g} "
            f"iterations {report.n_iterations} cuts {report.n_cuts}"
        )


class TestSummedFilterRow:
    """Under an inner rule the aggregates the iterate satisfies enter as one
    summed row, so every iteration's new rows add up to its single cut."""

    @pytest.mark.parametrize("template", ["trend", "wide"])
    @pytest.mark.parametrize("label", [
        "closest:A=4", "kmedoids:k=3", "granulated:T0=4,inner=kmedoids:k=3",
    ])
    def test_new_rows_add_up_to_the_single_cut(self, label, template, monkeypatch):
        import lshaped.engine

        granule_rows = []
        original = lshaped.engine.granulate

        def recording(rows, block):
            granule_rows.append(original(rows, block))
            return granule_rows[-1]

        monkeypatch.setattr(lshaped.engine, "granulate", recording)
        if template == "trend":
            prob = sample_instance(trend_template(3), 60, 3)
        else:
            prob = sample_instance(wide_template(5), 60, 1)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
        assert report.status == SolveStatus.CONVERGED
        its = report.iterations
        aggregated = its["cuts_added"] + its["cuts_skipped"] > 0
        assert aggregated.sum() == len(granule_rows)
        cuts = report.cuts
        checked = 0
        for rec, rows in zip([r for r in report.history if r.cuts_added], granule_rows):
            # each theta column once, so each scenario once
            members = sorted(s for group in rec.partition for s in group)
            assert members == list(range(prob.n_scenarios)), rec.index
            added = np.array([np.append(c.grad, c.offset) for c in cuts if c.iteration == rec.index])
            scale = np.abs(rows).sum(axis=0)
            assert (np.abs(added.sum(axis=0) - rows.sum(axis=0)) <= 1e-12 * scale).all(), rec.index
            checked += 1
        assert checked == its["cuts_added"].astype(bool).sum() >= 2

    def test_all_distinct_dynamic_runs_keep_pace_with_single_cut(self):
        prob = sample_instance(wide_template(5), 200, 1)
        outcomes = np.column_stack([prob.T.reshape(200, -1), prob.H])
        assert len(np.unique(outcomes, axis=0)) == 200
        single = solve_lshaped(prob, EngineConfig(scheme=parse_scheme("single"), rel_tol=1e-6))
        for label in ("kmedoids:k=10", "closest:A=8"):
            report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
            assert report.termination == Termination.GAP, label
            assert report.objective == pytest.approx(single.objective, rel=2e-6), label
            assert report.n_iterations <= 1.25 * single.n_iterations, label

    def test_no_violated_aggregate_under_an_inner_rule(self):
        prob = sample_instance(trend_template(3), 60, 3)
        report = solve_lshaped(
            prob, EngineConfig(scheme=parse_scheme("kmedoids:k=3"), rel_tol=1e-300)
        )
        assert report.termination == Termination.NO_VIOLATED_AGGREGATE
        last = report.history[-1]
        assert (last.cuts_added, last.cuts_skipped, last.partition) == (0, 3, ())

    def test_filter_folds_two_or_more_skipped_aggregates(self):
        from lshaped.engine import _filter

        rows = np.arange(20, dtype=float).reshape(5, 4) - 7.5
        granules = np.array([4, 0, 5, 1, 6, 2, 3, 7])
        starts = np.array([0, 1, 3, 4, 6, 8])
        keep = np.array([False, True, False, True, False])
        # without an inner rule the satisfied aggregates are dropped
        out, cols, edges, skipped = _filter(rows, granules, starts, keep, fold=False)
        assert out.tolist() == rows[[1, 3]].tolist() and skipped == 3
        assert cols.tolist() == [0, 5, 6, 2] and edges.tolist() == [0, 2, 4]
        # with one they enter after the violated ones as one summed row
        out, cols, edges, skipped = _filter(rows, granules, starts, keep, fold=True)
        assert out[:2].tolist() == rows[[1, 3]].tolist() and skipped == 3
        assert out[2].tobytes() == rows[[0, 2, 4]].sum(axis=0).tobytes()
        assert cols.tolist() == [0, 5, 6, 2, 1, 3, 4, 7] and edges.tolist() == [0, 2, 4, 8]
        # a single satisfied aggregate enters as itself, in place
        keep = np.array([True, True, False, True, True])
        out, cols, edges, skipped = _filter(rows, granules, starts, keep, fold=True)
        assert out is rows and cols is granules and edges is starts and skipped == 0


class TestViolationFilter:
    """``cuts.violated`` tests all of an iteration's aggregates in one pass;
    it must keep and drop the aggregates that the per-aggregate loop does."""

    @pytest.mark.parametrize("template", ["trend", "wide"])
    @pytest.mark.parametrize("label", [
        "multi", "partial:T=5", "closest:A=4", "kmedoids:k=3",
        "granulated:T0=4,inner=kmedoids:k=3", "granulated:T0=4,inner=closest:A=3",
    ])
    def test_decisions_match_the_per_aggregate_reference(self, label, template, monkeypatch):
        import lshaped.engine

        calls = record_calls(monkeypatch, lshaped.engine, "violated")
        if template == "trend":
            prob = sample_instance(trend_template(3), 60, 3)
        else:
            prob = sample_instance(wide_template(5), 60, 1)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
        assert report.status == SolveStatus.CONVERGED
        # every iteration that aggregated cuts after the first covering one
        its = report.iterations
        assert len(calls) == (its["cuts_added"] + its["cuts_skipped"] > 0).sum() - 1
        kept = decisions = 0
        for args, _, keep in calls:
            assert np.array_equal(keep, reference_violation(*args))
            kept += int(keep.sum())
            decisions += len(keep)
        assert 0 < kept < decisions


def recourse_lp(problem, s, x) -> LinearProgram:
    """The recourse LP of scenario s at first-stage point x."""
    return LinearProgram(
        c=problem.Q[s], A=problem.W, b=problem.H[s] - problem.T[s] @ x,
        lb=np.zeros(problem.m), ub=np.full(problem.m, np.inf),
    )


def first_stage_points(problem, count, seed):
    """Points of the first-stage simplex {x >= 0, sum x = b}: its vertices,
    then random interior points."""
    rng = np.random.default_rng(seed)
    b = problem.first.b[0]
    return [b * e for e in np.eye(problem.n)] + [
        b * rng.dirichlet(np.ones(problem.n)) for _ in range(count)
    ]


class TestScenarioEvaluator:
    """The bunching evaluator against per-scenario cold solves."""

    @pytest.mark.parametrize(
        "name, prob", [pytest.param(name, prob, id=name) for name, prob in evaluator_instances()]
    )
    def test_matches_per_scenario_solves(self, name, prob):
        from lshaped.engine import ScenarioEvaluator

        evaluator = ScenarioEvaluator(prob)  # one cache across the points, as in a solve
        compared = 0
        for x in first_stage_points(prob, 6, seed=len(name)):
            batch = evaluator.evaluate(x)
            ref = ReferenceEvaluator(prob).evaluate(x)
            assert sorted(batch.farkas) == sorted(ref.farkas), name
            for s, sigma in batch.farkas.items():
                assert verify_farkas(recourse_lp(prob, s, x), sigma)
            for s in range(prob.n_scenarios):
                if s in ref.farkas:
                    assert np.isnan(batch.values[s])
                    continue
                value, lam = batch.values[s], batch.duals[s]
                assert abs(value - ref.values[s]) <= 1e-12 * max(1.0, abs(ref.values[s]))
                resid = prob.H[s] - prob.T[s] @ x
                reduced = prob.Q[s] - lam @ prob.W
                assert reduced.min() >= -1e-9
                assert lam @ resid == pytest.approx(value, rel=1e-9, abs=1e-9)
                if np.abs(resid).min() > 1e-9:
                    assert np.array_equal(lam, ref.duals[s]), (name, s)
                    compared += 1
        assert compared > 0
        # a redundant row leaves an artificial column basic at the end of every
        # cold solve, so the solve returns no basis and none is ever cached
        assert len(evaluator.bases) >= 1 or name in ("infeasible recourse", "dependent rows")

    @pytest.mark.parametrize("label", ["multi", "single", "granulated:T0=3,inner=kmedoids:k=3"])
    @pytest.mark.parametrize(
        "name, prob", [pytest.param(name, prob, id=name) for name, prob in evaluator_instances()]
    )
    def test_every_result_of_a_solve_checks(self, name, prob, label, monkeypatch):
        """At every iterate of a full solve: each feasible scenario's duals
        are dual feasible and give its value, each Farkas ray certifies,
        and each cold solve passes ``verify_kkt`` or ``verify_farkas``."""
        import lshaped.engine

        evaluations = record_calls(monkeypatch, lshaped.engine.ScenarioEvaluator, "evaluate")
        cold = record_calls(monkeypatch, lshaped.engine, "solve_subproblem")
        solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
        rays = 0
        for (_, x), _, res in evaluations:
            for s in range(prob.n_scenarios):
                if s in res.farkas:
                    assert np.isnan(res.values[s])
                    assert verify_farkas(recourse_lp(prob, s, x), res.farkas[s]), (name, s)
                    rays += 1
                    continue
                lam, resid = res.duals[s], prob.H[s] - prob.T[s] @ x
                assert (prob.Q[s] - lam @ prob.W).min() >= -1e-9, (name, s)
                assert lam @ resid == pytest.approx(res.values[s], rel=1e-9, abs=1e-9)
        assert (rays > 0) == (name == "infeasible recourse")
        assert cold
        for (_, s, x), _, sol in cold:
            lp = recourse_lp(prob, s, x)
            if sol.status is LpStatus.INFEASIBLE:
                assert verify_farkas(lp, sol.farkas), (name, s)
                continue
            rep = verify_kkt(lp, sol)
            scale = max(1.0, np.abs(lp.b).max())
            assert max(rep.primal, rep.dual, rep.complementarity) <= 1e-8 * scale, (name, s)

    def test_cold_solves_are_the_unfitted_scenarios(self):
        from lshaped.engine import ScenarioEvaluator

        prob = sample_instance(trend_template(3), 200, 3)
        evaluator = ScenarioEvaluator(prob)
        x = first_stage_points(prob, 1, seed=0)[0]
        first = evaluator.evaluate(x)
        assert 1 <= first.sub_solves <= len(evaluator.bases) < prob.n_scenarios
        again = evaluator.evaluate(x)  # every scenario now fits a cached basis
        assert again.sub_solves == 0
        assert np.array_equal(again.values, first.values)
        assert np.array_equal(again.duals, first.duals)

    @pytest.mark.parametrize(
        "label", ["multi", "single", "partial:T=4", "closest:A=4,tau=0.3", "kmedoids:k=3",
                  "granulated:T0=4,inner=kmedoids:k=3"],
    )
    def test_engine_matches_per_scenario_reference(self, label, monkeypatch):
        import lshaped.engine

        instances = [random_instance(seed, 24) for seed in range(6)] + [
            sample_instance(trend_template(seed), 40, seed) for seed in (1, 2)
        ]
        config = EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6)
        batched = [solve_lshaped(prob, config) for prob in instances]
        monkeypatch.setattr(lshaped.engine, "ScenarioEvaluator", ReferenceEvaluator)
        for prob, a in zip(instances, batched):
            b = solve_lshaped(prob, config)
            assert (a.status, a.n_iterations, a.n_cuts) == (b.status, b.n_iterations, b.n_cuts)
            assert a.objective == pytest.approx(b.objective, rel=1e-9, abs=1e-9)
            assert sum(r.sub_solves for r in a.history) <= sum(r.sub_solves for r in b.history)

    @pytest.mark.parametrize("label", ["single", "granulated:T0=4,inner=kmedoids:k=3"])
    def test_repeated_solve_is_bitwise_identical(self, label):
        # each solve starts with an empty basis cache and finds the same bases
        prob = sample_instance(trend_template(4), 120, 4)
        config = EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6)
        a, b = solve_lshaped(prob, config), solve_lshaped(prob, config)
        assert a.objective == b.objective
        for name in a.iterations.dtype.names:
            if not name.endswith("_s"):
                assert np.array_equal(a.iterations[name], b.iterations[name]), name
        for name in ("cut_grads", "cut_offsets", "cut_granules", "cut_starts"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_sub_solves_count_every_cold_solve(self, monkeypatch):
        import lshaped.engine

        calls = []
        original = lshaped.engine.solve_subproblem

        def counting(problem, s, x):
            calls.append(s)
            return original(problem, s, x)

        monkeypatch.setattr(lshaped.engine, "solve_subproblem", counting)
        prob = sample_instance(trend_template(3), 200, 3)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme("single"), rel_tol=1e-6))
        assert report.status == SolveStatus.CONVERGED
        total = sum(rec.sub_solves for rec in report.history)
        assert len(calls) == total
        assert 0 < total < prob.n_scenarios

    def test_debug_log_reports_sub_solves(self, caplog):
        prob = sample_instance(trend_template(3), 60, 3)
        with caplog.at_level("DEBUG", logger="lshaped.engine"):
            report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme("single"), rel_tol=1e-6))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("iteration")]
        assert len(lines) == len(report.history)
        for line, rec in zip(lines, report.history):
            assert f" sub_solves {rec.sub_solves} " in line

    @pytest.mark.parametrize("label", ["multi", "single"])
    def test_master_time_per_iteration(self, label, caplog):
        prob = sample_instance(trend_template(3), 60, 3)
        with caplog.at_level("DEBUG", logger="lshaped.engine"):
            report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
        times = report.iterations["master_s"]
        assert times.dtype == np.float64 and times.shape == (report.n_iterations,)
        assert (times >= 0).all() and times.sum() <= report.wall_seconds
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("iteration")]
        assert len(lines) == len(report.history)
        for line, rec, t in zip(lines, report.history, times.tolist()):
            assert rec.master_s == t
            assert f" master_s {t:.3g} " in line

    @pytest.mark.parametrize("kind", ["feasibility", "multi", "granulated"])
    def test_phase_times_and_gap_per_iteration(self, kind):
        if kind == "feasibility":
            prob, label = mixed_feasibility_problem(), "multi"
        else:
            prob = sample_instance(trend_template(3), 60, 3)
            label = "multi" if kind == "multi" else "granulated:T0=3,inner=kmedoids:k=4"
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
        its = report.iterations
        times = sum(its[name] for name in ("sub_s", "filter_s", "master_s", "agg_s"))
        assert all((its[name] >= 0).all() for name in ("sub_s", "filter_s"))
        assert times.sum() <= report.wall_seconds
        # only an iteration that aggregated cuts filtered them
        filtered = its["cuts_added"] + its["cuts_skipped"] > 0
        assert ((its["filter_s"] > 0) == filtered).all()
        upper_best, gaps = math.inf, []
        for rec in report.history:
            if rec.feasibility_cuts:
                gaps.append(math.inf)
                continue
            upper_best = min(upper_best, rec.upper)
            gaps.append((upper_best - rec.lower) / max(1.0, abs(upper_best)))
        assert its["gap"].tolist() == gaps
        assert report.final_gap == [g for g, rec in zip(gaps, report.history)
                                    if not rec.feasibility_cuts][-1]
        assert any(rec.feasibility_cuts for rec in report.history) == (kind == "feasibility")

    def test_kept_aggregates_enter_the_master_in_one_call(self, monkeypatch):
        from lshaped.engine import _Master

        calls = record_calls(monkeypatch, _Master, "add_optimality")
        prob = sample_instance(trend_template(3), 60, 3)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6))
        added = report.iterations["cuts_added"]
        assert [len(args[1]) for args, _, _ in calls] == added[added > 0].tolist()
        assert (report.iterations["cuts_skipped"] > 0).any()

    @pytest.mark.parametrize("label", ["multi", "granulated:T0=3,inner=kmedoids:k=4"])
    def test_aggregation_time_per_iteration(self, label, caplog):
        prob = sample_instance(trend_template(3), 60, 3)
        with caplog.at_level("DEBUG", logger="lshaped.engine"):
            report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
        times = report.iterations["agg_s"]
        assert times.dtype == np.float64 and times.shape == (report.n_iterations,)
        assert (times >= 0).all() and times.sum() <= report.wall_seconds
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("iteration")]
        assert len(lines) == len(report.history)
        for line, rec, t in zip(lines, report.history, times.tolist()):
            assert rec.agg_s == t
            assert f" master_s {rec.master_s:.3g} agg_s {t:.3g} master_pivots " in line
            # an iteration that aggregated cuts took time doing it
            assert (t > 0) == (rec.cuts_added + rec.cuts_skipped > 0)


class TestStackedCuts:
    """One iteration's cuts travel as stacked (grad, offset) rows from the
    dual batch to the master; the engine must take the same sums and make
    the same placements as aggregating ``OptimalityCut`` objects."""

    @pytest.mark.parametrize("label", [
        "multi", "single", "partial:T=7", "kmedoids:k=6,measure=angular",
        "kmedoids:k=6,measure=absolute", "kmedoids:k=6,measure=spatioangular",
        "closest:A=4", "closest:A=4,measure=absolute", "closest:A=4,measure=spatioangular",
        "granulated:T0=3,inner=kmedoids:k=4", "granulated:T0=4,inner=closest:A=3",
        "granulated:T0=3,inner=closest:A=3,measure=spatioangular",
    ])
    def test_engine_matches_object_reference(self, label, monkeypatch):
        import lshaped.engine

        # N is a multiple of none of the block sizes 3, 4 and 7
        instances = [sample_instance(trend_template(seed), N, seed)
                     for seed, N in ((3, 50), (5, 61))]
        config = EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6)
        stacked = [solve_lshaped(prob, config) for prob in instances]
        monkeypatch.setattr(lshaped.engine, "_aggregate", reference_aggregate)
        for prob, a in zip(instances, stacked):
            b = solve_lshaped(prob, config)
            assert a.status == b.status == SolveStatus.CONVERGED
            assert a.cut_rows.tobytes() == b.cut_rows.tobytes()
            assert np.array_equal(a.cut_row_of, b.cut_row_of)
            assert np.array_equal(a.cut_granules, b.cut_granules)
            assert np.array_equal(a.cut_starts, b.cut_starts)
            for name in a.iterations.dtype.names:
                if not name.endswith("_s"):
                    assert np.array_equal(a.iterations[name], b.iterations[name]), name
            assert a.objective.hex() == b.objective.hex()

    @pytest.mark.parametrize("label", [
        "single", "partial:T=5", "kmedoids:k=4", "granulated:T0=4,inner=kmedoids:k=3",
        "closest:A=4", "closest:A=3,measure=absolute",
        "granulated:T0=4,inner=closest:A=3,measure=spatioangular",
    ])
    def test_a_solve_constructs_no_cut_objects(self, label, monkeypatch):
        import lshaped

        class NoCut:
            # no slots: a cut made with object.__new__ cannot be filled in
            __slots__ = ()

            def __new__(cls, *args, **kwargs):
                raise AssertionError("a solve constructed an OptimalityCut")

        for name in ("aggregation", "cuts", "engine"):
            module = getattr(lshaped, name)
            if hasattr(module, "OptimalityCut"):
                monkeypatch.setattr(module, "OptimalityCut", NoCut)
        prob = sample_instance(trend_template(3), 60, 3)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
        assert report.status == SolveStatus.CONVERGED and report.n_cuts > 0


class TestLeanReport:
    def test_iteration_points_own_their_memory(self):
        prob = sample_instance(trend_template(3), 60, 3)
        for label in ("multi", "single", "granulated:T0=4,inner=kmedoids:k=3"):
            report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
            assert all(rec.x.base is None for rec in report.history), label

    def test_iterations_are_one_record_per_iteration(self):
        # one structured array; reports of one n share its record type,
        # which alone would outweigh the records of a short run
        from lshaped.engine import IterationRecord

        prob = sample_instance(trend_template(3), 60, 3)
        single, multi = (
            solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
            for label in ("single", "multi")
        )
        for report in (single, multi):
            its = report.iterations
            assert its.shape == (report.n_iterations,)
            assert its["x"].shape == (report.n_iterations, prob.n)
            assert its.dtype.names == tuple(
                name for name in IterationRecord.__slots__ if name != "partition"
            )
        assert single.iterations.dtype is multi.iterations.dtype

    @pytest.mark.parametrize("label, limit_kib", [
        ("single", 8), ("multi", 60), ("partial:T=20", 12),
        ("granulated:T0=2,inner=kmedoids:k=10", 12),
    ])
    def test_retained_report_is_small(self, label, limit_kib):
        # about a quarter of what a report kept as objects retains
        prob = sample_instance(trend_template(3), 200, 3)
        config = EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6)
        solve_lshaped(prob, config)  # lazy scenario arrays and library caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = solve_lshaped(prob, config)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert report.status == SolveStatus.CONVERGED
        assert retained <= limit_kib * 1024

    def test_multi_cut_report_keeps_one_granule_per_cut(self):
        # a multi-cut run cuts for the same scenario in several iterations;
        # each cut keeps its one granule as an int32, not a scenario mask
        prob = sample_instance(trend_template(3), 200, 3)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6))
        sets = report._member_sets()
        assert len(sets) == report.n_cuts > 2 * prob.n_scenarios
        assert report.cut_granules.dtype == report.cut_starts.dtype == np.int32
        assert report.cut_starts.tolist() == list(range(report.n_cuts + 1))
        assert sets == [(g,) for g in report.cut_granules.tolist()]

    def test_history_reads_back_the_recorded_iterations(self, monkeypatch):
        from lshaped.engine import SolveReport

        recorded = []
        pack = SolveReport.pack.__func__

        def capturing(cls, history, *args, **kwargs):
            recorded.extend(history)
            return pack(cls, history, *args, **kwargs)

        monkeypatch.setattr(SolveReport, "pack", classmethod(capturing))
        prob = sample_instance(trend_template(3), 60, 3)
        report = solve_lshaped(
            prob, EngineConfig(scheme=parse_scheme("kmedoids:k=4"), rel_tol=1e-6)
        )
        history = report.history
        assert len(history) == len(recorded) == report.n_iterations >= 3
        cuts = report.cuts
        for got, want in zip(history, recorded):
            for name in got.__slots__:
                if name == "x":
                    assert np.array_equal(got.x, want.x)
                elif name == "partition":
                    # the loop leaves it to the report's cut member bits
                    assert want.partition == ()
                    assert got.partition == tuple(
                        cut.members for cut in cuts if cut.iteration == got.index
                    )
                else:
                    assert getattr(got, name) == getattr(want, name), name

    @pytest.mark.parametrize("label", [
        "multi", "single", "partial:T=5", "granulated:T0=4,inner=kmedoids:k=3",
        # 60 scenarios in granules of 7 and 8: the last granule is short
        "granulated:T0=7,inner=closest:A=3", "granulated:T0=8,inner=kmedoids:k=3",
    ])
    def test_cuts_are_the_master_rows_added(self, label, monkeypatch):
        from lshaped.engine import _Master

        prob = sample_instance(trend_template(3), 60, 3)
        block, _ = granulation(parse_scheme(label), prob.n_scenarios)
        added = []
        solves = record_calls(monkeypatch, _Master, "solve")
        original = _Master.add_optimality

        def recording(self, rows, granules, starts):
            # each iteration starts with one master solve; theta column g
            # is the granule of scenarios g * block up to the next block
            for row, cols in zip(rows, groups_of(granules, starts)):
                members = tuple(s for g in cols for s in
                                range(g * block, min(prob.n_scenarios, (g + 1) * block)))
                added.append((row.copy(), members, len(solves)))
            return original(self, rows, granules, starts)

        monkeypatch.setattr(_Master, "add_optimality", recording)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
        cuts = report.cuts
        assert len(cuts) == len(added) == report.n_cuts
        for got, (row, members, iteration) in zip(cuts, added):
            assert np.array_equal(got.grad, row[:-1])
            assert got.offset == row[-1]
            assert got.members == members
            assert got.iteration == iteration
        assert [p for rec in report.history for p in rec.partition] == [
            members for _, members, _ in added
        ]
