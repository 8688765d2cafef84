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
    P1_OPTIMUM, ReferenceEvaluator, build_p1, random_instance, record_calls,
    reference_aggregate, trend_template,
)

SCHEME_LABELS = (
    "multi", "single", "partial:T=2", "uniform:T=2",
    "closest:A=4,tau=0.3", "kmedoids:k=3", "granulated:T0=2,inner=single",
)


def infeasible_recourse_problem():
    # y = h - x without surplus; the first stage pins x = 3 while recourse
    # needs x <= 2, so the feasibility cut makes the master infeasible
    first = FirstStage(c=[1.0], A=[[1.0]], b=[3.0])
    return TwoStageProblem(
        first=first, W=[[1.0]], scenarios=(Scenario(1.0, [1.0], [[1.0]], [2.0]),)
    )


class TestSubproblem:
    def test_p1_scenario_two_at_one(self, p1):
        res = solve_subproblem(p1, 1, np.array([1.0]))
        assert res.feasible
        assert res.value == pytest.approx(3.0)  # max(4 - 1, 0)
        assert res.duals[0] == pytest.approx(1.0)

    def test_p1_scenario_one_beyond_kink(self, p1):
        res = solve_subproblem(p1, 0, np.array([5.0]))
        assert res.feasible
        assert res.value == pytest.approx(0.0)
        assert res.duals[0] == pytest.approx(0.0)

    def test_dual_value_identity(self, p1):
        # duals satisfy lam'(h - T x) = Q_s(x)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(0.0, 5.0, 1)
            for s, scen in enumerate(p1.scenarios):
                res = solve_subproblem(p1, s, x)
                assert res.duals @ (scen.h - scen.T @ x) == pytest.approx(res.value, abs=1e-8)

    def test_infeasible_returns_certificate(self):
        prob = infeasible_recourse_problem()
        res = solve_subproblem(prob, 0, np.array([3.0]))
        assert not res.feasible
        assert res.farkas[0] == pytest.approx(-1.0)

    def test_unbounded_recourse_raises(self):
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[])
        prob = TwoStageProblem(
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
        prob = TwoStageProblem(
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
        prob = TwoStageProblem(
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
        prob = TwoStageProblem(
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

    @pytest.mark.parametrize("label, used", [
        ("kmedoids:k=3", 7), ("kmedoids:k=3,seed=0", 0), ("kmedoids:k=3,seed=5", 5),
        ("granulated:T0=2,inner=kmedoids:k=3", 7),
    ])
    def test_kmedoids_seed_defaults_to_the_engine_seed(self, label, used, monkeypatch):
        import lshaped.aggregation as aggregation_mod

        calls = record_calls(monkeypatch, aggregation_mod, "kmedoids_cluster")
        solve_lshaped(random_instance(9, 30),
                      EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6, seed=7))
        assert calls and {args[4] for args, _, _ in calls} == {used}

    @pytest.mark.parametrize("label, want", [
        ("kmedoids:k=3", "kmedoids:k=3,measure=angular,seed=7"),
        ("kmedoids:k=3,seed=5", "kmedoids:k=3,measure=angular,seed=5"),
        ("granulated:T0=2,inner=kmedoids:k=3",
         "granulated:T0=2,inner=kmedoids:k=3,measure=angular,seed=7"),
        ("multi", "multi"),
    ])
    def test_report_names_the_kmedoids_seed_used(self, label, want):
        report = solve_lshaped(random_instance(9, 30),
                               EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6, seed=7))
        assert report.scheme == want

    def test_unbounded_master_is_reported(self):
        # a cheap first stage with a steep recourse slope leaves the early
        # master unbounded in x; the engine surfaces that instead of looping
        first = FirstStage(c=[0.1], A=np.zeros((0, 1)), b=[])
        prob = TwoStageProblem(
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
        bad = TwoStageProblem(first, [[1.0]], (Scenario(0.3, [1.0], [[1.0]], [1.0]),))
        with pytest.raises(ValueError, match="probabilities"):
            solve_lshaped(bad, EngineConfig())

    @pytest.mark.parametrize("field, value", [
        ("rel_tol", math.nan), ("rel_tol", 0.0), ("rel_tol", -1e-3),
        ("violation_tol", math.nan), ("violation_tol", -1e-6), ("violation_tol", math.inf),
    ])
    def test_invalid_tolerances_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            EngineConfig(**{field: value})

    def test_zero_violation_tol_accepted(self):
        assert EngineConfig(violation_tol=0.0).violation_tol == 0.0

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
            prob.scenarios[s].pi * solve_subproblem(prob, s, report.x).value
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
                    master.add_optimality(np.append(cut.grad, cut.offset), cut.members)
            lp = master.build()
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

    def test_aggregated_master_stays_cold(self):
        prob = sample_instance(trend_template(3), 60, 3)
        report = solve_lshaped(
            prob, EngineConfig(scheme=parse_scheme("kmedoids:k=5"), rel_tol=1e-6)
        )
        cold = self.cold_master_pivots(prob, report)
        assert [rec.master_pivots for rec in report.history] == cold

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
    return TwoStageProblem(
        first=first, W=[[1.0]],
        scenarios=(
            Scenario(0.5, [1.0], [[-1.0, 0.0]], [0.5]),
            Scenario(0.5, [1.0], [[1.0, 0.0]], [2.0]),
        ),
    )


class TestMasterBuild:
    def test_theta_entries_match_a_per_row_loop(self, monkeypatch):
        from lshaped import FeasibilityCut
        from lshaped.engine import _Master

        built = []
        original = _Master.build

        def recording(self):
            built.append(self)
            return original(self)

        monkeypatch.setattr(_Master, "build", recording)
        prob = sample_instance(trend_template(3), 60, 3)
        solve_lshaped(prob, EngineConfig(scheme=parse_scheme("kmedoids:k=5"), rel_tol=1e-6))
        master = built[-1]
        master.add_feasibility(FeasibilityCut(grad=-np.ones(prob.n), offset=-50.0, scenario=0))
        assert len({len(cols) for cols in master.theta_cols}) > 2  # 0 and mixed widths
        n, p, m = prob.n, master.p, master.n_rows
        want = np.zeros((m, n + master.n_theta + m - p))
        want[:, :n] = master.grads
        for i, cols in enumerate(master.theta_cols):
            for t in cols:
                want[p + i, n + t] = 1.0
            want[p + i, n + master.n_theta + i] = -1.0
        assert master.build().A.tobytes() == want.tobytes()


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
                assert name in report.iterations, name
                assert obj["k" if name == "index" else name] == (
                    value if math.isfinite(value) else None
                ), name
                if name != "index":
                    logged = float(pairs[name])
                    assert logged == value or logged == pytest.approx(value, rel=1e-2), name


class TestGubMaster:
    """Masters whose optimality rows each cover one theta column are solved
    on the key-row (GUB) basis; every one of them must agree with a dense
    cold solve of ``_Master.build()``."""

    @staticmethod
    def install_check(monkeypatch):
        """Wrap ``_Master.solve`` so that every GUB master is re-solved cold
        and densely; returns the per-master records."""
        import lshaped.simplex as simplex_mod
        from lshaped.engine import _Master

        records = []
        cold_solves = record_calls(monkeypatch, simplex_mod, "_solve_two_phase")
        original = _Master.solve

        def solve(self):
            gub = self.widths == {1}
            cold_solves.clear()
            sol = original(self)
            if gub:
                records.append(dict(
                    fallbacks=len(cold_solves),
                    feasibility_rows=int((self.theta[self.p:] < 0).sum()),
                ))
                lp = self.build()
                dense_gub = self.program().dense()
                assert np.array_equal(dense_gub.A, lp.A)
                assert np.array_equal(dense_gub.b, lp.b) and np.array_equal(dense_gub.c, lp.c)
                dense = solve_lp(lp)
                assert sol.status is dense.status
                if sol.status is LpStatus.OPTIMAL:
                    assert sol.objective == pytest.approx(dense.objective, rel=1e-9, abs=1e-12)
                    # the GUB program has the dense column layout, so its
                    # (x, duals) map onto build() one to one
                    assert sol.x.shape == (lp.A.shape[1],) and sol.duals.shape == lp.b.shape
                    rep = verify_kkt(lp, sol)
                    assert max(rep.primal, rep.dual, rep.complementarity) <= 1e-8
            return sol

        monkeypatch.setattr(_Master, "solve", solve)
        return records

    @pytest.mark.parametrize("label, kind, seed", [
        # every static strategy has one theta column per granule
        pytest.param(label, kind, seed,
                     id=f"{kind}-{seed}" if label == "multi" else f"{label}-{kind}-{seed}")
        for label in ("multi", "single", "partial:T=5", "granulated:T0=3,inner=multi")
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
        assert len(records) == report.n_iterations - 1  # all but the first master
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

    def test_fresh_theta_starts_in_its_largest_row(self, monkeypatch):
        import lshaped.engine as engine_mod
        from lshaped.engine import _Master

        calls = record_calls(monkeypatch, engine_mod, "solve_lp")
        master = _Master(mixed_feasibility_problem(), 2)
        master.solve()  # first-stage row only: x = (5, 0)
        # offset - grad . x per row: theta 0 gets -4 and 3, theta 1 a tie
        # at 1 (rows 3 and 4) and -5
        for grad, offset, t in (([1.0, 0.0], 1.0, 0), ([0.0, 1.0], 3.0, 0),
                                ([0.2, 0.0], 2.0, 1), ([0.0, 0.0], 1.0, 1),
                                ([1.0, 0.0], 0.0, 1)):
            master.add_optimality(np.array([*grad, offset]), (t,))
        sol = master.solve()
        n, surplus = 2, 2 + 2
        # rows 1..5 hold cuts 0..4; cut i's surplus is column surplus + i
        start = calls[-1][1]["basis"]
        assert start.tolist() == [0, surplus + 0, n + 0, n + 1, surplus + 3, surplus + 4]
        assert sol.status is LpStatus.OPTIMAL
        assert sol.pivots == 0  # the crashed start is already optimal here

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
        from lshaped import FeasibilityCut
        from lshaped.engine import _Master
        from lshaped.simplex import GubProgram

        calls = record_calls(monkeypatch, engine_mod, "solve_lp")
        master = _Master(mixed_feasibility_problem(), 2)
        for t in (0, 1):
            master.add_optimality(np.array([0.5, -0.25, 1.0 + t]), (t,))
        assert master.solve().status is LpStatus.OPTIMAL
        # x1 >= 4 and x1 <= 1 together exclude every first-stage point
        master.add_feasibility(FeasibilityCut([1.0, 0.0], 4.0, 0))
        master.add_feasibility(FeasibilityCut([-1.0, 0.0], -1.0, 1))
        sol = master.solve()
        assert isinstance(calls[-1][0][0], GubProgram)
        assert sol.status is LpStatus.INFEASIBLE
        assert verify_farkas(master.build(), sol.farkas)
        assert verify_farkas(master.program(), sol.farkas)


#: trend_template(3), N=60, seed 3, rel_tol=1e-6: iterations, cuts, and per
#: iteration master_pivots, master_rows and sub_solves
PINNED_COUNTS = {
    "multi": (4, 135, [2, 1, 28, 20], [1, 61, 116, 136], [2, 2, 0, 0]),
    "single": (6, 5, [2, 1, 1, 1, 1, 1], [1, 2, 3, 4, 5, 6], [2, 2, 0, 0, 0, 0]),
    "partial:T=5": (5, 37, [2, 1, 6, 17, 1], [1, 13, 25, 37, 38], [2, 2, 0, 0, 0]),
    "granulated:T0=4,inner=kmedoids:k=3": (
        9, 14, [2, 8, 14, 18, 17, 19, 20, 21, 23], [1, 4, 7, 9, 10, 12, 13, 14, 15],
        [2, 2, 0, 0, 0, 0, 0, 0, 0],
    ),
    "closest:A=4": (
        10, 27, [2, 14, 24, 28, 27, 32, 37, 39, 39, 44], [1, 7, 13, 16, 18, 21, 23, 25, 26, 28],
        [2, 2, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
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
        # a loose violation tolerance skips every aggregate before the gap closes
        prob = sample_instance(trend_template(3), 20, 3)
        report = solve_lshaped(prob, EngineConfig(
            scheme=parse_scheme("multi"), rel_tol=1e-9, violation_tol=0.1,
        ))
        assert report.status == SolveStatus.CONVERGED
        assert report.termination == Termination.NO_VIOLATED_AGGREGATE
        history = report.history
        assert history[-1].cuts_added == 0
        upper_best = min(rec.upper for rec in history)
        gap = (upper_best - history[-1].lower) / max(1.0, abs(upper_best))
        assert report.final_gap == gap > 1e-9

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
            report = solve_lshaped(prob, EngineConfig(
                scheme=parse_scheme("multi"), rel_tol=1e-9, violation_tol=0.1,
            ))
        last = caplog.records[-1].getMessage()
        assert last == (
            f"finished: termination no_violated_aggregate final_gap {report.final_gap:.3g} "
            f"iterations {report.n_iterations} cuts {report.n_cuts}"
        )


def with_recourse(problem, W, q_of):
    """The problem with recourse matrix W and each scenario's costs q_of(q)."""
    scenarios = tuple(
        Scenario(scen.pi, q_of(scen.q), scen.T, scen.h) for scen in problem.scenarios
    )
    return TwoStageProblem(first=problem.first, W=W, scenarios=scenarios)


def evaluator_instances():
    """(name, problem) pairs: plain complete recourse, duplicate columns of
    W, scenario-dependent dual feasibility, W scaled by 1e6 and 1e-6, and a
    recourse that is infeasible for part of the first-stage region."""
    out = [(f"random {seed}", random_instance(seed, 30)) for seed in range(4)]
    base = random_instance(15, 30)  # mixed-sign residuals at most points
    W = base.W
    out.append((
        "duplicate columns",
        with_recourse(base, np.hstack([W, W[:, :1], W]), lambda q: np.concatenate([q, q[:1], q])),
    ))
    half = W.shape[1] // 2  # W = [I | -I]
    rng = np.random.default_rng(0)
    # a second, doubled copy of I whose costs vary by scenario, so a basis
    # that is optimal for one scenario is dual infeasible for others
    out.append((
        "scenario-dependent dual feasibility",
        with_recourse(base, np.hstack([W, 2.0 * W[:, :half]]),
                      lambda q: np.concatenate([q, rng.uniform(0.4, 4.0, half)])),
    ))
    scale = np.where(np.arange(W.shape[1]) % 2 == 0, 1e6, 1e-6)
    out.append(("scaled columns", with_recourse(base, W * scale, lambda q: q)))
    out.append(("scaled rows", TwoStageProblem(
        first=base.first, W=W * 1e6,
        scenarios=tuple(
            Scenario(s.pi, s.q, s.T * 1e6, s.h * 1e6) for s in base.scenarios
        ),
    )))
    # keeping only I forces y = h - T x >= 0
    out.append(("infeasible recourse", with_recourse(base, W[:, :half], lambda q: q[:half])))
    return out


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
        data = prob.arrays
        compared = 0
        for x in first_stage_points(prob, 6, seed=len(name)):
            batch = evaluator.evaluate(x)
            ref = ReferenceEvaluator(prob).evaluate(x)
            assert sorted(batch.farkas) == sorted(ref.farkas), name
            for s, sigma in batch.farkas.items():
                scen = prob.scenarios[s]
                lp = LinearProgram(
                    c=scen.q, A=prob.W, b=scen.h - scen.T @ x,
                    lb=np.zeros(prob.m), ub=np.full(prob.m, np.inf),
                )
                assert verify_farkas(lp, sigma)
            for s in range(prob.n_scenarios):
                if s in ref.farkas:
                    assert np.isnan(batch.values[s])
                    continue
                value, lam = batch.values[s], batch.duals[s]
                assert abs(value - ref.values[s]) <= 1e-12 * max(1.0, abs(ref.values[s]))
                resid = data.H[s] - data.T[s] @ x
                reduced = data.Q[s] - lam @ prob.W
                assert reduced.min() >= -1e-9
                assert lam @ resid == pytest.approx(value, rel=1e-9, abs=1e-9)
                if np.abs(resid).min() > 1e-9:
                    assert np.array_equal(lam, ref.duals[s]), (name, s)
                    compared += 1
        assert compared > 0
        assert len(evaluator.bases) >= 1 or name == "infeasible recourse"

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
        for name, column in a.iterations.items():
            if not name.endswith("_s"):
                assert np.array_equal(column, b.iterations[name]), name
        for name in ("cut_grads", "cut_offsets", "cut_members", "cut_member_of"):
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
            assert np.array_equal(a.cut_members, b.cut_members)
            assert np.array_equal(a.cut_member_of, b.cut_member_of)
            for name, column in a.iterations.items():
                if not name.endswith("_s"):
                    assert np.array_equal(column, b.iterations[name]), name
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

    def test_multi_cut_report_stores_each_member_set_once(self):
        # a multi-cut run cuts for the same scenario in several iterations
        prob = sample_instance(trend_template(3), 200, 3)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme("multi"), rel_tol=1e-6))
        sets = report._member_sets()
        assert len(sets) == report.n_cuts > 2 * prob.n_scenarios
        assert len(report.cut_members) == len(set(sets)) <= prob.n_scenarios
        assert report.cut_member_of.dtype == np.int32
        # 11.3 KB as one packed row per cut, 6.8 KB stored once
        stored = report.cut_members.nbytes + report.cut_member_of.nbytes
        assert stored <= 0.65 * report.n_cuts * report.cut_members.shape[1]

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

    @pytest.mark.parametrize("label", ["multi", "single", "partial:T=5",
                                       "granulated:T0=4,inner=kmedoids:k=3"])
    def test_cuts_are_the_master_rows_added(self, label, monkeypatch):
        from lshaped.engine import _Master

        prob = sample_instance(trend_template(3), 60, 3)
        block, _ = granulation(parse_scheme(label), prob.n_scenarios)
        added = []
        solves = record_calls(monkeypatch, _Master, "solve")
        original = _Master.add_optimality

        def recording(self, row, theta_cols):
            # each iteration starts with one master solve; theta column g
            # is the granule of scenarios g * block up to the next block
            members = tuple(s for g in theta_cols
                            for s in range(g * block, min(prob.n_scenarios, (g + 1) * block)))
            added.append((row.copy(), members, len(solves)))
            return original(self, row, theta_cols)

        monkeypatch.setattr(_Master, "add_optimality", recording)
        report = solve_lshaped(prob, EngineConfig(scheme=parse_scheme(label), rel_tol=1e-6))
        cuts = report.cuts
        assert len(cuts) == len(added) == report.n_cuts
        for got, (row, members, iteration) in zip(cuts, added):
            assert np.array_equal(got.grad, row[:-1])
            assert got.offset == row[-1]
            assert got.members == members
            assert got.iteration == iteration
