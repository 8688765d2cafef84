import numpy as np
import pytest

from lshaped import (
    FirstStage,
    LinearProgram,
    RandomEntry,
    Scenario,
    StochasticTemplate,
    TwoStageProblem,
    build_extensive_form,
    enumerate_scenarios,
    sample_instance,
    solve_lp,
    validate_problem,
)
from helpers import build_p1, random_template


def simple_template(entries=()):
    first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[])
    return StochasticTemplate(
        first=first, W=[[1.0, -1.0]], q=[1.0, 0.0], T=[[1.0]], h=[2.0], entries=entries
    )


class TestValidateProblem:
    def test_well_formed_single_scenario(self):
        first = FirstStage(c=[1.0], A=[[1.0]], b=[1.0])
        prob = TwoStageProblem(first, [[1.0]], (Scenario(1.0, [1.0], [[1.0]], [0.0]),))
        assert validate_problem(prob) == []

    def test_probability_sum_reported(self):
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[])
        scen = (
            Scenario(0.5, [1.0], [[1.0]], [1.0]),
            Scenario(0.4, [1.0], [[1.0]], [1.0]),
        )
        issues = validate_problem(TwoStageProblem(first, [[1.0]], scen))
        assert any("sum to 0.9" in msg for msg in issues)

    def test_dimension_mismatch_reported(self):
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[])
        scen = (Scenario(1.0, [1.0], [[1.0, 2.0]], [1.0]),)
        issues = validate_problem(TwoStageProblem(first, [[1.0]], scen))
        assert any("T[0] has 2 columns, expected 1" in msg for msg in issues)

    def test_one_non_finite_entry_among_many_scenarios(self):
        # the array check finds it; the per-scenario pass words the message
        first = FirstStage(c=[1.0, 1.0], A=np.zeros((0, 2)), b=[])
        scen = [
            Scenario(1.0 / 50, [1.0, 0.5], [[1.0, -1.0]], [float(s)]) for s in range(50)
        ]
        scen[17] = Scenario(1.0 / 50, [1.0, 0.5], [[1.0, np.inf]], [17.0])
        prob = TwoStageProblem(first, [[1.0, -1.0]], tuple(scen))
        assert validate_problem(prob) == ["T[17] contains non-finite entries"]

    def test_non_positive_probability_among_many_scenarios(self):
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[])
        scen = [Scenario(1.0 / 50, [1.0, 0.5], [[1.0]], [float(s)]) for s in range(50)]
        scen[3] = Scenario(0.0, [1.0, 0.5], [[1.0]], [3.0])
        prob = TwoStageProblem(first, [[1.0, -1.0]], tuple(scen))
        assert validate_problem(prob) == [
            "scenario 3 has non-positive probability 0", "probabilities sum to 0.98",
        ]


class TestExtensiveForm:
    def test_p1_shape_and_optimum(self):
        # f(x) = x + 0.5 max(2-x,0) + 0.5 max(4-x,0) is flat at 3 on [0, 2]
        lp = build_extensive_form(build_p1())
        assert lp.A.shape == (2, 5)  # 1 + 2*2 variables, one recourse row each
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(3.0, abs=1e-9)

    def test_single_scenario_matches_merged_lp(self):
        first = FirstStage(c=[2.0, 1.0], A=[[1.0, 1.0]], b=[1.0])
        scen = Scenario(1.0, [1.0, 0.5], [[1.0, -1.0]], [0.5])
        prob = TwoStageProblem(first, [[1.0, 1.0]], (scen,))
        lp = build_extensive_form(prob)
        merged = LinearProgram(
            c=[2.0, 1.0, 1.0, 0.5],
            A=[[1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 1.0, 1.0]],
            b=[1.0, 0.5],
            lb=np.zeros(4),
            ub=np.full(4, np.inf),
        )
        assert solve_lp(lp).objective == pytest.approx(solve_lp(merged).objective, abs=1e-9)

    def test_objective_identity_at_feasible_points(self):
        # LP objective row equals c'x + sum pi q'y recomputed from problem data
        prob = build_p1()
        lp = build_extensive_form(prob)
        rng = np.random.default_rng(5)
        for _ in range(20):
            z = rng.uniform(0.0, 3.0, lp.A.shape[1])
            direct = prob.first.c @ z[:1]
            for s, scen in enumerate(prob.scenarios):
                direct += scen.pi * (scen.q @ z[1 + 2 * s : 3 + 2 * s])
            assert abs(lp.c @ z - direct) <= 1e-12

    def test_invalid_problem_rejected(self):
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[])
        bad = TwoStageProblem(first, [[1.0]], (Scenario(0.5, [1.0], [[1.0]], [1.0]),))
        with pytest.raises(ValueError, match="probabilities"):
            build_extensive_form(bad)


class TestEnumerate:
    def test_cross_product(self):
        entries = (
            RandomEntry("h", 0, 0, ((1.0, 0.5), (2.0, 0.5))),
            RandomEntry("q", 0, 0, ((1.0, 0.2), (2.0, 0.3), (3.0, 0.5))),
        )
        prob = enumerate_scenarios(simple_template(entries))
        assert prob.n_scenarios == 6
        assert sum(s.pi for s in prob.scenarios) == pytest.approx(1.0, abs=1e-9)

    def test_no_entries_gives_nominal(self):
        prob = enumerate_scenarios(simple_template())
        assert prob.n_scenarios == 1
        assert prob.scenarios[0].pi == 1.0
        assert np.array_equal(prob.scenarios[0].h, [2.0])

    def test_single_entry_probabilities(self):
        entries = (RandomEntry("h", 0, 0, ((1.0, 0.3), (2.0, 0.7))),)
        prob = enumerate_scenarios(simple_template(entries))
        assert [s.pi for s in prob.scenarios] == [0.3, 0.7]
        assert [s.h[0] for s in prob.scenarios] == [1.0, 2.0]

    def test_cap_names_product_size(self):
        entries = tuple(
            RandomEntry("h", 0, 0, ((0.0, 0.5), (1.0, 0.5))) for _ in range(4)
        )
        # entries collide on the same coordinate but the cap fires first
        with pytest.raises(ValueError, match="16"):
            enumerate_scenarios(simple_template(entries), max_scenarios=10)

    def test_probability_sums_for_random_templates(self):
        for seed in range(10):
            prob = enumerate_scenarios(random_template(seed))
            assert abs(sum(s.pi for s in prob.scenarios) - 1.0) <= 1e-9


class TestScenarioArrays:
    def test_stacked_view_of_the_scenarios(self):
        prob = sample_instance(random_template(3), 12, seed=5)
        assert "arrays" not in vars(prob)  # built on first use, not by sampling
        data = prob.arrays
        assert prob.arrays is data
        for s, scen in enumerate(prob.scenarios):
            assert np.array_equal(data.H[s], scen.h)
            assert np.array_equal(data.T[s], scen.T)
            assert np.array_equal(data.Q[s], scen.q)
            assert data.pi[s] == scen.pi
        for arr in (data.H, data.T, data.Q, data.pi):
            assert not arr.flags.writeable

    def test_single_scenario_shapes(self):
        data = build_p1().arrays
        assert (data.H.shape, data.T.shape, data.Q.shape, data.pi.shape) == (
            (2, 1), (2, 1, 1), (2, 2), (2,)
        )


class TestSample:
    def test_saa_weights(self):
        prob = sample_instance(simple_template(), 5, seed=9)
        assert prob.n_scenarios == 5
        assert all(s.pi == 0.2 for s in prob.scenarios)

    def test_same_seed_bitwise_identical(self):
        entries = (RandomEntry("h", 0, 0, ((1.0, 0.25), (2.0, 0.75))),)
        a = sample_instance(simple_template(entries), 40, seed=7)
        b = sample_instance(simple_template(entries), 40, seed=7)
        for sa, sb in zip(a.scenarios, b.scenarios):
            assert np.array_equal(sa.h, sb.h)
            assert sa.pi == sb.pi

    def test_degenerate_distribution(self):
        entries = (RandomEntry("h", 0, 0, ((3.0, 1.0),)),)
        prob = sample_instance(simple_template(entries), 3, seed=1)
        assert all(s.h[0] == 3.0 for s in prob.scenarios)

    def test_different_seeds_differ(self):
        entries = (RandomEntry("h", 0, 0, ((1.0, 0.5), (2.0, 0.5))),)
        a = sample_instance(simple_template(entries), 64, seed=1)
        b = sample_instance(simple_template(entries), 64, seed=2)
        assert any(sa.h[0] != sb.h[0] for sa, sb in zip(a.scenarios, b.scenarios))

    def test_requires_positive_count(self):
        with pytest.raises(ValueError):
            sample_instance(simple_template(), 0, seed=1)


class TestGeneratorStream:
    def test_update_rule_cross_check(self):
        # independent restatement of the documented xorshift64* step
        from lshaped import XorShift64Star

        mask = (1 << 64) - 1

        def reference(state, count):
            out = []
            for _ in range(count):
                state ^= state >> 12
                state = (state ^ (state << 25)) & mask
                state ^= state >> 27
                out.append((state * 0x2545F4914F6CDD1D) & mask)
            return out

        for seed in (1, 42, 2**63 + 5):
            gen = XorShift64Star(seed)
            assert [gen.next_uint64() for _ in range(6)] == reference(seed & mask, 6)

    def test_zero_seed_is_remapped(self):
        from lshaped import XorShift64Star

        gen = XorShift64Star(0)
        values = {gen.next_uint64() for _ in range(4)}
        assert 0 not in values and len(values) == 4

    def test_uniform_range(self):
        from lshaped import XorShift64Star

        gen = XorShift64Star(9)
        draws = [gen.random() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert 0.3 < sum(draws) / len(draws) < 0.7


class TestLinearProgram:
    def test_with_rows_adds_slacks(self):
        lp = LinearProgram.with_rows(
            objective=[1.0, 2.0],
            rows=[[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
            senses=["E", "L", "G"],
            rhs=[1.0, 2.0, 0.5],
        )
        assert lp.A.shape == (3, 4)
        assert lp.n_structural == 2
        assert lp.A[1, 2] == 1.0 and lp.A[2, 3] == -1.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            LinearProgram(c=[np.nan], A=np.zeros((0, 1)), b=[], lb=[0.0], ub=[1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0, 2.0], A=[[1.0]], b=[1.0], lb=[0, 0], ub=[1, 1])
