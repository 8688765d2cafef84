import math

import numpy as np
import pytest

from lshaped import (
    DistanceMeasure,
    OptimalityCut,
    Scenario,
    aggregate_cuts,
    aggregation_distance,
    cut_distance,
    cut_violation,
    is_violated,
    make_feasibility_cut,
    make_optimality_cut,
    make_optimality_cuts,
    sample_instance,
    solve_subproblem,
)
from helpers import build_p1, random_instance, trend_template


def cut(grad, offset, members):
    return OptimalityCut(grad=grad, offset=offset, members=members)


class TestMakeOptimalityCut:
    def test_p1_scenario_one(self):
        # analytic dual of min y s.t. y - u = h - x is 1 while x < h
        scen = Scenario(0.5, [1.0, 0.0], [[1.0]], [2.0])
        c = make_optimality_cut(0, [1.0], scen)
        assert np.array_equal(c.grad, [0.5])
        assert c.offset == pytest.approx(1.0)
        assert c.members == (0,)

    def test_zero_dual(self):
        scen = Scenario(0.5, [1.0, 0.0], [[1.0]], [2.0])
        c = make_optimality_cut(0, [0.0], scen)
        assert np.array_equal(c.grad, [0.0])
        assert c.offset == 0.0

    def test_linear_in_probability(self):
        lo = Scenario(0.3, [1.0, 0.0], [[1.5]], [2.5])
        hi = Scenario(0.6, [1.0, 0.0], [[1.5]], [2.5])
        a = make_optimality_cut(0, [0.7], lo)
        b = make_optimality_cut(0, [0.7], hi)
        assert np.allclose(2.0 * a.grad, b.grad)
        assert 2.0 * a.offset == pytest.approx(b.offset)

    def test_dimension_mismatch(self):
        scen = Scenario(0.5, [1.0, 0.0], [[1.0]], [2.0])
        with pytest.raises(ValueError):
            make_optimality_cut(0, [1.0, 2.0], scen)


    @pytest.mark.parametrize("seed", range(4))
    def test_batched_equals_per_scenario_bitwise(self, seed):
        probs = [random_instance(seed, 25), sample_instance(trend_template(seed), 25, seed)]
        rng = np.random.default_rng(seed)
        for prob in probs:
            duals = rng.uniform(-3.0, 3.0, (prob.n_scenarios, prob.q_rows))
            rows = make_optimality_cuts(duals, prob.arrays)
            assert rows.shape == (prob.n_scenarios, prob.n + 1)
            for s, row in enumerate(rows):
                want = make_optimality_cut(s, duals[s], prob.scenarios[s])
                assert row.tobytes() == np.append(want.grad, want.offset).tobytes()


class TestMakeFeasibilityCut:
    def test_one_row_farkas_by_hand(self):
        # y = h - x with no surplus: infeasible at x=3, h=2; sigma = -1
        scen = Scenario(1.0, [1.0], [[1.0]], [2.0])
        c = make_feasibility_cut([-1.0], scen, [[1.0]], 0)
        assert np.array_equal(c.grad, [-1.0])
        assert c.offset == pytest.approx(-2.0)  # row -x >= -2, i.e. x <= 2
        assert c.grad @ [3.0] < c.offset  # offending point cut off

    def test_feasible_points_satisfy_cut(self, p1):
        scen = Scenario(1.0, [1.0], [[1.0]], [2.0])
        c = make_feasibility_cut([-1.0], scen, [[1.0]], 0)
        for x in np.linspace(0.0, 2.0, 7):
            assert c.grad @ [x] >= c.offset - 1e-12

    def test_ray_homogeneity(self):
        scen = Scenario(1.0, [1.0], [[1.0]], [2.0])
        a = make_feasibility_cut([-1.0], scen, [[1.0]], 0)
        b = make_feasibility_cut([-2.0], scen, [[1.0]], 0)
        assert np.allclose(2.0 * a.grad, b.grad)
        assert 2.0 * a.offset == pytest.approx(b.offset)

    def test_invalid_certificate_rejected(self):
        scen = Scenario(1.0, [1.0], [[1.0]], [2.0])
        with pytest.raises(ValueError, match="certificate"):
            make_feasibility_cut([1.0], scen, [[1.0]], 0)


class TestAggregate:
    def test_sum(self):
        merged = aggregate_cuts([cut([0.5], 1.0, (1,)), cut([0.25], 0.5, (2,))])
        assert np.array_equal(merged.grad, [0.75])
        assert merged.offset == pytest.approx(1.5)
        assert merged.members == (1, 2)

    def test_singleton_identity(self):
        single = cut([0.5], 1.0, (3,))
        merged = aggregate_cuts([single])
        assert np.array_equal(merged.grad, single.grad)
        assert merged.offset == single.offset
        assert merged.members == single.members

    def test_p1_single_cut(self):
        # 0.5*1*1 + 0.5*1*1 and 0.5*2 + 0.5*4
        a = cut([0.5], 1.0, (0,))
        b = cut([0.5], 2.0, (1,))
        merged = aggregate_cuts([a, b])
        assert np.array_equal(merged.grad, [1.0])
        assert merged.offset == pytest.approx(3.0)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            aggregate_cuts([cut([1.0], 1.0, (1,)), cut([1.0], 1.0, (1, 2))])

    def test_flattening_associativity(self):
        # nested aggregation reassociates the float sums, so equality is
        # exact only up to rounding; same-order equality is exact (below)
        rng = np.random.default_rng(2)
        cuts = [cut(rng.uniform(-1, 1, 3), rng.uniform(-1, 1), (s,)) for s in range(6)]
        nested = aggregate_cuts([aggregate_cuts(cuts[:3]), aggregate_cuts(cuts[3:])])
        flat = aggregate_cuts(cuts)
        assert nested.members == flat.members
        assert np.max(np.abs(nested.grad - flat.grad)) <= 1e-12
        assert nested.offset == pytest.approx(flat.offset, abs=1e-12)

    def test_order_independence_exact(self):
        rng = np.random.default_rng(3)
        cuts = [cut(rng.uniform(-1, 1, 2), rng.uniform(-1, 1), (s,)) for s in range(5)]
        forward = aggregate_cuts(cuts)
        backward = aggregate_cuts(list(reversed(cuts)))
        assert np.array_equal(forward.grad, backward.grad)
        assert forward.offset == backward.offset


class TestViolation:
    def test_arithmetic(self):
        c = cut([0.5], 1.0, (0,))
        assert cut_violation(c, [0.0], {0: -10.0}) == pytest.approx(11.0)

    def test_boundary_satisfied(self):
        c = cut([0.5], 1.0, (0,))
        assert cut_violation(c, [2.0], {0: 0.0}) == pytest.approx(0.0)

    def test_aggregated_p1(self):
        c = cut([1.0], 3.0, (0, 1))
        assert cut_violation(c, [0.0], {0: 1.5, 1: 1.5}) == pytest.approx(0.0)

    def test_missing_theta(self):
        c = cut([1.0], 3.0, (0, 1))
        with pytest.raises(ValueError, match="missing"):
            cut_violation(c, [0.0], {0: 1.5})

    def test_is_violated_relative_scale(self):
        c = cut([0.0], 100.0, (0,))
        assert not is_violated(c, [0.0], {0: 100.0 - 1e-5})
        assert is_violated(c, [0.0], {0: 100.0 - 1e-3})


class TestDistance:
    def test_identical_cut_is_zero_under_all_measures(self):
        c = cut([1.0, 2.0], 3.0, (0,))
        for measure in DistanceMeasure:
            assert cut_distance(c, c, measure) == pytest.approx(0.0, abs=1e-12)

    def test_perpendicular_angular_is_one(self):
        a = cut([1.0, 0.0], 1.0, (0,))
        b = cut([0.0, 1.0], 1.0, (1,))
        assert cut_distance(a, b, DistanceMeasure.ANGULAR) == pytest.approx(1.0, abs=1e-12)

    def test_angular_value(self):
        a = cut([1.0, 1.0], 0.0, (0,))
        b = cut([1.0, 0.0], 0.0, (1,))
        expected = 1.0 - 1.0 / math.sqrt(2.0)
        assert cut_distance(a, b, DistanceMeasure.ANGULAR) == pytest.approx(expected, abs=1e-12)

    def test_spatioangular_value(self):
        a = cut([1.0, 0.0], 1.0, (0,))
        b = cut([1.0, 0.0], 2.0, (1,))
        assert cut_distance(a, b, DistanceMeasure.SPATIOANGULAR) == pytest.approx(0.5, abs=1e-12)

    def test_angular_scale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = rng.uniform(-1, 1, 4)
            a = cut(g, 1.0, (0,))
            b = cut(2.5 * g, 2.5, (1,))
            assert cut_distance(a, b, DistanceMeasure.ANGULAR) == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_aggregate_normalization(self):
        base = cut([1.0, -2.0], 3.0, (0,))
        triple = aggregate_cuts(
            [cut([1.0, -2.0], 3.0, (s,)) for s in range(3)]
        )
        for measure in (DistanceMeasure.ABSOLUTE, DistanceMeasure.SPATIOANGULAR):
            assert cut_distance(base, triple, measure) == pytest.approx(0.0, abs=1e-12)

    def test_zero_gradient_rejected_under_angular(self):
        a = cut([0.0], 1.0, (0,))
        b = cut([1.0], 1.0, (1,))
        with pytest.raises(ValueError):
            cut_distance(a, b, DistanceMeasure.ANGULAR)

    def test_aggregation_distance_falls_back_for_zero_gradient(self):
        a = cut([0.0], 1.0, (0,))
        b = cut([1.0], 1.0, (1,))
        fallback = aggregation_distance(a, b, DistanceMeasure.ANGULAR)
        assert fallback == pytest.approx(cut_distance(a, b, DistanceMeasure.ABSOLUTE))
        assert aggregation_distance(a, a, DistanceMeasure.ANGULAR) == 0.0


class TestCutValidity:
    def test_generated_cuts_underestimate_recourse(self):
        # cut over members S: sum_{s in S} pi_s Q_s(x) >= offset - grad . x
        prob = random_instance(1, 12)
        rng = np.random.default_rng(8)
        anchors = [rng.uniform(0.0, 2.0, prob.n) for _ in range(3)]
        cuts = []
        for x in anchors:
            for s in range(prob.n_scenarios):
                res = solve_subproblem(prob, s, x)
                cuts.append(make_optimality_cut(s, res.duals, prob.scenarios[s]))
        cuts.append(aggregate_cuts(cuts[: prob.n_scenarios]))
        for _ in range(20):
            x = rng.uniform(0.0, 2.0, prob.n)
            values = [
                prob.scenarios[s].pi * solve_subproblem(prob, s, x).value
                for s in range(prob.n_scenarios)
            ]
            for c in cuts:
                lhs = sum(values[s] for s in c.members)
                assert lhs >= c.offset - float(c.grad @ x) - 1e-7
