import math

import numpy as np
import pytest

from lshaped import (
    DistanceMeasure,
    FirstStage,
    OptimalityCut,
    Scenario,
    TwoStageProblem,
    aggregation_distance,
    make_feasibility_cuts,
    make_optimality_cuts,
    sample_instance,
    solve_subproblem,
)
from lshaped.aggregation import _distance_matrix, granulate
from lshaped.cuts import VIOLATION_SCALE, violated
from helpers import (
    cut_distance, cut_row, make_optimality_cut, random_instance, reference_violation,
    summed_cut, trend_template,
)


def cut(grad, offset, members):
    return OptimalityCut(grad=grad, offset=offset, members=members)


def rows(*cuts):
    return np.array([cut_row(c) for c in cuts])


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
            rows = make_optimality_cuts(duals, prob)
            assert rows.shape == (prob.n_scenarios, prob.n + 1)
            for s, row in enumerate(rows):
                want = make_optimality_cut(s, duals[s], prob.scenarios[s])
                assert row.tobytes() == np.append(want.grad, want.offset).tobytes()


def one_row_problem():
    """y = h - x with no surplus and h = 2: recourse needs x <= 2."""
    first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[])
    return TwoStageProblem.from_scenarios(first, [[1.0]], (Scenario(1.0, [1.0], [[1.0]], [2.0]),))


class TestMakeFeasibilityCuts:
    def test_one_row_farkas_by_hand(self):
        # infeasible at x=3, h=2; sigma = -1
        rows = make_feasibility_cuts({0: [-1.0]}, one_row_problem())
        assert rows.shape == (1, 2)
        grad, offset = rows[0, :-1], rows[0, -1]
        assert np.array_equal(grad, [-1.0])
        assert offset == pytest.approx(-2.0)  # row -x >= -2, i.e. x <= 2
        assert grad @ [3.0] < offset  # offending point cut off

    def test_feasible_points_satisfy_cut(self):
        (row,) = make_feasibility_cuts({0: [-1.0]}, one_row_problem())
        for x in np.linspace(0.0, 2.0, 7):
            assert row[:-1] @ [x] >= row[-1] - 1e-12

    def test_ray_homogeneity(self):
        prob = one_row_problem()
        (a,) = make_feasibility_cuts({0: [-1.0]}, prob)
        (b,) = make_feasibility_cuts({0: [-2.0]}, prob)
        assert np.allclose(2.0 * a[:-1], b[:-1])
        assert 2.0 * a[-1] == pytest.approx(b[-1])

    def test_invalid_certificate_rejected(self):
        with pytest.raises(ValueError, match="certificate"):
            make_feasibility_cuts({0: [1.0]}, one_row_problem())

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_are_the_per_scenario_products_bitwise(self, seed):
        # one row per certificate, in the order given, each the vector-matrix
        # products sigma @ T[s] and sigma @ H[s] bit for bit
        rng = np.random.default_rng(seed)
        first = FirstStage(c=rng.uniform(size=3), A=np.ones((1, 3)), b=[1.0])
        W = rng.uniform(0.1, 1.0, (2, 4))  # sigma < 0 gives sigma'W < 0
        prob = TwoStageProblem.from_scenarios(first, W, tuple(
            Scenario(0.125, rng.uniform(size=4), rng.normal(size=(2, 3)), rng.normal(size=2))
            for _ in range(8)
        ))
        farkas = {int(s): -rng.uniform(0.1, 3.0, 2) for s in rng.permutation(8)[:5]}
        rows = make_feasibility_cuts(farkas, prob)
        assert rows.shape == (5, 4)
        for row, (s, sigma) in zip(rows, farkas.items()):
            assert row[:-1].tobytes() == (sigma @ prob.T[s]).tobytes()
            assert row[-1] == sigma @ prob.H[s]

    def test_no_certificates_no_rows(self):
        assert make_feasibility_cuts({}, one_row_problem()).shape == (0, 2)


class TestAggregate:
    def test_sum(self):
        merged = granulate(rows(cut([0.5], 1.0, (1,)), cut([0.25], 0.5, (2,))), 2)
        assert merged.tolist() == [[0.75, 1.5]]

    def test_singleton_identity(self):
        single = rows(cut([0.5], 1.0, (3,)))
        assert granulate(single, 1) is single

    def test_p1_single_cut(self):
        # 0.5*1*1 + 0.5*1*1 and 0.5*2 + 0.5*4
        merged = granulate(rows(cut([0.5], 1.0, (0,)), cut([0.5], 2.0, (1,))), 2)
        assert merged[0, 0] == 1.0
        assert merged[0, 1] == pytest.approx(3.0)

    def test_flattening_associativity(self):
        # nested block sums reassociate the float sums, so equality is
        # exact only up to rounding
        rng = np.random.default_rng(2)
        stack = rng.uniform(-1, 1, (6, 4))
        nested = granulate(granulate(stack, 3), 2)
        flat = granulate(stack, 6)
        assert np.max(np.abs(nested - flat)) <= 1e-12


def decide(stacked, groups, x, theta) -> list:
    """``violated`` on stacked rows, aggregate i over the theta columns in
    ``groups[i]``; the per-aggregate reference must agree."""
    granules = np.array([g for group in groups for g in group])
    starts = np.cumsum([0, *map(len, groups)])
    x, theta = np.array(x, dtype=float), np.array(theta, dtype=float)
    keep = violated(stacked, granules, starts, x, theta)
    assert keep.dtype == bool and keep.shape == (len(groups),)
    assert np.array_equal(keep, reference_violation(stacked, granules, starts, x, theta))
    return keep.tolist()


class TestViolation:
    def test_arithmetic(self):
        stacked = rows(cut([0.5], 1.0, (0,)), cut([0.5], 1.0, (1,)))
        # violations 1 - 0 + 10 = 11 and 1 - 0 - 0 = 1
        assert decide(stacked, [[0], [1]], [0.0], [-10.0, 0.0]) == [True, True]
        # violations 1 - 1 + 10 = 10 and 1 - 1 - 0 = 0
        assert decide(stacked, [[0], [1]], [2.0], [-10.0, 0.0]) == [True, False]

    def test_boundary_satisfied(self):
        row = rows(cut([0.5], 1.0, (0,)))
        assert decide(row, [[0]], [2.0], [0.0]) == [False]
        # a violation exactly at VIOLATION_SCALE * (1 + |0|) is not above it
        row = rows(cut([0.5], 0.0, (0,)))
        assert decide(row, [[0]], [0.0], [-VIOLATION_SCALE]) == [False]
        assert decide(row, [[0]], [0.0], [-np.nextafter(VIOLATION_SCALE, 1.0)]) == [True]

    def test_aggregated_p1(self):
        row = rows(cut([1.0], 3.0, (0, 1)))
        assert decide(row, [[0, 1]], [0.0], [1.5, 1.5]) == [False]
        assert decide(row, [[0, 1]], [0.0], [1.5, 1.0]) == [True]

    def test_is_violated_relative_scale(self):
        row = rows(cut([0.0], 100.0, (0,)))
        # violated above VIOLATION_SCALE * (1 + 100)
        assert decide(row, [[0]], [0.0], [100.0 - 50 * VIOLATION_SCALE]) == [False]
        assert decide(row, [[0]], [0.0], [100.0 - 150 * VIOLATION_SCALE]) == [True]

    def test_aggregates_of_mixed_widths(self):
        # theta sums 3 + 6 = 9, 1 and 2 + 4 + 5 = 11 over interleaved columns
        stacked = rows(
            cut([1.0, 0.0], 10.0, (1, 4)), cut([0.0, 1.0], 1.0, (0,)),
            cut([1.0, 1.0], 12.0, (2, 3, 5)),
        )
        theta = [1.0, 3.0, 2.0, 4.0, 6.0, 5.0]
        groups = [[1, 4], [0], [2, 3, 5]]
        # violations 10 - 1 - 9 = 0, 1 - 0 - 1 = 0 and 12 - 1 - 11 = 0
        assert decide(stacked, groups, [1.0, 0.0], theta) == [False, False, False]
        # violations 2, 1 and 3
        assert decide(stacked, groups, [-1.0, -1.0], theta) == [True, True, True]


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
        triple = summed_cut([cut([1.0, -2.0], 3.0, (s,)) for s in range(3)])
        for measure in (DistanceMeasure.ABSOLUTE, DistanceMeasure.SPATIOANGULAR):
            assert cut_distance(base, triple, measure) == pytest.approx(0.0, abs=1e-12)

    def test_aggregation_distance_falls_back_for_zero_gradient(self):
        a, b = np.array([0.0, 1.0]), np.array([1.0, 1.0])
        for measure in (DistanceMeasure.ANGULAR, DistanceMeasure.SPATIOANGULAR):
            fallback = aggregation_distance(a, 1, b, 2, measure)
            assert fallback == aggregation_distance(a, 1, b, 2, DistanceMeasure.ABSOLUTE)
            assert aggregation_distance(a, 1, a, 1, measure) == 0.0
        zero = np.zeros(2)
        assert aggregation_distance(zero, 1, zero, 3, DistanceMeasure.ANGULAR) == 0.0

    def test_row_against_its_copy_is_exactly_zero(self):
        # |cos| of a gradient with itself often rounds an ulp off 1
        rng = np.random.default_rng(0)
        for row in rng.normal(size=(300, 6)) * rng.lognormal(size=(300, 1)):
            for measure in DistanceMeasure:
                for count in (1, 2, 3):
                    copy = row.copy()
                    dist = aggregation_distance(row, count, copy, count, measure)
                    matrix = _distance_matrix(np.stack([row, copy]), [count, count], measure)
                    assert dist == 0.0 == matrix[0, 1], (row, measure, count)


class TestCutValidity:
    def test_generated_cuts_underestimate_recourse(self):
        # cut over members S: sum_{s in S} pi_s Q_s(x) >= offset - grad . x
        prob = random_instance(1, 12)
        rng = np.random.default_rng(8)
        anchors = [rng.uniform(0.0, 2.0, prob.n) for _ in range(3)]
        cuts = []
        for x in anchors:
            for s, scen in enumerate(prob.scenarios):
                res = solve_subproblem(prob, s, x)
                cuts.append(make_optimality_cut(s, res.duals, scen))
        cuts.append(summed_cut(cuts[: prob.n_scenarios]))
        for _ in range(20):
            x = rng.uniform(0.0, 2.0, prob.n)
            values = [
                prob.pi[s] * solve_subproblem(prob, s, x).objective
                for s in range(prob.n_scenarios)
            ]
            for c in cuts:
                lhs = sum(values[s] for s in c.members)
                assert lhs >= c.offset - float(c.grad @ x) - 1e-7
