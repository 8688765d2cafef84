import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from lshaped import (
    DistanceMeasure,
    Granulated,
    Kmedoids,
    MultiCut,
    OptimalityCut,
    Partial,
    SelectClosest,
    SingleCut,
    kmedoids_cluster,
    parse_scheme,
    scheme_label,
    validate_scheme,
)
from lshaped import aggregation
from helpers import (
    cut_distance, cut_row, cuts_of, distinct_cuts, groups_of, record_calls, reference_kmedoids,
    reference_kmedoids_distinct, reference_select_closest, reference_sum,
)


def singleton(s, grad=None, offset=None):
    rng = np.random.default_rng(1000 + s)
    return OptimalityCut(
        grad=rng.uniform(-1, 1, 3) if grad is None else grad,
        offset=rng.uniform(-1, 1) if offset is None else offset,
        members=(s,),
    )


def singletons(n):
    return [singleton(s) for s in range(n)]


def multi_member_cuts(seed, n, flat=0):
    """Cuts over disjoint member sets of one to three scenarios; every
    ``flat``-th cut (when nonzero) has a zero gradient."""
    rng = np.random.default_rng(seed)
    cuts, start = [], 0
    for i in range(n):
        size = int(rng.integers(1, 4))
        grad = rng.uniform(-1, 1, 4) * size
        if flat and i % flat == 0:
            grad = np.zeros(4)
        cuts.append(OptimalityCut(grad=grad, offset=rng.uniform(-2, 2),
                                  members=tuple(range(start, start + size))))
        start += size
    return cuts


def duplicate_heavy_cuts(seed, n, distinct):
    """``n`` cuts drawn from ``distinct`` base cuts (every fourth one with a
    zero gradient), each copy keeping its base's row and member count over
    fresh scenarios."""
    rng = np.random.default_rng(seed)
    base = multi_member_cuts(seed, distinct, flat=4)
    cuts, start = [], 0
    for b in rng.integers(0, distinct, n):
        size = len(base[b].members)
        cuts.append(OptimalityCut(grad=base[b].grad, offset=base[b].offset,
                                  members=tuple(range(start, start + size))))
        start += size
    return cuts


def stacked(cuts):
    """The rows, member sets and member counts of cuts; the engine hands
    ``aggregate_granules`` the rows and the counts."""
    members = [c.members for c in cuts]
    return np.array([cut_row(c) for c in cuts]), members, [len(m) for m in members]


def kmedoids(cuts, k, measure):
    rows, _, counts = stacked(cuts)
    return kmedoids_cluster(rows, counts, k, measure)


def aggregate_triple(scheme, cuts, n_scenarios):
    """One iteration's aggregation of singleton cuts 0..n_scenarios-1 on
    stacked rows, as the engine takes it: the (sums, granules, starts) of
    ``aggregate_granules`` and the granule member sets."""
    block, inner = aggregation.granulation(scheme, n_scenarios)
    rows = aggregation.granulate(stacked(cuts)[0], block)
    members = [tuple(range(g * block, min(n_scenarios, (g + 1) * block)))
               for g in range(len(rows))]
    return aggregation.aggregate_granules(inner, rows, [len(m) for m in members]), members


def aggregate(scheme, cuts, n_scenarios):
    """The aggregate rows of ``aggregate_triple`` and their scenario sets."""
    (sums, granules, starts), members = aggregate_triple(scheme, cuts, n_scenarios)
    return sums, [tuple(s for g in group for s in members[g])
                  for group in groups_of(granules, starts)]


class TestAggregateGranules:
    def test_multi_keeps_input(self):
        rows, _, counts = stacked(singletons(4))
        sums, granules, starts = aggregation.aggregate_granules(None, rows, counts)
        assert sums is rows
        assert granules.tolist() == [0, 1, 2, 3]
        assert starts.tolist() == [0, 1, 2, 3, 4]

    def test_single_merges_all(self):
        sums, parts = aggregate(SingleCut(), singletons(4), 4)
        assert len(sums) == 1
        assert parts == [(0, 1, 2, 3)]

    def test_kmedoids_matches_brute_force_example(self):
        cuts = [
            OptimalityCut(grad=[1.0, 0.0], offset=0.5, members=(0,)),
            OptimalityCut(grad=[1.0, 0.01], offset=0.2, members=(1,)),
            OptimalityCut(grad=[0.0, 1.0], offset=0.9, members=(2,)),
        ]
        # brute force over all 2-cluster medoid assignments
        best_cost, best_parts = np.inf, None
        for split in (((0, 1), (2,)), ((0, 2), (1,)), ((1, 2), (0,))):
            cost = 0.0
            for part in split:
                cost += min(
                    sum(
                        cut_distance(cuts[i], cuts[m], DistanceMeasure.ANGULAR)
                        for i in part
                    )
                    for m in part
                )
            if cost < best_cost:
                best_cost, best_parts = cost, split
        assert best_parts == ((0, 1), (2,))
        _, parts = aggregate(Kmedoids(clusters=2, measure=DistanceMeasure.ANGULAR), cuts, 3)
        assert sorted(parts) == [(0, 1), (2,)]

    def test_granulated_composition(self):
        cuts = singletons(4)
        sums, parts = aggregate(Granulated(block_size=2, inner=SingleCut()), cuts, 4)
        assert parts == [(0, 1, 2, 3)]
        direct, _ = aggregate(SingleCut(), cuts, 4)
        assert sums.tobytes() == direct.tobytes()

    def test_granulated_inner_blocks_use_granule_ids(self):
        _, parts = aggregate(Granulated(block_size=2, inner=Partial(size=1)), singletons(6), 6)
        assert parts == [(0, 1), (2, 3), (4, 5)]

    @pytest.mark.parametrize("text, block, inner", [
        ("multi", 1, None),
        ("partial:T=3", 3, None),
        ("uniform:T=3", 3, None),
        ("single", 10, None),
        ("granulated:T0=2,inner=multi", 2, None),
        ("granulated:T0=2,inner=partial:T=2", 4, None),
        ("granulated:T0=4,inner=partial:T=3", 10, None),
        ("granulated:T0=3,inner=single", 10, None),
        ("closest:A=2", 1, parse_scheme("closest:A=2")),
        ("kmedoids:k=2", 1, parse_scheme("kmedoids:k=2")),
        ("granulated:T0=3,inner=kmedoids:k=2", 3, parse_scheme("kmedoids:k=2")),
    ])
    def test_granulation(self, text, block, inner):
        # N = 10: a static block size, capped at N, plus the inner rule
        assert aggregation.granulation(parse_scheme(text), 10) == (block, inner)

    def test_unit_granules_are_the_input(self):
        rows = stacked(singletons(5))[0]
        assert aggregation.granulate(rows, 1) is rows
        assert aggregate(MultiCut(), singletons(5), 5)[0].tobytes() == rows.tobytes()

    def test_outputs_partition_input_for_every_strategy(self):
        schemes = [
            MultiCut(), SingleCut(), Partial(size=3),
            Granulated(block_size=2, inner=Partial(size=2)),
            SelectClosest(slots=3, tolerance=0.4),
            Kmedoids(clusters=3),
            Granulated(block_size=2, inner=SelectClosest(slots=2, tolerance=0.3)),
        ]
        cuts = singletons(10)
        for scheme in schemes:
            (sums, granules, starts), members = aggregate_triple(scheme, cuts, 10)
            # the aggregates partition the granules, each in ascending order
            assert starts[0] == 0 and starts[-1] == len(granules) == len(members)
            assert len(sums) == len(starts) - 1 and (np.diff(starts) > 0).all()
            assert sorted(granules.tolist()) == list(range(len(members)))
            assert all(group == sorted(group) for group in groups_of(granules, starts))
            total = stacked(cuts)[0].sum(axis=0)
            assert np.allclose(sums[:, :-1].sum(axis=0), total[:-1], atol=1e-12)
            assert sums[:, -1].sum() == pytest.approx(total[-1], abs=1e-12)

    def test_select_closest_groups_parallel_cuts(self):
        parallel = [singleton(s, grad=[1.0, 0.0], offset=float(s)) for s in range(3)]
        odd = [singleton(3, grad=[0.0, 1.0], offset=9.0)]
        _, parts = aggregate(
            SelectClosest(slots=2, tolerance=0.1, measure=DistanceMeasure.ANGULAR),
            parallel + odd, 4,
        )
        parts = sorted(parts)
        assert (3,) in parts  # the perpendicular cut stays alone
        assert (0, 1) in parts  # slot flushed at ceil(4/2) = 2 members

    @pytest.mark.parametrize("measure", list(DistanceMeasure))
    def test_select_closest_places_each_row_once(self, measure, monkeypatch):
        cuts = singletons(40)
        rule = SelectClosest(slots=4, tolerance=0.6, measure=measure)
        rows, members, counts = stacked(cuts)
        calls = record_calls(monkeypatch, aggregation, "aggregation_distance")
        sums, granules, starts = aggregation.aggregate_granules(rule, rows, counts)
        groups = groups_of(granules, starts)
        # one distance per arriving row and open slot, and one running sum
        # per slot opening, added to in place rather than re-summed
        assert len(calls) <= len(rows) * rule.slots
        assert len({id(args[2]) for args, _, _ in calls}) <= len(groups)
        expected = reference_select_closest(rule, cuts)
        assert [[members[g][0] for g in group] for group in groups] == [
            list(c.members) for c in expected
        ]
        assert sums.tobytes() == np.array([cut_row(c) for c in expected]).tobytes()

    def test_invalid_parameters(self):
        assert validate_scheme(Partial(size=9), 4)
        assert validate_scheme(
            Granulated(block_size=2, inner=Granulated(block_size=2, inner=SingleCut())), 4
        )


def random_stack(rng):
    """Granule rows for the closest rule: one to three members each, with
    duplicate rows, zero-gradient rows and rows of -0.0 mixed in."""
    n, d = int(rng.integers(1, 40)), int(rng.integers(1, 5))
    rows = rng.uniform(-1, 1, (n, d + 1)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    for g in range(n):
        kind = rng.integers(0, 8)
        if kind == 0 and g > 0:
            rows[g] = rows[rng.integers(0, g)]
        elif kind == 1:
            rows[g, :-1] = 0.0
        elif kind == 2:
            rows[g] = -0.0
        elif kind == 3:
            rows[g, :-1] = -0.0
        elif kind == 4:
            rows[g, :-1] *= rng.choice([1.0, -2.0, 3.0])  # parallel to its start
    sizes = rng.integers(1, 4, n)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    members = [tuple(range(starts[g], starts[g + 1])) for g in range(n)]
    return rows, members


class TestClosestOnRows:
    def test_random_stacks_match_reference(self):
        """1,200 random stacks, every measure and 1-8 slots: the rows are the
        reference's bit for bit and the groups are its members."""
        rng = np.random.default_rng(2024)
        for trial in range(1200):
            rows, members = random_stack(rng)
            measure = list(DistanceMeasure)[trial % 3]
            tau = float(rng.choice([0.0, 0.05, 0.3, 1.0, 2.5]))
            if measure is DistanceMeasure.ANGULAR:
                tau = min(tau, 1.0)
            rule = SelectClosest(slots=int(rng.integers(1, 9)), tolerance=tau, measure=measure)
            sums, granules, starts = aggregation.aggregate_granules(
                rule, rows, [len(m) for m in members]
            )
            groups = groups_of(granules, starts)
            expected = reference_select_closest(rule, cuts_of(rows, members))
            assert [tuple(s for g in group for s in members[g]) for group in groups] == [
                c.members for c in expected
            ], trial
            assert sums.tobytes() == np.array([cut_row(c) for c in expected]).tobytes(), trial

    def test_slot_sums_are_running_sums_from_zero(self):
        # one slot of -0.0 rows sums to +0.0, as the loop from zero does
        rows = np.full((3, 3), -0.0)
        rule = SelectClosest(slots=1, tolerance=0.3, measure=DistanceMeasure.ABSOLUTE)
        sums, granules, starts = aggregation.aggregate_granules(rule, rows, [1, 1, 1])
        assert groups_of(granules, starts) == [[0, 1, 2]]
        assert not np.signbit(sums).any()


def scaled_rows(rng, k, width):
    """Random stacked rows, each scaled by 10**e with e uniform in [-8, 8]."""
    return rng.uniform(-1, 1, (k, width)) * 10.0 ** rng.uniform(-8, 8, (k, 1))


class TestStackedSums:
    """Block and cluster sums over stacked rows equal the plain ascending
    loop bit for bit, including signed zeros."""

    @staticmethod
    def assert_sum_bits(got, cuts):
        assert got.tobytes() == reference_sum(cuts).tobytes()

    @pytest.mark.parametrize("k, block", [
        (10, 3),  # single-row last block
        (9, 3), (7, 7), (8, 7), (12, 5), (40, 6), (3, 2), (2, 2),
    ])
    def test_block_sums(self, k, block):
        rng = np.random.default_rng(100 * k + block)
        for _ in range(30):
            rows = scaled_rows(rng, k, int(rng.integers(2, 8)))
            cuts = cuts_of(rows, [(s,) for s in range(k)])
            sums = aggregation.granulate(rows, block)
            assert len(sums) == math.ceil(k / block)
            for g, got in enumerate(sums):
                self.assert_sum_bits(got, cuts[g * block:(g + 1) * block])

    def test_random_ragged_stacks(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(2, 50))
            block = int(rng.integers(2, k + 1))
            rows = scaled_rows(rng, k, int(rng.integers(2, 8)))
            cuts = cuts_of(rows, [(s,) for s in range(k)])
            for g, got in enumerate(aggregation.granulate(rows, block)):
                self.assert_sum_bits(got, cuts[g * block:(g + 1) * block])

    def test_negative_zero_rows(self):
        # a block of -0.0 rows sums to +0.0, as a loop from zero does
        rows = np.full((7, 4), -0.0)
        rows[5] = [1.0, -0.0, 2.0, -3.0]
        cuts = cuts_of(rows, [(s,) for s in range(7)])
        for block in (2, 3, 7):
            for g, got in enumerate(aggregation.granulate(rows, block)):
                self.assert_sum_bits(got, cuts[g * block:(g + 1) * block])
        assert not np.signbit(aggregation.granulate(rows, 3)[0]).any()

    @pytest.mark.parametrize("measure", list(DistanceMeasure))
    def test_cluster_sums(self, measure):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n_granules, block = int(rng.integers(3, 30)), int(rng.integers(1, 4))
            rows = scaled_rows(rng, n_granules, 5)
            rows[rng.integers(0, n_granules)] = -0.0
            members = [tuple(range(g * block, (g + 1) * block)) for g in range(n_granules)]
            rule = Kmedoids(clusters=int(rng.integers(1, n_granules)), measure=measure)
            sums, granules, starts = aggregation.aggregate_granules(
                rule, rows, [block] * n_granules
            )
            groups = groups_of(granules, starts)
            assert sorted(g for group in groups for g in group) == list(range(n_granules))
            cuts = cuts_of(rows, members)
            for got, group in zip(sums, groups):
                assert group == sorted(group)
                self.assert_sum_bits(got, [cuts[g] for g in group])

    def test_cluster_groups_in_opening_order(self, monkeypatch):
        # any assignment, cluster labels skipped or out of order: clusters
        # come in the order of their first granule, as a dict loop opens them
        rng = np.random.default_rng(12)
        for trial in range(30):
            n_granules = int(rng.integers(1, 30))
            labels = int(rng.integers(1, n_granules + 3))
            assignment = rng.integers(0, labels, n_granules).tolist()
            monkeypatch.setattr(aggregation, "kmedoids_cluster",
                                lambda *args: (assignment, []))
            rows = scaled_rows(rng, n_granules, 4)
            sums, granules, starts = aggregation.aggregate_granules(
                Kmedoids(clusters=labels), rows, [1] * n_granules
            )
            clusters = {}
            for g, c in enumerate(assignment):
                clusters.setdefault(c, []).append(g)
            assert groups_of(granules, starts) == list(clusters.values())
            cuts = cuts_of(rows, [(g,) for g in range(n_granules)])
            for got, group in zip(sums, clusters.values()):
                self.assert_sum_bits(got, [cuts[g] for g in group])


class TestKmedoids:
    def test_every_point_its_own_medoid(self):
        cuts = singletons(5)
        assignment, medoids = kmedoids(cuts, 5, DistanceMeasure.ANGULAR)
        assert sorted(medoids) == list(range(5))
        cost = sum(
            cut_distance(cuts[i], cuts[medoids[c]], DistanceMeasure.ANGULAR)
            for i, c in enumerate(assignment)
        )
        assert cost == pytest.approx(0.0, abs=1e-12)

    def test_k1_matches_brute_force_medoid(self):
        cuts = singletons(7)
        dist = [
            [cut_distance(a, b, DistanceMeasure.ABSOLUTE) for b in cuts] for a in cuts
        ]
        best = min(range(7), key=lambda m: sum(dist[m]))
        _, medoids = kmedoids(cuts, 1, DistanceMeasure.ABSOLUTE)
        assert medoids == [best]

    def test_duplicates_share_cluster(self):
        cuts = [singleton(s, grad=[1.0, 2.0], offset=1.0) for s in range(4)]
        assignment, _ = kmedoids(cuts, 2, DistanceMeasure.ABSOLUTE)
        assert len(set(assignment)) == 1

    def test_swap_local_optimality(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            cuts = [
                OptimalityCut(grad=rng.uniform(-1, 1, 4), offset=rng.uniform(-1, 1), members=(s,))
                for s in range(9)
            ]
            k = 3
            dist = np.array(
                [[cut_distance(a, b, DistanceMeasure.ABSOLUTE) for b in cuts] for a in cuts]
            )
            assignment, medoids = kmedoids(cuts, k, DistanceMeasure.ABSOLUTE)
            cost = sum(dist[i, medoids[c]] for i, c in enumerate(assignment))
            for c in range(k):
                for cand in range(9):
                    if cand in medoids:
                        continue
                    trial = list(medoids)
                    trial[c] = cand
                    trial_cost = sum(min(dist[i, m] for m in trial) for i in range(9))
                    assert cost <= trial_cost + 1e-9

    def test_exact_ties_go_to_the_lowest_index(self):
        # the corners of a square: every point has the same total distance,
        # and two are farthest from the first medoid
        rows = np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [1.0, -1.0, 0.0]])
        for _ in range(2):
            assignment, medoids = kmedoids_cluster(rows, [1] * 4, 2, DistanceMeasure.ABSOLUTE)
            assert (medoids, assignment) == ([0, 2], [0, 0, 1, 0])

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            kmedoids(singletons(3), 4, DistanceMeasure.ANGULAR)

    @pytest.mark.parametrize("measure", list(DistanceMeasure))
    def test_matches_reference_loop(self, measure):
        for seed in range(4):
            cuts = multi_member_cuts(seed, 12)
            for k in (1, 2, 5, len(cuts)):
                assert kmedoids(cuts, k, measure) == reference_kmedoids(cuts, k, measure)

    @pytest.mark.parametrize("measure", list(DistanceMeasure))
    def test_recentring_follows_membership(self, measure, monkeypatch):
        # many exact duplicates: distances and cluster sums tie exactly.  A
        # cluster is re-centred only when its member set differs from the
        # one it had at its last visit, or a swap replaced its medoid.
        # Copies merge into one weighted point, so members are indices of
        # the distinct cuts on both sides.
        calls = record_calls(monkeypatch, aggregation, "_medoid_of")
        swaps = recentred = visited = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            base = multi_member_cuts(seed, 5)
            cuts = [
                OptimalityCut(grad=base[b].grad, offset=base[b].offset, members=(s,))
                for s, b in enumerate(rng.integers(0, len(base), 18))
            ]
            for k in (2, 3, 5):
                calls.clear()
                visits = []
                got = kmedoids(cuts, k, measure)
                assert got == reference_kmedoids_distinct(cuts, k, measure, visits=visits)
                expected, last = [], {}
                for c, members in visits:
                    if members is None:
                        last.pop(c, None)
                        swaps += 1
                        continue
                    if members and members != last.get(c):
                        expected.append(members)
                    last[c] = members
                assert [tuple(args[2].tolist()) for args, _, _ in calls] == expected
                recentred += len(expected)
                visited += sum(members is not None for _, members in visits)
        assert swaps > 0 and recentred < visited

    @pytest.mark.parametrize("measure", list(DistanceMeasure))
    def test_duplicates_match_weighted_reference(self, measure):
        # copies merge into one point weighted by their number; k above the
        # distinct count clusters every distinct cut on its own
        for seed in range(4):
            cuts = duplicate_heavy_cuts(seed, 24, 7)
            first, _ = distinct_cuts(cuts)
            assert len(first) < len(cuts)
            for k in (1, 2, 4, len(first), len(first) + 3):
                assignment, medoids = kmedoids(cuts, k, measure)
                assert (assignment, medoids) == reference_kmedoids_distinct(cuts, k, measure)
                assert len(medoids) == min(k, len(first)) and set(medoids) <= set(first)

    def test_k_above_distinct_count(self):
        cuts = duplicate_heavy_cuts(3, 12, 4)
        first, point_of = distinct_cuts(cuts)
        assignment, medoids = kmedoids(cuts, 9, DistanceMeasure.ABSOLUTE)
        assert sorted(medoids) == first
        assert [medoids[c] for c in assignment] == [first[p] for p in point_of]

    def test_equal_rows_with_different_counts_stay_distinct(self, monkeypatch):
        calls = record_calls(monkeypatch, aggregation, "_distance_matrix")
        rows = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [-1.0, 0.5, 2.0]])
        counts = [1, 2, 1, 1]
        assignment, medoids = kmedoids_cluster(rows, counts, 3, DistanceMeasure.ABSOLUTE)
        [(args, _, _)] = calls
        assert np.array_equal(args[0], rows[[0, 1, 3]]) and args[1].tolist() == [1, 2, 1]
        assert assignment[0] == assignment[2] != assignment[1]
        assert sorted(medoids) == [0, 1, 3]
        members = [(0,), (1, 2), (3,), (4,)]
        assert (assignment, medoids) == reference_kmedoids_distinct(
            cuts_of(rows, members), 3, DistanceMeasure.ABSOLUTE
        )

    def test_medoid_is_the_first_copy(self):
        # the central row sits at 3, 5 and 7; with one cluster it is the medoid
        centre = np.array([0.0, 0.0, 1.0])
        rng = np.random.default_rng(4)
        rows = centre + rng.uniform(-0.3, 0.3, (8, 3))
        rows[[3, 5, 7]] = centre
        assignment, medoids = kmedoids_cluster(rows, [1] * 8, 1, DistanceMeasure.ABSOLUTE)
        assert medoids == [3] and assignment == [0] * 8
        cuts = cuts_of(rows, [(s,) for s in range(8)])
        for k in (1, 2, 3):
            got = kmedoids_cluster(rows, [1] * 8, k, DistanceMeasure.ABSOLUTE)
            assert got == reference_kmedoids_distinct(cuts, k, DistanceMeasure.ABSOLUTE)
            assert not {5, 7} & set(got[1])

    def test_distance_matrix_over_distinct_rows_only(self, monkeypatch):
        # 5000 rows, at most 150 distinct: a 5000 x 5000 distance matrix
        # alone would take 200 MB
        rng = np.random.default_rng(0)
        rows = rng.uniform(-1, 1, (150, 6))[rng.integers(0, 150, 5000)]
        counts = np.ones(5000, dtype=int)
        calls = record_calls(monkeypatch, aggregation, "_distance_matrix")
        tracemalloc.start()
        try:
            assignment, medoids = kmedoids_cluster(rows, counts, 10, DistanceMeasure.ANGULAR)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        distinct = len(np.unique(rows, axis=0))
        [(args, _, _)] = calls
        assert len(args[0]) == distinct <= 150
        assert peak < 20 * 2**20
        assert len(assignment) == 5000 and len(medoids) == 10
        first, point_of = aggregation.distinct_rows(rows)
        assert np.array_equal(np.array(assignment)[first][point_of], assignment)

    def test_distinct_rows_by_bytes_in_first_occurrence_order(self):
        rows = np.array([[2.0, 1.0], [0.0, 1.0], [2.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
        first, row_of = aggregation.distinct_rows(rows)
        assert first.tolist() == [0, 1, 3]
        assert row_of.tolist() == [0, 1, 0, 2, 1]


def distance_matrix(cuts, measure):
    rows, _, counts = stacked(cuts)
    return aggregation._distance_matrix(rows, counts, measure)


class TestDistanceMatrix:
    @pytest.mark.parametrize("measure", list(DistanceMeasure))
    def test_matches_pairwise_distance(self, measure):
        for seed in range(5):
            cuts = multi_member_cuts(seed, 15, flat=4)
            dist = distance_matrix(cuts, measure)
            pairwise = np.array(
                [[cut_distance(a, b, measure) for b in cuts] for a in cuts]
            )
            assert np.max(np.abs(dist - pairwise)) <= 1e-12
            assert np.array_equal(dist, dist.T)
            assert np.all(np.diag(dist) == 0.0)

    @pytest.mark.parametrize("measure", list(DistanceMeasure))
    def test_duplicates_at_exact_zero(self, measure):
        # angular reads gradients only, so its twins also get another offset
        shift = 1.0 if measure is DistanceMeasure.ANGULAR else 0.0
        base = multi_member_cuts(7, 6)
        twins = [
            OptimalityCut(grad=c.grad, offset=c.offset + shift,
                          members=tuple(m + 100 for m in c.members))
            for c in base
        ]
        dist = distance_matrix(base + twins, measure)
        assert np.all(np.diag(dist, k=len(base)) == 0.0)


#: a few values of each key of each strategy but granulated
GRAMMAR_VALUES = {
    "multi": {}, "single": {}, "partial": {"T": ["1", "7"]}, "uniform": {"T": ["16"]},
    "closest": {"A": ["1", "8"], "tau": ["0", "0.1234567", "1e-17"],
                "measure": [m.value for m in DistanceMeasure]},
    "kmedoids": {"k": ["1", "20"], "measure": [m.value for m in DistanceMeasure]},
}
SWEEP_KEYS = {"T": "9", "A": "9", "tau": "0.75", "k": "9", "T0": "9"}


def grammar_texts() -> list[str]:
    """Every strategy with every subset and order of its keys, three value
    sets each, alone and as the inner rule of granulated with and without T0."""
    texts = []
    for name, pools in GRAMMAR_VALUES.items():
        for size in range(len(pools) + 1):
            for keys in itertools.permutations(pools, size):
                for j in range(3):
                    params = ",".join(f"{k}={pools[k][j % len(pools[k])]}" for k in keys)
                    texts.append(f"{name}:{params}" if params else name)
    return [f"granulated:{t0}inner={text}" for text in texts for t0 in ("", "T0=3,")] + [
        *texts, "granulated", "granulated:T0=3",
    ]


class TestSchemeGrammar:
    @pytest.mark.parametrize("text", list(dict.fromkeys([
        "multi", "single", "partial:T=16", "uniform:T=16",
        "closest:A=8,tau=0.3,measure=angular",
        "closest:A=4,tau=0.1234567,measure=absolute",
        "closest:A=4,tau=1e-17,measure=spatioangular",
        "kmedoids:k=20,measure=angular",
        "granulated:T0=5,inner=kmedoids:k=20",
        "granulated:T0=5,inner=kmedoids:k=20,measure=spatioangular",
        *grammar_texts(),
    ])))
    def test_label_round_trip(self, text):
        scheme = parse_scheme(text)
        label = scheme_label(scheme)
        assert parse_scheme(label) == scheme
        assert scheme_label(parse_scheme(label)) == label
        # a sweep changes exactly its key in the label; keys are unique in one
        for key, value in SWEEP_KEYS.items():
            pattern = rf"(?<=[:,]){key}=[^,:]*"
            if re.search(pattern, label):
                swept = scheme_label(aggregation.with_parameter(scheme, key, float(value)))
                assert swept == re.sub(pattern, f"{key}={value}", label) != label
            else:
                with pytest.raises(ValueError, match=f"has no parameter '{key}'"):
                    aggregation.with_parameter(scheme, key, float(value))

    def test_parse_examples(self):
        assert parse_scheme("partial:T=16") == Partial(size=16)
        # uniform slots fill in arrival order; complete cuts in index order
        # make them partial blocks, so the solve is the partial one
        assert parse_scheme("uniform:T=4") == Partial(4)
        closest = parse_scheme("closest:A=8,tau=0.3,measure=angular")
        assert closest == SelectClosest(slots=8, tolerance=0.3, measure=DistanceMeasure.ANGULAR)
        km = parse_scheme("kmedoids:k=20,measure=absolute")
        assert km == Kmedoids(clusters=20, measure=DistanceMeasure.ABSOLUTE)

    def test_blanks_around_names_and_before_inner(self):
        # the blank before inner= must not move the inner rule's parameters
        # onto the outer strategy
        assert parse_scheme("granulated:T0=3, inner=kmedoids:k=2,measure=absolute") == Granulated(
            block_size=3, inner=Kmedoids(clusters=2, measure=DistanceMeasure.ABSOLUTE)
        )
        assert parse_scheme(" granulated : T0=3") == parse_scheme("granulated:T0=3")

    def test_kmedoids_has_no_seed(self):
        assert scheme_label(parse_scheme("kmedoids:k=2")) == "kmedoids:k=2,measure=angular"
        with pytest.raises(ValueError, match=re.escape("unexpected parameters for 'kmedoids'")):
            parse_scheme("kmedoids:k=2,seed=1")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_scheme("surprise:T=2")
        with pytest.raises(ValueError):
            parse_scheme("partial:T=2,bogus=1")

    @pytest.mark.parametrize("text, message", [
        ("partial:T=4,T=5", "repeated parameter 'T'"),
        ("kmedoids:k=2,measure=absolute, k=3", "repeated parameter 'k'"),
        ("partial:T=", "invalid literal for int() with base 10: ''"),
        ("closest:A=2.5", "invalid literal for int() with base 10: '2.5'"),
        ("closest:tau=x", "could not convert string to float: 'x'"),
        ("kmedoids:k=1e3", "invalid literal for int() with base 10: '1e3'"),
        ("granulated:T0=,inner=single", "invalid literal for int() with base 10: ''"),
        ("multi:T", "parameter 'T' has no value"),
    ])
    def test_malformed_text_names_the_strategy(self, text, message):
        with pytest.raises(ValueError, match=re.escape(f"malformed strategy {text!r}: {message}")):
            parse_scheme(text)

    @pytest.mark.parametrize("text, inner, message", [
        ("granulated:inner=kmedoids:k=2,T0=3", "kmedoids:k=2,T0=3",
         "unexpected parameters for 'kmedoids': ['T0']"),
        ("granulated:T0=2,inner=closest:A=x", "closest:A=x",
         "malformed strategy 'closest:A=x': invalid literal for int() with base 10: 'x'"),
        ("granulated:T0=2,inner=surprise", "surprise", "unknown aggregation strategy 'surprise'"),
    ])
    def test_malformed_inner_rule_says_inner_comes_last(self, text, inner, message):
        # an outer parameter after inner= is read as the inner rule's; the
        # error names the outer strategy and says where inner= belongs
        with pytest.raises(ValueError, match=re.escape(
            f"malformed strategy {text!r}: inner rule {inner!r}: {message}; everything "
            "after 'inner=' belongs to the inner rule, so inner= must be the last parameter"
        )):
            parse_scheme(text)

    @pytest.mark.parametrize("text, name", [
        ("partial:T=2", "T"), ("closest:A=2", "A"), ("kmedoids:k=2", "k"),
        ("granulated:T0=2,inner=single", "T0"),
    ])
    def test_with_parameter_takes_only_integers_for_integer_parameters(self, text, name):
        scheme = parse_scheme(text)
        for value in (2.5, 1e-3, math.inf, math.nan):
            with pytest.raises(ValueError, match="must be an integer"):
                aggregation.with_parameter(scheme, name, value)
        assert f"{name}=3" in scheme_label(aggregation.with_parameter(scheme, name, 3.0))
        tau = aggregation.with_parameter(parse_scheme("closest"), "tau", 0.25)
        assert tau.tolerance == 0.25

    @pytest.mark.parametrize("inner, name, value, want", [
        ("kmedoids:k=10", "k", 4, "kmedoids:k=4,measure=angular"),
        ("closest:A=2,tau=0.5", "A", 6, "closest:A=6,tau=0.5,measure=angular"),
        ("closest:A=2,tau=0.5", "tau", 0.25, "closest:A=2,tau=0.25,measure=angular"),
        ("partial:T=2", "T", 3, "partial:T=3"),
    ])
    def test_with_parameter_reaches_the_granulated_inner_rule(self, inner, name, value, want):
        scheme = parse_scheme(f"granulated:T0=10,inner={inner}")
        swept = aggregation.with_parameter(scheme, name, value)
        assert swept == Granulated(block_size=10, inner=parse_scheme(want))
        assert aggregation.with_parameter(scheme, "T0", 4).inner == scheme.inner
        with pytest.raises(ValueError, match="has no parameter 'bogus'"):
            aggregation.with_parameter(scheme, "bogus", 1)

    def test_validate_scheme(self):
        assert validate_scheme(Partial(size=3), 10) == []
        assert validate_scheme(Partial(size=30), 10)
        assert validate_scheme(SelectClosest(slots=2, tolerance=1.5), 10)
        for measure in DistanceMeasure:
            for tau in (math.nan, -0.1):
                rule = SelectClosest(slots=2, tolerance=tau, measure=measure)
                assert validate_scheme(rule, 10), (measure, tau)
            rule = SelectClosest(slots=2, tolerance=0.0, measure=measure)
            assert validate_scheme(rule, 10) == []
        # ceil(10/3) = 4 granules: inner size 4 fits, size 5 does not
        assert validate_scheme(
            Granulated(block_size=3, inner=Partial(size=4)), 10
        ) == []
        assert validate_scheme(
            Granulated(block_size=3, inner=Partial(size=5)), 10
        ) != []

    @pytest.mark.parametrize("text, message", [
        ("closest:A=0", "closest rule needs at least one slot"),
        ("kmedoids:k=0", "k-medoids needs at least one cluster"),
        ("granulated:T0=0,inner=single", "granule size 0 not in 1..10"),
        ("granulated:T0=11,inner=single", "granule size 11 not in 1..10"),
    ])
    def test_validate_scheme_names_the_violation(self, text, message):
        assert validate_scheme(parse_scheme(text), 10) == [message]

    @pytest.mark.parametrize("text, message", [
        ("closest:measure=bogus", "unknown distance measure 'bogus'"),
        ("granulated:T0=2,inner=granulated:T0=2,inner=single",
         "granulated strategies cannot be nested"),
    ])
    def test_parse_scheme_rejects(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_scheme(text)
