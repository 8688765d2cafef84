import itertools
import math

import numpy as np
import pytest

from lshaped import (
    Cluster,
    DistanceMeasure,
    Dynamic,
    Granulated,
    Kmedoids,
    MultiCut,
    OptimalityCut,
    Partial,
    PartitioningScheme,
    SelectClosest,
    SingleCut,
    aggregation_distance,
    apply_scheme,
    cut_distance,
    kmedoids_cluster,
    parse_scheme,
    scheme_label,
    scheme_stats,
    uniform_partition,
    validate_partitioning,
    validate_scheme,
)
from lshaped import aggregation
from lshaped.cuts import cut_rows, cuts_from_rows
from helpers import record_calls, reference_kmedoids, reference_select_closest, reference_sum


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


class TestPartitioning:
    def test_valid(self):
        s = PartitioningScheme(parts=({0, 1}, {2}), n_scenarios=3)
        assert validate_partitioning(s) == []

    def test_overlap(self):
        s = PartitioningScheme(parts=({0, 1}, {1, 2}), n_scenarios=3)
        assert any("overlap at [1]" in msg for msg in validate_partitioning(s))

    def test_uncovered(self):
        s = PartitioningScheme(parts=({0},), n_scenarios=2)
        assert any("uncovered: [1]" in msg for msg in validate_partitioning(s))

    def test_stats_extremes(self):
        n = 7
        multi = PartitioningScheme(parts=tuple({s} for s in range(n)), n_scenarios=n)
        single = PartitioningScheme(parts=(set(range(n)),), n_scenarios=n)
        assert scheme_stats(multi) == (n, 1)
        assert scheme_stats(single) == (1, n)

    def test_stats_mixed(self):
        s = PartitioningScheme(parts=({0, 1}, {2}), n_scenarios=3)
        assert scheme_stats(s) == (2, 2)

    def test_stats_bounds_for_uniform_partitions(self):
        for n in (1, 5, 9):
            for size in range(1, n + 1):
                a, level = scheme_stats(uniform_partition(n, size))
                assert 1 <= a <= n and 1 <= level <= n


class TestUniformPartition:
    def test_even_blocks(self):
        parts = uniform_partition(6, 2).parts
        assert [sorted(p) for p in parts] == [[0, 1], [2, 3], [4, 5]]

    def test_remainder_block_smaller(self):
        parts = uniform_partition(5, 2).parts
        assert [sorted(p) for p in parts] == [[0, 1], [2, 3], [4]]

    def test_single_block(self):
        parts = uniform_partition(4, 4).parts
        assert [sorted(p) for p in parts] == [[0, 1, 2, 3]]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            uniform_partition(4, 5)
        with pytest.raises(ValueError):
            uniform_partition(4, 0)


def assert_partitions_input(outputs, inputs):
    covered = sorted(m for c in outputs for m in c.members)
    assert covered == sorted(m for c in inputs for m in c.members)
    grads_in = sum(c.grad for c in inputs)
    grads_out = sum(c.grad for c in outputs)
    assert np.allclose(grads_in, grads_out, atol=1e-12)
    assert sum(c.offset for c in inputs) == pytest.approx(
        sum(c.offset for c in outputs), abs=1e-12
    )


class TestApplyScheme:
    def test_multi_keeps_input(self):
        cuts = singletons(4)
        assert apply_scheme(MultiCut(), cuts, 4) == cuts

    def test_single_merges_all(self):
        out = apply_scheme(SingleCut(), singletons(4), 4)
        assert len(out) == 1
        assert out[0].members == (0, 1, 2, 3)

    def test_partial_blocks_follow_scenario_indices(self):
        # missing scenarios keep their block identity
        cuts = [singleton(s) for s in (0, 3, 4, 6)]
        out = apply_scheme(Partial(size=2), cuts, 7)
        assert [c.members for c in out] == [(0,), (3,), (4,), (6,)]
        out2 = apply_scheme(Partial(size=4), cuts, 7)
        assert [c.members for c in out2] == [(0, 3), (4, 6)]

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
        out = apply_scheme(Cluster(Kmedoids(clusters=2, measure=DistanceMeasure.ANGULAR)), cuts, 3)
        assert sorted(c.members for c in out) == [(0, 1), (2,)]

    def test_granulated_composition(self):
        cuts = singletons(4)
        out = apply_scheme(Granulated(block_size=2, inner=SingleCut()), cuts, 4)
        assert len(out) == 1
        assert out[0].members == (0, 1, 2, 3)
        direct = apply_scheme(SingleCut(), cuts, 4)
        assert np.array_equal(out[0].grad, direct[0].grad)
        assert out[0].offset == direct[0].offset

    def test_granulated_inner_blocks_use_granule_ids(self):
        cuts = singletons(6)
        out = apply_scheme(
            Granulated(block_size=2, inner=Partial(size=1)), cuts, 6
        )
        assert [c.members for c in out] == [(0, 1), (2, 3), (4, 5)]

    @pytest.mark.parametrize("text, block, inner", [
        ("multi", 1, MultiCut()),
        ("partial:T=3", 3, MultiCut()),
        ("uniform:T=3", 3, MultiCut()),
        ("single", 10, MultiCut()),
        ("granulated:T0=2,inner=multi", 2, MultiCut()),
        ("granulated:T0=2,inner=partial:T=2", 4, MultiCut()),
        ("granulated:T0=4,inner=partial:T=3", 10, MultiCut()),
        ("granulated:T0=3,inner=single", 10, MultiCut()),
        ("closest:A=2", 1, parse_scheme("closest:A=2")),
        ("kmedoids:k=2", 1, parse_scheme("kmedoids:k=2")),
        ("granulated:T0=3,inner=kmedoids:k=2", 3, parse_scheme("kmedoids:k=2")),
    ])
    def test_granulation(self, text, block, inner):
        # N = 10: a static block size, capped at N, plus the inner rule
        assert aggregation.granulation(parse_scheme(text), 10) == (block, inner)

    def test_unit_granules_are_the_input(self, monkeypatch):
        calls = record_calls(monkeypatch, aggregation, "aggregate_cuts")
        cuts = singletons(5)
        rows = cut_rows(cuts)
        assert aggregation.granulate(rows, 1) is rows
        assert apply_scheme(MultiCut(), cuts, 5) == cuts
        assert calls == []

    def test_outputs_partition_input_for_every_strategy(self):
        schemes = [
            MultiCut(), SingleCut(), Partial(size=3),
            Granulated(block_size=2, inner=Partial(size=2)),
            Dynamic(SelectClosest(slots=3, tolerance=0.4)),
            Cluster(Kmedoids(clusters=3)),
            Granulated(block_size=2, inner=Dynamic(SelectClosest(slots=2, tolerance=0.3))),
        ]
        cuts = singletons(10)
        for scheme in schemes:
            out = apply_scheme(scheme, cuts, 10)
            assert_partitions_input(out, cuts)
            as_partition = PartitioningScheme(
                parts=tuple(set(c.members) for c in out), n_scenarios=10
            )
            assert validate_partitioning(as_partition) == []

    def test_select_closest_groups_parallel_cuts(self):
        parallel = [singleton(s, grad=[1.0, 0.0], offset=float(s)) for s in range(3)]
        odd = [singleton(3, grad=[0.0, 1.0], offset=9.0)]
        out = apply_scheme(
            Dynamic(SelectClosest(slots=2, tolerance=0.1, measure=DistanceMeasure.ANGULAR)),
            parallel + odd, 4,
        )
        groups = sorted(c.members for c in out)
        assert (3,) in groups  # the perpendicular cut stays alone
        assert (0, 1) in groups  # slot flushed at ceil(4/2) = 2 members

    def test_empty_input(self):
        assert apply_scheme(SingleCut(), [], 4) == []

    @pytest.mark.parametrize("measure", list(DistanceMeasure))
    def test_select_closest_aggregates_each_slot_content_once(self, measure, monkeypatch):
        calls = []
        aggregate = aggregation.aggregate_cuts

        def counting(cuts):
            calls.append(len(cuts))
            return aggregate(cuts)

        monkeypatch.setattr(aggregation, "aggregate_cuts", counting)
        cuts = singletons(40)
        rule = SelectClosest(slots=4, tolerance=0.6, measure=measure)
        out = apply_scheme(Dynamic(rule), cuts, 40)
        assert len(calls) <= len(cuts) + rule.slots
        expected = reference_select_closest(rule, cuts, 40)
        assert [c.members for c in out] == [c.members for c in expected]
        for a, b in zip(out, expected):
            assert np.array_equal(a.grad, b.grad) and a.offset == b.offset

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            apply_scheme(Partial(size=9), singletons(4), 4)
        with pytest.raises(ValueError):
            apply_scheme(Granulated(block_size=2, inner=Granulated(block_size=2, inner=SingleCut())),
                         singletons(4), 4)


def scaled_rows(rng, k, width):
    """Random stacked rows, each scaled by 10**e with e uniform in [-8, 8]."""
    return rng.uniform(-1, 1, (k, width)) * 10.0 ** rng.uniform(-8, 8, (k, 1))


class TestStackedSums:
    """Block and cluster sums over stacked rows equal ``aggregate_cuts`` and
    the plain ascending loop bit for bit, including signed zeros."""

    @staticmethod
    def assert_sum_bits(got, cuts):
        cut = aggregation.aggregate_cuts(cuts)
        assert got.tobytes() == np.append(cut.grad, cut.offset).tobytes()
        assert got.tobytes() == reference_sum(cuts).tobytes()

    @pytest.mark.parametrize("k, block", [
        (10, 3),  # single-row last block
        (9, 3), (7, 7), (8, 7), (12, 5), (40, 6), (3, 2), (2, 2),
    ])
    def test_block_sums(self, k, block):
        rng = np.random.default_rng(100 * k + block)
        for _ in range(30):
            rows = scaled_rows(rng, k, int(rng.integers(2, 8)))
            cuts = cuts_from_rows(rows, [(s,) for s in range(k)])
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
            cuts = cuts_from_rows(rows, [(s,) for s in range(k)])
            for g, got in enumerate(aggregation.granulate(rows, block)):
                self.assert_sum_bits(got, cuts[g * block:(g + 1) * block])

    def test_negative_zero_rows(self):
        # a block of -0.0 rows sums to +0.0, as a loop from zero does
        rows = np.full((7, 4), -0.0)
        rows[5] = [1.0, -0.0, 2.0, -3.0]
        cuts = cuts_from_rows(rows, [(s,) for s in range(7)])
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
            rule = Cluster(Kmedoids(clusters=int(rng.integers(1, n_granules)), measure=measure,
                                    seed=trial))
            sums, groups = aggregation.aggregate_granules(rule, rows, members, n_granules)
            assert sorted(g for group in groups for g in group) == list(range(n_granules))
            cuts = cuts_from_rows(rows, members)
            for got, group in zip(sums, groups):
                assert group == sorted(group)
                self.assert_sum_bits(got, [cuts[g] for g in group])


class TestKmedoids:
    def test_every_point_its_own_medoid(self):
        cuts = singletons(5)
        assignment, medoids = kmedoids_cluster(cuts, 5, DistanceMeasure.ANGULAR)
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
        _, medoids = kmedoids_cluster(cuts, 1, DistanceMeasure.ABSOLUTE)
        assert medoids == [best]

    def test_duplicates_share_cluster(self):
        cuts = [singleton(s, grad=[1.0, 2.0], offset=1.0) for s in range(4)]
        assignment, _ = kmedoids_cluster(cuts, 2, DistanceMeasure.ABSOLUTE)
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
            assignment, medoids = kmedoids_cluster(cuts, k, DistanceMeasure.ABSOLUTE, seed=seed)
            cost = sum(dist[i, medoids[c]] for i, c in enumerate(assignment))
            for c in range(k):
                for cand in range(9):
                    if cand in medoids:
                        continue
                    trial = list(medoids)
                    trial[c] = cand
                    trial_cost = sum(min(dist[i, m] for m in trial) for i in range(9))
                    assert cost <= trial_cost + 1e-9

    def test_deterministic_given_seed(self):
        cuts = singletons(8)
        a = kmedoids_cluster(cuts, 3, DistanceMeasure.ANGULAR, seed=5)
        b = kmedoids_cluster(cuts, 3, DistanceMeasure.ANGULAR, seed=5)
        assert a == b

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            kmedoids_cluster(singletons(3), 4, DistanceMeasure.ANGULAR)

    @pytest.mark.parametrize("measure", list(DistanceMeasure))
    def test_matches_reference_loop(self, measure):
        for seed in range(4):
            cuts = multi_member_cuts(seed, 12)
            for k in (1, 2, 5, len(cuts)):
                assert kmedoids_cluster(cuts, k, measure, seed=seed) == reference_kmedoids(
                    cuts, k, measure, seed=seed
                )


def distance_matrix(cuts, measure):
    return aggregation._distance_matrix(
        cut_rows(cuts), [len(c.members) for c in cuts], measure
    )


class TestDistanceMatrix:
    @pytest.mark.parametrize("measure", list(DistanceMeasure))
    def test_matches_pairwise_distance(self, measure):
        for seed in range(5):
            cuts = multi_member_cuts(seed, 15, flat=4)
            dist = distance_matrix(cuts, measure)
            pairwise = np.array(
                [[aggregation_distance(a, b, measure) for b in cuts] for a in cuts]
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


class TestSchemeGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "multi", "single", "partial:T=16", "uniform:T=16",
            "closest:A=8,tau=0.3,measure=angular",
            "kmedoids:k=20,measure=angular,seed=0",
            "granulated:T0=5,inner=kmedoids:k=20",
            "granulated:T0=5,inner=kmedoids:k=20,measure=spatioangular,seed=3",
        ],
    )
    def test_label_round_trip(self, text):
        scheme = parse_scheme(text)
        assert parse_scheme(scheme_label(scheme)) == scheme

    def test_parse_examples(self):
        assert parse_scheme("partial:T=16") == Partial(size=16)
        # uniform slots fill in arrival order; complete cuts in index order
        # make them partial blocks, so the solve is the partial one
        assert parse_scheme("uniform:T=4") == Partial(4)
        closest = parse_scheme("closest:A=8,tau=0.3,measure=angular")
        assert closest == Dynamic(SelectClosest(slots=8, tolerance=0.3, measure=DistanceMeasure.ANGULAR))
        km = parse_scheme("kmedoids:k=20,measure=absolute")
        assert km == Cluster(Kmedoids(clusters=20, measure=DistanceMeasure.ABSOLUTE, seed=None))
        assert parse_scheme("kmedoids:k=2,seed=0").rule.seed == 0

    def test_unset_seed_is_left_out_of_the_label(self):
        assert scheme_label(parse_scheme("kmedoids:k=2")) == "kmedoids:k=2,measure=angular"
        assert scheme_label(parse_scheme("kmedoids:k=2,seed=0")).endswith(",seed=0")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_scheme("surprise:T=2")
        with pytest.raises(ValueError):
            parse_scheme("partial:T=2,bogus=1")

    def test_validate_scheme(self):
        assert validate_scheme(Partial(size=3), 10) == []
        assert validate_scheme(Partial(size=30), 10)
        assert validate_scheme(Dynamic(SelectClosest(slots=2, tolerance=1.5)), 10)
        # ceil(10/3) = 4 granules: inner size 4 fits, size 5 does not
        assert validate_scheme(
            Granulated(block_size=3, inner=Partial(size=4)), 10
        ) == []
        assert validate_scheme(
            Granulated(block_size=3, inner=Partial(size=5)), 10
        ) != []
