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
    kmedoids_cluster,
    parse_scheme,
    scheme_label,
    scheme_stats,
    uniform_partition,
    validate_partitioning,
    validate_scheme,
)
from lshaped import aggregation
from helpers import (
    cut_distance, cut_row, cuts_of, record_calls, reference_kmedoids, reference_select_closest,
    reference_sum,
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


def stacked(cuts):
    """The rows, member sets and member counts of cuts; the engine hands
    ``aggregate_granules`` the rows and the counts."""
    members = [c.members for c in cuts]
    return np.array([cut_row(c) for c in cuts]), members, [len(m) for m in members]


def kmedoids(cuts, k, measure, seed=0):
    rows, _, counts = stacked(cuts)
    return kmedoids_cluster(rows, counts, k, measure, seed)


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


def aggregate(scheme, cuts, n_scenarios):
    """One iteration's aggregation of singleton cuts 0..n_scenarios-1 on
    stacked rows, as the engine takes it: the rows and the scenario sets."""
    block, inner = aggregation.granulation(scheme, n_scenarios)
    rows = aggregation.granulate(stacked(cuts)[0], block)
    members = [tuple(range(g * block, min(n_scenarios, (g + 1) * block)))
               for g in range(len(rows))]
    sums, groups = aggregation.aggregate_granules(inner, rows, [len(m) for m in members],
                                                  len(rows))
    return sums, [tuple(s for g in group for s in members[g]) for group in groups]


class TestAggregateGranules:
    def test_multi_keeps_input(self):
        rows, _, counts = stacked(singletons(4))
        sums, groups = aggregation.aggregate_granules(MultiCut(), rows, counts, 4)
        assert sums is rows
        assert groups == [[0], [1], [2], [3]]

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
        _, parts = aggregate(Cluster(Kmedoids(clusters=2, measure=DistanceMeasure.ANGULAR)),
                             cuts, 3)
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

    def test_unit_granules_are_the_input(self):
        rows = stacked(singletons(5))[0]
        assert aggregation.granulate(rows, 1) is rows
        assert aggregate(MultiCut(), singletons(5), 5)[0].tobytes() == rows.tobytes()

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
            sums, parts = aggregate(scheme, cuts, 10)
            assert sorted(s for part in parts for s in part) == list(range(10))
            total = stacked(cuts)[0].sum(axis=0)
            assert np.allclose(sums[:, :-1].sum(axis=0), total[:-1], atol=1e-12)
            assert sums[:, -1].sum() == pytest.approx(total[-1], abs=1e-12)
            as_partition = PartitioningScheme(parts=tuple(set(p) for p in parts), n_scenarios=10)
            assert validate_partitioning(as_partition) == []

    def test_select_closest_groups_parallel_cuts(self):
        parallel = [singleton(s, grad=[1.0, 0.0], offset=float(s)) for s in range(3)]
        odd = [singleton(3, grad=[0.0, 1.0], offset=9.0)]
        _, parts = aggregate(
            Dynamic(SelectClosest(slots=2, tolerance=0.1, measure=DistanceMeasure.ANGULAR)),
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
        sums, groups = aggregation.aggregate_granules(Dynamic(rule), rows, counts, 40)
        # one distance per arriving row and open slot, and one running sum
        # per slot opening, added to in place rather than re-summed
        assert len(calls) <= len(rows) * rule.slots
        assert len({id(args[2]) for args, _, _ in calls}) <= len(groups)
        expected = reference_select_closest(rule, cuts, 40)
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
            n_atoms = len(rows) + int(rng.integers(0, 3))
            sums, groups = aggregation.aggregate_granules(
                Dynamic(rule), rows, [len(m) for m in members], n_atoms
            )
            expected = reference_select_closest(rule, cuts_of(rows, members), n_atoms)
            assert [tuple(s for g in group for s in members[g]) for group in groups] == [
                c.members for c in expected
            ], trial
            assert sums.tobytes() == np.array([cut_row(c) for c in expected]).tobytes(), trial

    def test_slot_sums_are_running_sums_from_zero(self):
        # one slot of -0.0 rows sums to +0.0, as the loop from zero does
        rows = np.full((3, 3), -0.0)
        rule = SelectClosest(slots=1, tolerance=0.3, measure=DistanceMeasure.ABSOLUTE)
        sums, groups = aggregation.aggregate_granules(
            Dynamic(rule), rows, [1, 1, 1], 3
        )
        assert groups == [[0, 1, 2]]
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
            rule = Cluster(Kmedoids(clusters=int(rng.integers(1, n_granules)), measure=measure,
                                    seed=trial))
            sums, groups = aggregation.aggregate_granules(rule, rows, [block] * n_granules,
                                                          n_granules)
            assert sorted(g for group in groups for g in group) == list(range(n_granules))
            cuts = cuts_of(rows, members)
            for got, group in zip(sums, groups):
                assert group == sorted(group)
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
            assignment, medoids = kmedoids(cuts, k, DistanceMeasure.ABSOLUTE, seed=seed)
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
        a = kmedoids(cuts, 3, DistanceMeasure.ANGULAR, seed=5)
        b = kmedoids(cuts, 3, DistanceMeasure.ANGULAR, seed=5)
        assert a == b

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            kmedoids(singletons(3), 4, DistanceMeasure.ANGULAR)

    @pytest.mark.parametrize("measure", list(DistanceMeasure))
    def test_matches_reference_loop(self, measure):
        for seed in range(4):
            cuts = multi_member_cuts(seed, 12)
            for k in (1, 2, 5, len(cuts)):
                assert kmedoids(cuts, k, measure, seed=seed) == reference_kmedoids(
                    cuts, k, measure, seed=seed
                )

    @pytest.mark.parametrize("measure", list(DistanceMeasure))
    def test_recentring_follows_membership(self, measure, monkeypatch):
        # many exact duplicates: distances and cluster sums tie exactly.  A
        # cluster is re-centred only when its member set differs from the
        # one it had at its last visit, or a swap replaced its medoid.
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
                got = kmedoids(cuts, k, measure, seed=seed)
                assert got == reference_kmedoids(cuts, k, measure, seed=seed, visits=visits)
                expected, last = [], {}
                for c, members in visits:
                    if members is None:
                        last.pop(c, None)
                        swaps += 1
                        continue
                    if members and members != last.get(c):
                        expected.append(members)
                    last[c] = members
                assert [tuple(args[1].tolist()) for args, _, _ in calls] == expected
                recentred += len(expected)
                visited += sum(members is not None for _, members in visits)
        assert swaps > 0 and recentred < visited


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


class TestSchemeGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "multi", "single", "partial:T=16", "uniform:T=16",
            "closest:A=8,tau=0.3,measure=angular",
            "closest:A=4,tau=0.1234567,measure=absolute",
            "closest:A=4,tau=1e-17,measure=spatioangular",
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

    @pytest.mark.parametrize("text, name", [
        ("partial:T=2", "T"), ("closest:A=2", "A"), ("kmedoids:k=2", "k"),
        ("kmedoids:k=2", "seed"), ("granulated:T0=2,inner=single", "T0"),
    ])
    def test_with_parameter_takes_only_integers_for_integer_parameters(self, text, name):
        scheme = parse_scheme(text)
        for value in (2.5, 1e-3, math.inf, math.nan):
            with pytest.raises(ValueError, match="must be an integer"):
                aggregation.with_parameter(scheme, name, value)
        assert f"{name}=3" in scheme_label(aggregation.with_parameter(scheme, name, 3.0))
        tau = aggregation.with_parameter(parse_scheme("closest"), "tau", 0.25)
        assert tau.rule.tolerance == 0.25

    def test_validate_scheme(self):
        assert validate_scheme(Partial(size=3), 10) == []
        assert validate_scheme(Partial(size=30), 10)
        assert validate_scheme(Dynamic(SelectClosest(slots=2, tolerance=1.5)), 10)
        for measure in DistanceMeasure:
            for tau in (math.nan, -0.1):
                rule = SelectClosest(slots=2, tolerance=tau, measure=measure)
                assert validate_scheme(Dynamic(rule), 10), (measure, tau)
            rule = SelectClosest(slots=2, tolerance=0.0, measure=measure)
            assert validate_scheme(Dynamic(rule), 10) == []
        # ceil(10/3) = 4 granules: inner size 4 fits, size 5 does not
        assert validate_scheme(
            Granulated(block_size=3, inner=Partial(size=4)), 10
        ) == []
        assert validate_scheme(
            Granulated(block_size=3, inner=Partial(size=5)), 10
        ) != []
