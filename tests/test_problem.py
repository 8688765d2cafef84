import json
import math

import numpy as np
import pytest

from lshaped import (
    EngineConfig,
    FirstStage,
    LinearProgram,
    ParseError,
    RandomEntry,
    Scenario,
    StochasticTemplate,
    TwoStageProblem,
    build_extensive_form,
    enumerate_scenarios,
    parse_native,
    sample_instance,
    solve_lp,
    solve_lshaped,
    validate_problem,
    validate_template,
    write_native,
)
from helpers import (
    build_p1, random_instance, random_template, reference_enumerate, reference_sample,
)
from lshaped.problem import choice_indices
from lshaped.rng import XorShift64Star


def simple_template(entries=()):
    first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[])
    return StochasticTemplate(
        first=first, W=[[1.0, -1.0]], q=[1.0, 0.0], T=[[1.0]], h=[2.0], entries=entries
    )


class TestValidateProblem:
    def test_well_formed_single_scenario(self):
        first = FirstStage(c=[1.0], A=[[1.0]], b=[1.0])
        scen = (Scenario(1.0, [1.0], [[1.0]], [0.0]),)
        prob = TwoStageProblem.from_scenarios(first, [[1.0]], scen)
        assert validate_problem(prob) == []

    def test_probability_sum_reported(self):
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[])
        scen = (
            Scenario(0.5, [1.0], [[1.0]], [1.0]),
            Scenario(0.4, [1.0], [[1.0]], [1.0]),
        )
        issues = validate_problem(TwoStageProblem.from_scenarios(first, [[1.0]], scen))
        assert any("sum to 0.9" in msg for msg in issues)

    def test_dimension_mismatch_reported(self):
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[])
        prob = TwoStageProblem(first, [[1.0]], pi=[1.0], Q=[[1.0]], T=[[[1.0, 2.0]]], H=[[1.0]])
        assert validate_problem(prob) == ["T is (1, 1, 2), expected (1, 1, 1)"]

    def test_non_finite_probability_reported(self):
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[])
        scen = (Scenario(np.nan, [1.0], [[1.0]], [1.0]), Scenario(1.0, [1.0], [[1.0]], [1.0]))
        prob = TwoStageProblem.from_scenarios(first, [[1.0]], scen)
        assert validate_problem(prob) == ["scenario 0 has non-positive probability nan"]

    def test_one_non_finite_entry_among_many_scenarios(self):
        # the array check finds it; the per-scenario pass words the message
        first = FirstStage(c=[1.0, 1.0], A=np.zeros((0, 2)), b=[])
        scen = [
            Scenario(1.0 / 50, [1.0, 0.5], [[1.0, -1.0]], [float(s)]) for s in range(50)
        ]
        scen[17] = Scenario(1.0 / 50, [1.0, 0.5], [[1.0, np.inf]], [17.0])
        prob = TwoStageProblem.from_scenarios(first, [[1.0, -1.0]], tuple(scen))
        assert validate_problem(prob) == ["T[17] contains non-finite entries"]

    def test_non_positive_probability_among_many_scenarios(self):
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[])
        scen = [Scenario(1.0 / 50, [1.0, 0.5], [[1.0]], [float(s)]) for s in range(50)]
        scen[3] = Scenario(0.0, [1.0, 0.5], [[1.0]], [3.0])
        prob = TwoStageProblem.from_scenarios(first, [[1.0, -1.0]], tuple(scen))
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
        prob = TwoStageProblem.from_scenarios(first, [[1.0, 1.0]], (scen,))
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
        scen = (Scenario(0.5, [1.0], [[1.0]], [1.0]),)
        bad = TwoStageProblem.from_scenarios(first, [[1.0]], scen)
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

    def test_cap_names_product_size(self, monkeypatch):
        import lshaped.problem

        monkeypatch.setattr(lshaped.problem, "DEFAULT_SCENARIO_CAP", 10)
        entries = tuple(
            RandomEntry("h", 0, 0, ((0.0, 0.5), (1.0, 0.5))) for _ in range(4)
        )
        # entries collide on the same coordinate but the cap fires first
        with pytest.raises(ValueError, match="16 scenarios, above the cap of 10"):
            enumerate_scenarios(simple_template(entries))

    def test_probability_sums_for_random_templates(self):
        for seed in range(10):
            prob = enumerate_scenarios(random_template(seed))
            assert abs(sum(s.pi for s in prob.scenarios) - 1.0) <= 1e-9


class TestScenarioArrays:
    def test_stacked_view_of_the_scenarios(self):
        prob = sample_instance(random_template(3), 12, seed=5)
        for s, scen in enumerate(prob.scenarios):
            assert np.array_equal(prob.H[s], scen.h)
            assert np.array_equal(prob.T[s], scen.T)
            assert np.array_equal(prob.Q[s], scen.q)
            assert prob.pi[s] == scen.pi
        for arr in (prob.H, prob.T, prob.Q, prob.pi):
            assert not arr.flags.writeable

    def test_single_scenario_shapes(self):
        prob = build_p1()
        assert (prob.H.shape, prob.T.shape, prob.Q.shape, prob.pi.shape) == (
            (2, 1), (2, 1, 1), (2, 2), (2,)
        )


def rows_of(scenarios) -> dict:
    """The stacked arrays of a scenario-object list."""
    return {
        "pi": np.array([s.pi for s in scenarios]), "Q": np.array([s.q for s in scenarios]),
        "T": np.array([s.T for s in scenarios]), "H": np.array([s.h for s in scenarios]),
    }


def assert_same_bits(prob, scenarios):
    for name, want in rows_of(scenarios).items():
        got = getattr(prob, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def overlapping_template(seed: int) -> StochasticTemplate:
    """A random template whose entries, in shuffled order, put a second
    entry on the coordinate of every entry, cover every target and include
    single-outcome entries."""
    base = random_template(seed)
    rng = np.random.default_rng(seed + 100)
    n, (q_rows, m) = base.first.n, base.W.shape

    def entry(target, row, col, count):
        values = rng.uniform(0.2, 2.0, count)
        probs = rng.uniform(0.1, 1.0, count)
        return RandomEntry(target, row, col, tuple(zip(values, probs / probs.sum())))

    entries = list(base.entries) + [
        entry("q", 0, int(rng.integers(0, m)), 2),
        entry("T", int(rng.integers(0, q_rows)), int(rng.integers(0, n)), 2),
        entry("h", int(rng.integers(0, q_rows)), 0, 2),
        entry("q", 0, int(rng.integers(0, m)), 1),
        entry("T", int(rng.integers(0, q_rows)), int(rng.integers(0, n)), 1),
        entry("h", int(rng.integers(0, q_rows)), 0, 1),
    ]
    entries += [entry(e.target, e.row, e.col, int(rng.integers(1, 3))) for e in entries]
    order = rng.permutation(len(entries))
    return StochasticTemplate(
        base.first, base.W, base.q, base.T, base.h, tuple(entries[i] for i in order)
    )


class _Fixed:
    """Stands in for the generator: ``random`` returns the given uniforms."""

    def __init__(self, u):
        self.u = iter(u)

    def random(self):
        return next(self.u)


def per_draw(probabilities, u):
    return [XorShift64Star.choice_index(_Fixed([v]), probabilities) for v in u]


class TestChoiceDraws:
    """``sample_instance`` draws all uniforms in one loop and inverts them
    with ``choice_indices``; both must equal the per-draw generator calls."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5, 2**64 + 3])
    def test_uniforms_continue_the_stream(self, seed):
        batch, single = XorShift64Star(seed), XorShift64Star(seed)
        for count in (0, 1, 250):
            assert batch.uniforms(count) == [single.random() for _ in range(count)]
        assert batch.next_uint64() == single.next_uint64()

    @pytest.mark.parametrize("count", [0, 1, 7, 1600, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**63, 2**63 + 5, 2**64 - 1, 2**64 + 5])
    def test_uniforms_equal_per_draw_bits(self, seed, count):
        # the array expression of the output step gives the per-draw bits
        # and leaves the generator in the same state
        batch, single = XorShift64Star(seed), XorShift64Star(seed)
        drawn = batch.uniforms(count)
        assert type(drawn) is list and all(type(u) is float for u in drawn)
        assert [u.hex() for u in drawn] == [single.random().hex() for _ in range(count)]
        assert batch._state == single._state

    @pytest.mark.parametrize("seed", range(12))
    def test_inversion_matches_choice_index(self, seed):
        rng = np.random.default_rng(seed)
        u = XorShift64Star(seed).uniforms(400)
        for count in (1, 2, 3, 7):
            probs = rng.uniform(0.05, 1.0, count)
            probs = (probs / probs.sum()).tolist()
            assert choice_indices(probs, np.array(u)).tolist() == per_draw(probs, u)

    def test_shortfall_and_cumulative_boundaries(self):
        # ten tenths sum to 0.9999999999999999: a draw above that falls
        # off the end and takes the last index
        tenths = [0.1] * 10
        boundaries = np.cumsum(tenths).tolist()
        assert boundaries[-1] < 1.0
        below_one = 1.0 - 2.0**-53
        u = [0.0, 0.1, 0.2, 0.30000000000000004, below_one, *boundaries]
        assert choice_indices(tenths, np.array(u)).tolist() == per_draw(tenths, u)
        assert per_draw(tenths, [below_one, boundaries[2]]) == [9, 3]
        halves = [0.25, 0.25, 0.5]
        u = [0.25, 0.5, 0.49999999999999994, 0.75, below_one]
        assert choice_indices(halves, np.array(u)).tolist() == per_draw(halves, u) == [
            1, 2, 1, 2, 2
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_sample_matches_per_draw_reference(self, seed):
        template = random_template(seed)
        for n_scenarios in (1, 60, 401):
            prob = sample_instance(template, n_scenarios, seed + 17)
            assert_same_bits(prob, reference_sample(template, n_scenarios, seed + 17))


class TestStackedSampler:
    """``sample_instance`` and ``enumerate_scenarios`` against the
    scenario-at-a-time reference, bit for bit on pi, Q, T and H."""

    @pytest.mark.parametrize("seed", range(6))
    def test_sample_matches_reference(self, seed):
        template = overlapping_template(seed)
        for n_scenarios, sample_seed in ((1, seed), (37, seed + 1), (200, 2**63 + seed)):
            prob = sample_instance(template, n_scenarios, sample_seed)
            assert_same_bits(prob, reference_sample(template, n_scenarios, sample_seed))

    @pytest.mark.parametrize("seed", range(6))
    def test_enumeration_matches_reference(self, seed):
        template = overlapping_template(seed)
        assert_same_bits(enumerate_scenarios(template), reference_enumerate(template))

    def test_enumeration_probabilities_in_product_order(self):
        entries = (
            RandomEntry("h", 0, 0, ((1.0, 0.3), (2.0, 0.7))),
            RandomEntry("q", 0, 1, ((5.0, 0.1), (6.0, 0.2), (7.0, 0.7))),
        )
        prob = enumerate_scenarios(simple_template(entries))
        assert prob.pi.tolist() == [0.3 * p for p in (0.1, 0.2, 0.7)] + [
            0.7 * p for p in (0.1, 0.2, 0.7)
        ]
        assert prob.H[:, 0].tolist() == [1.0] * 3 + [2.0] * 3
        assert prob.Q[:, 1].tolist() == [5.0, 6.0, 7.0] * 2

    def test_later_entry_on_a_coordinate_wins(self):
        entries = (
            RandomEntry("T", 0, 0, ((1.0, 0.5), (2.0, 0.5))),
            RandomEntry("T", 0, 0, ((9.0, 1.0),)),
        )
        sampled = sample_instance(simple_template(entries), 5, seed=3)
        assert sampled.T[:, 0, 0].tolist() == [9.0] * 5
        assert enumerate_scenarios(simple_template(entries)).T[:, 0, 0].tolist() == [9.0] * 2


class TestEdges:
    """Scenario objects enter through ``from_scenarios`` and leave through
    ``scenarios``; everything between reads the stacked arrays."""

    def ragged(self):
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[])
        scenarios = (
            Scenario(0.5, [1.0, 0.0], [[1.0]], [2.0]),
            Scenario(0.5, [1.0], [[1.0, 2.0]], [2.0, 3.0]),
        )
        return first, [[1.0, -1.0]], scenarios

    RAGGED = ("q[1] has 1 entries, expected 2; T[1] has 2 columns, expected 1; "
              "h[1] has 2 entries, expected 1")

    def test_from_scenarios_names_each_ragged_scenario(self):
        with pytest.raises(ValueError) as err:
            TwoStageProblem.from_scenarios(*self.ragged())
        assert str(err.value) == "invalid problem: " + self.RAGGED

    def test_solve_reports_an_invalid_problem(self):
        with pytest.raises(ValueError, match=r"^invalid problem: q\[1\] has 1 entries"):
            solve_lshaped(TwoStageProblem.from_scenarios(*self.ragged()), EngineConfig())
        p1 = build_p1()
        wide = TwoStageProblem(p1.first, p1.W, p1.pi, p1.Q, np.zeros((2, 1, 2)), p1.H)
        with pytest.raises(ValueError, match=r"^invalid problem: T is \(2, 1, 2\), expected"):
            solve_lshaped(wide, EngineConfig())

    def test_parse_native_reports_ragged_scenarios(self):
        doc = json.loads(write_native(build_p1()))
        doc["scenarios"][1]["q"] = [1.0]
        doc["scenarios"][1]["T"] = [[1.0, 2.0]]
        doc["scenarios"][1]["h"] = [2.0, 3.0]
        with pytest.raises(ParseError) as err:
            parse_native(json.dumps(doc))
        assert [d.message for d in err.value.diagnostics] == [
            "$: invalid problem: " + self.RAGGED
        ]

    def test_stacked_arrays_are_read_only_copies(self):
        p1 = build_p1()
        T = np.array(p1.T)
        prob = TwoStageProblem(p1.first, p1.W, p1.pi, p1.Q, T, p1.H)
        T[0, 0, 0] = 5.0  # the caller's array, not the problem's
        assert prob.T[0, 0, 0] == 1.0
        problems = (prob, p1, sample_instance(random_template(2), 4, seed=1),
                    enumerate_scenarios(random_template(2)))
        for problem in problems:
            for arr in (problem.pi, problem.Q, problem.T, problem.H):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_a_wrong_rank_is_a_shape_issue(self):
        p1 = build_p1()
        flat = TwoStageProblem(p1.first, p1.W, p1.pi, p1.Q, p1.T[:, 0, :], p1.H)
        assert validate_problem(flat) == ["T is (1, 2, 1), expected (2, 1, 1)"]
        scalar = TwoStageProblem(p1.first, p1.W, 1.0, p1.Q[0], p1.T[0], p1.H[0])
        assert scalar.n_scenarios == 1 and validate_problem(scalar) == []

    def test_scenarios_are_the_rows(self):
        prob = random_instance(4, 9)
        scenarios = prob.scenarios
        assert len(scenarios) == prob.n_scenarios
        for s, scen in enumerate(scenarios):
            assert scen.pi == prob.pi[s]
            assert scen.q.tobytes() == prob.Q[s].tobytes()
            assert scen.T.tobytes() == prob.T[s].tobytes()
            assert scen.h.tobytes() == prob.H[s].tobytes()
        again = TwoStageProblem.from_scenarios(prob.first, prob.W, scenarios)
        assert_same_bits(again, scenarios)


class TestSample:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where, message", [
        ("q", "nominal q contains non-finite entries"),
        ("T", "nominal T contains non-finite entries"),
        ("h", "nominal h contains non-finite entries"),
        ("outcome", "random entry 0 has a non-finite outcome value"),
    ])
    def test_non_finite_template_data_is_rejected(self, where, bad, message):
        nominal = {"q": [1.0, 0.0], "T": [[1.0]], "h": [2.0]}
        if where in nominal:
            nominal[where] = {"q": [bad, 0.0], "T": [[bad]], "h": [bad]}[where]
        value = bad if where == "outcome" else 2.0
        entry = RandomEntry("h", 0, 0, ((value, 0.5), (4.0, 0.5)))
        template = StochasticTemplate(first=FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[]),
                                      W=[[1.0, -1.0]], entries=(entry,), **nominal)
        assert validate_template(template) == [message]
        with pytest.raises(ValueError, match="^invalid template: " + message):
            sample_instance(template, 4, 1)
        # JSON NaN and Infinity reach the same check through the parser
        with pytest.raises(ParseError) as err:
            parse_native(write_native(template))
        assert [d.message for d in err.value.diagnostics] == [f"$: {message}"]

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
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            LinearProgram(c=[np.nan], A=np.zeros((0, 1)), b=[], lb=[0.0], ub=[1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0, 2.0], A=[[1.0]], b=[1.0], lb=[0, 0], ub=[1, 1])
