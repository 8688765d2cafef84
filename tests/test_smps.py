import json
import string

import numpy as np
import pytest

from lshaped import (
    ParseError,
    SmpsTriple,
    StochasticTemplate,
    TwoStageProblem,
    enumerate_scenarios,
    parse_native,
    parse_smps,
    validate_problem,
    write_native,
)
from helpers import (
    P1_CORE, P1_STOCH, P1_TIME, RICH_CORE, RICH_STOCH, RICH_TIME, build_p1, random_instance,
    random_template,
)


def p1_triple(core=P1_CORE, time=P1_TIME, stoch=P1_STOCH):
    return SmpsTriple(core_text=core, time_text=time, stoch_text=stoch)


def edited_rich_triple(file, old, new):
    """The rich triple with ``old`` replaced by ``new`` in one file."""
    parts = {"core": RICH_CORE, "time": RICH_TIME, "stoch": RICH_STOCH}
    assert old in parts[file]
    parts[file] = parts[file].replace(old, new)
    return SmpsTriple(parts["core"], parts["time"], parts["stoch"])


def diagnostics_of(triple):
    with pytest.raises(ParseError) as err:
        parse_smps(triple)
    return [(d.file, d.line, d.message) for d in err.value.diagnostics]


# rich-triple lines: core 8 ROWS L D2, 18 COLUMNS X3 C2, 31 RHS D4,
# 34 RANGES D3 D4, 38 LO X2, 40 UP Y1, 43 PL Y4; time 4 the second period;
# stoch 3-5 RHS D1, 8-9 Y2 COST
RANGED = "row 'D3' is ranged; random data is ambiguous"
# (file, old, new, diagnostics): an edit of one file of the rich triple and
# the (file, line, message) diagnostics it gives
REJECTED = [
    ("core", " L  D2", " L  D1", [("core", 8, "duplicate row 'D1'")]),
    ("core", " G  C3", " N  C3", [("core", 6, "multiple objective (N) rows")]),
    ("core", " G  C3", " X  C3", [("core", 6, "unknown row sense 'X'")]),
    ("core", "    X3        C2        1.0", "    MARK      'MARKER'  'INTORG'",
     [("core", 18, "integer markers are not supported")]),
    ("core", "D3        -2.0       D4        1.5", "D3",
     [("core", 34, "RANGES lines need 1 or 2 (row, value) pairs")]),
    ("core", " PL BND       Y4", " PL BND",
     [("core", 43, "BOUNDS lines need a type, set name and column")]),
    ("core", "Y1        6.0", "Y1", [("core", 40, "UP bound needs a value")]),
    ("core", "D4        2.0", "D4        inf", [("core", 31, "rhs value 'inf' is not finite")]),
    ("core", RICH_CORE, "NAME\nROWS\n N  COST\n G  D1\nCOLUMNS\nENDATA\n",
     [("core", 1, "no columns")]),
    ("time", "Y1        D1        T2", "Y1",
     [("time", 4, "period lines need a column and a row name")]),
    # the second period names the first core column as the stage-2 start
    ("time", "Y1        D1", "X1        D1", [("time", 4, "no first-stage columns")]),
    ("stoch", "DISCRETE", "NORMAL", [("stoch", 2, "only INDEP DISCRETE sections are supported")]),
    ("stoch", "COST      3.0       0.5", "COST      3.0",
     [("stoch", 9, "INDEP DISCRETE lines need col, row, value[, period], prob")]),
    ("core", "D4        2.0", "D4        2.0        COST      1.0",
     [("core", 31, "a constant on the objective row is not supported")]),
    ("core", "RHS       D4", "RHS       Q4", [("core", 31, "rhs references unknown row 'Q4'")]),
    ("core", "RNG       D3", "RNG       Q3", [("core", 34, "range references unknown row 'Q3'")]),
    ("core", " PL BND       Y4", " PL BND       Y9",
     [("core", 43, "bound references unknown column 'Y9'")]),
    ("core", "X2        0.0", "X2        1.0", [("core", 38, "only LO 0 bounds are supported")]),
    ("core", "Y1        6.0", "Y1        -6.0", [("core", 40, "UP bounds must be nonnegative")]),
    ("stoch", "Y2        COST", "X2        COST",
     [("stoch", 8, "first-stage costs cannot be random")]),
    ("stoch", "RHS       D1", "RHS       C3", [("stoch", 3, "stage-1 data cannot be random")]),
    ("stoch", "RHS       D1", "RHS       D3", [("stoch", 3, RANGED)]),
    # every STOCH reason is reported, in line order
    ("stoch", RICH_STOCH,
     RICH_STOCH.replace("RHS       D1", "RHS       D3").replace("Y2        COST", "X2        COST"),
     [("stoch", 3, RANGED), ("stoch", 8, "first-stage costs cannot be random")]),
]

# the same for the lookups made while assembling: each names the line of
# its COLUMNS pair or second period
LOOKUPS = [
    ("core", "X3        C2", "X3        C9",
     ("core", 18, "column 'X3' references unknown row 'C9'")),
    ("core", "Y2        D3", "Y2        C3",
     ("core", 21, "stage-2 column 'Y2' appears in stage-1 row 'C3'")),
    ("time", "Y1        D1", "Y9        D1",
     ("time", 4, "stage-2 start column 'Y9' not found in core")),
    ("time", "Y1        D1", "Y1        D9",
     ("time", 4, "stage-2 start row 'D9' not found in core")),
]


class TestParseSmps:
    def test_p1_fixture_round_trip(self, p1):
        template = parse_smps(p1_triple())
        prob = enumerate_scenarios(template)
        assert validate_problem(prob) == []
        assert prob.n_scenarios == 2
        assert np.array_equal(prob.first.c, p1.first.c)
        assert np.array_equal(prob.W, p1.W)
        for got, want in zip(prob.scenarios, p1.scenarios):
            assert got.pi == want.pi
            assert np.array_equal(got.q, want.q)
            assert np.array_equal(got.T, want.T)
            assert np.array_equal(got.h, want.h)

    def test_three_periods_rejected(self):
        time3 = P1_TIME.replace("ENDATA", "    Y         R2        T3\nENDATA")
        with pytest.raises(ParseError) as err:
            parse_smps(p1_triple(time=time3))
        assert any("exactly two periods" in d.message for d in err.value.diagnostics)

    def test_stoch_probability_sum_diagnostic(self):
        bad = P1_STOCH.replace("0.5", "0.4", 1)
        with pytest.raises(ParseError) as err:
            parse_smps(p1_triple(stoch=bad))
        diag = err.value.diagnostics[0]
        assert diag.file == "stoch"
        assert "sum to 0.9" in diag.message
        assert diag.line == 3

    def test_blocks_section_rejected(self):
        stoch = "STOCH P1\nBLOCKS DISCRETE\nENDATA\n"
        with pytest.raises(ParseError) as err:
            parse_smps(p1_triple(stoch=stoch))
        assert any("BLOCKS" in d.message for d in err.value.diagnostics)

    def test_unknown_core_section_rejected(self):
        core = P1_CORE.replace("RHS\n", "SOS\nRHS\n")
        with pytest.raises(ParseError) as err:
            parse_smps(p1_triple(core=core))
        assert any("unknown section" in d.message for d in err.value.diagnostics)

    def test_dangling_stoch_row(self):
        stoch = P1_STOCH.replace("R2", "R9")
        with pytest.raises(ParseError) as err:
            parse_smps(p1_triple(stoch=stoch))
        assert any("unknown row" in d.message for d in err.value.diagnostics)

    def test_recourse_matrix_randomness_rejected(self):
        stoch = (
            "STOCH P1\nINDEP DISCRETE\n"
            "    Y         R2        1.0       0.5\n"
            "    Y         R2        2.0       0.5\nENDATA\n"
        )
        with pytest.raises(ParseError) as err:
            parse_smps(p1_triple(stoch=stoch))
        assert any("recourse" in d.message for d in err.value.diagnostics)

    def test_objective_cost_randomness_on_stage2_column(self):
        stoch = (
            "STOCH P1\nINDEP DISCRETE\n"
            "    Y         OBJ       1.0       0.5\n"
            "    Y         OBJ       2.0       0.5\nENDATA\n"
        )
        template = parse_smps(p1_triple(stoch=stoch))
        assert template.entries[0].target == "q"
        prob = enumerate_scenarios(template)
        assert [s.q[0] for s in prob.scenarios] == [1.0, 2.0]

    def test_technology_randomness_on_stage1_column(self):
        stoch = (
            "STOCH P1\nINDEP DISCRETE\n"
            "    X         R2        0.5       0.25\n"
            "    X         R2        1.5       0.75\nENDATA\n"
        )
        template = parse_smps(p1_triple(stoch=stoch))
        entry = template.entries[0]
        assert entry.target == "T" and entry.row == 0 and entry.col == 0
        prob = enumerate_scenarios(template)
        assert [s.T[0, 0] for s in prob.scenarios] == [0.5, 1.5]

    def test_period_field_in_stoch_lines_accepted(self):
        stoch = P1_STOCH.replace("2.0       0.5", "2.0  T2  0.5").replace(
            "4.0       0.5", "4.0  T2  0.5"
        )
        template = parse_smps(p1_triple(stoch=stoch))
        assert [v for v, _ in template.entries[0].outcomes] == [2.0, 4.0]

    def test_ranged_row_expands_to_two_rows(self):
        core = P1_CORE.replace("ENDATA", "RANGES\n    RNG       R2        1.0\nENDATA")
        template = parse_smps(p1_triple(stoch="STOCH P1\nINDEP DISCRETE\nENDATA\n"))
        ranged = parse_smps(
            SmpsTriple(core_text=core, time_text=P1_TIME,
                       stoch_text="STOCH P1\nINDEP DISCRETE\nENDATA\n")
        )
        assert ranged.T.shape[0] == template.T.shape[0] + 1

    def test_upper_bound_becomes_row(self):
        core = P1_CORE.replace("ENDATA", "BOUNDS\n UP BND       X         1.5\nENDATA")
        template = parse_smps(
            SmpsTriple(core_text=core, time_text=P1_TIME,
                       stoch_text="STOCH P1\nINDEP DISCRETE\nENDATA\n")
        )
        # the bound row x + slack = 1.5 lands in the first stage
        assert template.first.A.shape[0] == 1
        assert template.first.b[0] == 1.5

    def test_unsupported_bound_type(self):
        core = P1_CORE.replace("ENDATA", "BOUNDS\n MI BND       X\nENDATA")
        with pytest.raises(ParseError) as err:
            parse_smps(
                SmpsTriple(core_text=core, time_text=P1_TIME,
                           stoch_text="STOCH P1\nINDEP DISCRETE\nENDATA\n")
            )
        assert any("bound" in d.message for d in err.value.diagnostics)

    def test_rich_triple_assembles_bit_for_bit(self):
        template = parse_smps(SmpsTriple(RICH_CORE, RICH_TIME, RICH_STOCH))
        # columns X1-X3, then one slack per first-stage inequality in row
        # order, +1 for <= and -1 for >=: C1 (L, range -4) becomes <= 10 and
        # >= 6, C2 (E, range -2) <= 4 and >= 2, then C3 (G) and the bound
        # rows UP X1 <= 6 and FX X3 = 2
        c = [1.0, -0.5, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        A = [
            [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ]
        b = [10.0, 6.0, 4.0, 2.0, -5.0, 6.0, 2.0]
        # columns Y1-Y5 and the second-stage slacks: D1 (G), D2 (L), D3 (G,
        # range -2) as <= 3 and >= 1, D4 (E, range 1.5) as <= 3.5 and >= 2,
        # then UP Y1 <= 6 and FX Y5 = 1; T spans the first stage's slacks too
        W = [
            [1.0, -1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ]
        q = [2.0, 2.0, 1.0, 0.5, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        T = np.zeros((8, 9))
        T[0, 0], T[1, 1] = 1.0, -1.0
        h = [3.0, 1.0, 3.0, 1.0, 3.5, 2.0, 6.0, 1.0]
        for got, want in ((template.first.c, c), (template.first.A, A), (template.first.b, b),
                          (template.W, W), (template.q, q), (template.T, T), (template.h, h)):
            want = np.array(want, dtype=float)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # h's probabilities sum to 1 - 2^-53 and are divided by that sum
        assert [(e.target, e.row, e.col, e.outcomes) for e in template.entries] == [
            ("h", 0, 0, ((2.0, 0.20000000000000004), (3.0, 0.7000000000000001),
                         (4.5, 0.10000000000000002))),
            ("T", 1, 1, ((-1.0, 0.25), (-0.5, 0.75))),
            ("q", 0, 1, ((1.0, 0.5), (3.0, 0.5))),
        ]

    @pytest.mark.parametrize("file, old, new, diagnostics", REJECTED,
                             ids=[diagnostics[0][2] for *_, diagnostics in REJECTED])
    def test_rejected_input_names_file_line_and_reason(self, file, old, new, diagnostics):
        assert diagnostics_of(edited_rich_triple(file, old, new)) == diagnostics

    @pytest.mark.parametrize("file, old, new, diagnostic", LOOKUPS,
                             ids=[diagnostic[2] for *_, diagnostic in LOOKUPS])
    def test_assembly_and_time_lookups_name_their_line(self, file, old, new, diagnostic):
        assert diagnostics_of(edited_rich_triple(file, old, new)) == [diagnostic]


class TestParseNative:
    def test_p1_document(self, p1):
        prob = parse_native(write_native(p1, name="p1"))
        assert isinstance(prob, TwoStageProblem)
        assert validate_problem(prob) == []

    def test_scenarios_and_random_mutually_exclusive(self, p1):
        doc = json.loads(write_native(p1))
        doc["nominal"] = {"q": [1.0, 0.0], "T": [[1.0]], "h": [2.0]}
        doc["random"] = []
        with pytest.raises(ParseError) as err:
            parse_native(json.dumps(doc))
        assert any("mutually exclusive" in d.message for d in err.value.diagnostics)

    def test_empty_scenarios_rejected(self, p1):
        doc = json.loads(write_native(p1))
        doc["scenarios"] = []
        with pytest.raises(ParseError) as err:
            parse_native(json.dumps(doc))
        assert any("N >= 1" in d.message for d in err.value.diagnostics)

    def test_diagnostics_carry_json_paths(self, p1):
        doc = json.loads(write_native(p1))
        doc["scenarios"][1]["T"] = "oops"
        with pytest.raises(ParseError) as err:
            parse_native(json.dumps(doc))
        assert any("$.scenarios[1].T" in d.message for d in err.value.diagnostics)

    @pytest.mark.parametrize("pi", ["0.5", [0.5], None])
    def test_non_numeric_probability_rejected(self, p1, pi):
        doc = json.loads(write_native(p1))
        doc["scenarios"][0]["pi"] = pi
        with pytest.raises(ParseError) as err:
            parse_native(json.dumps(doc))
        assert [d.message for d in err.value.diagnostics] == [
            "$.scenarios[0].pi: expected a number"
        ]

    def test_nan_probability_rejected(self, p1):
        doc = json.loads(write_native(p1))
        doc["scenarios"][0]["pi"] = float("nan")
        with pytest.raises(ParseError) as err:
            parse_native(json.dumps(doc))
        assert "$: scenario 0 has non-positive probability nan" in [
            d.message for d in err.value.diagnostics
        ]

    def test_bad_version(self):
        with pytest.raises(ParseError) as err:
            parse_native('{"version": 2}')
        assert any("version" in d.message for d in err.value.diagnostics)

    def test_probability_rescale_within_tolerance(self, p1):
        doc = json.loads(write_native(p1))
        doc["scenarios"][0]["pi"] = 0.5 + 4e-10
        prob = parse_native(json.dumps(doc))
        assert sum(s.pi for s in prob.scenarios) == pytest.approx(1.0, abs=1e-15)

    def test_probability_rejection_beyond_tolerance(self, p1):
        doc = json.loads(write_native(p1))
        doc["scenarios"][0]["pi"] = 0.4
        with pytest.raises(ParseError) as err:
            parse_native(json.dumps(doc))
        assert any("sum to 0.9" in d.message for d in err.value.diagnostics)

    PAIR = "must be a [value, prob] pair of numbers"

    @pytest.mark.parametrize("path, value, message", [
        (("random",), 5, "$.random: expected an array"),
        (("random", 0, "outcomes", 0, 0), "x", f"$.random[0].outcomes[0]: {PAIR}"),
        (("random", 0, "outcomes", 0, 0), None, f"$.random[0].outcomes[0]: {PAIR}"),
        (("random", 1, "outcomes", 0, 1), "0.5", f"$.random[1].outcomes[0]: {PAIR}"),
        (("random", 0, "row"), "x", "$.random[0].row: expected an integer"),
        (("random", 0, "row"), 0.7, "$.random[0].row: expected an integer"),
        (("random", 1, "col"), 0.7, "$.random[1].col: expected an integer"),
    ])
    def test_malformed_random_data_rejected(self, path, value, message):
        doc = json.loads(write_native(random_template(3)))
        *keys, last = path
        target = doc
        for key in keys:
            target = target[key]
        target[last] = value
        with pytest.raises(ParseError) as err:
            parse_native(json.dumps(doc))
        assert [d.message for d in err.value.diagnostics] == [message]

    VECTOR = "expected an array of numbers"

    @pytest.mark.parametrize("kind, path, value, message", [
        ("problem", ("version",), True, "$.version: unsupported version True"),
        ("problem", ("recourse", "m"), True, "$.recourse.m: must be a positive integer"),
        ("problem", ("first_stage", "c", 0), True, f"$.first_stage.c: {VECTOR}"),
        ("problem", ("recourse", "W", 0, 1), False, f"$.recourse.W[0]: {VECTOR}"),
        ("problem", ("scenarios", 0, "pi"), True, "$.scenarios[0].pi: expected a number"),
        ("problem", ("scenarios", 1, "q", 1), False, f"$.scenarios[1].q: {VECTOR}"),
        ("template", ("nominal", "h", 0), True, f"$.nominal.h: {VECTOR}"),
        ("template", ("random", 0, "row"), False, "$.random[0].row: expected an integer"),
        ("template", ("random", 1, "col"), True, "$.random[1].col: expected an integer"),
        ("template", ("random", 0, "outcomes", 0, 0), True, f"$.random[0].outcomes[0]: {PAIR}"),
        ("template", ("random", 1, "outcomes", 1, 1), False, f"$.random[1].outcomes[1]: {PAIR}"),
    ])
    def test_json_booleans_are_not_numbers(self, p1, kind, path, value, message):
        # true == 1 and false == 0 in Python, and bool is an int subclass
        doc = json.loads(write_native(p1 if kind == "problem" else random_template(3)))
        *keys, last = path
        target = doc
        for key in keys:
            target = target[key]
        target[last] = value
        with pytest.raises(ParseError) as err:
            parse_native(json.dumps(doc))
        assert [d.message for d in err.value.diagnostics] == [message]

    def test_template_document_round_trip(self):
        template = random_template(3)
        parsed = parse_native(write_native(template, name="t"))
        assert isinstance(parsed, StochasticTemplate)
        assert np.array_equal(parsed.q, template.q)
        assert len(parsed.entries) == len(template.entries)
        for a, b in zip(parsed.entries, template.entries):
            assert (a.target, a.row, a.col) == (b.target, b.row, b.col)
            assert a.outcomes == b.outcomes


class TestRoundTrip:
    def test_problem_round_trips_exactly(self):
        for seed in range(6):
            prob = random_instance(seed, 7)
            parsed = parse_native(write_native(prob))
            assert np.array_equal(parsed.first.c, prob.first.c)
            assert np.array_equal(parsed.first.A, prob.first.A)
            assert np.array_equal(parsed.first.b, prob.first.b)
            assert np.array_equal(parsed.W, prob.W)
            # pi may shift a few ulps when load-time renormalization fires
            assert parsed.pi == pytest.approx(prob.pi, abs=1e-12)
            for name in ("Q", "T", "H"):
                got, want = getattr(parsed, name), getattr(prob, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_problem_round_trips_bit_for_bit(self):
        # power-of-two samples sum to exactly 1, so no renormalization fires
        for seed, n_scenarios in ((0, 1), (1, 4), (2, 16)):
            prob = random_instance(seed, n_scenarios)
            parsed = parse_native(write_native(prob))
            for name in ("pi", "Q", "T", "H"):
                got, want = getattr(parsed, name), getattr(prob, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


class TestFuzz:
    def test_arbitrary_bytes_only_raise_parse_errors(self):
        rng = np.random.default_rng(13)
        alphabet = string.printable
        for trial in range(150):
            length = int(rng.integers(0, 400))
            text = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), length))
            for attack in ("core", "time", "stoch"):
                parts = {"core": P1_CORE, "time": P1_TIME, "stoch": P1_STOCH}
                parts[attack] = text
                try:
                    parse_smps(SmpsTriple(parts["core"], parts["time"], parts["stoch"]))
                except ParseError:
                    pass
            try:
                parse_native(text)
            except ParseError:
                pass

    def test_mutated_fixture_only_raises_parse_errors(self):
        rng = np.random.default_rng(14)
        for trial in range(100):
            lines = P1_CORE.splitlines()
            k = int(rng.integers(0, len(lines)))
            mutation = rng.integers(0, 3)
            if mutation == 0:
                lines.pop(k)
            elif mutation == 1:
                lines[k] = lines[k][: int(rng.integers(0, len(lines[k]) + 1))]
            else:
                lines.insert(k, "".join(rng.choice(list(" ABC123.-"), size=12)))
            try:
                template = parse_smps(p1_triple(core="\n".join(lines)))
            except ParseError:
                continue
            # anything accepted must expand into a valid problem
            prob = enumerate_scenarios(template)
            assert validate_problem(prob) == []
