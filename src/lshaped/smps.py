"""Readers for a three-file SMPS subset and a native JSON problem format.

The SMPS subset covers fixed-format MPS cores (ROWS/COLUMNS/RHS/RANGES/
BOUNDS, names without embedded blanks), time files with exactly two periods,
and stochastic files with INDEP DISCRETE sections targeting right-hand
sides, second-stage costs, or technology-matrix entries.  BLOCKS and
SCENARIOS sections are rejected with explicit diagnostics.

Inequality rows become equalities through slack columns owned by the row's
stage; ranged rows expand into a <= and a >= row.  Supported bounds are
UP (extra row x <= u), FX (extra row x = v) and LO 0.

Parsers never raise arbitrary exceptions on malformed input: every problem
is reported as a ParseError carrying file/line diagnostics.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .problem import (
    PROBABILITY_TOL,
    FirstStage,
    RandomEntry,
    Scenario,
    StochasticTemplate,
    TwoStageProblem,
    validate_problem,
    validate_template,
)

logger = logging.getLogger(__name__)
if not logger.hasHandlers():
    logger.addHandler(logging.NullHandler())

NATIVE_VERSION = 1


@dataclass(frozen=True)
class SmpsTriple:
    core_text: str
    time_text: str
    stoch_text: str


@dataclass(frozen=True)
class ParseDiagnostic:
    file: str  # core | time | stoch | native
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics) or "parse error")


def _fail(file: str, line: int, message: str) -> ParseError:
    return ParseError([ParseDiagnostic(file, line, message)])


def _lines(text: str):
    for number, raw in enumerate(str(text).splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        yield number, raw


def _number(token: str, file: str, line: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise _fail(file, line, f"{what} {token!r} is not a number")
    if not math.isfinite(value):
        raise _fail(file, line, f"{what} {token!r} is not finite")
    return value


# --- MPS core -------------------------------------------------------------


@dataclass
class _Core:
    obj_row: str | None = None
    row_order: list[str] = field(default_factory=list)
    row_sense: dict[str, str] = field(default_factory=dict)
    col_order: list[str] = field(default_factory=list)
    col_entries: dict[str, list[tuple[str, float]]] = field(default_factory=dict)
    rhs: dict[str, float] = field(default_factory=dict)
    rhs_names: set[str] = field(default_factory=set)
    ranges: dict[str, float] = field(default_factory=dict)
    bounds: list[tuple[str, str, float | None, int]] = field(default_factory=list)


_CORE_SECTIONS = {"NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"}
_BOUND_VALUE_TYPES = {"UP", "LO", "FX", "UI", "LI"}


def _parse_core(text: str) -> _Core:
    core = _Core()
    section = None
    for line_no, raw in _lines(text):
        if not raw[0].isspace():
            keyword = raw.split()[0].upper()
            if keyword not in _CORE_SECTIONS:
                raise _fail("core", line_no, f"unknown section {keyword!r}")
            section = keyword
            continue
        fields = raw.split()
        if section == "ROWS":
            if len(fields) != 2:
                raise _fail("core", line_no, "ROWS lines need a sense and a row name")
            sense, name = fields[0].upper(), fields[1]
            if sense == "N":
                if core.obj_row is not None:
                    raise _fail("core", line_no, "multiple objective (N) rows")
                core.obj_row = name
            elif sense in ("L", "G", "E"):
                if name in core.row_sense:
                    raise _fail("core", line_no, f"duplicate row {name!r}")
                core.row_order.append(name)
                core.row_sense[name] = sense
            else:
                raise _fail("core", line_no, f"unknown row sense {sense!r}")
        elif section == "COLUMNS":
            if len(fields) >= 3 and fields[1].upper() == "'MARKER'":
                raise _fail("core", line_no, "integer markers are not supported")
            if len(fields) not in (3, 5):
                raise _fail("core", line_no, "COLUMNS lines need 1 or 2 (row, value) pairs")
            col = fields[0]
            if col not in core.col_entries:
                core.col_entries[col] = []
                core.col_order.append(col)
            for i in range(1, len(fields), 2):
                value = _number(fields[i + 1], "core", line_no, "coefficient")
                core.col_entries[col].append((fields[i], value))
        elif section == "RHS":
            if len(fields) not in (3, 5):
                raise _fail("core", line_no, "RHS lines need 1 or 2 (row, value) pairs")
            core.rhs_names.add(fields[0])
            for i in range(1, len(fields), 2):
                core.rhs[fields[i]] = _number(fields[i + 1], "core", line_no, "rhs value")
        elif section == "RANGES":
            if len(fields) not in (3, 5):
                raise _fail("core", line_no, "RANGES lines need 1 or 2 (row, value) pairs")
            for i in range(1, len(fields), 2):
                core.ranges[fields[i]] = _number(fields[i + 1], "core", line_no, "range value")
        elif section == "BOUNDS":
            if len(fields) < 3:
                raise _fail("core", line_no, "BOUNDS lines need a type, set name and column")
            btype = fields[0].upper()
            col = fields[2]
            value = None
            if btype in _BOUND_VALUE_TYPES:
                if len(fields) < 4:
                    raise _fail("core", line_no, f"{btype} bound needs a value")
                value = _number(fields[3], "core", line_no, "bound value")
            core.bounds.append((btype, col, value, line_no))
        elif section in ("NAME", None):
            continue
    if core.obj_row is None:
        raise ParseError([ParseDiagnostic("core", 1, "no objective (N) row")])
    if not core.col_order:
        raise ParseError([ParseDiagnostic("core", 1, "no columns")])
    return core


def _parse_time(text: str) -> tuple[str, str]:
    """(first stage-2 column, first stage-2 row) from the PERIODS section."""
    in_periods = False
    markers: list[tuple[int, list[str]]] = []
    for line_no, raw in _lines(text):
        if not raw[0].isspace():
            keyword = raw.split()[0].upper()
            if keyword == "PERIODS":
                in_periods = True
            elif keyword in ("TIME", "ENDATA"):
                in_periods = keyword == "PERIODS"
            else:
                raise _fail("time", line_no, f"unknown section {keyword!r}")
            continue
        if in_periods:
            fields = raw.split()
            if len(fields) < 2:
                raise _fail("time", line_no, "period lines need a column and a row name")
            markers.append((line_no, fields))
    if len(markers) != 2:
        line = markers[-1][0] if markers else 1
        raise _fail("time", line, f"expected exactly two periods, found {len(markers)}")
    _, second = markers[1]
    return second[0], second[1]


@dataclass
class _StochEntry:
    col: str
    row: str
    outcomes: list[tuple[float, float]]
    line: int


def _parse_stoch(text: str) -> list[_StochEntry]:
    entries: dict[tuple[str, str], _StochEntry] = {}
    in_indep = False
    for line_no, raw in _lines(text):
        if not raw[0].isspace():
            fields = raw.split()
            keyword = fields[0].upper()
            if keyword == "INDEP":
                if len(fields) < 2 or fields[1].upper() != "DISCRETE":
                    raise _fail("stoch", line_no, "only INDEP DISCRETE sections are supported")
                in_indep = True
            elif keyword in ("BLOCKS", "SCENARIOS"):
                raise _fail("stoch", line_no, f"{keyword} sections are not supported")
            elif keyword in ("STOCH", "ENDATA"):
                in_indep = False
            else:
                raise _fail("stoch", line_no, f"unknown section {keyword!r}")
            continue
        if not in_indep:
            raise _fail("stoch", line_no, "data line outside an INDEP DISCRETE section")
        fields = raw.split()
        if len(fields) not in (4, 5):
            raise _fail(
                "stoch", line_no, "INDEP DISCRETE lines need col, row, value[, period], prob"
            )
        col, row = fields[0], fields[1]
        value = _number(fields[2], "stoch", line_no, "outcome value")
        prob = _number(fields[-1], "stoch", line_no, "outcome probability")
        key = (col, row)
        if key not in entries:
            entries[key] = _StochEntry(col=col, row=row, outcomes=[], line=line_no)
        entries[key].outcomes.append((value, prob))
    return list(entries.values())


def parse_smps(triple: SmpsTriple) -> StochasticTemplate:
    """Assemble a stochastic template from CORE/TIME/STOCH file contents."""
    diagnostics: list[ParseDiagnostic] = []
    core = _parse_core(triple.core_text)
    col2, row2 = _parse_time(triple.time_text)
    stoch = _parse_stoch(triple.stoch_text)

    if col2 not in core.col_entries:
        raise _fail("time", 1, f"stage-2 start column {col2!r} not found in core")
    if row2 not in core.row_sense:
        raise _fail("time", 1, f"stage-2 start row {row2!r} not found in core")

    col_split = core.col_order.index(col2)
    x_names = core.col_order[:col_split]
    y_names = core.col_order[col_split:]
    if not x_names:
        raise _fail("time", 1, "no first-stage columns")
    row_split = core.row_order.index(row2)
    r1_names = core.row_order[:row_split]
    r2_names = core.row_order[row_split:]
    if not r2_names:
        raise _fail("time", 1, "no second-stage rows")

    if core.obj_row in core.rhs:
        raise _fail("core", 1, "a constant on the objective row is not supported")

    # per original row: list of (sense, rhs) after range expansion
    def expanded(name: str) -> list[tuple[str, float]]:
        sense = core.row_sense[name]
        beta = core.rhs.get(name, 0.0)
        if name not in core.ranges:
            return [(sense, beta)]
        r = core.ranges[name]
        if sense == "L":
            lowers, uppers = beta - abs(r), beta
        elif sense == "G":
            lowers, uppers = beta, beta + abs(r)
        else:
            lowers, uppers = (beta, beta + r) if r >= 0 else (beta + r, beta)
        return [("L", uppers), ("G", lowers)]

    x_index = {name: i for i, name in enumerate(x_names)}
    y_index = {name: i for i, name in enumerate(y_names)}
    r1_set, r2_set = set(r1_names), set(r2_names)

    c = np.zeros(len(x_names))
    q_costs = np.zeros(len(y_names))
    coeff: dict[tuple[str, str], float] = {}
    for col, pairs in core.col_entries.items():
        stage2_col = col in y_index
        for row, value in pairs:
            if row == core.obj_row:
                if stage2_col:
                    q_costs[y_index[col]] = value
                else:
                    c[x_index[col]] = value
            elif row in r1_set:
                if stage2_col:
                    raise _fail(
                        "core", 1, f"stage-2 column {col!r} appears in stage-1 row {row!r}"
                    )
                coeff[(row, col)] = value
            elif row in r2_set:
                coeff[(row, col)] = value
            else:
                raise _fail("core", 1, f"column {col!r} references unknown row {row!r}")

    # bound conversions produce extra rows in the owning stage
    extra1: list[tuple[str, str, float]] = []  # (col, sense, rhs)
    extra2: list[tuple[str, str, float]] = []
    for btype, col, value, line_no in core.bounds:
        if col not in x_index and col not in y_index:
            raise _fail("core", line_no, f"bound references unknown column {col!r}")
        target = extra1 if col in x_index else extra2
        if btype == "LO":
            if value != 0.0:
                raise _fail("core", line_no, "only LO 0 bounds are supported")
        elif btype == "UP":
            if value is None or value < 0:
                raise _fail("core", line_no, "UP bounds must be nonnegative")
            target.append((col, "L", value))
        elif btype == "FX":
            target.append((col, "E", float(value)))
        elif btype == "PL":
            continue
        else:
            raise _fail("core", line_no, f"unsupported bound type {btype!r}")

    row_entries: dict[str, list[tuple[str, float]]] = {}
    for (row, col), value in coeff.items():
        row_entries.setdefault(row, []).append((col, value))

    def build_stage_rows(names, extras):
        # each item: (entries over column names, sense, rhs); primary_index
        # maps an unexpanded row name to its final position
        rows: list[tuple[list[tuple[str, float]], str, float]] = []
        primary_index: dict[str, int | None] = {}
        for name in names:
            parts = expanded(name)
            primary_index[name] = len(rows) if len(parts) == 1 else None
            for sense, beta in parts:
                rows.append((row_entries.get(name, []), sense, beta))
        for col, sense, beta in extras:
            rows.append(([(col, 1.0)], sense, beta))
        return rows, primary_index

    rows1, _ = build_stage_rows(r1_names, extra1)
    rows2, r2_primary = build_stage_rows(r2_names, extra2)

    n_slack1 = sum(1 for _, sense, _ in rows1 if sense != "E")
    n_slack2 = sum(1 for _, sense, _ in rows2 if sense != "E")
    n_total = len(x_names) + n_slack1
    m_total = len(y_names) + n_slack2

    A = np.zeros((len(rows1), n_total))
    b = np.zeros(len(rows1))
    T = np.zeros((len(rows2), n_total))
    W = np.zeros((len(rows2), m_total))
    h = np.zeros(len(rows2))

    def fill(rows, x_block, y_block, rhs_vec, slack_matrix, slack_offset):
        slack = slack_offset
        for i, (entries_i, sense, beta) in enumerate(rows):
            for col, value in entries_i:
                if col in x_index:
                    x_block[i, x_index[col]] = value
                else:
                    y_block[i, y_index[col]] = value
            rhs_vec[i] = beta
            if sense != "E":
                slack_matrix[i, slack] = 1.0 if sense == "L" else -1.0
                slack += 1

    # stage-1 rows live entirely in the x block (their slacks too)
    fill(rows1, A, A, b, A, len(x_names))
    fill(rows2, T, W, h, W, len(y_names))

    c_full = np.concatenate([c, np.zeros(n_slack1)])
    q_full = np.concatenate([q_costs, np.zeros(n_slack2)])

    entries: list[RandomEntry] = []
    for item in stoch:
        total = sum(p for _, p in item.outcomes)
        if abs(total - 1.0) > PROBABILITY_TOL:
            diagnostics.append(
                ParseDiagnostic(
                    "stoch", item.line, f"outcome probabilities sum to {total:g}"
                )
            )
            continue
        outcomes = tuple((v, p / total) for v, p in item.outcomes)
        is_rhs = item.col.upper() == "RHS" or item.col in core.rhs_names
        if item.row == core.obj_row:
            if item.col in y_index:
                entries.append(RandomEntry("q", 0, y_index[item.col], outcomes))
            elif item.col in x_index:
                diagnostics.append(
                    ParseDiagnostic("stoch", item.line, "first-stage costs cannot be random")
                )
            else:
                diagnostics.append(
                    ParseDiagnostic("stoch", item.line, f"unknown column {item.col!r}")
                )
            continue
        if item.row in r1_set:
            diagnostics.append(
                ParseDiagnostic("stoch", item.line, "stage-1 data cannot be random")
            )
            continue
        if item.row not in r2_set:
            diagnostics.append(
                ParseDiagnostic("stoch", item.line, f"unknown row {item.row!r}")
            )
            continue
        row_pos = r2_primary[item.row]
        if row_pos is None:
            diagnostics.append(
                ParseDiagnostic(
                    "stoch", item.line, f"row {item.row!r} is ranged; random data is ambiguous"
                )
            )
            continue
        if is_rhs:
            entries.append(RandomEntry("h", row_pos, 0, outcomes))
        elif item.col in x_index:
            entries.append(RandomEntry("T", row_pos, x_index[item.col], outcomes))
        elif item.col in y_index:
            diagnostics.append(
                ParseDiagnostic(
                    "stoch", item.line, "recourse-matrix entries cannot be random"
                )
            )
        else:
            diagnostics.append(
                ParseDiagnostic("stoch", item.line, f"unknown column {item.col!r}")
            )

    if diagnostics:
        raise ParseError(diagnostics)

    template = StochasticTemplate(
        first=FirstStage(c=c_full, A=A, b=b),
        W=W,
        q=q_full,
        T=T,
        h=h,
        entries=tuple(entries),
    )
    issues = validate_template(template)
    if issues:
        raise ParseError([ParseDiagnostic("core", 1, msg) for msg in issues])
    logger.info(
        "parsed SMPS template: %d first-stage and %d second-stage columns, "
        "%d random entries", n_total, m_total, len(entries),
    )
    return template


# --- native JSON format -----------------------------------------------------


def _native_fail(path: str, message: str, line: int = 1) -> ParseError:
    return ParseError([ParseDiagnostic("native", line, f"{path}: {message}")])


def _is_number(v) -> bool:
    """A JSON number: ``true`` and ``false`` load as ``bool``, an ``int``."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _as_vector(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list) or not all(_is_number(v) for v in obj):
        raise _native_fail(path, "expected an array of numbers")
    return np.asarray(obj, dtype=float)


def _as_index(obj, path: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise _native_fail(path, "expected an integer")
    return obj


def _as_matrix(obj, path: str, width: int | None = None) -> np.ndarray:
    if not isinstance(obj, list):
        raise _native_fail(path, "expected an array of rows")
    if not obj:
        return np.zeros((0, width or 0))
    rows = [_as_vector(row, f"{path}[{i}]") for i, row in enumerate(obj)]
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise _native_fail(path, "rows have inconsistent lengths")
    return np.vstack(rows)


def parse_native(text: str) -> TwoStageProblem | StochasticTemplate:
    """Parse the versioned JSON format.

    A document with a "scenarios" array yields a TwoStageProblem; one with
    "nominal"/"random" yields a StochasticTemplate.  Scenario probabilities
    are rescaled exactly when they sum to 1 within 1e-9 and rejected
    otherwise.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError([ParseDiagnostic("native", exc.lineno, f"invalid JSON: {exc.msg}")])
    if not isinstance(doc, dict):
        raise _native_fail("$", "document must be a JSON object")
    version = doc.get("version")
    if isinstance(version, bool) or version != NATIVE_VERSION:
        raise _native_fail("$.version", f"unsupported version {version!r}")
    for key in ("first_stage", "recourse"):
        if key not in doc or not isinstance(doc[key], dict):
            raise _native_fail(f"$.{key}", "missing or not an object")
    fs = doc["first_stage"]
    c = _as_vector(fs.get("c", None), "$.first_stage.c")
    A = _as_matrix(fs.get("A", []), "$.first_stage.A", width=len(c))
    b = _as_vector(fs.get("b", []), "$.first_stage.b")
    rec = doc["recourse"]
    m = rec.get("m")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise _native_fail("$.recourse.m", "must be a positive integer")
    W = _as_matrix(rec.get("W", None), "$.recourse.W", width=m)
    if W.shape[1] != m:
        raise _native_fail("$.recourse.W", f"has {W.shape[1]} columns, expected m={m}")
    first = FirstStage(c=c, A=A, b=b)

    has_scen = "scenarios" in doc
    has_random = "random" in doc or "nominal" in doc
    if has_scen and has_random:
        raise _native_fail("$", '"scenarios" and "nominal"/"random" are mutually exclusive')
    if not has_scen and not has_random:
        raise _native_fail("$", 'one of "scenarios" or "nominal" is required')

    if has_scen:
        raw = doc["scenarios"]
        if not isinstance(raw, list) or len(raw) < 1:
            raise _native_fail("$.scenarios", "N >= 1 required")
        scenarios = []
        for i, sc in enumerate(raw):
            path = f"$.scenarios[{i}]"
            if not isinstance(sc, dict):
                raise _native_fail(path, "expected an object")
            for key in ("pi", "q", "T", "h"):
                if key not in sc:
                    raise _native_fail(f"{path}.{key}", "missing")
            if not _is_number(sc["pi"]):
                raise _native_fail(f"{path}.pi", "expected a number")
            scenarios.append(
                Scenario(
                    pi=float(sc["pi"]),
                    q=_as_vector(sc["q"], f"{path}.q"),
                    T=_as_matrix(sc["T"], f"{path}.T", width=len(c)),
                    h=_as_vector(sc["h"], f"{path}.h"),
                )
            )
        try:
            problem = TwoStageProblem.from_scenarios(first, W, scenarios)
        except ValueError as exc:
            raise _native_fail("$", str(exc))
        total = sum(problem.pi.tolist())
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise _native_fail("$.scenarios", f"probabilities sum to {total:g}")
        if total != 1.0:
            problem = replace(problem, pi=problem.pi / total)
        issues = validate_problem(problem)
        if issues:
            raise ParseError([ParseDiagnostic("native", 1, f"$: {msg}") for msg in issues])
        return problem

    nominal = doc.get("nominal")
    if not isinstance(nominal, dict):
        raise _native_fail("$.nominal", "missing or not an object")
    random = doc.get("random", [])
    if not isinstance(random, list):
        raise _native_fail("$.random", "expected an array")
    entries = []
    for i, re_doc in enumerate(random):
        path = f"$.random[{i}]"
        if not isinstance(re_doc, dict):
            raise _native_fail(path, "expected an object")
        target = re_doc.get("target")
        if target not in ("q", "T", "h"):
            raise _native_fail(f"{path}.target", 'must be "q", "T" or "h"')
        outcomes = re_doc.get("outcomes")
        if not isinstance(outcomes, list) or not outcomes:
            raise _native_fail(f"{path}.outcomes", "must be a nonempty array")
        pairs = []
        for j, pair in enumerate(outcomes):
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(_is_number(v) for v in pair)):
                raise _native_fail(f"{path}.outcomes[{j}]", "must be a [value, prob] pair of numbers")
            pairs.append((float(pair[0]), float(pair[1])))
        total = sum(p for _, p in pairs)
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise _native_fail(f"{path}.outcomes", f"probabilities sum to {total:g}")
        entries.append(
            RandomEntry(
                target=target,
                row=_as_index(re_doc.get("row", 0), f"{path}.row"),
                col=_as_index(re_doc.get("col", 0), f"{path}.col"),
                outcomes=tuple((v, p / total) for v, p in pairs),
            )
        )
    template = StochasticTemplate(
        first=first,
        W=W,
        q=_as_vector(nominal.get("q", None), "$.nominal.q"),
        T=_as_matrix(nominal.get("T", []), "$.nominal.T", width=len(c)),
        h=_as_vector(nominal.get("h", []), "$.nominal.h"),
        entries=tuple(entries),
    )
    issues = validate_template(template)
    if issues:
        raise ParseError([ParseDiagnostic("native", 1, f"$: {msg}") for msg in issues])
    return template


def write_native(obj: TwoStageProblem | StochasticTemplate, name: str = "") -> str:
    """Serialize to the versioned JSON format; floats keep full precision."""
    doc: dict = {
        "version": NATIVE_VERSION,
        "name": name,
        "first_stage": {
            "c": obj.first.c.tolist(),
            "A": obj.first.A.tolist(),
            "b": obj.first.b.tolist(),
        },
        "recourse": {"W": obj.W.tolist(), "m": obj.W.shape[1]},
    }
    if isinstance(obj, TwoStageProblem):
        doc["scenarios"] = [
            {"pi": pi, "q": q, "T": T, "h": h}
            for pi, q, T, h in zip(obj.pi.tolist(), obj.Q.tolist(), obj.T.tolist(), obj.H.tolist())
        ]
    else:
        doc["nominal"] = {"q": obj.q.tolist(), "T": obj.T.tolist(), "h": obj.h.tolist()}
        doc["random"] = [
            {
                "target": e.target,
                "row": e.row,
                "col": e.col,
                "outcomes": [[v, p] for v, p in e.outcomes],
            }
            for e in obj.entries
        ]
    return json.dumps(doc, indent=2)
