"""Readers for a three-file SMPS subset and a native JSON problem format.

The SMPS subset covers fixed-format MPS cores (ROWS/COLUMNS/RHS/RANGES/
BOUNDS, names without embedded blanks), time files with exactly two periods,
and stochastic files with INDEP DISCRETE sections targeting right-hand
sides, second-stage costs, or technology-matrix entries.  BLOCKS and
SCENARIOS sections are rejected with explicit diagnostics.

Inequality rows become equalities through slack columns owned by the row's
stage; ranged rows expand into a <= and a >= row.  Supported bounds are
UP (extra row x <= u), FX (extra row x = v), LO 0 and PL.

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
    col_entries: dict[str, list[tuple[str, float, int]]] = field(default_factory=dict)
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
                core.col_entries[col].append((fields[i], value, line_no))
        elif section == "RHS":
            if len(fields) not in (3, 5):
                raise _fail("core", line_no, "RHS lines need 1 or 2 (row, value) pairs")
            core.rhs_names.add(fields[0])
            for row, value in zip(fields[1::2], fields[2::2]):
                if row == core.obj_row:
                    raise _fail("core", line_no, "a constant on the objective row is not supported")
                if row not in core.row_sense:
                    raise _fail("core", line_no, f"rhs references unknown row {row!r}")
                core.rhs[row] = _number(value, "core", line_no, "rhs value")
        elif section == "RANGES":
            if len(fields) not in (3, 5):
                raise _fail("core", line_no, "RANGES lines need 1 or 2 (row, value) pairs")
            for row, value in zip(fields[1::2], fields[2::2]):
                if row not in core.row_sense and row != core.obj_row:
                    raise _fail("core", line_no, f"range references unknown row {row!r}")
                core.ranges[row] = _number(value, "core", line_no, "range value")
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


def _parse_time(text: str) -> tuple[str, str, int]:
    """(first stage-2 column, first stage-2 row, its line) from the PERIODS
    section."""
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
    line, second = markers[1]
    return second[0], second[1], line


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


def _stage_blocks(
    rows: list[tuple[np.ndarray, str, float]], n_x: int, n_cols: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One stage's (coefficient row, sense, rhs) triples over all n_cols
    core columns, split at the first stage-2 column n_x, with the stage's
    rhs and slack block: one column per inequality in row order, +1 for <=
    and -1 for >=."""
    coef = np.array([row for row, _, _ in rows], dtype=float).reshape(len(rows), n_cols)
    inequalities = [i for i, (_, sense, _) in enumerate(rows) if sense != "E"]
    slack = np.zeros((len(rows), len(inequalities)))
    slack[inequalities, range(len(inequalities))] = [
        1.0 if rows[i][1] == "L" else -1.0 for i in inequalities
    ]
    rhs = np.array([beta for _, _, beta in rows], dtype=float)
    return coef[:, :n_x], coef[:, n_x:], rhs, slack


def _random_entry(
    item: _StochEntry, core: _Core, col_index: dict[str, int], n_x: int,
    position: dict[str, int | None],
) -> RandomEntry | str:
    """The template entry a STOCH item sets, or the reason it sets none.
    ``position`` maps each stage-2 row to its template row, None if ranged."""
    total = sum(p for _, p in item.outcomes)
    if abs(total - 1.0) > PROBABILITY_TOL:
        return f"outcome probabilities sum to {total:g}"
    outcomes = tuple((v, p / total) for v, p in item.outcomes)
    col = col_index.get(item.col)
    if item.row == core.obj_row:
        if col is None:
            return f"unknown column {item.col!r}"
        if col < n_x:
            return "first-stage costs cannot be random"
        return RandomEntry("q", 0, col - n_x, outcomes)
    if item.row not in core.row_sense:
        return f"unknown row {item.row!r}"
    if item.row not in position:
        return "stage-1 data cannot be random"
    row = position[item.row]
    if row is None:
        return f"row {item.row!r} is ranged; random data is ambiguous"
    if item.col.upper() == "RHS" or item.col in core.rhs_names:
        return RandomEntry("h", row, 0, outcomes)
    if col is None:
        return f"unknown column {item.col!r}"
    if col >= n_x:
        return "recourse-matrix entries cannot be random"
    return RandomEntry("T", row, col, outcomes)


def parse_smps(triple: SmpsTriple) -> StochasticTemplate:
    """Assemble a stochastic template from CORE/TIME/STOCH file contents."""
    core = _parse_core(triple.core_text)
    col2, row2, time_line = _parse_time(triple.time_text)
    stoch = _parse_stoch(triple.stoch_text)

    if col2 not in core.col_entries:
        raise _fail("time", time_line, f"stage-2 start column {col2!r} not found in core")
    if row2 not in core.row_sense:
        raise _fail("time", time_line, f"stage-2 start row {row2!r} not found in core")
    # core columns run first stage first, so the start column splits them
    col_index = {name: j for j, name in enumerate(core.col_order)}
    n_x = col_index[col2]
    if n_x == 0:
        raise _fail("time", time_line, "no first-stage columns")
    row_index = {name: i for i, name in enumerate(core.row_order)}
    stage2_row = row_index[row2]

    cost = np.zeros(len(col_index))
    coef = np.zeros((len(row_index), len(col_index)))
    for col, pairs in core.col_entries.items():
        j = col_index[col]
        for row, value, line_no in pairs:
            if row == core.obj_row:
                cost[j] = value
            elif row not in row_index:
                raise _fail("core", line_no, f"column {col!r} references unknown row {row!r}")
            elif row_index[row] < stage2_row and j >= n_x:
                raise _fail(
                    "core", line_no, f"stage-2 column {col!r} appears in stage-1 row {row!r}"
                )
            else:
                coef[row_index[row], j] = value

    # each stage's (coefficient row, sense, rhs) triples: a ranged row as
    # its <= row then its >= row, and the bound rows after the core rows
    stages: tuple[list, list] = ([], [])
    position: dict[str, int | None] = {}  # stage-2 row -> template row
    for i, name in enumerate(core.row_order):
        sense, beta = core.row_sense[name], core.rhs.get(name, 0.0)
        rows = [(coef[i], sense, beta)]
        if name in core.ranges:
            r = core.ranges[name]
            if sense == "L":
                upper, lower = beta, beta - abs(r)
            elif sense == "G":
                upper, lower = beta + abs(r), beta
            else:
                upper, lower = (beta + r, beta) if r >= 0 else (beta, beta + r)
            rows = [(coef[i], "L", upper), (coef[i], "G", lower)]
        if i >= stage2_row:
            position[name] = len(stages[1]) if len(rows) == 1 else None
        stages[i >= stage2_row].extend(rows)
    for btype, col, value, line_no in core.bounds:
        if col not in col_index:
            raise _fail("core", line_no, f"bound references unknown column {col!r}")
        if btype == "LO" and value != 0.0:
            raise _fail("core", line_no, "only LO 0 bounds are supported")
        if btype == "UP" and value < 0:
            raise _fail("core", line_no, "UP bounds must be nonnegative")
        if btype not in ("LO", "UP", "FX", "PL"):
            raise _fail("core", line_no, f"unsupported bound type {btype!r}")
        if btype in ("UP", "FX"):
            unit = np.zeros(len(col_index))
            unit[col_index[col]] = 1.0
            stages[col_index[col] >= n_x].append((unit, "L" if btype == "UP" else "E", value))

    A_x, _, b, slack1 = _stage_blocks(stages[0], n_x, len(col_index))
    T_x, W_y, h, slack2 = _stage_blocks(stages[1], n_x, len(col_index))
    A = np.hstack([A_x, slack1])
    T = np.hstack([T_x, np.zeros((len(T_x), slack1.shape[1]))])
    W = np.hstack([W_y, slack2])

    entries: list[RandomEntry] = []
    diagnostics: list[ParseDiagnostic] = []
    for item in stoch:
        entry = _random_entry(item, core, col_index, n_x, position)
        if isinstance(entry, str):
            diagnostics.append(ParseDiagnostic("stoch", item.line, entry))
        else:
            entries.append(entry)
    if diagnostics:
        raise ParseError(diagnostics)

    template = StochasticTemplate(
        first=FirstStage(c=np.concatenate([cost[:n_x], np.zeros(slack1.shape[1])]), A=A, b=b),
        W=W,
        q=np.concatenate([cost[n_x:], np.zeros(slack2.shape[1])]),
        T=T,
        h=h,
        entries=tuple(entries),
    )
    issues = validate_template(template)
    if issues:
        raise ParseError([ParseDiagnostic("core", 1, msg) for msg in issues])
    logger.info(
        "parsed SMPS template: %d first-stage and %d second-stage columns, "
        "%d random entries", A.shape[1], W.shape[1], len(entries),
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
