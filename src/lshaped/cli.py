"""Command-line frontend: solve, bench, bounds, validate.

Exit codes for solve: 0 converged, 2 iteration limit, 3 infeasible master,
1 usage or parse errors.  The LSHAPED_LOG environment variable sets the log
level (DEBUG, INFO, ...).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import statistics
import sys

import numpy as np

from . import bounds as bounds_mod
from .aggregation import (
    MultiCut, SingleCut, parse_scheme, scheme_label, validate_scheme, with_parameter,
)
from .engine import EngineConfig, SolveReport, SolveStatus, compute_relative_complexities, solve_lshaped
from .problem import (
    StochasticTemplate,
    TwoStageProblem,
    enumerate_scenarios,
    sample_instance,
)
from .smps import ParseError, SmpsTriple, parse_native, parse_smps

BENCH_HEADER = [
    "scheme", "param", "value", "status", "n_iterations", "n_cuts",
    "time_seconds", "rel_cut", "rel_iter", "rel_time",
]


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> str:
    try:
        with open(path, "r") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}")


def _load_model(args) -> TwoStageProblem | StochasticTemplate:
    if args.input and (args.core or args.time or args.stoch):
        raise CliError("--input and --core/--time/--stoch are mutually exclusive")
    try:
        if args.input:
            return parse_native(_read_file(args.input))
        if args.core or args.time or args.stoch:
            if not (args.core and args.time and args.stoch):
                raise CliError("SMPS input needs all of --core, --time and --stoch")
            return parse_smps(
                SmpsTriple(
                    core_text=_read_file(args.core),
                    time_text=_read_file(args.time),
                    stoch_text=_read_file(args.stoch),
                )
            )
    except ParseError as exc:
        lines = "\n".join(str(d) for d in exc.diagnostics)
        raise CliError(f"parse error:\n{lines}")
    raise CliError("no input given; use --input or --core/--time/--stoch")


def _materialize(model, args) -> TwoStageProblem:
    if isinstance(model, TwoStageProblem):
        if args.samples:
            raise CliError("--samples requires a stochastic template input")
        return model
    try:
        if args.samples:
            return sample_instance(model, args.samples, args.seed)
        return enumerate_scenarios(model)
    except ValueError as exc:
        raise CliError(str(exc))


#: IterationRecord fields that the JSON iteration objects name otherwise
_JSON_KEYS = {"index": "k", "partition": "partition_used"}


def _json_value(value):
    """A record field as JSON: arrays and member sets as lists, a
    non-finite bound as null."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [list(part) for part in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _report_json(report: SolveReport) -> dict:
    return {
        "status": report.status,
        "termination": report.termination,
        "final_gap": report.final_gap if math.isfinite(report.final_gap) else None,
        "objective": report.objective,
        "x": None if report.x is None else [float(v) for v in report.x],
        "scheme": report.scheme,
        "rel_tol": report.rel_tol,
        "metrics": {
            "n_iterations": report.n_iterations,
            "n_cuts": report.n_cuts,
            "wall_seconds": report.wall_seconds,
        },
        "iterations": [
            {_JSON_KEYS.get(name, name): _json_value(getattr(rec, name)) for name in rec.__slots__}
            for rec in report.history
        ],
    }


def _csv_field(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {output}: {exc.strerror}")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_csv(header: list[str], rows, output: str | None) -> None:
    writer = io.StringIO()
    w = csv.writer(writer, lineterminator="\n")
    w.writerow(header)
    w.writerows([_csv_field(v) for v in row] for row in rows)
    _emit(writer.getvalue(), output)


def _solve_once(problem: TwoStageProblem, args, scheme) -> SolveReport:
    config = EngineConfig(scheme=scheme, rel_tol=args.tol, max_iterations=args.max_iters)
    return solve_lshaped(problem, config)


def _cmd_solve(args) -> int:
    problem = _materialize(_load_model(args), args)
    try:
        scheme = parse_scheme(args.scheme)
    except ValueError as exc:
        raise CliError(str(exc))
    try:
        report = _solve_once(problem, args, scheme)
    except (ValueError, RuntimeError) as exc:
        raise CliError(str(exc))
    if args.format == "json":
        _emit(json.dumps(_report_json(report), indent=2), args.output)
    else:
        _emit_csv(
            ["status", "objective", "n_iterations", "n_cuts", "wall_seconds"],
            [[report.status, report.objective, report.n_iterations, report.n_cuts,
              report.wall_seconds]],
            args.output,
        )
    if report.status == SolveStatus.CONVERGED:
        return 0
    if report.status == SolveStatus.ITERATION_LIMIT:
        return 2
    return 3


def _parse_sweep(spec: str) -> tuple[str, list[float]]:
    name, eq, rest = spec.partition("=")
    if not eq or not name:
        raise CliError(f"malformed sweep {spec!r}; expected NAME=start:stop:step or NAME=v1,v2")
    if ":" in rest:
        pieces = rest.split(":")
        if len(pieces) != 3:
            raise CliError(f"malformed sweep range {rest!r}")
        try:
            start, stop, step = (float(p) for p in pieces)
        except ValueError:
            raise CliError(f"malformed sweep range {rest!r}")
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise CliError(f"sweep range {rest!r} must be finite")
        if step <= 0:
            raise CliError("sweep step must be positive")
        # point i is start + i * step; a count within 1e-9 of a whole number
        # is that number, and then the last point is stop itself
        count = (stop - start) / step
        whole = abs(count - round(count)) <= 1e-9
        last = round(count) if whole else math.floor(count)
        values = [start + i * step for i in range(last + 1)]
        if whole and values:
            values[-1] = stop
    else:
        try:
            values = [float(p) for p in rest.split(",")]
        except ValueError:
            raise CliError(f"malformed sweep values {rest!r}")
    if not values:
        raise CliError("sweep produced no values")
    return name, values


def _median_run(problem, args, scheme) -> SolveReport:
    runs = [_solve_once(problem, args, scheme) for _ in range(args.repeats)]
    times = sorted(r.wall_seconds for r in runs)
    mid = statistics.median(times)
    report = runs[0]
    report.wall_seconds = mid
    return report


def _cmd_bench(args) -> int:
    if args.repeats < 1:
        raise CliError("--repeats must be at least 1")
    problem = _materialize(_load_model(args), args)
    points: list[tuple[str, str, object]] = []
    try:
        target = parse_scheme(args.scheme)
        if args.sweep:
            param, values = _parse_sweep(args.sweep)
            for value in values:
                points.append((param, f"{value:g}", with_parameter(target, param, value)))
        else:
            points.append(("", "", target))
    except ValueError as exc:
        raise CliError(str(exc))
    # reject a point the instance cannot take before any baseline runs
    for _, _, scheme in points:
        issues = validate_scheme(scheme, problem.n_scenarios)
        if issues:
            raise CliError("invalid aggregation strategy: " + "; ".join(issues))

    try:
        multi = _median_run(problem, args, MultiCut())
        single = _median_run(problem, args, SingleCut())
    except (ValueError, RuntimeError) as exc:
        raise CliError(str(exc))
    if multi.status != SolveStatus.CONVERGED or single.status != SolveStatus.CONVERGED:
        raise CliError("a baseline run did not converge", code=2)

    rows: list[dict] = []
    for param, value, scheme in points:
        try:
            report = _median_run(problem, args, scheme)
        except (ValueError, RuntimeError) as exc:
            raise CliError(str(exc))
        if report.status == SolveStatus.CONVERGED:
            rel = compute_relative_complexities(report, multi, single)
        else:
            rel = (None, None, None)
        rows.append(dict(zip(BENCH_HEADER, (
            scheme_label(scheme), param, value, report.status, report.n_iterations,
            report.n_cuts, report.wall_seconds, *rel,
        ))))

    if args.format == "json":
        _emit(json.dumps(rows, indent=2), args.output)
    else:
        _emit_csv(BENCH_HEADER, [row.values() for row in rows], args.output)
    return 0


#: each ``bounds`` flag, in the order of ``--help``, and its bound on the
#: parsed arguments
_BOUNDS = {
    "single": lambda a: bounds_mod.bound_single_cut(a.N, a.b, a.m),
    "multi": lambda a: bounds_mod.bound_multi_cut(a.N, a.b, a.m),
    "aggregated": lambda a: bounds_mod.bound_aggregated(_sizes(a), a.b, a.m),
    "upper": lambda a: bounds_mod.bound_aggregated_upper(a.A, a.AL, a.b, a.m),
    "dynamic": lambda a: bounds_mod.bound_dynamic(a.N, a.b, a.m, a.A0),
    "restricted": lambda a: bounds_mod.bound_dynamic_restricted(a.N, a.b, a.m, a.A0, a.lo, a.hi),
}


def _cmd_bounds(args) -> int:
    if args.compare:
        chosen = ["single", "multi"] + (["aggregated"] if args.sizes else []) + ["dynamic"]
    else:
        chosen = [name for name in _BOUNDS if getattr(args, name)]
        if len(chosen) != 1:
            raise CliError("choose exactly one bound (or --compare)")
    lines = []
    try:
        for name in chosen:
            if args.compare and name == "aggregated" and sum(_sizes(args)) != args.N:
                raise CliError(
                    f"--sizes {args.sizes} sum to {sum(_sizes(args))}, not to --N {args.N}"
                )
            value = _BOUNDS[name](args)
            lines.append(f"{name:<12}{value}" if args.compare else str(value))
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc))
    print("\n".join(lines))
    return 0


def _sizes(args) -> list[int]:
    if not args.sizes:
        raise CliError("--aggregated needs --sizes")
    try:
        return [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise CliError(f"malformed --sizes {args.sizes!r}")


def _cmd_validate(args) -> int:
    # parsing checks a problem's and a template's invariants alike
    model = _load_model(args)
    if not isinstance(model, TwoStageProblem):
        print(f"template with {len(model.entries)} random entries")
    print("ok")
    return 0


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="native JSON problem or template")
    parser.add_argument("--core", help="SMPS core file")
    parser.add_argument("--time", help="SMPS time file")
    parser.add_argument("--stoch", help="SMPS stochastic file")
    parser.add_argument("--samples", type=int, default=0,
                        help="sample this many scenarios from a template")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")


def _add_solve_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheme", default="single",
                        help="aggregation strategy, e.g. multi, partial:T=16, "
                             "closest:A=8,tau=0.3, kmedoids:k=20, "
                             "granulated:T0=5,inner=kmedoids:k=20")
    parser.add_argument("--tol", type=float, default=1e-2, help="relative gap tolerance")
    parser.add_argument("--max-iters", type=int, default=5000, dest="max_iters")
    parser.add_argument("--output", help="write the result to a file instead of stdout")
    parser.add_argument("--format", choices=["json", "csv"], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lshaped",
        description="Two-stage stochastic LP solver with cut aggregation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance")
    _add_input_args(p_solve)
    _add_solve_args(p_solve)

    p_bench = sub.add_parser("bench", help="parameter sweep against multi/single baselines")
    _add_input_args(p_bench)
    _add_solve_args(p_bench)
    p_bench.add_argument("--sweep", help="parameter sweep, e.g. T=1:32:1 or tau=0.1,0.3,0.5")
    p_bench.add_argument("--repeats", type=int, default=5,
                         help="timing repeats per point (median reported)")

    p_bounds = sub.add_parser("bounds", help="evaluate exact worst-case iteration bounds")
    for name in _BOUNDS:
        p_bounds.add_argument(f"--{name}", action="store_true")
    p_bounds.add_argument("--compare", action="store_true",
                          help="print single, multi, aggregated and dynamic side by side")
    p_bounds.add_argument("--N", type=int, default=1, help="scenario count")
    p_bounds.add_argument("--b", type=int, default=1, help="slope number")
    p_bounds.add_argument("--m", type=int, default=1, help="recourse row dimension")
    p_bounds.add_argument("--A0", type=int, default=1, help="first-iteration aggregate count")
    p_bounds.add_argument("--A", type=int, default=1, help="aggregation size")
    p_bounds.add_argument("--AL", type=int, default=1, help="aggregation level")
    p_bounds.add_argument("--lo", type=int, default=1, help="smallest allowed aggregate size")
    p_bounds.add_argument("--hi", type=int, default=1, help="largest allowed aggregate size")
    p_bounds.add_argument("--sizes", help="comma-separated part sizes for --aggregated; "
                                          "under --compare they must sum to --N")

    p_val = sub.add_parser("validate", help="parse and validate an input")
    _add_input_args(p_val)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("LSHAPED_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "format", None) is None and hasattr(args, "format"):
        args.format = "csv" if args.command == "bench" else "json"
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        return _cmd_validate(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
