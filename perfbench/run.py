"""Solver benchmark: one workload, one seed, a closed loop of solves.

    python3 perfbench/run.py --workload multi_master --seed 1 --seconds 36 --trace 0

From the repository root.  The run generates the workload's instances
from the seed, times set-up (native-JSON text to a ready problem), then
solves the instances in turn with ``solve_lshaped``, one solve at a time,
until ``--seconds`` have passed.  Every solve is checked against an
extensive-form optimum computed by HiGHS.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced solves and reports the per-layer split (see
``tracer.py``); its spans are written to ``.perfbench_out/``.  See
README.md next to this file for the workloads and what each metric should
move.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, Workload, sample_seeds, template_text

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

REL_TOL = 1e-6
#: a solve running longer is stopped and counted as a failed "timeout"
SOLVE_CAP_S = 30.0
#: no solve starts later than this into the loop, so a run ends in bounded time
LOOP_LIMIT_S = 100.0
#: set-up takes milliseconds; it is repeated this often after every solve
#: step and reported as a median
SETUP_REPS = 5

END_TO_END_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "iterations": "count",
    "cuts": "count",
}
# per-layer metric -> tracer span name; times are self times
LAYER_SECONDS = {
    "simplex.master_s": "simplex.master",
    "simplex.sub_s": "simplex.sub",
    "engine.subproblem_s": "engine.subproblem",
    "engine.self_s": "engine",
    "cuts.make_s": "cuts.make",
    "cuts.aggregate_s": "cuts.aggregate",
    "cuts.distance_s": "cuts.distance",
    "aggregation.kmedoids_s": "aggregation.kmedoids",
    "aggregation.apply_s": "aggregation.apply",
    "aggregation.granulate_s": "aggregation.granulate",
}
LAYER_CALLS = {
    "simplex.master_calls": "simplex.master",
    "simplex.sub_calls": "simplex.sub",
    "engine.subproblem_calls": "engine.subproblem",
    "cuts.make_calls": "cuts.make",
    "cuts.aggregate_calls": "cuts.aggregate",
    "cuts.distance_calls": "cuts.distance",
    "aggregation.kmedoids_calls": "aggregation.kmedoids",
}


class SolveTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise SolveTimeout


@dataclass
class Solve:
    instance: int
    wall: float
    traced: bool
    report: object = None
    layers: dict | None = None
    failure: str | None = None


def import_program():
    """Import lshaped from this checkout's src/, never from elsewhere."""
    if not (SRC / "lshaped" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found at {SRC}")
    sys.path.insert(0, str(SRC))
    import lshaped

    if Path(lshaped.__file__).resolve().parent != SRC / "lshaped":
        raise SystemExit(f"perfbench: imported lshaped from {lshaped.__file__}, not {SRC}")
    return lshaped


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = os.cpu_count()
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads or f"default ({nproc})",
        "machine": platform.machine(),
        "commit": _commit(),
    }


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of a few standard percentiles with at least ten samples
    beyond it, and its value; None below twenty samples."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(ordered) * (1.0 - p / 100.0) >= 10:
            rank = p / 100.0 * (len(ordered) - 1)
            lo = math.floor(rank)
            hi = min(lo + 1, len(ordered) - 1)
            return p, ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    return None


class SetUp:
    """Builds an instance from the native-JSON template text (parse_native,
    then sample_instance) and keeps the time of every build.  Builds are
    repeated between solves, so the median spans the whole run."""

    def __init__(self, lshaped, workload: Workload, seeds: list[int]):
        self.lshaped = lshaped
        self.text = template_text(workload.template_seed)
        self.n_scenarios = workload.n_scenarios
        self.seeds = seeds
        self.parse_s: list[float] = []
        self.sample_s: list[float] = []

    def build(self, instance: int):
        start = time.perf_counter()
        template = self.lshaped.parse_native(self.text)
        parsed = time.perf_counter()
        problem = self.lshaped.sample_instance(template, self.n_scenarios, self.seeds[instance])
        self.parse_s.append(parsed - start)
        self.sample_s.append(time.perf_counter() - parsed)
        return problem

    def repeat(self, instance: int) -> None:
        for _ in range(SETUP_REPS):
            self.build(instance)

    def medians(self) -> dict:
        return {
            "setup_s": statistics.median(p + s for p, s in zip(self.parse_s, self.sample_s)),
            "smps.parse_s": statistics.median(self.parse_s),
            "problem.sample_s": statistics.median(self.sample_s),
        }


def timed_solve(lshaped, instance: int, problem, config, tracer: Tracer | None) -> Solve:
    traced = tracer is not None
    gc.collect()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SOLVE_CAP_S)
    start = time.perf_counter()
    try:
        try:
            if tracer is None:
                report, layers = lshaped.solve_lshaped(problem, config), None
            else:
                report, layers = tracer.solve(lshaped.solve_lshaped, problem, config)
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    except SolveTimeout:
        return Solve(instance, wall, traced, failure="timeout")
    except Exception as exc:  # a raising solve is a counted failure, not a crash
        return Solve(instance, wall, traced, failure=f"error: {type(exc).__name__}: {exc}")
    failure = None if report.status == "converged" else f"status {report.status}"
    return Solve(instance, wall, traced, report=report, layers=layers, failure=failure)


def solve_loop(lshaped, problems, config, seconds: float, tracer: Tracer | None,
               setup: SetUp) -> list[Solve]:
    """Closed loop, one solve at a time, the instances in turn, until every
    instance has been solved and ``seconds`` have passed; a step that would
    end more than half its expected length past ``seconds`` is not started,
    and none starts after LOOP_LIMIT_S.  With a tracer each instance is
    solved untraced and then traced, so both sides see the same machine
    conditions.  Set-up is re-timed after every step."""
    solves: list[Solve] = []
    start = time.perf_counter()
    step = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed > LOOP_LIMIT_S:
            break
        if step >= len(problems) and elapsed * (1.0 + 0.5 / step) >= seconds:
            break
        instance = step % len(problems)
        solves.append(timed_solve(lshaped, instance, problems[instance], config, None))
        if tracer is not None:
            with tracer.installed():
                solves.append(timed_solve(lshaped, instance, problems[instance], config, tracer))
        setup.repeat(instance)
        step += 1
    return solves


def instance_mean(solves: list[Solve], value) -> float:
    """Mean over instances of the median of value(solve) per instance."""
    by_instance: dict[int, list] = {}
    for s in solves:
        by_instance.setdefault(s.instance, []).append(value(s))
    return statistics.fmean(statistics.median(v) for v in by_instance.values())


def first_reports(solves: list[Solve]) -> dict[int, object]:
    """The first finished report of each instance."""
    out: dict[int, object] = {}
    for s in solves:
        if s.report is not None:
            out.setdefault(s.instance, s.report)
    return out


def check_against_oracle(problems, solves: list[Solve]) -> tuple[bool, list[str]]:
    """Mark solves that disagree with HiGHS or with the instance's first
    solve as failed.

    Returns (correct, notes).  Correct needs a finished solve of every
    instance and no finished solve that is wrong or differs from the first.
    """
    from oracle import extensive_form_optimum

    firsts = first_reports(solves)
    correct = len(firsts) == len(problems)
    notes = []
    for instance, problem in enumerate(problems):
        try:
            optimum = extensive_form_optimum(problem)
        except RuntimeError as exc:
            notes.append(f"instance {instance}: {exc}")
            correct = False
            continue
        tol = REL_TOL * max(1.0, abs(optimum))
        notes.append(f"instance {instance}: HiGHS optimum {optimum!r}, tolerance {tol:.3g}")
        for s in solves:
            if s.instance != instance or s.report is None or s.failure is not None:
                continue
            r, first = s.report, firsts[instance]
            if abs(r.objective - optimum) > tol:
                s.failure = f"oracle: objective {r.objective!r} vs HiGHS {optimum!r}"
            elif any(not (rec.lower <= optimum + tol and optimum - tol <= rec.upper)
                     for rec in r.history):
                s.failure = "oracle: an iteration's bounds exclude the HiGHS optimum"
            elif (r.objective, r.n_iterations, r.n_cuts) != (
                first.objective, first.n_iterations, first.n_cuts
            ):
                s.failure = "nondeterministic: result differs from the first solve"
            correct = correct and s.failure is None
    return correct, notes


def layer_metrics(solves: list[Solve], setup: dict) -> dict:
    traced = [s for s in solves if s.traced and s.layers is not None]
    if not traced:
        raise SystemExit("perfbench: no traced solve finished")
    untraced = [s for s in solves if not s.traced]
    out = {}
    for metric, span in LAYER_SECONDS.items():
        out[metric] = instance_mean(traced, lambda s: s.layers["self_s"].get(span, 0.0))
    for metric, span in LAYER_CALLS.items():
        out[metric] = instance_mean(traced, lambda s: s.layers["calls"].get(span, 0))
    out["simplex.master_rows_max"] = max(s.layers["master_rows_max"] for s in traced)
    out["simplex.master_cols_max"] = max(s.layers["master_cols_max"] for s in traced)
    history = [rec for r in first_reports(traced).values() for rec in r.history]
    added = sum(rec.cuts_added for rec in history)
    tried = added + sum(rec.cuts_skipped for rec in history)
    out["engine.cuts_added_ratio"] = added / tried if tried else 0.0
    out["smps.parse_s"] = setup["smps.parse_s"]
    out["problem.sample_s"] = setup["problem.sample_s"]
    out["trace.overhead_s"] = (
        instance_mean(traced, lambda s: s.wall) - instance_mean(untraced, lambda s: s.wall)
    )
    return out


def _unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def write_trace(path: Path, header: dict, tracer: Tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = min((span[2] for span in tracer.spans), default=0.0)
    spans = [
        [solve, name, start - t0, end - t0, parent]
        for solve, name, start, end, parent in tracer.spans
    ]
    with open(path, "w") as fh:
        json.dump({**header, "span_fields": ["solve", "name", "start", "end", "parent"],
                   "spans": spans}, fh)


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  out_dir: Path = OUT_DIR) -> dict:
    """Run one workload and print its human-readable report; returns the
    result object that main prints as the last line."""
    lshaped = import_program()
    env = environment()
    seeds = sample_seeds(seed, workload.instances)
    print(f"perfbench workload={workload.name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("env " + json.dumps(env))
    print(f"instances: {workload.instances} samples of {workload.n_scenarios} scenarios "
          f"(template seed {workload.template_seed}, sample seeds {seeds}); "
          f"scheme={workload.scheme} rel_tol={REL_TOL:g} workers=1; "
          "closed loop, one client, one solve at a time, instances in turn")

    setup = SetUp(lshaped, workload, seeds)
    problems = [setup.build(i) for i in range(workload.instances)]
    config = lshaped.EngineConfig(
        scheme=lshaped.parse_scheme(workload.scheme), rel_tol=REL_TOL, workers=1
    )
    tracer = Tracer() if trace else None
    solves = solve_loop(lshaped, problems, config, seconds, tracer, setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    firsts = first_reports(solves)
    for instance, report in sorted(firsts.items()):
        if report.n_iterations < workload.min_iterations:
            raise SystemExit(
                f"perfbench: set-up error: instance {instance} took {report.n_iterations} "
                f"iterations, below the floor of {workload.min_iterations} for {workload.name}"
            )
    correct, notes = check_against_oracle(problems, solves)
    failed = [s for s in solves if s.failure is not None]
    for note in notes:
        print(f"oracle: {note}")
    for s in failed:
        print(f"failed solve of instance {s.instance} ({s.wall:.3f} s): {s.failure}")

    untraced = [s for s in solves if not s.traced]
    solve_s = instance_mean(untraced, lambda s: s.wall)
    tail = tail_percentile([s.wall for s in untraced])
    tail_text = f"p{tail[0]:g}={tail[1]:.6f} s" if tail else "no tail percentile below 20 solves"
    print(f"solve_s: mean over instances of the median solve {solve_s:.6f} s; "
          f"pooled {tail_text}; n={len(untraced)} solves")
    print(f"failed_frac {len(failed) / len(solves):g} ratio ({len(failed)} of {len(solves)})")

    if trace:
        metrics = layer_metrics(solves, setup.medians())
        if tracer.absent:
            print("absent hooks (their metrics read 0): " + ", ".join(tracer.absent))
        traced_s = instance_mean([s for s in solves if s.traced], lambda s: s.wall)
        print(f"traced solve_s {traced_s:.6f} s")
        dominant = {
            "simplex.master_s": metrics["simplex.master_s"],
            "simplex.sub_s+engine.subproblem_s":
                metrics["simplex.sub_s"] + metrics["engine.subproblem_s"],
            "aggregation.kmedoids_s+cuts.distance_s":
                metrics["aggregation.kmedoids_s"] + metrics["cuts.distance_s"],
        }
        for name, value in dominant.items():
            print(f"share {name} / traced solve_s = {value / traced_s:.3f}")
        write_trace(
            out_dir / f"{workload.name}-seed{seed}-trace.json",
            {"workload": workload.name, "seed": seed, "env": env, "metrics": metrics,
             "absent": tracer.absent,
             "traced_instances": [s.instance for s in solves if s.traced]},
            tracer,
        )
    else:
        metrics = {
            "solve_s": solve_s,
            "setup_s": setup.medians()["setup_s"],
            "peak_rss_mb": peak_rss_mb,
            "iterations": statistics.fmean([r.n_iterations for r in firsts.values()] or [0]),
            "cuts": statistics.fmean([r.n_cuts for r in firsts.values()] or [0]),
        }
    for name, value in metrics.items():
        print(f"{name} {value!r} {_unit(name)}")
    return {
        "correct": correct,
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": _unit(name)} for name, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
