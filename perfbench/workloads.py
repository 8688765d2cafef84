"""Benchmark workloads and the instance generator they share.

Each workload solves one stochastic program.  Its template follows the
shape of the test suite's trend instances (first stage on a simplex,
recourse matrix W = [I | -I], randomness in h and T) at a size where the
decomposition is never trivial: six first-stage variables, three recourse
rows, recourse costs scaled by five.  Its support is small (32 outcome
combinations) so that a few hundred scenarios cover it and every sample
poses nearly the same problem.  The template is drawn from the
workload's fixed template seed; the run seed draws the scenario samples of
the workload's instances.  Holding the program fixed, and averaging over
several samples, keeps iteration and cut counts nearly constant across run
seeds, so the spread between runs measures the solver rather than the draw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

N_FIRST = 6
RECOURSE_ROWS = 3
RECOURSE_COST_SCALE = 5.0
H_OUTCOMES = 2
RANDOM_T_ENTRIES = 2
T_OUTCOMES = 2


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    n_scenarios: int
    #: seed of the stochastic template; chosen so that the iteration count
    #: barely depends on the sample
    template_seed: int
    #: scenario samples solved in turn in every run
    instances: int
    #: a solve with fewer iterations means the instance is degenerate for
    #: this workload; it is a set-up error, not a fast run
    min_iterations: int
    why: str


# Sizes are chosen so that one solve takes one to six seconds on a 2-core
# x86 machine; a run solves its instances in turn, so each is solved a few
# times in a run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="multi_master", scheme="multi", n_scenarios=200,
            template_seed=6, instances=4, min_iterations=3,
            why="multi-cut: the dense master LP grows with every cut and dominates",
        ),
        Workload(
            name="single_subproblem", scheme="single", n_scenarios=400,
            template_seed=5, instances=4, min_iterations=4,
            why="single-cut: thousands of tiny scenario LPs dominate, the master is tiny",
        ),
        Workload(
            name="granulated_kmedoids", scheme="granulated:T0=2,inner=kmedoids:k=10",
            n_scenarios=320, template_seed=5, instances=4, min_iterations=5,
            why="granulated k-medoids: pure-Python clustering and cut distances dominate",
        ),
    )
}


def _outcomes(rng: np.random.Generator, low: float, high: float, count: int) -> list:
    values = rng.uniform(low, high, count)
    probs = rng.uniform(0.1, 1.0, count)
    return [[float(v), float(p)] for v, p in zip(values, probs / probs.sum())]


def sample_seeds(seed: int, count: int) -> list[int]:
    """Scenario-sampling seeds of a run's instances."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, np.uint64)]


def template_text(template_seed: int) -> str:
    """The stochastic template as native-JSON text, the program's input format."""
    rng = np.random.default_rng(template_seed)
    n, r = N_FIRST, RECOURSE_ROWS
    m = 2 * r
    c = rng.uniform(0.5, 2.0, n)
    q = RECOURSE_COST_SCALE * rng.uniform(0.2, 2.0, m)
    T = rng.uniform(-1.0, 1.0, (r, n))
    h = rng.uniform(-2.0, 2.0, r)
    random = [
        {"target": "h", "row": row, "col": 0, "outcomes": _outcomes(rng, -2.0, 2.0, H_OUTCOMES)}
        for row in range(r)
    ]
    for _ in range(RANDOM_T_ENTRIES):
        row, col = int(rng.integers(0, r)), int(rng.integers(0, n))
        outcomes = _outcomes(rng, -1.5, 1.5, T_OUTCOMES)
        random.append({"target": "T", "row": row, "col": col, "outcomes": outcomes})
    doc = {
        "version": 1,
        "name": f"perfbench-{template_seed}",
        "first_stage": {"c": c.tolist(), "A": [[1.0] * n], "b": [2.0]},
        "recourse": {"W": np.hstack([np.eye(r), -np.eye(r)]).tolist(), "m": m},
        "nominal": {"q": q.tolist(), "T": T.tolist(), "h": h.tolist()},
        "random": random,
    }
    return json.dumps(doc)
