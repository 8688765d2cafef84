"""Partitioning schemes, selection rules and cut-aggregation strategies.

A partitioning scheme splits the scenario indices 0..N-1 into disjoint
covering parts; applying an aggregation strategy to one iteration's cuts
produces one aggregated cut per part actually populated.

Every strategy is a static block size T0 plus an optional inner rule: the
cuts are summed over contiguous index blocks of T0 (``granulate``), then the
rule, if any, places the granule cuts (``aggregate_granules``).  Both work on
stacked (grad, offset) rows, and every aggregate is the ascending
sequential sum of its rows from zero: block and cluster sums are row-ordered
``sum(axis=0)`` reductions, and the closest rule keeps a running row sum per
slot.  k-medoids builds its distance matrix from the rows; the closest rule
ranks slots with the pairwise ``aggregation_distance``.

    multi                          T0 = 1
    partial:T  (alias uniform:T)   T0 = T
    single                         T0 = N
    closest                        T0 = 1, streaming placement into a
                                   bounded buffer of slots (SelectClosest)
    kmedoids                       T0 = 1, cluster the buffered cuts
                                   (Kmedoids)
    granulated:T0,inner=...        T0 times the inner strategy's block,
                                   capped at N, then the inner rule
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .rng import XorShift64Star

KMEDOIDS_MAX_SWEEPS = 100


class DistanceMeasure(Enum):
    ABSOLUTE = "absolute"
    ANGULAR = "angular"
    SPATIOANGULAR = "spatioangular"


@dataclass(frozen=True, eq=False)
class PartitioningScheme:
    """Disjoint covering index sets over 0..n_scenarios-1."""

    parts: tuple[frozenset[int], ...]
    n_scenarios: int

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(frozenset(p) for p in self.parts))


def validate_partitioning(scheme: PartitioningScheme) -> list[str]:
    """Violations of the partition conditions (subset, disjoint, covering)."""
    out: list[str] = []
    seen: set[int] = set()
    universe = set(range(scheme.n_scenarios))
    for i, part in enumerate(scheme.parts):
        if not part:
            out.append(f"part {i} is empty")
        stray = part - universe
        if stray:
            out.append(f"part {i} contains out-of-range indices {sorted(stray)}")
        overlap = part & seen
        if overlap:
            out.append(f"overlap at {sorted(overlap)}")
        seen |= part
    missing = universe - seen
    if missing:
        out.append(f"uncovered: {sorted(missing)}")
    return out


def scheme_stats(scheme: PartitioningScheme) -> tuple[int, int]:
    """(aggregation size, aggregation level) = (#parts, largest part)."""
    issues = validate_partitioning(scheme)
    if issues:
        raise ValueError("invalid partitioning: " + "; ".join(issues))
    return len(scheme.parts), max(len(p) for p in scheme.parts)


def uniform_partition(n_scenarios: int, size: int) -> PartitioningScheme:
    """Contiguous index blocks of the given size; the last may be smaller."""
    if not 1 <= size <= n_scenarios:
        raise ValueError(f"block size {size} not in 1..{n_scenarios}")
    parts = [
        frozenset(range(start, min(start + size, n_scenarios)))
        for start in range(0, n_scenarios, size)
    ]
    return PartitioningScheme(parts=tuple(parts), n_scenarios=n_scenarios)


# --- strategy and rule descriptions ------------------------------------------


@dataclass(frozen=True)
class SelectClosest:
    """Place each cut into the nearest slot within tolerance, else into the
    next empty slot, else into the nearest slot outright.  A slot is full at
    ceil(n_atoms / slots) members."""

    slots: int
    tolerance: float = 0.3
    measure: DistanceMeasure = DistanceMeasure.ANGULAR


@dataclass(frozen=True)
class Kmedoids:
    """Cluster the buffered cuts around k medoids under a distance measure."""

    clusters: int
    measure: DistanceMeasure = DistanceMeasure.ANGULAR
    #: breaks exact ties; None takes the seed of the solve (EngineConfig.seed)
    seed: int | None = None


@dataclass(frozen=True)
class MultiCut:
    pass


@dataclass(frozen=True)
class SingleCut:
    pass


@dataclass(frozen=True)
class Partial:
    size: int


@dataclass(frozen=True)
class Dynamic:
    rule: SelectClosest


@dataclass(frozen=True)
class Cluster:
    rule: Kmedoids


@dataclass(frozen=True)
class Granulated:
    block_size: int
    inner: "AggregationScheme"


AggregationScheme = Union[MultiCut, SingleCut, Partial, Dynamic, Cluster, Granulated]


def validate_scheme(scheme: AggregationScheme, n_scenarios: int) -> list[str]:
    """Parameter violations of a strategy for a given scenario count."""
    out: list[str] = []

    def check(s, n_atoms, granulated_ok=True):
        if isinstance(s, Partial):
            if not 1 <= s.size <= n_atoms:
                out.append(f"partial block size {s.size} not in 1..{n_atoms}")
        elif isinstance(s, Dynamic):
            rule = s.rule
            if isinstance(rule, SelectClosest):
                if rule.slots < 1:
                    out.append("closest rule needs at least one slot")
                if rule.measure is DistanceMeasure.ANGULAR and not 0 <= rule.tolerance <= 1:
                    out.append("angular tolerance must lie in [0, 1]")
                if not rule.tolerance >= 0:
                    out.append("distance tolerance must be a nonnegative number")
            else:
                out.append(f"unknown selection rule {rule!r}")
        elif isinstance(s, Cluster):
            if not isinstance(s.rule, Kmedoids):
                out.append(f"unknown cluster rule {s.rule!r}")
            elif s.rule.clusters < 1:
                out.append("k-medoids needs at least one cluster")
        elif isinstance(s, Granulated):
            if not granulated_ok:
                out.append("granulated strategies cannot be nested")
                return
            if not 1 <= s.block_size <= n_atoms:
                out.append(f"granule size {s.block_size} not in 1..{n_atoms}")
                return
            check(s.inner, math.ceil(n_atoms / s.block_size), granulated_ok=False)
        elif not isinstance(s, (MultiCut, SingleCut)):
            out.append(f"unknown aggregation strategy {s!r}")

    check(scheme, n_scenarios)
    return out


# --- closest rule -------------------------------------------------------------


def aggregation_distance(
    a: np.ndarray, a_count: int, b: np.ndarray, b_count: int, measure: DistanceMeasure
) -> float:
    """Distance between two stacked (grad, offset) rows whose cuts cover
    ``a_count`` and ``b_count`` scenarios, under one of three measures:

    absolute       ||a~ - b~|| / max(||a~||, ||b~||) over the rows, each
                   divided by its member count;
    angular        1 - |grad_a . grad_b| / (||grad_a|| ||grad_b||);
    spatioangular  angular term plus |qa - qb| / max(|qa|, |qb|) on the
                   member-normalized offsets.

    A zero gradient has no direction, so the angular family falls back to
    the absolute measure, which then reduces to the offset gap; two zero
    rows sit at distance zero.  Nonnegative, and zero for identical rows.
    """
    grad_a, grad_b = a[:-1], b[:-1]
    if measure is not DistanceMeasure.ABSOLUTE:
        na = float(np.linalg.norm(grad_a))
        nb = float(np.linalg.norm(grad_b))
        if na == 0.0 or nb == 0.0:
            measure = DistanceMeasure.ABSOLUTE
    if measure is DistanceMeasure.ABSOLUTE:
        va, vb = a / a_count, b / b_count
        denom = max(float(np.linalg.norm(va)), float(np.linalg.norm(vb)))
        if denom == 0.0:
            return 0.0
        return float(np.linalg.norm(va - vb)) / denom

    angular = 1.0 - abs(float(grad_a @ grad_b)) / (na * nb)
    angular = max(angular, 0.0)
    if measure is DistanceMeasure.ANGULAR:
        return angular
    qa = float(a[-1]) / a_count
    qb = float(b[-1]) / b_count
    if qa == qb:
        return angular
    return angular + abs(qa - qb) / max(abs(qa), abs(qb))


def _select_closest(
    rule: SelectClosest, rows: np.ndarray, counts: Sequence[int], n_atoms: int
) -> tuple[np.ndarray, list[list[int]]]:
    """Place stacked rows, covering ``counts`` scenarios each, one at a time
    into ``rule.slots`` slots; a slot flushes at ceil(n_atoms / slots) rows.

    Each slot keeps its granule positions and a running row sum, started
    from zeros and added to in arrival order, so one placement costs one
    row addition.  Rows that arrive in ascending member order are therefore
    summed as ``granulate`` sums a block.  Returns the slot sums in the
    order the slots flushed, then the slots left open in slot order, with
    the positions each one sums.
    """
    full_at = max(1, math.ceil(n_atoms / rule.slots))
    slots: list[list[int]] = [[] for _ in range(rule.slots)]
    sums: list[np.ndarray | None] = [None] * rule.slots
    sizes = [0] * rule.slots
    out_rows: list[np.ndarray] = []
    groups: list[list[int]] = []
    for g, row in enumerate(rows):
        best = -1
        best_dist = math.inf
        for i, slot in enumerate(slots):
            if not slot:
                continue
            dist = aggregation_distance(row, counts[g], sums[i], sizes[i], rule.measure)
            if dist < best_dist:
                best, best_dist = i, dist
        if best >= 0 and best_dist <= rule.tolerance:
            target = best
        else:
            empty = next((i for i, slot in enumerate(slots) if not slot), None)
            target = empty if empty is not None else best
        if not slots[target]:
            sums[target] = np.zeros(rows.shape[1])
        sums[target] += row
        slots[target].append(g)
        sizes[target] += counts[g]
        if len(slots[target]) >= full_at:
            out_rows.append(sums[target])
            groups.append(slots[target])
            slots[target], sizes[target] = [], 0
    for total, slot in zip(sums, slots):
        if slot:
            out_rows.append(total)
            groups.append(slot)
    return np.array(out_rows), groups


# --- k-medoids ----------------------------------------------------------------


def _distance_matrix(
    rows: np.ndarray, counts: np.ndarray, measure: DistanceMeasure
) -> np.ndarray:
    """All pairwise ``aggregation_distance`` values, up to rounding, as one
    exactly symmetric array, over stacked (grad, offset) rows whose cuts
    cover ``counts`` scenarios each.

    Sums over coordinates run one coordinate at a time into n x n
    accumulators, which fixes their order and needs no n x n x d temporary.
    Bitwise-equal gradients sit at angular distance exactly zero and
    bitwise-equal stacked vectors at absolute distance exactly zero.
    """
    grads, offsets = rows[:, :-1], rows[:, -1]
    counts = np.asarray(counts, dtype=float)
    n = len(rows)
    buf = np.empty((n, n))
    grad_norms = np.linalg.norm(grads, axis=1)
    flat = grad_norms == 0.0
    if measure is DistanceMeasure.ABSOLUTE or flat.any():
        stacked = rows / counts[:, None]
        sqdiff = np.zeros((n, n))
        for col in stacked.T:
            np.subtract.outer(col, col, out=buf)
            sqdiff += np.square(buf, out=buf)
        norms = np.linalg.norm(stacked, axis=1)
        denom = np.maximum.outer(norms, norms, out=buf)
        # a zero denominator means two zero vectors, whose sqdiff is 0
        absolute = np.sqrt(sqdiff, out=sqdiff)
        np.divide(absolute, denom, out=absolute, where=denom != 0.0)
        if measure is DistanceMeasure.ABSOLUTE:
            return absolute

    # angular: 1 - |cos| from the Gram matrix; equal gradients are exactly 0
    gram = np.zeros((n, n))
    same = np.ones((n, n), dtype=bool)
    for col in grads.T:
        gram += np.multiply.outer(col, col, out=buf)
        same &= np.equal.outer(col, col)
    dist = np.abs(gram, out=gram)
    with np.errstate(divide="ignore", invalid="ignore"):
        dist /= np.multiply.outer(grad_norms, grad_norms, out=buf)
    np.subtract(1.0, dist, out=dist)
    np.maximum(dist, 0.0, out=dist)
    dist[same] = 0.0

    if measure is DistanceMeasure.SPATIOANGULAR:
        q = offsets / counts
        gap = np.abs(np.subtract.outer(q, q, out=buf), out=buf)
        scale = np.maximum.outer(np.abs(q), np.abs(q))
        dist += np.divide(gap, scale, out=gap, where=gap != 0.0)

    if flat.any():
        fallback = flat[:, None] | flat[None, :]
        dist[fallback] = absolute[fallback]
    return dist


def _assign(dist: np.ndarray, medoids: list[int]) -> np.ndarray:
    # nearest medoid, ties to the lowest medoid index
    cols = dist[:, medoids]
    return np.argmin(cols, axis=1)


def _tie_pick(candidates: np.ndarray, rng: XorShift64Star) -> int:
    if len(candidates) == 1:
        return int(candidates[0])
    return int(candidates[rng.next_uint64() % len(candidates)])


def kmedoids_cluster(
    rows: np.ndarray,
    counts: Sequence[int],
    k: int,
    measure: DistanceMeasure,
    seed: int = 0,
) -> tuple[list[int], list[int]]:
    """Alternating (Voronoi) k-medoids with a single-swap polish.

    Seeding is greedy: start from the point with minimum total distance and
    repeatedly add the point farthest from its nearest chosen medoid; the
    seed only breaks exact ties.  Alternating sweeps reassign points to
    their nearest medoid (ties to the lowest medoid index) and re-center
    each cluster; at a fixpoint, any cost-improving single-medoid swap is
    applied and the sweeps resume.  Total cost never increases and the
    procedure stops at a swap-optimal configuration or after
    KMEDOIDS_MAX_SWEEPS rounds.

    The points are stacked (grad, offset) rows, with ``counts`` the number
    of scenarios each row covers.  The distance matrix is built once, as
    array operations over the rows, in O(n^2 d).  The swap polish follows
    FastPAM1 (Schubert & Rousseeuw 2019): from each point's nearest and
    second-nearest medoid distance, one k x n table holds the cost of every
    (medoid, candidate) swap, in O(k n^2) per swap round.  The swap rule is unchanged: pairs are
    scanned medoid by medoid, candidates in index order, and a swap is taken
    only when it beats the best cost so far by more than 1e-12.

    A cluster's new centre depends only on ``dist`` and its member set, so
    a sweep re-centres only the clusters whose members changed since their
    last re-centring, and the one whose medoid a swap replaced; the others
    keep their medoid, as re-centring them would.  A sweep that moves no
    medoid leaves the assignment as it is and goes straight to the swap.

    Returns (assignment, medoids): cluster index per point and the k medoid
    point indices.
    """
    n = len(rows)
    if not 1 <= k <= n:
        raise ValueError(f"cluster count {k} not in 1..{n}")
    rng = XorShift64Star(seed)
    dist = _distance_matrix(rows, counts, measure)

    totals = dist.sum(axis=1)
    first = _tie_pick(np.flatnonzero(totals == totals.min()), rng)
    medoids = [first]
    while len(medoids) < k:
        nearest = dist[:, medoids].min(axis=1)
        nearest[medoids] = -1.0
        far = _tie_pick(np.flatnonzero(nearest == nearest.max()), rng)
        medoids.append(far)

    assignment = _assign(dist, medoids)
    # slots whose member set changed since their last re-centring
    stale = np.ones(k, dtype=bool)
    for _ in range(KMEDOIDS_MAX_SWEEPS):
        changed = False
        for c in np.flatnonzero(stale).tolist():
            stale[c] = False
            cluster = np.flatnonzero(assignment == c)
            if len(cluster) == 0:
                continue
            best = _medoid_of(dist, cluster)
            if best != medoids[c]:
                medoids[c] = best
                changed = True
        if not changed:
            # unchanged medoids give the same assignment: a fixpoint
            swap = _best_swap(dist, medoids, assignment)
            if swap is None:
                break
            medoids[swap[0]] = swap[1]
            stale[swap[0]] = True
        new_assignment = _assign(dist, medoids)
        moved = new_assignment != assignment
        stale[assignment[moved]] = True
        stale[new_assignment[moved]] = True
        assignment = new_assignment
    return [int(a) for a in assignment], [int(mi) for mi in medoids]


def _medoid_of(dist: np.ndarray, cluster: np.ndarray) -> int:
    """The member of a cluster (ascending point indices) with the least
    total distance to the others, ties to the first."""
    inner = dist[np.ix_(cluster, cluster)].sum(axis=1)
    return int(cluster[np.flatnonzero(inner == inner.min())[0]])


def _best_swap(
    dist: np.ndarray, medoids: list[int], assignment: np.ndarray
) -> tuple[int, int] | None:
    """The single-medoid swap the sequential scan accepts, or None.

    Row c of the cost table is the total cost with medoid slot c replaced by
    each candidate: a point keeps the nearer of the candidate and the best
    remaining medoid, which is its second-nearest medoid when slot c is its
    nearest and its nearest otherwise.  Sums run down the columns in point
    order, so the current cost (slot 0 replaced by itself) and every trial
    cost are summed exactly as a point-by-point loop would sum them.
    """
    n, k = len(dist), len(medoids)
    cols = dist[:, medoids]
    rows = np.arange(n)
    first = cols[rows, assignment]
    if k > 1:
        cols[rows, assignment] = np.inf
        second = cols.min(axis=1)
    else:
        second = np.full(n, np.inf)
    table = np.empty((k, n))
    buf = np.empty((n, n))
    for c in range(k):
        others = np.where(assignment == c, second, first)
        table[c] = np.minimum(dist, others[:, None], out=buf).sum(axis=0)
    cost = table[0, medoids[0]]
    table[:, medoids] = np.inf

    flat = table.ravel()
    swap = None
    pos = 0
    while True:
        hits = np.flatnonzero(flat[pos:] < cost - 1e-12)
        if len(hits) == 0:
            return swap
        pos += int(hits[0])
        cost = flat[pos]
        swap = divmod(pos, n)


# --- strategy application -----------------------------------------------------


def granulation(
    scheme: AggregationScheme, n_scenarios: int
) -> tuple[int, AggregationScheme]:
    """The static block size T0 of a strategy and its inner rule over the
    granule cuts: ``MultiCut()`` for none, else a ``Dynamic`` or ``Cluster``."""
    if isinstance(scheme, Granulated):
        block, inner = granulation(scheme.inner, math.ceil(n_scenarios / scheme.block_size))
        return min(scheme.block_size * block, n_scenarios), inner
    if isinstance(scheme, SingleCut):
        return n_scenarios, MultiCut()
    if isinstance(scheme, Partial):
        return scheme.size, MultiCut()
    if isinstance(scheme, (MultiCut, Dynamic, Cluster)):
        return 1, scheme
    raise ValueError(f"unknown aggregation strategy {scheme!r}")


def granulate(rows: np.ndarray, block_size: int) -> np.ndarray:
    """Sum stacked cut rows, row i for atom i, over contiguous blocks of
    ``block_size`` atoms; the last block may be shorter.

    Row g of the result is granule g.  Full blocks are summed in one
    reduction over the middle axis of a reshape and the ragged last block
    on its own, both row by row from zero, so each granule row is the
    ascending sequential sum of its block bit for bit.  A block size of 1
    returns the input itself.
    """
    if block_size == 1:
        return rows
    width = rows.shape[1]
    full = len(rows) // block_size * block_size
    sums = rows[:full].reshape(-1, block_size, width).sum(axis=1)
    if full < len(rows):
        sums = np.vstack([sums, rows[full:].sum(axis=0)])
    return sums


def aggregate_granules(
    inner: AggregationScheme,
    rows: np.ndarray,
    counts: Sequence[int],
    n_atoms: int,
) -> tuple[np.ndarray, list[list[int]]]:
    """Apply an inner rule (``MultiCut``, ``Dynamic`` or ``Cluster``, see
    ``granulation``) to one iteration's granule cuts: stacked (grad, offset)
    rows over disjoint member sets of the given sizes, in arrival order, out
    of ``n_atoms`` granules in all.  Arrival order is ascending member
    order.

    Returns the aggregate rows and, for each, the positions of the granules
    it sums in ascending order.  A k-medoids cluster is summed as
    ``rows[idx].sum(axis=0)`` over those positions, and the clusters come in
    ascending order of their first granule.  The closest rule places the
    granule rows one at a time, in arrival order (see ``_select_closest``),
    and returns its aggregates in the order their slots flushed.
    """
    if isinstance(inner, MultiCut):
        return rows, [[g] for g in range(len(rows))]
    if isinstance(inner, Dynamic):
        return _select_closest(inner.rule, rows, counts, n_atoms)
    if isinstance(inner, Cluster):
        rule = inner.rule
        k = min(rule.clusters, len(rows))
        assignment, _ = kmedoids_cluster(rows, counts, k, rule.measure, rule.seed or 0)
        # granules are visited in ascending order, so each cluster lists its
        # granules in ascending order and the clusters open in that order
        clusters: dict[int, list[int]] = {}
        for g, c in enumerate(assignment):
            clusters.setdefault(c, []).append(g)
        groups = list(clusters.values())
        return np.array([rows[idx].sum(axis=0) for idx in groups]), groups
    raise ValueError(f"unknown inner rule {inner!r}")


# --- textual strategy grammar (shared by the CLI) ------------------------------

_MEASURES = {m.value: m for m in DistanceMeasure}


def _parse_params(text: str) -> dict[str, str]:
    params: dict[str, str] = {}
    rest = text
    while rest:
        if rest.startswith("inner="):
            params["inner"] = rest[len("inner="):]
            break
        piece, _, rest = rest.partition(",")
        key, eq, value = piece.partition("=")
        if not eq:
            raise ValueError(f"malformed strategy parameter {piece!r}")
        params[key.strip()] = value.strip()
    return params


def _measure_param(params: dict[str, str]) -> DistanceMeasure:
    name = params.pop("measure", "angular")
    if name not in _MEASURES:
        raise ValueError(f"unknown distance measure {name!r}")
    return _MEASURES[name]


def parse_scheme(text: str) -> AggregationScheme:
    """Parse a strategy description like ``partial:T=16`` or
    ``granulated:T0=5,inner=kmedoids:k=20``."""
    name, _, param_text = text.strip().partition(":")
    params = _parse_params(param_text) if param_text else {}

    def done(result):
        if params:
            raise ValueError(f"unexpected parameters for {name!r}: {sorted(params)}")
        return result

    try:
        if name == "multi":
            return done(MultiCut())
        if name == "single":
            return done(SingleCut())
        if name in ("partial", "uniform"):
            # uniform slots fill in arrival order, and the engine passes
            # complete cuts in index order, so they are partial blocks here
            return done(Partial(size=int(params.pop("T", 1))))
        if name == "closest":
            measure = _measure_param(params)
            return done(
                Dynamic(
                    SelectClosest(
                        slots=int(params.pop("A", 8)),
                        tolerance=float(params.pop("tau", 0.3)),
                        measure=measure,
                    )
                )
            )
        if name == "kmedoids":
            measure = _measure_param(params)
            return done(
                Cluster(
                    Kmedoids(
                        clusters=int(params.pop("k", 20)),
                        measure=measure,
                        seed=int(params.pop("seed")) if "seed" in params else None,
                    )
                )
            )
        if name == "granulated":
            inner = parse_scheme(params.pop("inner", "closest"))
            if isinstance(inner, Granulated):
                raise ValueError("granulated strategies cannot be nested")
            return done(Granulated(block_size=int(params.pop("T0", 5)), inner=inner))
    except ValueError:
        raise
    except Exception as exc:  # int()/float() conversion failures
        raise ValueError(f"malformed strategy {text!r}: {exc}") from exc
    raise ValueError(f"unknown aggregation strategy {name!r}")


def scheme_label(scheme: AggregationScheme) -> str:
    """Canonical textual form accepted back by parse_scheme."""
    if isinstance(scheme, MultiCut):
        return "multi"
    if isinstance(scheme, SingleCut):
        return "single"
    if isinstance(scheme, Partial):
        return f"partial:T={scheme.size}"
    if isinstance(scheme, Dynamic):
        rule = scheme.rule
        tau = float(rule.tolerance)  # repr: the shortest text that parses back
        return f"closest:A={rule.slots},tau={tau!r},measure={rule.measure.value}"
    if isinstance(scheme, Cluster):
        rule = scheme.rule
        seed = "" if rule.seed is None else f",seed={rule.seed}"
        return f"kmedoids:k={rule.clusters},measure={rule.measure.value}{seed}"
    if isinstance(scheme, Granulated):
        return f"granulated:T0={scheme.block_size},inner={scheme_label(scheme.inner)}"
    raise ValueError(f"unknown aggregation strategy {scheme!r}")


def with_parameter(scheme: AggregationScheme, name: str, value: float) -> AggregationScheme:
    """Return a copy of the strategy with one named parameter replaced.

    Used by the benchmark sweep; the parameter names match the textual
    grammar (T, A, tau, k, T0, seed).  Every parameter but tau is an
    integer, and a value that is not one is rejected.
    """
    def integer() -> int:
        if not float(value).is_integer():
            raise ValueError(f"parameter {name!r} must be an integer, not {value!r}")
        return int(value)

    if isinstance(scheme, Partial) and name == "T":
        return Partial(size=integer())
    if isinstance(scheme, Dynamic):
        rule = scheme.rule
        if name == "tau":
            return Dynamic(replace(rule, tolerance=float(value)))
        if name == "A":
            return Dynamic(replace(rule, slots=integer()))
    if isinstance(scheme, Cluster):
        if name == "k":
            return Cluster(replace(scheme.rule, clusters=integer()))
        if name == "seed":
            return Cluster(replace(scheme.rule, seed=integer()))
    if isinstance(scheme, Granulated) and name == "T0":
        return Granulated(block_size=integer(), inner=scheme.inner)
    raise ValueError(f"strategy {scheme_label(scheme)!r} has no parameter {name!r}")
