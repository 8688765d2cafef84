"""Cut-aggregation strategies and their inner rules.

A strategy is one of ``MultiCut``, ``SingleCut``, ``Partial``,
``SelectClosest``, ``Kmedoids`` and ``Granulated``; the two rules are
strategies themselves, with no wrapper.  Applying a strategy to one
iteration's cuts partitions the scenarios 0..N-1 into disjoint covering
sets and yields one aggregated cut per set.

Every strategy is a static block size T0 plus an optional inner rule
(``granulation``; ``None`` for no rule): the cuts are summed over
contiguous index blocks of T0 (``granulate``), then the rule, if any,
places the granule cuts (``aggregate_granules``).  Both work on stacked
(grad, offset) rows, and every aggregate is the ascending sequential sum of
its rows from zero: block and cluster sums are row-ordered ``sum(axis=0)``
reductions, and the closest rule keeps a running row sum per slot.
k-medoids clusters the m distinct (row, member count) pairs, each weighted
by its number of copies, so its distance matrix and swap table cost
O(m^2 d) and O(k m^2) however many copies the rows hold, and a medoid is
the first copy of its row; the closest rule ranks slots with the pairwise
``aggregation_distance``.  An aggregate is one row plus the granules it
covers.

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

KMEDOIDS_MAX_SWEEPS = 100


class DistanceMeasure(Enum):
    ABSOLUTE = "absolute"
    ANGULAR = "angular"
    SPATIOANGULAR = "spatioangular"


# --- strategy and rule descriptions ------------------------------------------


@dataclass(frozen=True)
class SelectClosest:
    """Place each cut into the nearest slot within tolerance, else into the
    next empty slot, else into the nearest slot outright.  A slot is full at
    ceil(granules / slots) members."""

    slots: int
    tolerance: float = 0.3
    measure: DistanceMeasure = DistanceMeasure.ANGULAR


@dataclass(frozen=True)
class Kmedoids:
    """Cluster the buffered cuts around k medoids under a distance measure."""

    clusters: int
    measure: DistanceMeasure = DistanceMeasure.ANGULAR


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
class Granulated:
    block_size: int
    inner: "AggregationScheme"


AggregationScheme = Union[MultiCut, SingleCut, Partial, SelectClosest, Kmedoids, Granulated]


def validate_scheme(scheme: AggregationScheme, n_scenarios: int) -> list[str]:
    """Parameter violations of a strategy for a given scenario count."""
    out: list[str] = []

    def check(s, n, granulated_ok=True):
        if isinstance(s, Partial):
            if not 1 <= s.size <= n:
                out.append(f"partial block size {s.size} not in 1..{n}")
        elif isinstance(s, SelectClosest):
            if s.slots < 1:
                out.append("closest rule needs at least one slot")
            if s.measure is DistanceMeasure.ANGULAR and not 0 <= s.tolerance <= 1:
                out.append("angular tolerance must lie in [0, 1]")
            if not s.tolerance >= 0:
                out.append("distance tolerance must be a nonnegative number")
        elif isinstance(s, Kmedoids):
            if s.clusters < 1:
                out.append("k-medoids needs at least one cluster")
        elif isinstance(s, Granulated):
            if not granulated_ok:
                out.append("granulated strategies cannot be nested")
                return
            if not 1 <= s.block_size <= n:
                out.append(f"granule size {s.block_size} not in 1..{n}")
                return
            check(s.inner, math.ceil(n / s.block_size), granulated_ok=False)
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
    rows sit at distance zero.  Nonnegative, and exactly zero for identical
    rows of equal counts: bitwise-equal gradients sit at angular distance
    exactly zero, as in ``_distance_matrix``.
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
    # |cos| of equal gradients can round a few ulps off 1; snap them to
    # exactly 0, as _distance_matrix does, comparing only near 0
    if angular < 4 * np.finfo(float).eps and np.array_equal(grad_a, grad_b):
        angular = 0.0
    angular = max(angular, 0.0)
    if measure is DistanceMeasure.ANGULAR:
        return angular
    qa = float(a[-1]) / a_count
    qb = float(b[-1]) / b_count
    if qa == qb:
        return angular
    return angular + abs(qa - qb) / max(abs(qa), abs(qb))


def _select_closest(
    rule: SelectClosest, rows: np.ndarray, counts: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Place stacked rows, covering ``counts`` scenarios each, one at a time
    into ``rule.slots`` slots, each flushed at ceil(len(rows) / slots) rows.

    Each slot keeps its granule positions and a running row sum, started
    from zeros and added to in arrival order, so one placement costs one
    row addition.  Rows that arrive in ascending member order are therefore
    summed as ``granulate`` sums a block.  Returns the slot sums in the
    order the slots flushed, then the slots left open in slot order, with
    their coverage as in ``aggregate_granules``.
    """
    full_at = max(1, math.ceil(len(rows) / rule.slots))
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
    return np.array(out_rows), np.concatenate(groups), np.cumsum([0, *map(len, groups)])


# --- k-medoids ----------------------------------------------------------------


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d array, compared as raw bytes so that only
    bitwise-equal rows merge: the index of each one's first occurrence, in
    ascending order, and the index of each row among them."""
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, row_of = np.unique(keys, return_index=True, return_inverse=True)
    # np.unique orders by key; renumber in order of first occurrence
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[row_of.reshape(-1)]


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


def kmedoids_cluster(
    rows: np.ndarray,
    counts: Sequence[int],
    k: int,
    measure: DistanceMeasure,
) -> tuple[list[int], list[int]]:
    """Alternating (Voronoi) k-medoids with a single-swap polish, over the
    distinct points, each weighted by its multiplicity.

    The points are stacked (grad, offset) rows, with ``counts`` the number
    of scenarios each row covers.  Points whose row and count are equal bit
    for bit are one distinct point, whose weight is the number of its
    copies; the m distinct points keep the order of their first occurrence.
    Every cost is a weighted sum (Kaufman & Rousseeuw 1990), the total cost
    of the input points, so clustering the distinct points optimizes the
    same function as clustering all n, and copies never split between
    clusters.  The distance matrix is built once, as array operations over
    the distinct rows, in O(m^2 d), and no work is O(n^2).

    Seeding is greedy: start from the point with minimum weighted total
    distance and repeatedly add the point farthest from its nearest chosen
    medoid; like every tie below, a tie goes to the lowest point index.
    Alternating sweeps reassign points to their nearest medoid (ties to the
    lowest medoid index) and re-center each cluster; at a fixpoint, any
    cost-improving single-medoid swap is applied and the sweeps resume.
    Total cost never increases and the procedure stops at a swap-optimal
    configuration or after KMEDOIDS_MAX_SWEEPS rounds.

    The swap polish follows FastPAM1 (Schubert & Rousseeuw 2019): from each
    point's nearest and second-nearest medoid distance, one k x m table
    holds the cost of every (medoid, candidate) swap, in O(k m^2) per swap
    round.  The swap rule is unchanged: pairs are scanned medoid by medoid,
    candidates in index order, and a swap is taken only when it beats the
    best cost so far by more than 1e-12.  Each weighted sum multiplies
    before it reduces, along the axis the unweighted sum would, so with
    every weight 1 (all points distinct) every bit is that of the
    unweighted algorithm.

    A cluster's new centre depends only on ``dist`` and its member set, so
    a sweep re-centres only the clusters whose members changed since their
    last re-centring, and the one whose medoid a swap replaced; the others
    keep their medoid, as re-centring them would.  A sweep that moves no
    medoid leaves the assignment as it is and goes straight to the swap.

    Returns (assignment, medoids): cluster index per input point and the
    medoids as input point indices, each the first occurrence of its
    distinct point.  There are min(k, m) medoids: k above the number of
    distinct points gives each distinct point its own cluster.
    """
    n = len(rows)
    if not 1 <= k <= n:
        raise ValueError(f"cluster count {k} not in 1..{n}")
    counts = np.asarray(counts, dtype=float)
    distinct, point_of = distinct_rows(np.column_stack([rows, counts]))
    weights = np.bincount(point_of).astype(float)
    k = min(k, len(distinct))
    dist = _distance_matrix(rows[distinct], counts[distinct], measure)

    totals = (dist * weights).sum(axis=1)
    medoids = [int(np.argmin(totals))]
    while len(medoids) < k:
        nearest = dist[:, medoids].min(axis=1)
        nearest[medoids] = -1.0
        medoids.append(int(np.argmax(nearest)))

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
            best = _medoid_of(dist, weights, cluster)
            if best != medoids[c]:
                medoids[c] = best
                changed = True
        if not changed:
            # unchanged medoids give the same assignment: a fixpoint
            swap = _best_swap(dist, weights, medoids, assignment)
            if swap is None:
                break
            medoids[swap[0]] = swap[1]
            stale[swap[0]] = True
        new_assignment = _assign(dist, medoids)
        moved = new_assignment != assignment
        stale[assignment[moved]] = True
        stale[new_assignment[moved]] = True
        assignment = new_assignment
    return assignment[point_of].tolist(), distinct[medoids].tolist()


def _medoid_of(dist: np.ndarray, weights: np.ndarray, cluster: np.ndarray) -> int:
    """The member of a cluster (ascending point indices) with the least
    weighted total distance to the others, ties to the first."""
    inner = dist[cluster[:, None], cluster]
    inner = np.multiply(inner, weights[cluster], out=inner).sum(axis=1)
    return int(cluster[np.flatnonzero(inner == inner.min())[0]])


def _best_swap(
    dist: np.ndarray, weights: np.ndarray, medoids: list[int], assignment: np.ndarray
) -> tuple[int, int] | None:
    """The single-medoid swap the sequential scan accepts, or None.

    Row c of the cost table is the weighted total cost with medoid slot c
    replaced by each candidate: a point keeps the nearer of the candidate
    and the best remaining medoid, which is its second-nearest medoid when
    slot c is its nearest and its nearest otherwise, and counts that
    distance times its weight.  Sums run down the columns in point order,
    so the current cost (slot 0 replaced by itself) and every trial cost
    are summed exactly as a point-by-point loop would sum them.
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
    # a weight of 1 multiplies exactly, so only the rows from the first to
    # the last other weight are scaled: none when every point is distinct
    heavy = np.flatnonzero(weights != 1.0)
    lo, hi = (heavy[0], heavy[-1] + 1) if len(heavy) else (0, 0)
    scale = weights[lo:hi, None]
    for c in range(k):
        others = np.where(assignment == c, second, first)
        np.minimum(dist, others[:, None], out=buf)
        buf[lo:hi] *= scale
        table[c] = buf.sum(axis=0)
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
) -> tuple[int, SelectClosest | Kmedoids | None]:
    """The static block size T0 of a strategy and its inner rule over the
    granule cuts: ``None`` for none, else a ``SelectClosest`` or ``Kmedoids``."""
    if isinstance(scheme, Granulated):
        block, inner = granulation(scheme.inner, math.ceil(n_scenarios / scheme.block_size))
        return min(scheme.block_size * block, n_scenarios), inner
    if isinstance(scheme, SingleCut):
        return n_scenarios, None
    if isinstance(scheme, Partial):
        return scheme.size, None
    if isinstance(scheme, MultiCut):
        return 1, None
    if isinstance(scheme, (SelectClosest, Kmedoids)):
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
    inner: SelectClosest | Kmedoids | None, rows: np.ndarray, counts: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply an inner rule (``None``, ``SelectClosest`` or ``Kmedoids``, see
    ``granulation``) to one iteration's granule cuts: stacked (grad, offset)
    rows over disjoint member sets of the given sizes, in arrival order,
    which is ascending member order.

    Returns (sums, granules, starts): the aggregate rows, aggregate i
    summing the rows at positions ``granules[starts[i]:starts[i + 1]]`` in
    ascending order.  A k-medoids cluster is summed as
    ``rows[idx].sum(axis=0)`` over those positions, and the clusters come in
    ascending order of their first granule.  The closest rule places the
    granule rows one at a time, in arrival order (see ``_select_closest``),
    and returns its aggregates in the order their slots flushed.
    """
    if inner is None:
        return rows, np.arange(len(rows)), np.arange(len(rows) + 1)
    if isinstance(inner, SelectClosest):
        return _select_closest(inner, rows, counts)
    if isinstance(inner, Kmedoids):
        k = min(inner.clusters, len(rows))
        assignment, _ = kmedoids_cluster(rows, counts, k, inner.measure)
        # keyed by its cluster's first granule, a stable sort lists the
        # clusters in the order they open, each in ascending granule order
        _, opened, cluster_of = np.unique(assignment, return_index=True, return_inverse=True)
        key = opened[cluster_of.reshape(-1)]
        granules = np.argsort(key, kind="stable")
        starts = np.flatnonzero(np.diff(key[granules], prepend=-1, append=len(rows)))
        bounds = starts.tolist()
        sums = np.array([rows[granules[a:b]].sum(axis=0) for a, b in zip(bounds, bounds[1:])])
        return sums, granules, starts
    raise ValueError(f"unknown inner rule {inner!r}")


# --- textual strategy grammar (shared by the CLI) ------------------------------

_MEASURES = {m.value: m for m in DistanceMeasure}
_MEASURE = ("measure", "measure", DistanceMeasure, "angular")

#: each strategy's grammar name and its parameters in label order, as
#: (grammar key, field, type, text default); an inner rule comes last
_GRAMMAR = {
    MultiCut: ("multi", ()),
    SingleCut: ("single", ()),
    Partial: ("partial", (("T", "size", int, "1"),)),
    SelectClosest: ("closest", (("A", "slots", int, "8"), ("tau", "tolerance", float, "0.3"),
                                _MEASURE)),
    Kmedoids: ("kmedoids", (("k", "clusters", int, "20"), _MEASURE)),
    Granulated: ("granulated", (("T0", "block_size", int, "5"),
                                ("inner", "inner", AggregationScheme, "closest"))),
}
# uniform slots fill in arrival order, and the engine passes complete cuts
# in index order, so they are partial blocks here
_STRATEGIES = {name: cls for cls, (name, _) in _GRAMMAR.items()} | {"uniform": Partial}
#: each type's text in a label; repr is the shortest text of a float that parses back
_TEXT = {int: str, float: lambda v: repr(float(v)), DistanceMeasure: lambda m: m.value,
         AggregationScheme: lambda s: scheme_label(s)}


def _parse_params(text: str) -> dict[str, str]:
    params: dict[str, str] = {}
    rest = text
    while rest := rest.lstrip():
        if rest.startswith("inner="):
            params["inner"] = rest[len("inner="):]
            break
        piece, _, rest = rest.partition(",")
        key, eq, value = piece.partition("=")
        if not eq:
            raise ValueError(f"parameter {piece!r} has no value")
        key = key.strip()
        if key in params:
            raise ValueError(f"repeated parameter {key!r}")
        params[key] = value.strip()
    return params


def _read(kind, value: str, text: str):
    """A parameter of the given type from its text in strategy ``text``."""
    if kind is DistanceMeasure:
        if value not in _MEASURES:
            raise ValueError(f"unknown distance measure {value!r}")
        return _MEASURES[value]
    if kind is AggregationScheme:
        try:
            inner = parse_scheme(value)
        except ValueError as exc:
            raise ValueError(
                f"malformed strategy {text!r}: inner rule {value!r}: {exc}; everything "
                "after 'inner=' belongs to the inner rule, so inner= must be the last parameter"
            ) from exc
        if isinstance(inner, Granulated):
            raise ValueError("granulated strategies cannot be nested")
        return inner
    try:
        return kind(value)
    except ValueError as exc:
        raise ValueError(f"malformed strategy {text!r}: {exc}") from exc


def parse_scheme(text: str) -> AggregationScheme:
    """Parse a strategy description like ``partial:T=16`` or
    ``granulated:T0=5,inner=kmedoids:k=20``."""
    name, _, param_text = text.partition(":")
    name = name.strip()
    try:
        params = _parse_params(param_text) if param_text else {}
    except ValueError as exc:
        raise ValueError(f"malformed strategy {text!r}: {exc}") from exc
    if name not in _STRATEGIES:
        raise ValueError(f"unknown aggregation strategy {name!r}")
    cls = _STRATEGIES[name]
    # the measure and the inner rule first, then the numbers in label order
    grammar = sorted(_GRAMMAR[cls][1], key=lambda param: param[2] in (int, float))
    values = {field: _read(kind, params.pop(key, default), text)
              for key, field, kind, default in grammar}
    if params:
        raise ValueError(f"unexpected parameters for {name!r}: {sorted(params)}")
    return cls(**values)


def scheme_label(scheme: AggregationScheme) -> str:
    """Canonical textual form accepted back by parse_scheme."""
    if type(scheme) not in _GRAMMAR:
        raise ValueError(f"unknown aggregation strategy {scheme!r}")
    name, grammar = _GRAMMAR[type(scheme)]
    params = ",".join(f"{key}={_TEXT[kind](getattr(scheme, field))}"
                      for key, field, kind, _ in grammar)
    return f"{name}:{params}" if params else name


def with_parameter(scheme: AggregationScheme, name: str, value: float) -> AggregationScheme:
    """Return a copy of the strategy with one named parameter replaced.

    Used by the benchmark sweep; the parameter names are the grammar's
    numeric keys (T, A, tau, k, T0).  Every parameter but tau is an
    integer, and a value that is not one is rejected.  A granulated
    strategy owns T0 and passes every other name to its inner strategy.
    """
    for key, field, kind, _ in _GRAMMAR.get(type(scheme), ("", ()))[1]:
        if key == name and kind in (int, float):
            if kind is int and not float(value).is_integer():
                raise ValueError(f"parameter {name!r} must be an integer, not {value!r}")
            return replace(scheme, **{field: kind(value)})
        if kind is AggregationScheme:
            return replace(scheme, **{field: with_parameter(getattr(scheme, field), name, value)})
    raise ValueError(f"strategy {scheme_label(scheme)!r} has no parameter {name!r}")
