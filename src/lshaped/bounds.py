"""Exact worst-case iteration bounds for aggregated cutting-plane solves.

Inputs: scenario count N, slope number b (the largest number of distinct
axis-parallel slopes of any scenario's recourse function, supplied by the
caller), and the recourse row dimension m.  All arithmetic is exact Python
integers; the values explode combinatorially fast, which is the point.
"""

from __future__ import annotations

import math
from decimal import Decimal
from typing import Sequence


def binomial(n: int, k: int) -> int:
    if not 0 <= k <= n:
        raise ValueError(f"binomial requires 0 <= k <= n, got ({n}, {k})")
    return math.comb(n, k)


def _stirling2_row(n: int, k: int) -> list[int]:
    """S(n, 0..k), built row by row from S(0, 0) = 1 with
    S(i, j) = j S(i-1, j) + S(i-1, j-1), in O(n k) steps and no recursion."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row


def stirling2(n: int, k: int) -> int:
    """Partitions of n elements into exactly k nonempty subsets."""
    if not 0 <= k <= n:
        raise ValueError(f"stirling2 requires 0 <= k <= n, got ({n}, {k})")
    return _stirling2_row(n, k)[k]


def bell(n: int) -> int:
    """All partitions of n elements: sum of stirling2(n, k) over k."""
    if n < 0:
        raise ValueError("bell requires n >= 0")
    return sum(_stirling2_row(n, n))


def _check_positive(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def bound_single_cut(n_scenarios: int, b: int, m: int) -> int:
    """[1 + N(b-1)]^m iterations in the worst case with full aggregation."""
    _check_positive(n_scenarios=n_scenarios, b=b, m=m)
    return (1 + n_scenarios * (b - 1)) ** m


def bound_multi_cut(n_scenarios: int, b: int, m: int) -> int:
    """1 + N(b^m - 1) iterations in the worst case with no aggregation."""
    _check_positive(n_scenarios=n_scenarios, b=b, m=m)
    return 1 + n_scenarios * (b**m - 1)


def bound_aggregated(sizes: Sequence[int], b: int, m: int) -> int:
    """1 + sum_a [1 + |S_a|(b-1)]^m - A for a static partition with the
    given part sizes."""
    sizes = [int(s) for s in sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("sizes must be a nonempty list of positive integers")
    _check_positive(b=b, m=m)
    return 1 + sum((1 + s * (b - 1)) ** m for s in sizes) - len(sizes)


def bound_aggregated_upper(size: int, level: int, b: int, m: int) -> int:
    """1 + A([1 + A_L(b-1)]^m - 1): upper bound from the aggregation size A
    and level A_L alone."""
    _check_positive(size=size, level=level, b=b, m=m)
    return 1 + size * ((1 + level * (b - 1)) ** m - 1)


def bound_dynamic(n_scenarios: int, b: int, m: int, initial_aggregates: int) -> int:
    """Worst case when the partition may change every iteration."""
    return bound_dynamic_restricted(n_scenarios, b, m, initial_aggregates, 1, n_scenarios)


def bound_dynamic_restricted(
    n_scenarios: int, b: int, m: int, initial_aggregates: int, lo: int, hi: int
) -> int:
    """Dynamic worst case when every iteration's largest part size lies in
    [lo, hi]:

        2 + sum_{a=lo..hi} C(N,a) [1 + a(b-1)]^m - sum_{a=lo..hi} S(N,a) - A_0

    Once the partition sum outgrows the facet sum (small b and m, larger
    N: N=7, b=2, m=1 gives -301) the formula falls below one iteration,
    which no solve can take.  Until the formula is checked against the
    paper's theorem, such inputs raise ValueError, naming both sums, rather
    than return a count that is not an iteration bound.
    """
    _check_positive(n_scenarios=n_scenarios, b=b, m=m)
    if not 1 <= initial_aggregates <= n_scenarios:
        raise ValueError("initial aggregate count must lie in 1..N")
    if not 1 <= lo <= hi <= n_scenarios:
        raise ValueError(f"invalid size limits [{lo}, {hi}] for N={n_scenarios}")
    facets = sum(
        binomial(n_scenarios, a) * (1 + a * (b - 1)) ** m for a in range(lo, hi + 1)
    )
    partitions = sum(_stirling2_row(n_scenarios, hi)[lo:])
    value = 2 + facets - partitions - initial_aggregates
    if value < 1:
        raise ValueError(
            f"the dynamic bound formula gives {_magnitude(value)} < 1 for N={n_scenarios}, "
            f"b={b}, m={m}, A0={initial_aggregates}: facet sum {_magnitude(facets)}, "
            f"partition sum {_magnitude(partitions)}"
        )
    return value


def _magnitude(value: int) -> str:
    """An exact integer in full up to 30 digits, else as about d.dd e+k."""
    if abs(value) < 10**30:
        return str(value)
    return "about " + format(Decimal(value), ".2e")
