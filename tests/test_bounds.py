import numpy as np
import pytest

from lshaped import (
    bell,
    binomial,
    bound_aggregated,
    bound_aggregated_upper,
    bound_dynamic,
    bound_dynamic_restricted,
    bound_multi_cut,
    bound_single_cut,
    stirling2,
)
from lshaped.bounds import _magnitude


def enumerate_partitions(items):
    """All set partitions of a list, by recursive placement."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partial in enumerate_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [partial[i] + [head]] + partial[i + 1 :]
        yield [[head]] + partial


class TestCombinatorics:
    def test_stirling_matches_enumeration(self):
        for n in range(1, 9):
            counts = {}
            for partition in enumerate_partitions(list(range(n))):
                counts[len(partition)] = counts.get(len(partition), 0) + 1
            for k in range(1, n + 1):
                assert stirling2(n, k) == counts.get(k, 0)

    def test_stirling_known_value(self):
        assert stirling2(4, 2) == 7

    def test_stirling_closed_form_at_large_n(self):
        # one recursion level per n would pass the interpreter's limit here
        assert stirling2(1500, 3) == (3**1500 - 3 * 2**1500 + 3) // 6

    def test_bell_matches_enumeration(self):
        for n in range(1, 9):
            assert bell(n) == sum(1 for _ in enumerate_partitions(list(range(n))))

    def test_bell_small_values(self):
        assert bell(0) == 1
        assert bell(3) == 5

    def test_bell_is_stirling_sum(self):
        for n in range(26):
            assert bell(n) == sum(stirling2(n, k) for k in range(n + 1))

    def test_binomial(self):
        assert binomial(5, 0) == 1
        assert binomial(5, 2) == 10
        with pytest.raises(ValueError):
            binomial(5, 7)
        with pytest.raises(ValueError):
            stirling2(3, 4)


class TestStaticBounds:
    def test_formula_values(self):
        assert bound_single_cut(2, 2, 1) == 3
        assert bound_multi_cut(2, 2, 1) == 3
        assert bound_single_cut(2, 2, 2) == 9
        assert bound_multi_cut(2, 2, 2) == 7

    def test_flat_recourse(self):
        for n in (1, 4, 9):
            assert bound_single_cut(n, 1, 3) == 1
            assert bound_multi_cut(n, 1, 3) == 1

    def test_aggregated_formula(self):
        assert bound_aggregated([2, 1], 2, 1) == 4  # 1 + (3 + 2) - 2

    def test_aggregated_specializations(self):
        for n in range(1, 8):
            for b in range(1, 5):
                for m in range(1, 4):
                    assert bound_aggregated([n], b, m) == bound_single_cut(n, b, m)
                    assert bound_aggregated([1] * n, b, m) == bound_multi_cut(n, b, m)

    def test_upper_bound_formula(self):
        assert bound_aggregated_upper(2, 2, 2, 1) == 5

    def test_upper_bound_specializations(self):
        for n in range(1, 8):
            for b in range(1, 5):
                for m in range(1, 4):
                    assert bound_aggregated_upper(1, n, b, m) == bound_single_cut(n, b, m)
                    assert bound_aggregated_upper(n, 1, b, m) == bound_multi_cut(n, b, m)

    def test_upper_dominates_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            count = int(rng.integers(1, 7))
            sizes = [int(rng.integers(1, 9)) for _ in range(count)]
            b, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            exact = bound_aggregated(sizes, b, m)
            upper = bound_aggregated_upper(len(sizes), max(sizes), b, m)
            assert exact <= upper

    def test_shrinking_a_part_never_increases(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            sizes = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(1, 6)))]
            b, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            base = bound_aggregated(sizes, b, m)
            for i in range(len(sizes)):
                smaller = list(sizes)
                smaller[i] -= 1
                assert bound_aggregated(smaller, b, m) <= base


class TestDynamicBounds:
    def test_formula_value(self):
        # 2 + (2*2 + 1*3) - (1 + 1) - 2
        assert bound_dynamic(2, 2, 1, 2) == 5

    def test_single_cut_reduction(self):
        for n in range(1, 9):
            for b in range(1, 5):
                for m in range(1, 4):
                    assert bound_dynamic_restricted(n, b, m, 1, n, n) == bound_single_cut(n, b, m)

    def test_multi_cut_reduction(self):
        for n in range(1, 9):
            for b in range(1, 5):
                for m in range(1, 4):
                    assert bound_dynamic_restricted(n, b, m, n, 1, 1) == bound_multi_cut(n, b, m)

    def test_full_range_matches_unrestricted(self):
        for n in (1, 3, 6):
            for a0 in (1, n):
                assert bound_dynamic_restricted(n, 2, 2, a0, 1, n) == bound_dynamic(n, 2, 2, a0)

    def test_monotone_in_limits(self):
        # monotone where every summand C(N,a)[1+a(b-1)]^m - S(N,a) is
        # nonnegative; with a large m the facet term dominates the
        # partition count for every part size
        n, b, m, a0 = 9, 3, 6, 2
        for a in range(1, n + 1):
            assert binomial(n, a) * (1 + a * (b - 1)) ** m >= stirling2(n, a)
        for lo in range(1, n + 1):
            for hi in range(lo, n + 1):
                value = bound_dynamic_restricted(n, b, m, a0, lo, hi)
                if hi < n:
                    assert value <= bound_dynamic_restricted(n, b, m, a0, lo, hi + 1)
                if lo > 1:
                    assert value <= bound_dynamic_restricted(n, b, m, a0, lo - 1, hi)

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            bound_dynamic_restricted(5, 2, 2, 1, 3, 2)
        with pytest.raises(ValueError):
            bound_dynamic_restricted(5, 2, 2, 0, 1, 5)

    @pytest.mark.parametrize("n, b, m, a0, lo, hi, value", [
        (7, 2, 1, 1, 1, 7, -301),
        (10, 2, 1, 1, 1, 10, -109831),
        (4, 1, 1, 4, 1, 4, -2),  # equal sums; A0 tips it below one
    ])
    def test_below_one_iteration_raises(self, n, b, m, a0, lo, hi, value):
        # the formula's value is named with N, b, m and both sums
        with pytest.raises(ValueError, match=f"gives {value} < 1 for N={n}, b={b}, m={m}, "
                                             f"A0={a0}: facet sum [0-9]+, partition sum"):
            bound_dynamic_restricted(n, b, m, a0, lo, hi)

    def test_huge_sums_are_named_by_magnitude(self):
        with pytest.raises(ValueError, match=r"partition sum about 2\.04e\+2390$"):
            bound_dynamic(1200, 2, 1, 1)

    @pytest.mark.parametrize("value, text", [
        (-(10**40 - 10**35), "about -1.00e+40"),
        (9996 * 10**28, "about 1.00e+32"),
        (10**31 - 1, "about 1.00e+31"),
    ])
    def test_magnitude_rounds_into_the_next_power(self, value, text):
        # a mantissa that rounds up to 10 carries into the exponent
        assert _magnitude(value) == text

    def test_exactness_on_large_inputs(self):
        # values beyond float precision must stay exact integers
        value = bound_dynamic(25, 3, 12, 1)
        assert isinstance(value, int)
        assert value > 10**18
        assert bound_single_cut(10**6, 10, 8) == (1 + 10**6 * 9) ** 8
