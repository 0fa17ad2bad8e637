"""Exact counting formulas and their internal cross-checks."""

import pytest
from hypothesis import given, settings, strategies as st

from unimaps.counting import (
    double_factorial,
    lehman_walsh_count,
    lehman_walsh_row,
    odd_cycle_perm_count,
    odd_partitions,
    perm_count_for_type,
)
from unimaps.oracle import census


def test_double_factorial():
    assert [double_factorial(k) for k in (-1, 1, 3, 5, 7)] == [1, 1, 3, 15, 105]
    with pytest.raises(ValueError):
        double_factorial(4)


def test_spot_counts():
    assert lehman_walsh_count(2, 1) == 1
    assert lehman_walsh_count(3, 1) == 10
    assert lehman_walsh_count(4, 2) == 21
    assert lehman_walsh_count(6, 0) == 132
    assert lehman_walsh_count(5, 3) == 0


def test_routes_agree():
    small = [(n, g) for n in range(1, 13) for g in range(n // 2 + 1)]
    for n, g in small + [(300, 30), (200, 40), (120, 20)]:
        a = lehman_walsh_count(n, g, method="partition")
        b = lehman_walsh_count(n, g, method="dp")
        assert a == b


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n // 2))))
def test_count_routes_agree_with_the_gluing_census(ng):
    n, g = ng
    recurrence = lehman_walsh_count(n, g)
    assert recurrence == lehman_walsh_count(n, g, method="partition")
    assert recurrence == census(n).counts[g]


def test_row_pass_matches_partition_route():
    for n in range(0, 41):
        assert lehman_walsh_row(n) == [lehman_walsh_count(n, g, method="partition")
                                       for g in range(n // 2 + 1)], n


def test_total_over_genus_is_gluing_count():
    for n in range(1, 11):
        total = sum(lehman_walsh_count(n, g) for g in range(n // 2 + 1))
        assert total == double_factorial(2 * n - 1)


def test_odd_partitions_exhaustive():
    parts = list(odd_partitions(5, 3))
    assert [p.parts for p in parts] == [(3, 1, 1)]
    assert list(odd_partitions(6, 3)) == []
    assert sum(1 for _ in odd_partitions(9, 3)) == 3


def test_perm_counts_match_dp():
    # summing the per-type counts over all odd types recovers the recurrence
    for m in range(1, 15):
        for j in range(1, m + 1):
            by_type = sum(perm_count_for_type(p, m) for p in odd_partitions(m, j))
            assert by_type == odd_cycle_perm_count(m, j)
