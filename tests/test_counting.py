"""Exact counting formulas and their internal cross-checks."""

import pytest
from hypothesis import given, settings, strategies as st

from unimaps.counting import (
    double_factorial,
    harer_zagier_rows,
    lehman_walsh_count,
    lehman_walsh_row,
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
    assert lehman_walsh_count(6, 0, method="dp") == 132
    with pytest.raises(ValueError):
        lehman_walsh_count(6, 0, method="partition")
    with pytest.raises(ValueError):
        next(harer_zagier_rows(-1))


def test_routes_agree():
    rows = list(harer_zagier_rows(300))
    small = [(n, g) for n in range(1, 13) for g in range(n // 2 + 1)]
    for n, g in small + [(300, 30), (200, 40), (120, 20)]:
        assert lehman_walsh_count(n, g) == rows[n][g], (n, g)


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n // 2))))
def test_count_routes_agree_with_the_gluing_census(ng):
    n, g = ng
    recurrence = lehman_walsh_count(n, g)
    assert recurrence == list(harer_zagier_rows(n))[n][g]
    assert recurrence == census(n).counts[g]


def test_row_pass_matches_harer_zagier_route():
    # every genus of every n <= 300, and the whole row at n = 1000
    for n, row in enumerate(harer_zagier_rows(1000)):
        if n <= 300 or n == 1000:
            assert lehman_walsh_row(n) == row, n


def test_total_over_genus_is_gluing_count():
    for n in range(1, 11):
        total = sum(lehman_walsh_count(n, g) for g in range(n // 2 + 1))
        assert total == double_factorial(2 * n - 1)
