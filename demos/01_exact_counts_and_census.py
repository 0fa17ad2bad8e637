"""
Exact one-face map counts, three independent ways
=================================================

A one-face map with n edges lives on a surface of genus g and has
n + 1 - 2g vertices.  This demo counts them with the closed formula
(through a cycle-count recurrence), checks it against brute-force
polygon gluing and against the Harer-Zagier recurrence.
"""

from unimaps.counting import (
    double_factorial,
    harer_zagier_rows,
    lehman_walsh_count,
    lehman_walsh_row,
)
from unimaps.oracle import census

# the closed formula, evaluated in exact integer arithmetic
print("counts by (n, g):")
print("n,g,count")
for n in range(1, 8):
    for g in range(n // 2 + 1):
        print(f"{n},{g},{lehman_walsh_count(n, g)}")
print()

# every way of gluing the 2n sides of a polygon in pairs produces one
# rooted one-face map, so the counts over all genera must total (2n-1)!!
for n in range(1, 8):
    total = sum(lehman_walsh_count(n, g) for g in range(n // 2 + 1))
    assert total == double_factorial(2 * n - 1)
print("genus totals match the pairing count (2n-1)!! for n <= 7")

# the gluing oracle actually builds all of those pairings and classifies
# each by genus; slow but assumption-free
result = census(6)
print("\nexhaustive census at n=6:", dict(result.counts))
for g, count in result.counts.items():
    assert count == lehman_walsh_count(6, g)
print("formula and census agree at every genus")

# the Harer-Zagier recurrence counts the same maps as polygon gluings
# through a matrix integral and shares no code with the formula;
# cross-check the two somewhere the census cannot reach
n = 40
*_, row = harer_zagier_rows(n)
assert row == lehman_walsh_row(n)
print(f"\nHarer-Zagier and recurrence routes agree at every genus of n={n}")
print(f"for scale, count(40, 10) has {len(str(lehman_walsh_count(40, 10)))} digits")
