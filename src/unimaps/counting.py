"""Exact counts of one-face maps and of odd-cycle permutations.

The number of one-face maps with n edges and genus g is

    catalan(n) * a(n+1, s) / 4^g,    s = n+1-2g

(Chapuy-Feray-Fusy bijection with the Lehman-Walsh count), where
a(m, j) counts permutations of m symbols with j cycles, all of odd
length.  Their exponential generating function is

    sum a(m, j) x^m y^j / m! = ((1+x)/(1-x))^(y/2),

and differentiating it in x gives the two-term recurrence

    a(k+1, i) = a(k, i-1) + k(k-1) a(k-1, i),

which odd_cycle_perm_count runs in one iterative pass: O(m*j) big-int
additions and small multiplications, two rows, no recursion.  One pass
over the whole band gives every j at once, so lehman_walsh_row counts
all genera of n in O(n^2) steps.  The
partition route (a sum of m! / prod(m_i! * i^m_i) over the partitions
of m into j odd parts) is kept as the independent reference that the
tests compare against.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .trees import catalan


def double_factorial(k: int) -> int:
    """k!! for odd k >= -1; (2n-1)!! counts the gluings of a 2n-gon."""
    if k < -1 or k % 2 == 0:
        raise ValueError("k must be odd and >= -1")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@dataclass(frozen=True)
class OddPartition:
    """Partition of ``total`` into odd parts, stored in decreasing order."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 or p % 2 == 0 for p in self.parts):
            raise ValueError("parts must be positive odd integers")
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError("parts must be in decreasing order")

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def multiplicities(self) -> dict[int, int]:
        mult: dict[int, int] = {}
        for p in self.parts:
            mult[p] = mult.get(p, 0) + 1
        return mult


def odd_partitions(total: int, s: int):
    """Yield all partitions of ``total`` into exactly ``s`` odd parts.

    Empty unless s <= total and total == s (mod 2).  Subtracting one from
    every part and halving gives a partition of (total-s)/2 into at most
    s parts, so the number of results is p_{<=s}((total-s)/2).
    """
    if s < 0 or total < 0:
        raise ValueError("total and s must be >= 0")
    if s == 0:
        if total == 0:
            yield OddPartition(())
        return
    if total < s or (total - s) % 2 != 0:
        return

    def gen(remaining, k, maxpart):
        if k == 1:
            if remaining <= maxpart and remaining % 2 == 1:
                yield (remaining,)
            return
        p = min(maxpart, remaining - (k - 1))
        if p % 2 == 0:
            p -= 1
        while p >= 1 and p * k >= remaining:
            for rest in gen(remaining - p, k - 1, p):
                yield (p,) + rest
            p -= 2

    for parts in gen(total, s, total):
        yield OddPartition(parts)


def perm_count_for_type(partition: OddPartition, m: int) -> int:
    """Number of permutations of m symbols with the given cycle type:
    m! / prod over part sizes i of (m_i! * i^m_i)."""
    if partition.total != m:
        raise ValueError("partition must sum to m")
    denom = 1
    for i, mi in partition.multiplicities().items():
        denom *= math.factorial(mi) * i**mi
    q, r = divmod(math.factorial(m), denom)
    assert r == 0
    return q


def _odd_cycle_band(m: int, b_lo: int, b_hi: int) -> list[int]:
    """[a(m, m-2b) for b = b_lo..b_hi] from one pass of the recurrence.

    Runs a(k+1, i) = a(k, i-1) + k(k-1) a(k-1, i) up from a(0, 0) = 1.
    Symbol k+1 is either a fixed point, or sits in a cycle of length at
    least 3; removing it and its image x leaves an odd cycle, and the
    pair is put back after any of the other k-1 symbols, for k(k-1)
    choices.  Row k is held as b -> a(k, k-2b) for b = 0..b_hi, only on
    the band of b that can still reach a target b >= b_lo, so the pass
    makes O(m*(m-2*b_lo)) big-int additions and small multiplications.
    """
    # rows k-1 and k; entries outside the band are never read again
    prev, cur = [0] * (b_hi + 1), [1] + [0] * b_hi
    for k in range(m):
        c = k * (k - 1)
        lo = max(1, b_lo - (m - k - 1) // 2)
        # descending, so prev[b - 1] still holds row k-1
        for b in range(min(b_hi, (k + 1) // 2), lo - 1, -1):
            prev[b] = cur[b] + c * prev[b - 1]
        prev[0] = 1  # a(k+1, k+1): the identity
        prev, cur = cur, prev
    return cur[b_lo:b_hi + 1]


def odd_cycle_perm_count(m: int, j: int) -> int:
    """Permutations of m symbols with exactly j cycles, all of odd length."""
    if m < 0 or j < 0:
        raise ValueError("m and j must be >= 0")
    if j > m or (m - j) % 2:
        return 0
    top = (m - j) // 2
    return _odd_cycle_band(m, top, top)[0]


def lehman_walsh_count(n: int, g: int, method: str = "dp") -> int:
    """Exact number of one-face maps with n edges and genus g.

    catalan(n) * a(n+1, s) / 4^g with s = n+1-2g, which must divide
    exactly.  method 'dp' (the default, used for every (n, g)) takes
    a(n+1, s) from the two-term recurrence of odd_cycle_perm_count:
    O(n*s) big-int steps and no recursion, so it also serves
    linear-genus sizes such as (2000, 500).  method 'partition' sums
    perm_count_for_type over odd_partitions; it shares no code with the
    recurrence and is the reference the tests compare against, but its
    cost grows with the number of partitions of g.
    """
    if n < 0 or g < 0:
        raise ValueError("n and g must be >= 0")
    s = n + 1 - 2 * g
    if s <= 0:
        return 0
    if method == "partition":
        perms = sum(perm_count_for_type(p, n + 1) for p in odd_partitions(n + 1, s))
    elif method == "dp":
        perms = odd_cycle_perm_count(n + 1, s)
    else:
        raise ValueError(f"unknown method {method!r}")
    q, r = divmod(catalan(n) * perms, 4**g)
    assert r == 0, "count must be an integer"
    return q


def lehman_walsh_row(n: int) -> list[int]:
    """lehman_walsh_count(n, g) for g = 0..n//2; n must be >= 0.

    One pass of the recurrence over the whole band gives a(n+1, n+1-2g)
    for every g at once, O(n^2) big-int steps in all: about 0.2 s at
    n = 1000 on a 2-core x86_64 machine, where a pass per genus takes 16 s.
    """
    if n < 0:
        raise ValueError("n and g must be >= 0")
    plane = catalan(n)
    return [plane * perms // 4**g
            for g, perms in enumerate(_odd_cycle_band(n + 1, 0, n // 2))]
