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
additions and small multiplications, two rows, no recursion.  The
partition route (a sum of m! / prod(m_i! * i^m_i) over the partitions
of m into j odd parts) is kept as the independent reference that the
tests compare against.  Everything here is exact integer or rational
arithmetic; the only floats are the optional high-precision
convolution path of conditioned_sum_pmf.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .trees import catalan

#: below this target sum the conditioned-sum convolution runs in exact
#: rational arithmetic; above it, 80-bit-or-better floats
EXACT_SUM_LIMIT = 200


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


def odd_cycle_perm_count(m: int, j: int) -> int:
    """Permutations of m symbols with exactly j cycles, all of odd length.

    Runs a(k+1, i) = a(k, i-1) + k(k-1) a(k-1, i) up from a(0, 0) = 1.
    Symbol k+1 is either a fixed point, or sits in a cycle of length at
    least 3; removing it and its image x leaves an odd cycle, and the
    pair is put back after any of the other k-1 symbols, for k(k-1)
    choices.  Row k is held as b -> a(k, k-2b) for b = 0..(m-j)/2, only
    on the band of b that can still reach the target b = (m-j)/2, so the
    pass makes O(m*j) big-int additions and small multiplications.
    """
    if m < 0 or j < 0:
        raise ValueError("m and j must be >= 0")
    if j > m or (m - j) % 2:
        return 0
    top = (m - j) // 2
    # rows k-1 and k; entries outside the band are never read again
    prev, cur = [0] * (top + 1), [1] + [0] * top
    for k in range(m):
        c = k * (k - 1)
        lo = max(1, top - (m - k - 1) // 2)
        # descending, so prev[b - 1] still holds row k-1
        for b in range(min(top, (k + 1) // 2), lo - 1, -1):
            prev[b] = cur[b] + c * prev[b - 1]
        prev[0] = 1  # a(k+1, k+1): the identity
        prev, cur = cur, prev
    return cur[top]


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


@dataclass
class CountTable:
    """Rows (n, g, count) with CSV export; counts as decimal strings."""

    rows: list[tuple[int, int, int]]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n", "g", "count"])
        for n, g, c in self.rows:
            w.writerow([n, g, str(c)])
        return buf.getvalue()


def count_table(n_range, g_range=None) -> CountTable:
    rows = []
    for n in n_range:
        gs = g_range if g_range is not None else range(n // 2 + 1)
        for g in gs:
            if n + 1 - 2 * g > 0:
                rows.append((n, g, lehman_walsh_count(n, g)))
    return CountTable(rows)


def _odd_weight_poly_exact(beta: Fraction, total: int) -> list[Fraction]:
    w = [Fraction(0)] * (total + 1)
    bk = beta
    b2 = beta * beta
    for k in range(1, total + 1, 2):
        w[k] = bk / k
        bk *= b2
    return w


def _poly_mul_trunc(a, b, cap, zero):
    out = [zero] * (cap + 1)
    for i, ai in enumerate(a):
        if ai == zero:
            continue
        top = min(cap - i, len(b) - 1)
        for j in range(top + 1):
            if b[j] != zero:
                out[i + j] = out[i + j] + ai * b[j]
    return out


def conditioned_sum_pmf(beta: float, s: int, total: int):
    """P(X_1 + ... + X_s = total) for i.i.d. odd-valued X with
    P(X = k) = beta^k / (Z k), Z = arctanh(beta).

    Zero off the lattice total >= s, total == s (mod 2).  Exact rational
    convolution up to total <= EXACT_SUM_LIMIT (exact in the binary
    values of beta and Z); extended-precision float convolution above.
    """
    if not (0 < beta < 1):
        raise ValueError("beta must be in (0, 1)")
    if s <= 0:
        raise ValueError("s must be >= 1")
    if total < s or (total - s) % 2 != 0:
        return Fraction(0) if total <= EXACT_SUM_LIMIT else 0.0
    z = math.atanh(beta)
    if total <= EXACT_SUM_LIMIT:
        fb = Fraction(beta)
        w = _odd_weight_poly_exact(fb, total)
        # w^s truncated at degree `total` by binary powering
        acc = None
        base = w
        e = s
        zero = Fraction(0)
        while e:
            if e & 1:
                acc = base if acc is None else _poly_mul_trunc(acc, base, total, zero)
            e >>= 1
            if e:
                base = _poly_mul_trunc(base, base, total, zero)
        return acc[total] / Fraction(z) ** s
    # float path: numpy convolutions in 80-bit-or-better precision
    w = np.zeros(total + 1, dtype=np.longdouble)
    ks = np.arange(1, total + 1, 2)
    logw = ks * np.longdouble(math.log(beta)) - np.log(ks.astype(np.longdouble))
    w[ks] = np.exp(logw - np.longdouble(math.log(z)))
    acc = None
    base = w
    e = s
    while e:
        if e & 1:
            acc = base.copy() if acc is None else np.convolve(acc, base)[: total + 1]
        e >>= 1
        if e:
            base = np.convolve(base, base)[: total + 1]
    return float(acc[total])


class ConditionedSumTable:
    """Renormalized laws of prefix sums S_j = X_1 + ... + X_j given beta.

    Row j holds P(S_j = t) for t = 0..total in extended precision, each
    row rescaled to sum to one; the ratios drive the sequential
    conditioned sampler in :mod:`unimaps.sampler`.
    """

    def __init__(self, beta: float, s: int, total: int):
        if not (0 < beta < 1):
            raise ValueError("beta must be in (0, 1)")
        z = math.atanh(beta)
        cap = total - s + 1  # largest part usable given s parts summing to total
        pmf = np.zeros(total + 1, dtype=np.longdouble)
        ks = np.arange(1, max(cap, 1) + 1, 2)
        pmf[ks] = np.exp(
            ks * np.longdouble(math.log(beta))
            - np.log(ks.astype(np.longdouble))
            - np.longdouble(math.log(z))
        )
        rows = [None] * (s + 1)
        row = np.zeros(total + 1, dtype=np.longdouble)
        row[0] = 1.0
        rows[0] = row
        for j in range(1, s + 1):
            row = np.convolve(row, pmf)[: total + 1]
            t = row.sum()
            if t > 0:
                row = row / t
            rows[j] = row
        self.beta = beta
        self.s = s
        self.total = total
        self.pmf = pmf
        self.rows = rows
