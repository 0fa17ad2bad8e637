"""Independent ground truth by exhaustive polygon gluing.

A one-face map with n edges is exactly a pairing of the 2n sides of a
rooted 2n-gon: label the sides 0..2n-1 along the contour, pair them by a
fixed-point-free involution alpha, and let the rotation send d to
alpha(d)+1 mod 2n.  The face walk is then d -> d+1 by construction (one
face), every rooted map arises from exactly one pairing (relabel darts
along the contour from the root), and the count is (2n-1)!!.  Everything
here is an O((2n-1)!!) scan over those pairings, which is why the module
exists: it shares no formulas with the counting and sampling code it
checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional

from .counting import double_factorial
from .maps import RotationMap, rotation_ball_code, unfolding_ball_code
from .trees import PlaneTree, catalan, enumerate_plane_trees, plane_code

__all__ = [
    "ENUM_CAP",
    "NON_TREE",
    "GluingCensus",
    "enumerate_unicellular",
    "census",
    "exact_root_degree_dist",
    "exact_ball_dist",
    "exact_tree_ball_dist",
    "SurgeryCheck",
    "verify_surgery",
]

# (2n-1)!! at n=8 is about 2e6 pairings; beyond that a scan is hopeless
ENUM_CAP = 8

# outcome label for balls that contain a cycle
NON_TREE = "!nontree"


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one edge")
    if n > ENUM_CAP:
        raise ValueError(f"exhaustive enumeration capped at n={ENUM_CAP}")


def _pairings(two_n: int) -> Iterator[tuple[int, ...]]:
    """All fixed-point-free involutions of 0..two_n-1, as image tuples."""
    alpha = [-1] * two_n
    free = list(range(two_n))

    def rec():
        if not free:
            yield tuple(alpha)
            return
        i = free[0]
        rest = free[1:]
        for idx, j in enumerate(rest):
            alpha[i], alpha[j] = j, i
            free[:] = rest[:idx] + rest[idx + 1:]
            yield from rec()
            free[:] = [i] + rest

    yield from rec()


def _sigma_of(alpha: tuple[int, ...]) -> tuple[int, ...]:
    two_n = len(alpha)
    return tuple((a + 1) % two_n for a in alpha)


def _genus_of_sigma(sigma: tuple[int, ...], n: int) -> int:
    seen = [False] * len(sigma)
    v = 0
    for d in range(len(sigma)):
        if not seen[d]:
            v += 1
            while not seen[d]:
                seen[d] = True
                d = sigma[d]
    gg, rem = divmod(n + 1 - v, 2)
    assert rem == 0 and gg >= 0
    return gg


def enumerate_unicellular(n: int) -> Iterator[RotationMap]:
    """All rooted one-face maps with n edges, each exactly once."""
    _check_n(n)
    for alpha in _pairings(2 * n):
        yield RotationMap(alpha, _sigma_of(alpha), root_dart=0)


@dataclass(frozen=True)
class GluingCensus:
    n: int
    counts: dict

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def census(n: int) -> GluingCensus:
    """Per-genus map counts; the total is checked against (2n-1)!!."""
    _check_n(n)
    counts: Counter = Counter()
    for alpha in _pairings(2 * n):
        counts[_genus_of_sigma(_sigma_of(alpha), n)] += 1
    assert sum(counts.values()) == double_factorial(2 * n - 1)
    return GluingCensus(n, dict(sorted(counts.items())))


@lru_cache(maxsize=None)
def _root_degree_stats(n: int) -> tuple[tuple[int, int], ...]:
    """(genus, root degree) for every map with n edges."""
    _check_n(n)
    out = []
    for alpha in _pairings(2 * n):
        sigma = _sigma_of(alpha)
        g = _genus_of_sigma(sigma, n)
        # root degree = darts on the rotation cycle through dart 0
        deg = 1
        d = sigma[0]
        while d != 0:
            deg += 1
            d = sigma[d]
        out.append((g, deg))
    return tuple(out)


@lru_cache(maxsize=None)
def _ball_stats(n: int, r: int) -> tuple[tuple[int, Optional[str]], ...]:
    """(genus, plane ball code or None) for every map with n edges."""
    _check_n(n)
    out = []
    for m in enumerate_unicellular(n):
        g = _genus_of_sigma(m.sigma, n)
        is_tree, code = rotation_ball_code(m, r)
        out.append((g, code if is_tree else None))
    return tuple(out)


@lru_cache(maxsize=None)
def _unfolding_stats(n: int, r: int) -> tuple[tuple[int, str], ...]:
    """(genus, depth-r exploration tree code) for every map with n edges."""
    _check_n(n)
    out = []
    for m in enumerate_unicellular(n):
        g = _genus_of_sigma(m.sigma, n)
        out.append((g, unfolding_ball_code(m, r)))
    return tuple(out)


def _normalised(counts: Counter) -> dict:
    """{outcome: Fraction} of a nonempty count table."""
    total = sum(counts.values())
    return {k: Fraction(v, total) for k, v in counts.items()}


def exact_root_degree_dist(n: int, g: int) -> dict:
    """Exact root-degree law of the uniform one-face map, {degree: Fraction}."""
    counts: Counter = Counter()
    for gg, deg in _root_degree_stats(n):
        if gg == g:
            counts[deg] += 1
    if not counts:
        raise ValueError(f"no maps with n={n}, g={g}")
    return _normalised(counts)


def exact_ball_dist(n: int, g: int, r: int) -> dict:
    """Exact law of the radius-r ball read as a plane code, {code: Fraction}.

    Tree balls appear under their contour code; balls containing a cycle
    are pooled under NON_TREE.
    """
    counts: Counter = Counter()
    for gg, code in _ball_stats(n, r):
        if gg == g:
            counts[code if code is not None else NON_TREE] += 1
    if not counts:
        raise ValueError(f"no maps with n={n}, g={g}")
    return _normalised(counts)


def exact_tree_ball_dist(n: int, r: int) -> dict:
    """Law of the height-r truncation of a uniform plane tree with n edges.

    The genus-0 ball law, computed on the tree side; exact_ball_dist(n, 0, r)
    must agree with it, which ties the polygon scan to the tree enumeration.
    """
    counts: Counter = Counter()
    for t in enumerate_plane_trees(n):
        counts[plane_code(t.truncate(r))] += 1
    assert sum(counts.values()) == catalan(n)
    return _normalised(counts)


@dataclass(frozen=True)
class SurgeryCheck:
    n: int
    g: int
    k: int
    d: int
    r: int
    lhs_count: int
    rhs_count: int

    @property
    def equal(self) -> bool:
        return self.lhs_count == self.rhs_count


def verify_surgery(n: int, g: int, t: PlaneTree) -> SurgeryCheck:
    """Count maps whose depth-r exploration tree equals the plane tree t
    against maps with n-k+d edges and root degree d; the two scans must tie.

    r is the height of t, k its edge count, d its population at maximal
    height.  Contracting the explored region onto the root (and expanding
    back) is a bijection between the two sets being counted, which is what
    makes ball probabilities depend on t only through (k, d).  The left
    side uses unfolding_ball_code, not the subgraph ball: a loop or a
    double edge at the root contracts out of existence in the subgraph
    reading, and the count identity then fails at positive genus, while
    the exploration tree keeps one branch per dart and stays in exact
    bijection at every (n, g).
    """
    r = t.height()
    if r < 1:
        raise ValueError("t must have height >= 1")
    k = t.n_edges
    d = t.count_at_height(r)
    n_rhs = n - k + d
    _check_n(n)
    if n_rhs < 1:
        raise ValueError(f"n - k + d = {n_rhs} has no maps")
    if 2 * g > n_rhs:
        raise ValueError(f"genus {g} impossible at n - k + d = {n_rhs}")
    target = plane_code(t)
    lhs = sum(1 for gg, code in _unfolding_stats(n, r) if gg == g and code == target)
    rhs = sum(1 for gg, deg in _root_degree_stats(n_rhs) if gg == g and deg == d)
    return SurgeryCheck(n, g, k, d, r, lhs, rhs)
