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

The pairings are scanned as int8 arrays, one column per pairing, in
blocks of at most BLOCK_ENTRIES darts, and pointer doubling labels every
dart of a block with its vertex at once (see _map_blocks).  There is one
scan per (n, reading), kept as counts, never as a list of maps:
{(genus, root degree): maps} per n, and {(genus, ball key): maps} per
(n, r, subgraph or exploration reading).  A ball key is the bytes of the
one walk maps._ball_counts makes per map from the block's labels, and
only the keys that occur are decoded.  At n = 8 (about 2e6 pairings,
2-core x86_64, CPython 3.11, numpy 2.4) `unimaps verify root-degree --n
8 --g 2 --samples 100 --reference exact` runs in 0.6-0.8 s at a peak RSS
of 37 MB, and `unimaps oracle surgery --n 8 --g 2 --tree "(())"` in
8.5 s at 48 MB, nearly all of it in the walks.  Radius 3 costs more:
`--tree "((()))"` took 45 s at 290 MB at n = 8, and `unimaps verify
surgery --nmax 7 --kmax 3` 2.4-3.6 s at 58 MB (single runs).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .counting import double_factorial
from .maps import RotationMap, _ball_counts, _counts_code, _tree_counts
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

# The most darts (pairings x 2n) one block of the scan holds; its index
# array takes 8 bytes a dart and is freed before the block is yielded.
BLOCK_ENTRIES = 2 ** 14

# outcome label for balls that contain a cycle
NON_TREE = "!nontree"


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one edge")
    if n > ENUM_CAP:
        raise ValueError(f"exhaustive enumeration capped at n={ENUM_CAP}")


def _grow(base: np.ndarray, j: int) -> np.ndarray:
    """The pairings of base's points plus two more, the last of which
    pairs with j; base's points shift up by one from j on."""
    width, maps = base.shape
    last = width + 1
    lift = np.array([p + (p >= j) for p in range(width)], dtype=np.int8)
    grown = np.empty((width + 2, maps), dtype=np.int8)
    grown[:j] = lift.take(base[:j])
    grown[j] = last
    grown[j + 1:last] = lift.take(base[j:])
    grown[last] = j
    return grown


def _pairing_blocks(two_n: int, maps: int) -> Iterator[np.ndarray]:
    """Every fixed-point-free involution of 0..two_n-1 exactly once, one
    int8 image column each, in blocks of at most maps columns.

    Each block of the level below grows into one block per partner j of
    the last point; a level of at most maps pairings is one block.
    """
    if two_n == 0:
        yield np.zeros((0, 1), dtype=np.int8)
        return
    grown = (_grow(base, j) for base in _pairing_blocks(two_n - 2, maps)
             for j in range(two_n - 1))
    if math.prod(range(1, two_n, 2)) <= maps:
        yield np.hstack(list(grown))
    else:
        yield from grown


def _map_blocks(n: int, entries: int) -> Iterator[tuple[np.ndarray, ...]]:
    """(alpha, sigma, lab, vertex count, root degree) of every map with n
    edges, in blocks of at most entries darts: alpha, sigma and lab hold
    one column per map, the counts one entry.

    sigma(d) = alpha(d) + 1 mod 2n.  Pointer doubling reads its cycles:
    lab[d] starts as min(d, sigma(d)) and step as sigma, and each round
    squares step and sets lab[d] = min(lab[d], lab[step[d]]), so after k
    rounds lab[d] is the least of d, sigma(d), ..., sigma^(2^(k+1) - 1)(d)
    and ceil(log2 2n) - 1 rounds cover every cycle, so lab[d] is the
    least dart of d's vertex.  A map's vertices are its darts that are
    their own lab, and its root degree is the number of darts whose lab
    is 0.
    """
    _check_n(n)
    two_n = 2 * n
    darts = np.arange(two_n, dtype=np.int8)
    succ = np.roll(darts, -1)
    rounds = (two_n - 1).bit_length() - 1
    for alpha in _pairing_blocks(two_n, max(1, entries // two_n)):
        maps = alpha.shape[1]
        # take, not [], with int8 indices: [] converts them first, at
        # twice the cost
        sigma = succ.take(alpha)
        # flat dart ids: dart d of map i is d * maps + i
        step = (np.multiply(sigma, maps, dtype=np.intp) + np.arange(maps)).ravel()
        lab = np.minimum(np.repeat(darts, maps), sigma.ravel())
        for _ in range(rounds):
            step = step[step]
            lab = np.minimum(lab, lab[step])
        lab = lab.reshape(alpha.shape)
        del step
        yield (alpha, sigma, lab, np.count_nonzero(lab == darts[:, None], axis=0),
               np.count_nonzero(lab == 0, axis=0))


def _genus(n: int, vertices: int) -> int:
    """Genus of a one-face map with n edges and the given vertex count."""
    genus, odd = divmod(n + 1 - vertices, 2)
    assert genus >= 0 and not odd
    return genus


def _maps(n: int) -> Iterator[tuple[list[int], list[int], list[int], list[int], int]]:
    """(alpha, sigma, vertex, degree, genus) of every map with n edges:
    vertex[d] is the least dart of d's vertex and degree[d] its degree."""
    for alpha, sigma, lab, vertices, _ in _map_blocks(n, BLOCK_ENTRIES):
        maps = alpha.shape[1]
        # one cell per (vertex, map), so its count is the vertex's degree
        cell = np.multiply(lab, maps, dtype=np.intp) + np.arange(maps)
        degree = np.bincount(cell.ravel()).take(cell)
        yield from zip(alpha.T.tolist(), sigma.T.tolist(), lab.T.tolist(),
                       degree.T.tolist(), (_genus(n, v) for v in vertices.tolist()))


def enumerate_unicellular(n: int) -> Iterator[RotationMap]:
    """All rooted one-face maps with n edges, each exactly once."""
    for alpha, sigma, _, _, _ in _maps(n):
        yield RotationMap(tuple(alpha), tuple(sigma), root_dart=0)


@dataclass(frozen=True)
class GluingCensus:
    n: int
    counts: dict


@lru_cache(maxsize=None)
def _degree_tally(n: int) -> Counter:
    """{(genus, root degree): maps} over the maps with n edges."""
    stride = 2 * n + 1
    counts = np.zeros((n + 2) * stride, dtype=np.int64)
    for _, _, _, vertices, degree in _map_blocks(n, BLOCK_ENTRIES):
        counts += np.bincount(vertices * stride + degree, minlength=len(counts))
    tally: Counter = Counter()
    for key in np.flatnonzero(counts).tolist():
        vertices, degree = divmod(key, stride)
        tally[_genus(n, vertices), degree] = int(counts[key])
    return tally


@lru_cache(maxsize=None)
def _ball_tally(n: int, r: int, subgraph: bool) -> Counter:
    """{(genus, key): maps} over the maps with n edges; key is the radius-r
    _ball_counts as bytes (no count exceeds 2n), or None for a non-tree ball."""
    tally: Counter = Counter()
    for alpha, sigma, vertex, degree, genus in _maps(n):
        counts = _ball_counts(alpha, sigma, vertex, degree, 0, r, subgraph)
        tally[genus, None if counts is None else bytes(counts)] += 1
    return tally


def census(n: int) -> GluingCensus:
    """Per-genus map counts; the total is checked against (2n-1)!!."""
    counts: Counter = Counter()
    for (gg, _), maps in _degree_tally(n).items():
        counts[gg] += maps
    assert sum(counts.values()) == double_factorial(2 * n - 1)
    return GluingCensus(n, dict(sorted(counts.items())))


def _normalised(counts: dict) -> dict:
    """{outcome: Fraction} of a nonempty count table."""
    total = sum(counts.values())
    return {k: Fraction(v, total) for k, v in counts.items()}


def _genus_law(tally: Counter, n: int, g: int) -> dict:
    """{outcome: Fraction} of the genus-g maps of a (genus, outcome) tally."""
    counts = {outcome: maps for (gg, outcome), maps in tally.items() if gg == g}
    if not counts:
        raise ValueError(f"no maps with n={n}, g={g}")
    return _normalised(counts)


def exact_root_degree_dist(n: int, g: int) -> dict:
    """Exact root-degree law of the uniform one-face map, {degree: Fraction}."""
    return _genus_law(_degree_tally(n), n, g)


def exact_ball_dist(n: int, g: int, r: int) -> dict:
    """Exact law of the radius-r ball read as a plane code, {code: Fraction}.

    Tree balls appear under their contour code; balls containing a cycle
    are pooled under NON_TREE.
    """
    law = _genus_law(_ball_tally(n, r, True), n, g)
    return {NON_TREE if key is None else _counts_code(key, r): p for key, p in law.items()}


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
    side reads the exploration tree, not the subgraph ball: a loop or a
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
    lhs = _ball_tally(n, r, False)[(g, bytes(_tree_counts(t, r)))]
    rhs = _degree_tally(n_rhs)[(g, d)]
    return SurgeryCheck(n, g, k, d, r, lhs, rhs)
