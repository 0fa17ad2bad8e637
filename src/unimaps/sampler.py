"""Exact uniform sampling of one-face maps at the underlying-graph level.

A sample is built from three independent uniform ingredients: a plane tree
with n edges, a permutation of its n+1 vertices whose cycles all have odd
length (s = n+1-2g of them), and one sign per cycle.  Collapsing each cycle
to a single vertex yields the underlying graph of a uniform one-face map of
genus g; the correspondence is 2^(n+1)-to-1 with a constant fiber size, so
uniformity transfers.  Signs are stored untouched: no statistic computed
here depends on them, but dropping them would misstate the fiber size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import solve_beta_theta
from .distributions import XBetaLaw
from .maps import Permutation, RootedGraph, ball_with_vertices, graph_tree_unordered_code
from .trees import PlaneTree, sample_plane_tree

__all__ = [
    "CDecoratedTree",
    "UnicellularSample",
    "BallShape",
    "OddCyclePermutationSampler",
    "sample_odd_cycle_permutation",
    "sample_c_decorated_tree",
    "sample_unicellular",
    "root_degree",
    "ball_as_tree",
]

@dataclass(frozen=True)
class CDecoratedTree:
    """Plane tree + all-odd-cycle vertex permutation + one sign per cycle."""

    tree: PlaneTree
    perm: Permutation
    signs: tuple[int, ...]

    def __post_init__(self):
        m = self.tree.n_vertices
        if len(self.perm) != m:
            raise ValueError("permutation size must match vertex count")
        cycles = self.perm.cycles()
        if any(len(c) % 2 == 0 for c in cycles):
            raise ValueError("all cycles must have odd length")
        if len(self.signs) != len(cycles):
            raise ValueError("need exactly one sign per cycle")
        if any(x not in (-1, 1) for x in self.signs):
            raise ValueError("signs must be +1 or -1")

    @property
    def n_edges(self) -> int:
        return self.tree.n_edges

    @property
    def n_cycles(self) -> int:
        return len(self.perm.cycles())

    @property
    def genus(self) -> int:
        return (self.tree.n_vertices - self.n_cycles) // 2


@dataclass(frozen=True)
class UnicellularSample:
    """Quotient of a C-decorated tree: the underlying rooted graph.

    fixed_point_mask[c] is True when graph vertex c is a singleton cycle,
    i.e. an untouched tree vertex whose local rotation survives the
    quotient.
    """

    source: CDecoratedTree
    graph: RootedGraph
    fixed_point_mask: tuple[bool, ...]

    @property
    def n_edges(self) -> int:
        return self.source.n_edges

    @property
    def genus(self) -> int:
        return self.source.genus


@dataclass(frozen=True)
class BallShape:
    """What a radius-r ball around the root looks like.

    plane is set only when the ball is a tree all of whose vertices are
    fixed points: then the quotient is locally the plane tree itself and the
    cyclic orders are inherited.  merged means some ball vertex came from a
    nontrivial cycle (its rotation is not reconstructible here, so only the
    unordered code is reported).  unordered_code is None for non-tree balls.
    """

    is_tree: bool
    plane: PlaneTree | None
    unordered_code: str | None
    merged: bool
    n_vertices: int
    n_nonfixed: int


class OddCyclePermutationSampler:
    """Uniform permutations of {0..m-1} with exactly s cycles, all odd.

    Cycle sizes are the hard part: they must be distributed like s i.i.d.
    copies of the odd-length law conditioned on summing to m.  They are
    drawn by rejection (support capped at m-s+1, which changes nothing
    conditionally), with beta tuned so the unconditioned mean is m/s; the
    local CLT puts the acceptance rate near sqrt(2/(pi*s*var)).

    Given sizes, a uniform label sequence is cut into blocks and each block
    is read as a cycle.  A cycle of length k arises from exactly k of the
    equally likely block sequences (its rotations), so every permutation
    with the drawn type is equally likely; combined with the size weights
    prod beta^(k_i)/k_i and the multinomial cut factor, every valid target
    permutation comes out with the same probability.  Locked in by the
    exhaustive small-case frequency tests.
    """

    def __init__(self, m: int, s: int):
        if s < 1 or s > m:
            raise ValueError(f"need 1 <= s <= m, got m={m}, s={s}")
        if (m - s) % 2 != 0:
            raise ValueError(f"m - s must be even (odd cycles), got m={m}, s={s}")
        self.m = m
        self.s = s
        self._law = None
        if s == m or s == 1:
            self.beta = 0.0 if s == m else 1.0
        else:
            self.beta = solve_beta_theta((m - s) / (2.0 * m))
            self._law = XBetaLaw(self.beta)

    def sample_sizes(self, rng: np.random.Generator) -> np.ndarray:
        m, s = self.m, self.s
        if s == m:
            return np.ones(m, dtype=np.int64)
        if s == 1:
            return np.array([m], dtype=np.int64)
        cap = m - s + 1
        while True:
            block = self._law.sample(rng, size=(64, s), max_value=cap)
            hits = np.flatnonzero(block.sum(axis=1) == m)
            if hits.size:
                return block[hits[0]]

    def sample(self, rng: np.random.Generator) -> Permutation:
        m = self.m
        sizes = self.sample_sizes(rng)
        labels = rng.permutation(m)
        # each block maps to its cyclic successor: shift left, then close
        # every block by sending its last label back to its first
        nxt = np.empty(m, dtype=np.int64)
        nxt[:-1] = labels[1:]
        ends = np.cumsum(sizes) - 1
        nxt[ends] = labels[ends - sizes + 1]
        image = np.empty(m, dtype=np.int64)
        image[labels] = nxt
        return Permutation(tuple(int(x) for x in image))


def sample_odd_cycle_permutation(m: int, s: int, rng: np.random.Generator) -> Permutation:
    return OddCyclePermutationSampler(m, s).sample(rng)


def sample_c_decorated_tree(n: int, g: int, rng: np.random.Generator) -> CDecoratedTree:
    if g < 0 or 2 * g > n:
        raise ValueError(f"need 0 <= 2g <= n, got n={n}, g={g}")
    s = n + 1 - 2 * g
    tree = sample_plane_tree(n, rng)
    perm = sample_odd_cycle_permutation(n + 1, s, rng)
    signs = tuple(int(x) for x in 2 * rng.integers(0, 2, size=s) - 1)
    return CDecoratedTree(tree, perm, signs)


def _quotient(cdt: CDecoratedTree) -> tuple[RootedGraph, tuple[bool, ...]]:
    cycles = cdt.perm.cycles()  # sorted by minimum, so the tree root is in class 0
    cls = np.empty(cdt.tree.n_vertices, dtype=np.int64)
    for i, c in enumerate(cycles):
        for v in c:
            cls[v] = i
    parents = cdt.tree.parents()
    edges = tuple((int(cls[parents[v]]), int(cls[v]))
                  for v in range(1, cdt.tree.n_vertices))
    graph = RootedGraph(len(cycles), edges, root_vertex=0,
                        root_edge=0 if edges else None)
    mask = tuple(len(c) == 1 for c in cycles)
    return graph, mask


def sample_unicellular(n: int, g: int, rng: np.random.Generator) -> UnicellularSample:
    """One uniform draw of the underlying graph of a one-face map."""
    cdt = sample_c_decorated_tree(n, g, rng)
    graph, mask = _quotient(cdt)
    return UnicellularSample(cdt, graph, mask)


def root_degree(sample: UnicellularSample) -> int:
    """Edge-endpoints at the root vertex; loops count twice."""
    return sample.graph.degree(sample.graph.root_vertex)


def ball_as_tree(sample: UnicellularSample, r: int) -> BallShape:
    """Extract the radius-r ball and recover its plane structure when legal.

    The plane structure is read off the source tree only when every ball
    vertex is a fixed point: then the ball of the quotient is the ball of
    the tree and the rotations agree vertexwise.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    ball, kept = ball_with_vertices(sample.graph, r)
    n_nonfixed = sum(1 for v in kept if not sample.fixed_point_mask[v])
    is_tree = ball.is_tree()
    if not is_tree:
        return BallShape(False, None, None, n_nonfixed > 0, len(kept), n_nonfixed)
    if n_nonfixed == 0:
        plane = sample.source.tree.truncate(r)
        return BallShape(True, plane, graph_tree_unordered_code(ball), False,
                         len(kept), 0)
    return BallShape(True, None, graph_tree_unordered_code(ball), True,
                     len(kept), n_nonfixed)
