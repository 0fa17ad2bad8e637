"""Exact uniform sampling of one-face maps at the underlying-graph level.

A sample is built from three independent uniform ingredients: a plane tree
with n edges, a permutation of its n+1 vertices whose cycles all have odd
length (s = n+1-2g of them), and one sign per cycle.  Collapsing each cycle
to a single vertex yields the underlying graph of a uniform one-face map of
genus g; the correspondence is 2^(n+1)-to-1 with a constant fiber size, so
uniformity transfers.  Signs are stored untouched: no statistic computed
here depends on them, but dropping them would misstate the fiber size.

Everything on the per-sample path is a numpy index array: the tree is its
Dyck word and preorder parent array, the permutation is a label sequence
cut into blocks (one block per cycle), and the quotient is two arrays of
edge endpoints with a compressed adjacency for ball extraction.  The tuple
objects (PlaneTree, Permutation, RootedGraph) are built only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .asymptotics import solve_beta_theta
from .distributions import XBetaLaw
from .maps import Adjacency, Permutation, RootedGraph
from .trees import (
    PlaneTree,
    dyck_parents,
    dyck_truncation_code,
    parent_unordered_code,
    sample_dyck_word,
    tree_from_parents,
)

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


def _block_permutation(labels: np.ndarray, sizes: np.ndarray) -> Permutation:
    """The permutation whose cycles are the consecutive blocks of labels.

    Each label maps to its successor in its block and the last label of a
    block back to the block's first.
    """
    m = len(labels)
    nxt = np.empty(m, dtype=np.int64)
    nxt[:-1] = labels[1:]
    ends = np.cumsum(sizes) - 1
    nxt[ends] = labels[ends - sizes + 1]
    image = np.empty(m, dtype=np.int64)
    image[labels] = nxt
    return Permutation(tuple(image.tolist()))


@dataclass(frozen=True, eq=False)
class CDecoratedTree:
    """Plane tree + all-odd-cycle vertex permutation + one sign per cycle.

    word is the tree's Dyck word, the one source of the tree: parent, its
    preorder parent array (parent[0] == -1), is read off it on first use.
    The permutation is labels cut into consecutive blocks of the given odd
    sizes, each block one cycle (see _block_permutation); cycle_signs holds
    one sign per block.  tree, perm and signs give the tuple forms, built
    on first read.
    """

    word: np.ndarray
    labels: np.ndarray
    sizes: np.ndarray
    cycle_signs: np.ndarray

    def __post_init__(self):
        m = len(self.labels)
        heights = np.cumsum(self.word, dtype=np.int64)
        if (len(self.word) != 2 * (m - 1) or not np.all(np.abs(self.word) == 1)
                or (m > 1 and (heights.min() < 0 or heights[-1] != 0))):
            raise ValueError("tree word must be a Dyck word on the vertex count")
        if not np.array_equal(np.bincount(self.labels, minlength=m), np.ones(m)):
            raise ValueError("labels must be a permutation of the vertices")
        if (np.any(self.sizes < 1) or np.any(self.sizes % 2 == 0)
                or int(self.sizes.sum()) != m):
            raise ValueError("cycle sizes must be odd and sum to the vertex count")
        if len(self.cycle_signs) != len(self.sizes):
            raise ValueError("need exactly one sign per cycle")
        if not np.all(np.abs(self.cycle_signs) == 1):
            raise ValueError("signs must be +1 or -1")

    @property
    def n_edges(self) -> int:
        return len(self.labels) - 1

    @property
    def n_cycles(self) -> int:
        return len(self.sizes)

    @property
    def genus(self) -> int:
        return (len(self.labels) - self.n_cycles) // 2

    @cached_property
    def parent(self) -> np.ndarray:
        return dyck_parents(self.word)[0]

    @cached_property
    def tree(self) -> PlaneTree:
        return tree_from_parents(self.parent)

    @cached_property
    def perm(self) -> Permutation:
        return _block_permutation(self.labels, self.sizes)

    @cached_property
    def signs(self) -> tuple[int, ...]:
        return tuple(self.cycle_signs.tolist())


@dataclass(frozen=True, eq=False)
class UnicellularSample:
    """Quotient of a C-decorated tree: the underlying rooted graph.

    Graph vertices are the cycles of the permutation, numbered in block
    order except that the cycle holding the tree root is swapped to 0, the
    root vertex.  Edge i is (src[i], dst[i]), the image of the tree edge
    from vertex i+1's parent to vertex i+1, so edge 0 is the root edge and
    leaves the root.  fixed_point_mask[c] is True when graph vertex c is a
    singleton cycle, i.e. an untouched tree vertex whose local rotation
    survives the quotient.  graph gives the tuple form, built on first read.
    """

    source: CDecoratedTree
    src: np.ndarray
    dst: np.ndarray
    fixed_point_mask: np.ndarray

    def __post_init__(self):
        nv = len(self.fixed_point_mask)
        if len(self.src) != self.source.n_edges or len(self.dst) != len(self.src):
            raise ValueError("need one edge per tree edge")
        if len(self.src) and (min(self.src.min(), self.dst.min()) < 0
                              or max(self.src.max(), self.dst.max()) >= nv):
            raise ValueError("edge endpoint out of range")
        if len(self.src) and self.src[0] != 0:
            raise ValueError("root edge must originate at the root vertex")

    @property
    def n_edges(self) -> int:
        return self.source.n_edges

    @property
    def genus(self) -> int:
        return self.source.genus

    @cached_property
    def graph(self) -> RootedGraph:
        edges = tuple(zip(self.src.tolist(), self.dst.tolist()))
        return RootedGraph(len(self.fixed_point_mask), edges, root_vertex=0,
                           root_edge=0 if edges else None)

    @cached_property
    def adjacency(self) -> Adjacency:
        return Adjacency.build(len(self.fixed_point_mask), self.src, self.dst)


@dataclass(frozen=True)
class BallShape:
    """What a radius-r ball around the root looks like.

    plane_code is set only when the ball is a tree all of whose vertices
    are fixed points: then the quotient is locally the plane tree itself
    and the cyclic orders are inherited.  merged means some ball vertex came
    from a nontrivial cycle (its rotation is not reconstructible here, so
    only the unordered code is reported).  unordered_code is None for
    non-tree balls.  height is the largest distance from the root in the
    ball, r when the ball reaches its full radius.
    """

    is_tree: bool
    plane_code: str | None
    unordered_code: str | None
    n_vertices: int
    n_nonfixed: int
    height: int

    @property
    def merged(self) -> bool:
        return self.n_nonfixed > 0


class _SizeLaw:
    """Per-(m, s) tables of the cycle-size rejection sampler.

    Odd values 1, 3, ..., 2h-1 (head) get their own multinomial category;
    pvals holds their probabilities and, last, the mass of the tail bucket
    of all larger values up to the cap.  cum is the cumulative table of
    the capped law from XBetaLaw.cumulative, which the tail draws invert.
    """

    __slots__ = ("head", "pvals", "cum", "batch")

    def __init__(self, head: np.ndarray, pvals: np.ndarray, cum: np.ndarray, batch: int):
        self.head, self.pvals, self.cum, self.batch = head, pvals, cum, batch


@lru_cache(maxsize=16)
def _size_law(m: int, s: int) -> _SizeLaw:
    """Build the tables for s odd cycle sizes summing to m (1 < s < m).

    beta puts the mean of X at m/s.  The head length h minimises the
    expected work of one try, h binomial draws inside the multinomial plus
    s * P(X > 2h-1) tail values.  A batch of tries is about the expected
    number to the first success, 1 / P(sum = m), from the local CLT on the
    lattice of step 2: 2 / sqrt(2 pi s Var X), but at least 64, because
    below that the fixed cost of a batch outweighs its tries.
    """
    beta = solve_beta_theta((m - s) / (2.0 * m))
    cum = XBetaLaw(beta).cumulative(m - s + 1)
    total = cum[-1]
    masses = np.diff(cum, prepend=0.0) / total
    beyond = 1.0 - cum / total  # beyond[i]: mass of the values past 2i+1
    # h ranges over 0..len-1 so the tail always keeps at least one value
    costs = np.arange(len(cum)) + s * np.concatenate(([1.0], beyond[:-1]))
    h = int(np.argmin(costs))
    pvals = np.append(masses[:h], beyond[h - 1] if h else 1.0)
    values = np.arange(1, 2 * len(cum), 2, dtype=np.float64)
    mean = float(masses @ values)
    var = max(float(masses @ values ** 2) - mean * mean, 1e-12)
    accept = min(1.0, 2.0 / math.sqrt(2.0 * math.pi * s * var))
    batch = int(min(4096, max(64, math.ceil(1.0 / accept))))
    head = np.arange(1, 2 * h, 2, dtype=np.int64)
    return _SizeLaw(head, pvals, cum, batch)


class OddCyclePermutationSampler:
    """Uniform permutations of {0..m-1} with exactly s cycles, all odd.

    Cycle sizes must be distributed like s i.i.d. copies X_1..X_s of the
    odd-length law P(X = k) ∝ beta^k / k conditioned on summing to m: the
    weight of a size sequence is then prod beta^(k_i)/k_i, and with the
    multinomial cut factor below every target permutation comes out
    equally likely.  beta is tuned so E[X] = m/s and the support is capped
    at m-s+1, which changes nothing conditionally.

    Block order does not matter.  The labels are a uniform permutation, so
    a size sequence and any reordering of it give the same law of the
    resulting permutation: of the m! label sequences, each permutation of
    the drawn cycle type arises from exactly prod_k c_k! * prod_i k_i of
    them (which block of a given size holds which cycle, and where each
    cycle starts in its block), where c_k is the number of cycles of size
    k.  So only the multiset of sizes, the counts c_k, has to have the
    right law, and the counts of s i.i.d. draws are one multinomial(s, p)
    draw over the values.

    Each try is therefore one multinomial over the head values 1, 3, ...,
    2h-1 plus a tail bucket holding every larger value up to the cap; the
    c_tail draws that land in the bucket are expanded i.i.d. from the law
    conditioned on the bucket, by inverse CDF on the cumulative table.
    Merging values into a bucket and splitting it again by its conditional
    law reproduces the counts of s i.i.d. draws exactly, so the split is
    a cost choice only (see _size_law); h is fixed per (m, s).  A try is
    accepted when the sizes sum to m; the local CLT puts the acceptance
    rate near 2 / sqrt(2 pi s Var X).  Tries are drawn in batches and the
    first accepted one is kept; the tables are cached per (m, s) and hold
    no random state, so a draw depends only on the generator.

    Given sizes (head values in increasing order, then the tail draws in
    draw order), a uniform label sequence is cut into blocks and each
    block is read as a cycle.  Locked in by the exhaustive small-case
    frequency tests.
    """

    def __init__(self, m: int, s: int):
        if s < 1 or s > m:
            raise ValueError(f"need 1 <= s <= m, got m={m}, s={s}")
        if (m - s) % 2 != 0:
            raise ValueError(f"m - s must be even (odd cycles), got m={m}, s={s}")
        self.m = m
        self.s = s
        self._law = _size_law(m, s) if 1 < s < m else None

    def sample_sizes(self, rng: np.random.Generator) -> np.ndarray:
        m, s, law = self.m, self.s, self._law
        if s == m:
            return np.ones(m, dtype=np.int64)
        if s == 1:
            return np.array([m], dtype=np.int64)
        h, cum = len(law.head), law.cum
        low = cum[h - 1] if h else 0.0
        while True:
            counts = rng.multinomial(s, law.pvals, size=law.batch)
            n_tail = counts[:, h]
            u = low + rng.random(int(n_tail.sum())) * (cum[-1] - low)
            idx = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
            tail = 2 * idx + 1
            ends = np.cumsum(n_tail)
            sums = np.concatenate(([0], np.cumsum(tail)))
            totals = counts[:, :h] @ law.head + sums[ends] - sums[ends - n_tail]
            hits = np.flatnonzero(totals == m)
            if hits.size:
                i = hits[0]
                return np.concatenate((np.repeat(law.head, counts[i, :h]),
                                       tail[ends[i] - n_tail[i]:ends[i]]))

    def sample_blocks(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """(labels, sizes): a uniform label sequence and the block sizes
        that cut it into the cycles."""
        sizes = self.sample_sizes(rng)
        return rng.permutation(self.m), sizes

    def sample(self, rng: np.random.Generator) -> Permutation:
        return _block_permutation(*self.sample_blocks(rng))


def sample_odd_cycle_permutation(m: int, s: int, rng: np.random.Generator) -> Permutation:
    return OddCyclePermutationSampler(m, s).sample(rng)


def sample_c_decorated_tree(n: int, g: int, rng: np.random.Generator) -> CDecoratedTree:
    if g < 0 or 2 * g > n:
        raise ValueError(f"need 0 <= 2g <= n, got n={n}, g={g}")
    s = n + 1 - 2 * g
    word = sample_dyck_word(n, rng)
    labels, sizes = OddCyclePermutationSampler(n + 1, s).sample_blocks(rng)
    signs = 2 * rng.integers(0, 2, size=s) - 1
    return CDecoratedTree(word, labels, sizes, signs)


def _quotient(cdt: CDecoratedTree) -> UnicellularSample:
    s = len(cdt.sizes)
    cls = np.empty(len(cdt.labels), dtype=np.int64)
    cls[cdt.labels] = np.repeat(np.arange(s), cdt.sizes)
    fixed = cdt.sizes == 1
    root = cls[0]
    if root:
        # the root's cycle becomes graph vertex 0
        swap = np.arange(s)
        swap[[0, root]] = root, 0
        cls = swap[cls]
        fixed[[0, root]] = fixed[[root, 0]]
    return UnicellularSample(cdt, cls[cdt.parent[1:]], cls[1:], fixed)


def sample_unicellular(n: int, g: int, rng: np.random.Generator) -> UnicellularSample:
    """One uniform draw of the underlying graph of a one-face map."""
    return _quotient(sample_c_decorated_tree(n, g, rng))


def root_degree(sample: UnicellularSample) -> int:
    """Edge-endpoints at the root vertex; loops count twice."""
    return int(np.count_nonzero(sample.src == 0) + np.count_nonzero(sample.dst == 0))


def ball_as_tree(sample: UnicellularSample, r: int) -> BallShape:
    """Extract the radius-r ball and recover its plane structure when legal.

    The plane structure is read off the source tree only when every ball
    vertex is a fixed point: then the ball of the quotient is the ball of
    the tree and the rotations agree vertexwise.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    ball = sample.adjacency.ball(0, r)
    n_nonfixed = int(np.count_nonzero(~sample.fixed_point_mask[ball.vertices]))
    nv = len(ball.vertices)
    if not ball.is_tree:
        return BallShape(False, None, None, nv, n_nonfixed, ball.height)
    plane = dyck_truncation_code(sample.source.word, r) if n_nonfixed == 0 else None
    return BallShape(True, plane, parent_unordered_code(ball.parent), nv, n_nonfixed,
                     ball.height)
