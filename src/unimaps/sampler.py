"""Exact uniform sampling of one-face maps at the underlying-graph level.

A sample is built from three independent uniform ingredients: a plane tree
with n edges, a permutation of its n+1 vertices whose cycles all have odd
length (s = n+1-2g of them), and one sign per cycle.  Collapsing each cycle
to a single vertex yields the underlying graph of a uniform one-face map of
genus g; the correspondence is 2^(n+1)-to-1 with a constant fiber size, so
uniformity transfers.  Signs are stored untouched: no statistic computed
here depends on them, but dropping them would misstate the fiber size.

Everything on the per-sample path is a numpy index array: the tree is its
Dyck word with one depth array read off it (parents and height
truncations read the depths), the permutation is a label sequence cut
into blocks (one block per cycle, the root's first), and the quotient is
two arrays of edge endpoints, from which one level pass reads the root
distances that give the balls of every radius (ball_as_tree).  The root
degree needs no quotient: it is read off the decorated tree and its
first block (root_degree).  The tuple objects (PlaneTree, Permutation,
RootedGraph) are built only when read.

Cycle sizes come from rejection on all but the last TAIL of them, those
drawn exactly given their sum, and every accepted try of a block is kept
(see OddCyclePermutationSampler).  Map draws are iterators: one call
draws the cycle sizes and signs of SIZE_ROWS samples, in small-int
dtypes, and each sample's labels, tree and quotient are drawn as it is
read.  At n = 2000 and g from 100 to 900 that costs, per sample, 17 to
69 microseconds for the sizes, 27 to 34 for the labels and 48 to 50 for
the Dyck word (one core of a shared 2-core x86_64 host).  Validation,
one array pass per check, costs 27 to 30 microseconds there, against 42
to 48 when each check made several passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

from .asymptotics import solve_beta_theta
from .distributions import XBetaLaw
from .maps import Permutation, RootedGraph, root_distances, tree_ball_code
from .trees import (
    PlaneTree,
    dyck_depths,
    dyck_parents,
    dyck_truncation_code,
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


def _block_images(labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Row i: the image array of the permutation whose cycles are the
    consecutive blocks of labels[i] of lengths sizes[i].

    Each label maps to its successor in its block and the last label of a
    block back to the block's first.
    """
    succ = np.tile(np.arange(1, labels.shape[1] + 1), (len(labels), 1))
    ends = np.cumsum(sizes, axis=1) - 1
    np.put_along_axis(succ, ends, ends - sizes + 1, axis=1)
    image = np.empty_like(labels)
    np.put_along_axis(image, labels, np.take_along_axis(labels, succ, axis=1), axis=1)
    return image


@dataclass(frozen=True, eq=False)
class CDecoratedTree:
    """Plane tree + all-odd-cycle vertex permutation + one sign per cycle.

    word is the tree's Dyck word, the one source of the tree: depth, the
    depth of every vertex in preorder, is read off it once, by the
    validation, and parent, the preorder parent array (parent[0] == -1),
    off depth on first use.  The permutation is labels cut into
    consecutive blocks of the given odd sizes, each block one cycle (see
    _block_images); labels[0] is the tree root 0, so the first block is
    the root's cycle.  cycle_signs holds one sign per block.  tree, perm
    and signs give the tuple forms, built on first read.
    """

    word: np.ndarray
    labels: np.ndarray
    sizes: np.ndarray
    cycle_signs: np.ndarray
    depth: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = len(self.labels)
        word, sizes, signs = self.word, self.sizes, self.cycle_signs
        depth = dyck_depths(word)
        # a word of length 2(m - 1) with m - 1 up-steps and m - 1 steps of
        # -1 is a +-1 word, and a Dyck word exactly when every vertex past
        # the root has depth >= 1
        if (len(word) != 2 * (m - 1) or len(depth) != m
                or np.count_nonzero(word == -1) != m - 1 or depth[1:].min(initial=1) < 1):
            raise ValueError("tree word must be a Dyck word on the vertex count")
        object.__setattr__(self, "depth", depth)
        try:
            counts = np.bincount(self.labels, minlength=m)
        except ValueError:  # a negative label
            counts = None
        # m labels in m bins, none twice: each vertex exactly once
        if counts is None or len(counts) != m or counts.max() > 1:
            raise ValueError("labels must be a permutation of the vertices")
        if self.labels[0] != 0:
            raise ValueError("the first block must start at the tree root, label 0")
        if (sizes.min(initial=1) < 1 or np.count_nonzero(sizes & 1) != len(sizes)
                or int(sizes.sum()) != m):
            raise ValueError("cycle sizes must be odd and sum to the vertex count")
        if len(signs) != len(sizes):
            raise ValueError("need exactly one sign per cycle")
        if np.count_nonzero(np.abs(signs) != 1):
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
        return dyck_parents(self.depth)

    @cached_property
    def tree(self) -> PlaneTree:
        return tree_from_parents(self.parent)

    @cached_property
    def perm(self) -> Permutation:
        return Permutation(tuple(_block_images(self.labels[None], self.sizes[None])[0].tolist()))

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


# The last TAIL cycle sizes of a try are drawn exactly given their sum.
TAIL = 4
# The most array entries a block of tries or a split holds at once.
CHUNK_ENTRIES = 2 ** 16
# Up to this many cycles the acceptance of a try is predicted from the
# exact s-fold convolution; past it from the local CLT, which needs no
# more convolutions but is close only for many cycles: at (m, s) =
# (2001, 5) it predicts 0.198 for a measured 0.077.
EXACT_HIT_MAX = 8
# Map draws take the cycle sizes of this many samples per size call, one
# small-int row each: the fixed cost of a block of tries is shared by
# the rows, and 32 or 64 rows were no faster but held 0.7-1.5 MB more
# in the int64 temporaries of a block.
SIZE_ROWS = 16


class _SizeLaw:
    """Per-(m, s) tables of the cycle-size sampler in excess units: a size
    2e + 1 has excess e, and the s excesses of a draw sum to top = (m-s)/2.

    A try draws k = s - j head excesses, j = min(TAIL, s): one multinomial
    over the excesses 0..h-1, whose probabilities pvals holds with, last,
    the mass of the tail bucket of all larger ones up to the cap, and the
    bucket's draws by inverse CDF on cum, the capped cumulative table.
    rows[a] is the a-fold convolution of the excess law on 0..top for the
    halving sizes a (1, 2, 4 and j), rev[a] the same row reversed and
    padded with top zeros, from which a split reads its weights.  qmax is
    the largest rows[j] entry a try can reach, accept the expected
    acceptance of a try and block the most tries one block holds.  dtype,
    _size_dtype(m), holds the excesses and sizes a draw returns.
    """

    __slots__ = ("top", "j", "k", "pvals", "cum", "rows", "rev", "qmax", "accept",
                 "block", "dtype")

    def __init__(self, **tables):
        for name, value in tables.items():
            setattr(self, name, value)


def _size_dtype(m: int) -> np.dtype:
    """The smallest signed integer dtype that holds m, so that it holds
    every cycle size, excess and block end of a draw on m points."""
    return np.min_scalar_type(-m - 1)


@lru_cache(maxsize=16)
def _size_law(m: int, s: int) -> _SizeLaw:
    """Build the tables for s odd cycle sizes summing to m (1 < s < m).

    beta puts the mean of X at m/s.  The head length h minimises the
    expected work of one try, h binomial draws inside the multinomial plus
    k * P(X > 2h-1) tail values.  A try is accepted with probability
    P(sum = m) / qmax on average.  For s <= EXACT_HIT_MAX, P(sum = m) is
    the top entry of the s-fold convolution row; past it, the local CLT
    on the lattice of step 2 gives it as 2 / sqrt(2 pi s Var X).
    """
    beta = solve_beta_theta((m - s) / (2.0 * m))
    cum = XBetaLaw(beta).cumulative(m - s + 1)
    total = cum[-1]
    masses = np.diff(cum, prepend=0.0) / total  # masses[e]: P(excess = e)
    beyond = 1.0 - cum / total  # beyond[e]: mass of the excesses past e
    top, j = (m - s) // 2, min(TAIL, s)
    k = s - j
    # h ranges over 0..len-1 so the tail always keeps at least one value
    costs = np.arange(len(cum)) + k * np.concatenate(([1.0], beyond[:-1]))
    h = int(np.argmin(costs))
    pvals = np.append(masses[:h], beyond[h - 1] if h else 1.0)
    rows = {1: masses}

    def row(a: int) -> np.ndarray:
        if a not in rows:
            rows[a] = np.convolve(row(a // 2), row(a - a // 2))[:top + 1]
        return rows[a]

    row(j)
    if s <= EXACT_HIT_MAX:
        hit = float(row(s)[top])
    else:
        values = np.arange(1, 2 * len(cum), 2, dtype=np.float64)
        mean = float(masses @ values)
        var = max(float(masses @ values ** 2) - mean * mean, 1e-12)
        hit = 2.0 / math.sqrt(2.0 * math.pi * s * var)
    rows = {a: np.pad(q, (0, top + 1 - len(q))) for a, q in rows.items()}
    rev = {a: np.concatenate((q[::-1], np.zeros(top))) for a, q in rows.items()}
    # the head excesses sum to at most k * (len(cum) - 1)
    qmax = float(rows[j][max(0, top - k * (len(cum) - 1)) if k else top:].max())
    accept = min(1.0, hit / qmax) if k else 1.0
    # a try holds its multinomial row, its tail values and a few scalars
    block = max(1, int(CHUNK_ENTRIES // (costs[h] + 8)))
    return _SizeLaw(top=top, j=j, k=k, pvals=pvals, cum=cum, rows=rows, rev=rev,
                    qmax=qmax, accept=accept, block=block, dtype=_size_dtype(m))


def _split(law: _SizeLaw, rng: np.random.Generator, a: int,
           rho: np.ndarray) -> np.ndarray:
    """(len(rho), a) excesses of a i.i.d. values given their sums rho.

    The left half's sum t is drawn with weight rows[l][t] *
    rows[a-l][rho-t], l = a // 2, by inverse CDF along each row; row i
    reads rows[a-l][rho_i - t] for t = 0, 1, ... off rev[a-l] from
    top - rho_i on.  Then each half is split the same way.
    """
    if a == 1 or not len(rho):
        return rho.reshape(-1, a)
    left = a // 2
    width = int(rho.max()) + 1
    cols = np.arange(width)
    weights = law.rows[left][:width]
    t = np.empty_like(rho)
    step = max(1, CHUNK_ENTRIES // width)
    for i in range(0, len(rho), step):
        r = rho[i:i + step]
        cum = np.cumsum(law.rev[a - left][(law.top - r)[:, None] + cols] * weights, axis=1)
        x = rng.random(len(r)) * cum[:, -1]
        # the minimum guards against u * total rounding up to the total
        t[i:i + step] = np.minimum(np.count_nonzero(cum <= x[:, None], axis=1), r)
    if 2 * left == a:
        halves = _split(law, rng, left, np.concatenate((t, rho - t)))
        return np.hstack((halves[:len(rho)], halves[len(rho):]))
    return np.hstack((_split(law, rng, left, t), _split(law, rng, a - left, rho - t)))


def _accepted_tries(law: _SizeLaw, rng: np.random.Generator, want: int) -> np.ndarray:
    """One block of tries: the excesses of its first at most want
    accepted tries, one row each, in try order, in law.dtype."""
    if not law.k:
        return _split(law, rng, law.j, np.full(min(want, law.block), law.top, dtype=law.dtype))
    # about two standard deviations of hits more than wanted, so that one
    # block usually serves the whole call
    tries = int(min(math.ceil((want + 2 * math.sqrt(want)) / law.accept), law.block))
    h, cum = len(law.pvals) - 1, law.cum
    counts = rng.multinomial(law.k, law.pvals, size=tries)
    n_tail = counts[:, h]
    low = cum[h - 1] if h else 0.0
    u = low + rng.random(int(n_tail.sum())) * (cum[-1] - low)
    tail = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    ends = np.cumsum(n_tail)
    sums = np.concatenate(([0], np.cumsum(tail)))
    rho = law.top - (counts[:, :h] @ np.arange(h) + sums[ends] - sums[ends - n_tail])
    reach = np.where(rho >= 0, law.rows[law.j][np.maximum(rho, 0)], 0.0)
    hits = np.flatnonzero(rng.random(tries) * law.qmax < reach)[:want]
    # head excesses in increasing order, the bucket's markers (-1) last,
    # then the markers replaced by the hits' tail draws in draw order
    n_tail = n_tail[hits]
    first = ends[hits] - n_tail
    picks = np.repeat(first - np.cumsum(n_tail) + n_tail, n_tail) + np.arange(n_tail.sum())
    marks = np.append(np.arange(h), -1).astype(law.dtype)
    head = np.repeat(np.tile(marks, len(hits)), counts[hits].ravel())
    head[head < 0] = tail[picks]
    return np.hstack((head.reshape(len(hits), law.k),
                      _split(law, rng, law.j, rho[hits].astype(law.dtype))))


class OddCyclePermutationSampler:
    """Uniform permutations of {0..m-1} with exactly s cycles, all odd.

    Cycle sizes must be distributed like s i.i.d. copies X_1..X_s of the
    odd-length law p(k) ∝ beta^k / k conditioned on summing to m: the
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
    right law, and the counts of s - j i.i.d. draws are one multinomial
    draw over the values.

    A try draws the first s - j sizes, j = min(TAIL, s): one multinomial
    over the head values 1, 3, ..., 2h-1 plus a tail bucket holding every
    larger value up to the cap, whose draws are expanded i.i.d. from the
    law conditioned on the bucket, by inverse CDF on the cumulative table.
    Merging values into a bucket and splitting it again by its conditional
    law reproduces the counts of i.i.d. draws exactly, so the split is a
    cost choice only (see _size_law); h is fixed per (m, s).

    The last j sizes are exact given their sum.  Let r = m - (sum of the
    first s - j), c_j the j-fold convolution of p and c_max the largest
    c_j(r) over the r a try can reach.  The try is accepted with
    probability c_j(r) / c_max, and then r is split into j sizes by
    halving: the left sum t of a group of a sizes is drawn with weight
    c_l(t) * c_(a-l)(r - t), l = a // 2, and each half is split again, so
    the j sizes come out with probability prod p(x_i) / c_j(r).  A try
    therefore yields x_1..x_s and is accepted with probability
    prod p(x_i) / c_max, proportional to the target weight: every accepted
    try is an exact draw, and the tries are independent, so every
    accepted try of a block is kept, in try order.  When j = s the sum is
    always m and the draw needs no rejection.  The expected tries per
    draw are c_max / P(X_1 + ... + X_s = m), against 1 / P(...) when every
    size came from the head.  The tables are cached per (m, s) and hold no
    random state, and no draw is kept between calls, so a draw depends
    only on the generator and the call's arguments.

    Given sizes (head values in increasing order, the bucket's draws in
    draw order, then the last j), a uniform label sequence is cut into
    blocks and each block is read as a cycle.  Locked in by the
    exhaustive small-case frequency tests.
    """

    def __init__(self, m: int, s: int):
        if s < 1 or s > m:
            raise ValueError(f"need 1 <= s <= m, got m={m}, s={s}")
        if (m - s) % 2 != 0:
            raise ValueError(f"m - s must be even (odd cycles), got m={m}, s={s}")
        self.m = m
        self.s = s
        self._law = _size_law(m, s) if 1 < s < m else None

    def sample_sizes(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, s) cycle sizes, one draw per row, in _size_dtype(m)."""
        m, s = self.m, self.s
        if s == m or s == 1:
            return np.full((size, s), m // s, dtype=_size_dtype(m))
        out = np.empty((size, s), dtype=self._law.dtype)
        done = 0
        while done < size:
            excess = _accepted_tries(self._law, rng, size - done)
            rows = out[done:done + len(excess)]
            np.multiply(excess, 2, out=rows)
            rows += 1
            done += len(excess)
        return out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, m) permutation images, one draw per row: uniform label
        sequences cut into cycles by the drawn sizes."""
        sizes = self.sample_sizes(rng, size)
        labels = np.empty((size, self.m), dtype=np.int64)
        for row in labels:
            row[:] = rng.permutation(self.m)
        return _block_images(labels, sizes)


def sample_odd_cycle_permutation(m: int, s: int, rng: np.random.Generator,
                                 size: int) -> np.ndarray:
    return OddCyclePermutationSampler(m, s).sample(rng, size)


def _root_block_first(sizes: np.ndarray, m: int, rng: np.random.Generator) -> None:
    """Swap into column 0 of each row of sizes (rows summing to m) the
    block that a uniform position in 0..m-1 falls in.

    That block is picked with probability size / m, the law of the block
    that holds the root 0 in a uniform label sequence.  Block order does
    not matter (see OddCyclePermutationSampler), so labels with the root
    at position 0 and the others in uniform order, cut by the swapped
    row, give a uniform permutation of the drawn cycle type whose first
    block is the root's cycle.
    """
    ends = np.cumsum(sizes, axis=1)
    at = rng.integers(0, m, size=(len(sizes), 1))
    block = np.count_nonzero(ends <= at, axis=1)
    rows = np.arange(len(sizes))
    sizes[rows, 0], sizes[rows, block] = sizes[rows, block], sizes[rows, 0]


def _decorated_trees(sampler: OddCyclePermutationSampler, rng: np.random.Generator,
                     size: int) -> Iterator[CDecoratedTree]:
    m = sampler.m
    for start in range(0, size, SIZE_ROWS):
        sizes = sampler.sample_sizes(rng, min(SIZE_ROWS, size - start))
        _root_block_first(sizes, m, rng)
        signs = 2 * rng.integers(0, 2, size=sizes.shape, dtype=np.int8) - 1
        for row, row_signs in zip(sizes, signs):
            labels = np.arange(m)
            rng.shuffle(labels[1:])
            yield CDecoratedTree(sample_dyck_word(m - 1, rng), labels, row, row_signs)


def sample_c_decorated_tree(n: int, g: int, rng: np.random.Generator,
                            size: int) -> Iterator[CDecoratedTree]:
    """size uniform decorated trees, drawn as the iterator is read: the
    cycle sizes and signs of SIZE_ROWS samples per call, the labels and
    tree of each sample when it is yielded."""
    if g < 0 or 2 * g > n:
        raise ValueError(f"need 0 <= 2g <= n, got n={n}, g={g}")
    return _decorated_trees(OddCyclePermutationSampler(n + 1, n + 1 - 2 * g), rng, size)


def _quotient(cdt: CDecoratedTree) -> UnicellularSample:
    # the first block holds the root, so the root's cycle is graph vertex 0
    cls = np.empty(len(cdt.labels), dtype=np.int64)
    cls[cdt.labels] = np.repeat(np.arange(len(cdt.sizes)), cdt.sizes)
    return UnicellularSample(cdt, cls[cdt.parent[1:]], cls[1:], cdt.sizes == 1)


def sample_unicellular(n: int, g: int, rng: np.random.Generator,
                       size: int) -> Iterator[UnicellularSample]:
    """size uniform draws of the underlying graph of a one-face map, made
    as the iterator is read."""
    return map(_quotient, sample_c_decorated_tree(n, g, rng, size))


def root_degree(cdt: CDecoratedTree) -> int:
    """Edge-endpoints at the root vertex of the quotient of cdt; loops
    count twice.

    The root vertex is the first block R of labels, which holds the tree
    root 0.  Tree edge (parent[v], v) becomes the quotient edge
    (cls[parent[v]], cls[v]), so the degree counts the v >= 1 whose parent
    lies in R, plus the |R| - 1 non-root vertices of R: the tree degrees
    summed over R, read without building the quotient.
    """
    root = cdt.labels[:cdt.sizes[0]]
    in_root = np.zeros(len(cdt.labels), dtype=bool)
    in_root[root] = True
    return int(np.count_nonzero(in_root[cdt.parent[1:]])) + len(root) - 1


def ball_as_tree(sample: UnicellularSample, radii: tuple[int, ...]) -> list[BallShape]:
    """The ball of each radius in radii, with its plane structure when legal.

    Balls nest, so one root_distances pass at the largest radius serves
    them all: counts of vertices and non-fixed vertices per level, and of
    edges by the level of their nearer end, give each ball's size and
    tree test.  The plane structure is read off the source tree only
    when every ball vertex is a fixed point: then the ball of the quotient
    is the ball of the tree and the rotations agree vertexwise.  A tree
    ball of radius 1 is a star, whose codes need no tree.
    """
    if any(r < 0 for r in radii):
        raise ValueError("radius must be >= 0")
    src, dst, mask = sample.src, sample.dst, sample.fixed_point_mask
    # no ball grows past the vertex count
    top = min(max(radii), len(mask))
    dist = root_distances(len(mask), src, dst, 0, top)
    levels = np.bincount(dist, minlength=top + 2)
    depth = int(np.count_nonzero(levels[1:top + 1]))
    seen = np.cumsum(levels)
    nonfixed = np.cumsum(np.bincount(dist[~mask], minlength=top + 2))
    inner = np.cumsum(np.bincount(np.minimum(dist[src], dist[dst]), minlength=top + 2))
    shapes = []
    for r in radii:
        r = min(r, top)
        nv, n_nonfixed, height = int(seen[r]), int(nonfixed[r]), min(r, depth)
        if r and inner[r - 1] != nv - 1:
            shapes.append(BallShape(False, None, None, nv, n_nonfixed, height))
            continue
        code = "()" * (nv - 1) if r <= 1 else tree_ball_code(dist, src, dst, r)
        plane = None
        if n_nonfixed == 0:
            plane = code if r <= 1 else dyck_truncation_code(sample.source.depth, r)
        shapes.append(BallShape(True, plane, code, nv, n_nonfixed, height))
    return shapes
