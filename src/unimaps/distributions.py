"""Limit laws for the map ensemble: the odd-length law X, its size-biased
version, the limiting root-degree law, and geometric branching trees with
their survival conditioning.

The branching tree T(xi) has offspring law P(c = j) = xi * (1 - xi)^j on
j >= 0.  For xi < 1/2 it is supercritical with extinction probability
xi / (1 - xi).  The survival-conditioned tree splits every vertex into
"surviving" (at least one surviving child, forever) and "doomed" (its
subtree dies out); both offspring laws below are derived from the h-transform
and locked in by tests against the closed-form ball law.
"""

from __future__ import annotations

import math

import numpy as np

from .asymptotics import solve_beta_theta
from .trees import PlaneTree

__all__ = [
    "XBetaLaw",
    "x_beta_pmf",
    "x_beta_sample",
    "size_biased_cycle_pmf",
    "root_degree_pmf_beta",
    "root_degree_limit_pmf",
    "root_degree_conv_pmf",
    "extinction_prob",
    "gw_ball_sample",
    "gw_inf_ball_sample",
    "ball_probability",
    "ball_probability_kd",
    "gw_ball_probability",
    "inf_ball_generation_sizes",
]


def _check_beta(beta: float) -> None:
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")


class XBetaLaw:
    """Odd-supported law P(X = 2k+1) = beta^(2k+1) / (Z * (2k+1)).

    Z = atanh(beta) normalizes the series.  beta = 0 degenerates to a point
    mass at 1.
    """

    def __init__(self, beta: float):
        _check_beta(beta)
        self.beta = float(beta)
        self.z_beta = math.atanh(self.beta) if self.beta > 0 else 0.0

    def pmf(self, value: int) -> float:
        if value < 1 or value % 2 == 0:
            return 0.0
        if self.beta == 0.0:
            return 1.0 if value == 1 else 0.0
        return self.beta ** value / (self.z_beta * value)

    def cumulative(self, max_value: int) -> np.ndarray:
        """Cumulative masses of the odd values 1, 3, 5, ... up to max_value
        in one vectorised step: entry k is P(X <= 2k+1).

        The table stops earlier where the mass left beyond value v, at
        most beta^(v+2) / (Z (1 - beta^2)), is below double precision, so
        every value it drops has probability under 2^-53.
        """
        if self.beta == 0.0:
            return np.ones(1)
        b, z = self.beta, self.z_beta
        top = math.ceil(math.log(2.0 ** -53 * z * (1.0 - b * b)) / math.log(b))
        values = np.arange(1, max(min(top, int(max_value)), 1) + 1, 2, dtype=np.float64)
        return np.cumsum(b ** values / (z * values))

    def sample(self, rng: np.random.Generator, size=None):
        """Draw odd values exactly, with no table, for any beta < 1.

        beta^k / k is the integral of t^(k-1) over [0, beta], so X is a
        mixture: T has density proportional to 1 / (1 - t^2) on [0, beta],
        drawn as tanh(U * Z), and given T = t, X = 2G - 1 with G geometric
        of success probability 1 - t^2, which puts mass proportional to
        t^(k-1) on each odd k.
        """
        if self.beta == 0.0:
            if size is None:
                return 1
            return np.ones(size, dtype=np.int64)
        scalar = size is None
        # the clip keeps 1 - t^2 positive where tanh rounds up to 1
        t = np.minimum(np.tanh(rng.random(1 if scalar else size) * self.z_beta), self.beta)
        values = 2 * rng.geometric((1.0 - t) * (1.0 + t)) - 1
        if scalar:
            return int(values[0])
        return values.astype(np.int64)


def x_beta_pmf(beta: float, value: int) -> float:
    """P(X = value) for the odd-length law; 0 on even or nonpositive input."""
    _check_beta(beta)
    return XBetaLaw(beta).pmf(value)


def x_beta_sample(beta: float, rng: np.random.Generator, size=None):
    return XBetaLaw(beta).sample(rng, size=size)


def size_biased_cycle_pmf(beta: float, value: int) -> float:
    """P(K = 2k+1) = (1 - beta^2) * beta^(2k): the cycle containing a
    uniform element, i.e. the size-biased version of X."""
    _check_beta(beta)
    if value < 1 or value % 2 == 0:
        return 0.0
    if beta == 0.0:
        return 1.0 if value == 1 else 0.0
    return (1.0 - beta ** 2) * beta ** (value - 1)


def root_degree_pmf_beta(beta: float, d: int) -> float:
    """Limiting root-degree law in terms of beta.

    For beta > 0 this is ((1-beta^2)/4) * ((1+beta)^d - (1-beta)^d)
    / (2^d * beta); the beta -> 0 limit is d * 2^-(d+1).
    """
    _check_beta(beta)
    if d <= 0:
        return 0.0
    if beta == 0.0:
        return d * 0.5 ** (d + 1)
    a = ((1.0 + beta) / 2.0) ** d
    b = ((1.0 - beta) / 2.0) ** d
    return (1.0 - beta ** 2) / 4.0 * (a - b) / beta


def root_degree_limit_pmf(theta: float, d: int) -> float:
    """Limiting root-degree law at genus ratio theta (beta solved on the fly)."""
    return root_degree_pmf_beta(solve_beta_theta(theta), d)


def root_degree_conv_pmf(beta: float, d: int) -> float:
    """Same law as a convolution: G1 + G2 - 1 with G1 ~ Geom((1+beta)/2)
    and G2 ~ Geom((1-beta)/2), both on {1, 2, ...}.

    Kept separate from the closed form so the two can be compared termwise.
    """
    _check_beta(beta)
    if d <= 0:
        return 0.0
    p1 = (1.0 + beta) / 2.0
    p2 = (1.0 - beta) / 2.0
    total = 0.0
    # G1 = i, G2 = d + 1 - i
    for i in range(1, d + 1):
        j = d + 1 - i
        total += p1 * (1.0 - p1) ** (i - 1) * p2 * (1.0 - p2) ** (j - 1)
    return total


# ---------------------------------------------------------------------------
# geometric branching trees


def _check_xi(xi: float, allow_critical: bool) -> None:
    hi_ok = xi < 0.5 or (allow_critical and xi == 0.5)
    if not (0.0 < xi and hi_ok):
        top = "1/2 inclusive" if allow_critical else "1/2 exclusive"
        raise ValueError(f"xi must lie in (0, {top}), got {xi}")


def extinction_prob(xi: float) -> float:
    """Extinction probability xi / (1 - xi); equals 1 at criticality."""
    _check_xi(xi, allow_critical=True)
    return xi / (1.0 - xi)


class _GeomBuffer:
    """Serves scalar Geometric(p) draws from vectorized blocks."""

    def __init__(self, p: float, rng: np.random.Generator, block: int = 4096):
        self.p = p
        self.rng = rng
        self.block = block
        self._buf = rng.geometric(p, size=block)
        self._pos = 0

    def take(self) -> int:
        if self._pos == len(self._buf):
            self._buf = self.rng.geometric(self.p, size=self.block)
            self._pos = 0
        v = self._buf[self._pos]
        self._pos += 1
        return int(v)


def _preorder_tree(children_lists: list[list[int]]) -> PlaneTree:
    """Renumber a child-index forest (rooted at node 0) into preorder."""
    order = {}
    stack = [0]
    while stack:
        node = stack.pop()
        order[node] = len(order)
        stack.extend(reversed(children_lists[node]))
    out: list[list[int]] = [[] for _ in children_lists]
    for node, kids in enumerate(children_lists):
        out[order[node]] = [order[c] for c in kids]
    return PlaneTree(tuple(tuple(k) for k in out))


def gw_ball_sample(xi: float, r: int, rng: np.random.Generator) -> PlaneTree:
    """Height-r truncation of the unconditioned tree T(xi).

    Offspring are Geometric(xi) - 1.  The tree may be infinite (xi < 1/2 is
    supercritical) but the truncation is always finite.
    """
    _check_xi(xi, allow_critical=False)
    if r < 0:
        raise ValueError("radius must be >= 0")
    geo = _GeomBuffer(xi, rng)
    children: list[list[int]] = [[]]
    frontier = [0]
    for _ in range(r):
        nxt = []
        for node in frontier:
            c = geo.take() - 1
            for _ in range(c):
                children.append([])
                idx = len(children) - 1
                children[node].append(idx)
                nxt.append(idx)
        frontier = nxt
    return _preorder_tree(children)


def gw_inf_ball_sample(xi: float, r: int, rng: np.random.Generator) -> PlaneTree:
    """Radius-r ball of the survival-conditioned tree, drawn exactly.

    For xi < 1/2: the surviving skeleton puts Geometric(p_die) surviving
    children at each surviving vertex, doomed children fill the gaps around
    them i.i.d. Geometric(1-xi) - 1, and each doomed vertex heads a
    subcritical tree with that same offspring law.  At xi = 1/2 the
    conditioning degenerates to the critical spine construction: spine
    vertices get size-biased offspring (two Geometric(1/2) minus 1) with the
    spine continuation uniform among them, all other children head
    unconditioned critical trees.
    """
    _check_xi(xi, allow_critical=True)
    if r < 0:
        raise ValueError("radius must be >= 0")
    children: list[list[int]] = [[]]
    if r == 0:
        return PlaneTree(((),))

    def grow_doomed(root: int, depth_left: int, geo: _GeomBuffer):
        # plain branching with offspring Geometric(1-xi) - 1, cut at depth
        frontier = [root]
        for _ in range(depth_left):
            nxt = []
            for node in frontier:
                for _ in range(geo.take() - 1):
                    children.append([])
                    idx = len(children) - 1
                    children[node].append(idx)
                    nxt.append(idx)
            frontier = nxt

    if xi == 0.5:
        geo_half = _GeomBuffer(0.5, rng)
        spine = 0
        for depth in range(r):
            c = geo_half.take() + geo_half.take() - 1
            keep = int(rng.integers(c))
            for i in range(c):
                children.append([])
                idx = len(children) - 1
                children[spine].append(idx)
                if i == keep:
                    nxt_spine = idx
                else:
                    grow_doomed(idx, r - depth - 1, geo_half)
            spine = nxt_spine
        return _preorder_tree(children)

    q = xi / (1.0 - xi)
    geo_surv = _GeomBuffer(q, rng)
    geo_doom = _GeomBuffer(1.0 - xi, rng)
    surviving = [0]
    for depth in range(r):
        nxt = []
        for node in surviving:
            j = geo_surv.take()
            # j surviving children, doomed ones fill the j+1 gaps
            for gap in range(j + 1):
                for _ in range(geo_doom.take() - 1):
                    children.append([])
                    idx = len(children) - 1
                    children[node].append(idx)
                    grow_doomed(idx, r - depth - 1, geo_doom)
                if gap < j:
                    children.append([])
                    idx = len(children) - 1
                    children[node].append(idx)
                    nxt.append(idx)
        surviving = nxt
    return _preorder_tree(children)


def ball_probability_kd(xi: float, k: int, d: int) -> float:
    """P(ball of the survival-conditioned tree = t) for any candidate tree
    with k edges and d vertices at maximal height; depends on t only
    through (k, d)."""
    _check_xi(xi, allow_critical=True)
    if d < 1 or k < d:
        raise ValueError(f"need 1 <= d <= k, got k={k}, d={d}")
    if xi == 0.5:
        return 0.25 ** (k + 1 - d) * d * 0.5 ** (d - 1)
    core = (xi * (1.0 - xi)) ** (k + 1 - d)
    return core * ((1.0 - xi) ** d - xi ** d) / (1.0 - 2.0 * xi)


def ball_probability(xi: float, tree: PlaneTree) -> float:
    """P(radius-height(t) ball of the survival-conditioned tree equals t).

    The tree must have height >= 1; the radius is its height (the
    conditioned tree is infinite, so its balls always reach full radius).
    """
    r = tree.height()
    if r < 1:
        raise ValueError("ball law needs a tree of height >= 1")
    return ball_probability_kd(xi, tree.n_edges, tree.count_at_height(r))


def gw_ball_probability(xi: float, tree: PlaneTree, r: int) -> float:
    """P(B_r(T(xi)) = t) for the unconditioned tree: (1-xi)^k xi^(k+1-d)
    with d the number of vertices at height exactly r (0 if t is shorter)."""
    _check_xi(xi, allow_critical=True)
    if r < 1:
        raise ValueError("radius must be >= 1")
    if tree.height() > r:
        return 0.0
    d = tree.count_at_height(r)
    k = tree.n_edges
    return (1.0 - xi) ** k * xi ** (k + 1 - d)


def inf_ball_generation_sizes(xi: float, r: int, rng: np.random.Generator) -> np.ndarray:
    """Generation sizes Z_0..Z_r of the survival-conditioned tree, drawn
    exactly but in aggregate, without materializing vertices.

    Sums of i.i.d. geometric offspring collapse into negative binomial
    draws, so one sample costs O(r) regardless of how large the
    generations get (they grow like (1/p_die)^h for xi < 1/2).
    """
    _check_xi(xi, allow_critical=True)
    if r < 0:
        raise ValueError("radius must be >= 0")
    if xi == 0.5:
        # spine + critical bushes; spine offspring is size-biased
        b = 0  # non-spine vertices in the current generation
        sizes = [1]
        for _ in range(r):
            c = int(rng.geometric(0.5)) + int(rng.geometric(0.5)) - 1
            b = (c - 1) + int(rng.negative_binomial(b, 0.5)) if b > 0 else c - 1
            sizes.append(b + 1)
        return np.array(sizes, dtype=np.int64)
    q = xi / (1.0 - xi)
    s = 1  # surviving vertices at the current height
    d = 0  # doomed vertices at the current height
    sizes = [1]
    for _ in range(r):
        s_next = s + int(rng.negative_binomial(s, q))
        d_next = int(rng.negative_binomial(s + s_next + d, 1.0 - xi))
        s, d = s_next, d_next
        sizes.append(s + d)
    return np.array(sizes, dtype=np.int64)
