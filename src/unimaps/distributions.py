"""Limit laws for the map ensemble: the odd-length law X, its size-biased
version, the limiting root-degree law, and geometric branching trees with
their survival conditioning.

The branching tree T(xi) has offspring law P(c = j) = xi * (1 - xi)^j on
j >= 0.  For xi < 1/2 it is supercritical with extinction probability
xi / (1 - xi).  The survival-conditioned tree splits every vertex into
"surviving" (at least one surviving child, forever) and "free" (its
subtree dies out); both offspring laws follow from the h-transform and
are locked in by tests against the closed-form ball law.

Both ball samplers use one gap rule and return the ball as a Dyck word
(int8 steps +1/-1, as in `trees`).  A vertex with j surviving children
has j + 1 gaps; each gap holds Geometric(p) - 1 free children, and the j
surviving children separate the gaps.  A surviving vertex draws
j ~ Geometric(q) with q = xi / (1 - xi), a free vertex has j = 0.  The
conditioned tree starts from a surviving root with p = 1 - xi; T(xi)
itself starts from a free root with p = xi.

At criticality xi = 1/2 the same rule is the spine construction: q = 1
gives exactly one surviving child, and given G1 + G2 - 1 children, with
G1, G2 the two gaps plus one, the survivor's position G1 is uniform,
which is the size-biased spine vertex with a uniform continuation.

Every sampler here draws a batch: size is required and the result is an
array.  `XBetaLaw.sample(rng, size)` returns size odd values.  The ball
samplers draw size independent balls in one call and return them as one
forest word: the Dyck word of a tree whose root has the balls as its
subtrees, in draw order.  Every generation of all the balls costs one
batch of numpy calls, so the fixed cost per call is shared.
`trees.dyck_forest_codes` splits the word, and cumsum over it gives
every ball's depths at once.  Its memory grows with the vertex count,
which spans orders of magnitude across xi and r, so the commands draw
no vertices: a ball's law depends only on its edge count
k = Z_1 + ... + Z_r and its depth-r vertex count d = Z_r, and
`inf_ball_generations` streams the sizes Z_0..Z_r one generation at a
time, in blocks of at most GENERATION_ROWS draws, so memory is O(rows).
A block costs 2r numpy calls, so a radius of 2^16 or more is refused at
once; sizes are int64, so is one whose mean ball (`inf_ball_mean_size`)
exceeds MAX_MEAN_BALL_SIZE = 2^60 vertices.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .asymptotics import solve_beta_theta
from .trees import PlaneTree

__all__ = [
    "XBetaLaw",
    "x_beta_pmf",
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
    "inf_ball_generations",
    "inf_ball_mean_size",
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

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw size odd values exactly, with no table, for any beta < 1.

        beta^k / k is the integral of t^(k-1) over [0, beta], so X is a
        mixture: T has density proportional to 1 / (1 - t^2) on [0, beta],
        drawn as tanh(U * Z), and given T = t, X = 2G - 1 with G geometric
        of success probability 1 - t^2, which puts mass proportional to
        t^(k-1) on each odd k.
        """
        if self.beta == 0.0:
            return np.ones(size, dtype=np.int64)
        # the clip keeps 1 - t^2 positive where tanh rounds up to 1
        t = np.minimum(np.tanh(rng.random(size) * self.z_beta), self.beta)
        return (2 * rng.geometric((1.0 - t) * (1.0 + t)) - 1).astype(np.int64)


def x_beta_pmf(beta: float, value: int) -> float:
    """P(X = value) for the odd-length law; 0 on even or nonpositive input."""
    _check_beta(beta)
    return XBetaLaw(beta).pmf(value)


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


def _ball_word(r: int, p: float, q: float | None, rng: np.random.Generator,
               size: int) -> np.ndarray:
    """Height-r balls of a branching tree grown by the gap rule of the
    module docstring, one generation per batch of draws for all of them.

    The balls grow side by side as a forest: the word starts as "()" once
    per ball and is the Dyck word of a tree whose root has the balls as
    its subtrees, in draw order.  q None starts from free roots, so no
    vertex survives.  Each generation's children enter the word as "()"
    pairs right after their parent's up-step, which keeps the word in
    preorder.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    roots = int(size)
    if roots < 0:
        raise ValueError("size must be >= 0")
    word = np.tile(np.array([1, -1], dtype=np.int8), roots)
    pos = 2 * np.arange(roots)  # up-step of each vertex of the generation
    surviving = np.full(roots, q is not None)
    for _ in range(r):
        if pos.size == 0:
            break
        gaps = np.ones(pos.size, dtype=np.int64)
        if q is not None:
            gaps[surviving] += rng.geometric(q, size=int(np.count_nonzero(surviving)))
        last_gap = np.cumsum(gaps) - 1
        sep = np.ones(last_gap[-1] + 1, dtype=bool)
        sep[last_gap] = False  # a surviving child follows every gap but the last
        slots = np.cumsum(rng.geometric(p, size=sep.size) - 1 + sep)
        n_children = slots[last_gap]
        n_children[1:] -= n_children[:-1]
        # children of earlier vertices precede these in the word, two steps each
        pos = np.repeat(pos, n_children) + 1 + 2 * np.arange(slots[-1])
        # the old steps fill the other places, in order
        grown = np.full(word.size + 2 * pos.size, -1, dtype=np.int8)
        old = np.ones(grown.size, dtype=bool)
        old[pos] = old[pos + 1] = False
        grown[old] = word
        grown[pos] = 1
        word = grown
        if q is not None:
            surviving = np.zeros(pos.size, dtype=bool)
            surviving[slots[sep] - 1] = True
    return word


def gw_ball_sample(xi: float, r: int, rng: np.random.Generator,
                   size: int) -> np.ndarray:
    """Forest word of size independent height-r truncations of the
    unconditioned tree T(xi) (see _ball_word).

    Every vertex is free: one gap of Geometric(xi) - 1 children.  The tree
    may be infinite (xi < 1/2 is supercritical) but the truncation is
    always finite.
    """
    _check_xi(xi, allow_critical=False)
    return _ball_word(r, xi, None, rng, size)


def gw_inf_ball_sample(xi: float, r: int, rng: np.random.Generator,
                       size: int) -> np.ndarray:
    """Forest word of size independent radius-r balls of the
    survival-conditioned tree, each a subtree of the word's root, drawn
    exactly by the gap rule from a surviving root with p = 1 - xi and
    q = xi / (1 - xi).

    At xi = 1/2 this is the critical spine construction (see the module
    docstring), so no separate branch is needed.
    """
    _check_xi(xi, allow_critical=True)
    return _ball_word(r, 1.0 - xi, xi / (1.0 - xi), rng, size)


def inf_ball_mean_size(xi: float, r: int) -> float:
    """Expected number of vertices of the radius-r ball of the
    survival-conditioned tree.

    By the gap rule a surviving vertex has on average (1 - xi) / xi
    surviving and 1 / (1 - xi) free children, a free vertex
    xi / (1 - xi) free children.
    """
    _check_xi(xi, allow_critical=True)
    surviving, free, total = 1.0, 0.0, 1.0
    for _ in range(r):
        surviving, free = (surviving * (1.0 - xi) / xi,
                           (surviving + free * xi) / (1.0 - xi))
        total += surviving + free
    return total


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


# 512 KiB of int64 per generation: rows enough to share numpy's call cost
GENERATION_ROWS = 1 << 16
# int64 sizes, and a run's largest draws exceed the mean by orders of magnitude
MAX_MEAN_BALL_SIZE = 2.0 ** 60


def inf_ball_generations(xi: float, r: int, rng: np.random.Generator,
                         samples: int) -> Iterator[tuple[int, np.ndarray]]:
    """Generation sizes of samples independent radius-r balls of the
    survival-conditioned tree, drawn exactly but in aggregate, without
    materializing vertices: (h, Z_h) for h = 0..r, for each block of at
    most GENERATION_ROWS draws in turn (h restarts at 0 with each block).

    Sums of i.i.d. gap counts collapse into negative binomial draws, so a
    generation costs two numpy calls regardless of how large it gets
    (they grow like ((1 - xi) / xi)^h for xi < 1/2).  At xi = 1/2, q = 1
    keeps exactly one surviving vertex per generation.  The arguments are
    checked at once, before any draw.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    if r >= 1 << 16:
        # at xi = 1/2 the mean ball grows only like r^2, so the 2^60 guard
        # below would let r reach 2^30 and one block run for days
        raise ValueError(f"limit-tree radius {r} too large: radii stop below 2^16,"
                         f" since a block of draws takes 2r numpy calls")
    if inf_ball_mean_size(xi, r) > MAX_MEAN_BALL_SIZE:
        raise ValueError(f"limit-tree radius {r} too large: its mean ball exceeds"
                         f" 2^60 vertices, and generation sizes are int64")
    return _generations(xi, r, rng, samples)


def _generations(xi: float, r: int, rng: np.random.Generator,
                 samples: int) -> Iterator[tuple[int, np.ndarray]]:
    q = xi / (1.0 - xi)
    for start in range(0, samples, GENERATION_ROWS):
        s = np.ones(min(GENERATION_ROWS, samples - start), dtype=np.int64)  # surviving
        d = np.zeros_like(s)  # free vertices at this height
        yield 0, s + d
        for h in range(1, r + 1):
            s_next = s + rng.negative_binomial(s, q)
            d = rng.negative_binomial(s + s_next + d, 1.0 - xi)
            s = s_next
            yield h, s + d
