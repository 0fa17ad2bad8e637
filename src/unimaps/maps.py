"""Rotation systems, rooted multigraphs, Euler genus, and metric balls.

A map with n edges lives on 2n darts.  ``alpha`` swaps the two darts
of each edge and ``sigma`` rotates the darts counterclockwise around
their vertex.  Faces are the cycles of sigma composed after alpha, and
the Euler relation v - n + f = 2 - 2g gives the genus.  The balls of a
rooted multigraph are read off root_distances, one numpy pass per level
over its edge arrays.  The balls of a rotation map are read by one
non-backtracking walk from its root dart (_ball_counts): unfolding_ball_code
gives the exploration tree, and rotation_ball_code the subgraph ball, which
is that tree exactly when the walk reaches no vertex twice.  The walk
returns the tree's preorder child counts, a key that _counts_code decodes
and _tree_counts gives for a PlaneTree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .trees import PlaneTree, parent_unordered_code


@dataclass(frozen=True)
class Permutation:
    """Permutation of 0..m-1 stored by its image tuple."""

    image: tuple[int, ...]

    def __post_init__(self):
        m = len(self.image)
        if sorted(self.image) != list(range(m)):
            raise ValueError("not a permutation")

    @property
    def size(self) -> int:
        return len(self.image)

    def __len__(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i]

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, each cycle starting at its minimum element,
        cycles sorted by that minimum."""
        seen = [False] * self.size
        out = []
        for start in range(self.size):
            if seen[start]:
                continue
            cyc = []
            j = start
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self.image[j]
            out.append(tuple(cyc))
        return out


@dataclass(frozen=True)
class RotationMap:
    """Map given by the edge involution ``alpha`` and rotation ``sigma``
    on darts 0..2n-1, rooted at ``root_dart``."""

    alpha: tuple[int, ...]
    sigma: tuple[int, ...]
    root_dart: int

    def __post_init__(self):
        nd = len(self.alpha)
        if nd == 0 or nd % 2 != 0 or len(self.sigma) != nd:
            raise ValueError("alpha and sigma must act on an even number of darts")
        if sorted(self.sigma) != list(range(nd)):
            raise ValueError("sigma is not a permutation")
        for d, a in enumerate(self.alpha):
            if a == d or not (0 <= a < nd) or self.alpha[a] != d:
                raise ValueError("alpha must be a fixed-point-free involution")
        if not (0 <= self.root_dart < nd):
            raise ValueError("root_dart out of range")

    def root_degree(self) -> int:
        """Degree of the root vertex, i.e. number of darts around it."""
        return _vertices(self.sigma)[1][self.root_dart]


def faces_and_genus(alpha, sigma) -> tuple[int, int]:
    """Face count and genus of the map (alpha, sigma).

    Faces are the cycles of d -> sigma(alpha(d)); the genus comes from
    v - n + f = 2 - 2g and is checked to be a nonnegative integer.
    """
    nd = len(alpha)
    if nd % 2 != 0 or len(sigma) != nd:
        raise ValueError("dart arrays must have equal even length")
    phi = [sigma[a] for a in alpha]
    f = len(Permutation(tuple(phi)).cycles())
    v = len(Permutation(tuple(sigma)).cycles())
    n = nd // 2
    twog = 2 - v + n - f
    if twog < 0 or twog % 2 != 0:
        raise ValueError("inconsistent rotation system")
    return f, twog // 2


@dataclass(frozen=True)
class RootedGraph:
    """Multigraph with a root vertex and an oriented root edge.

    ``edges`` may repeat pairs (multi-edges) and contain loops.  The root
    edge, when present, is stored with the root vertex first.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    root_vertex: int
    root_edge: Optional[int]

    def __post_init__(self):
        if not (0 <= self.root_vertex < self.n_vertices):
            raise ValueError("root_vertex out of range")
        for u, v in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError("edge endpoint out of range")
        if self.root_edge is not None:
            if not (0 <= self.root_edge < len(self.edges)):
                raise ValueError("root_edge out of range")
            if self.edges[self.root_edge][0] != self.root_vertex:
                raise ValueError("root edge must originate at the root vertex")
        elif self.edges:
            raise ValueError("root_edge required when edges exist")

    @cached_property
    def _ends(self) -> tuple[np.ndarray, np.ndarray]:
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        return ends[:, 0], ends[:, 1]

    def _distances(self, r: int) -> np.ndarray:
        return root_distances(self.n_vertices, *self._ends, self.root_vertex, r)

    def is_tree(self) -> bool:
        if len(self.edges) != self.n_vertices - 1:
            return False
        return bool(np.all(self._distances(self.n_vertices) < self.n_vertices))


def root_distances(n_vertices: int, src: np.ndarray, dst: np.ndarray, root: int,
                   r: int) -> np.ndarray:
    """Distance from root of every vertex of the multigraph with edges
    (src[i], dst[i]) on vertices 0..n_vertices-1, out to radius r.

    This is the one ball implementation: the radius-r ball is the vertices
    with dist <= r and the edges with an end at dist < r, so an edge
    joining two vertices at distance exactly r is not in it, nor is a
    loop on the boundary.  Every vertex farther than r gets r + 1.  No
    ball grows past radius n_vertices - 1, so r must lie in
    0..n_vertices: callers clip a larger radius first and compare with
    the clipped one.  One numpy pass per level gathers the frontier's
    edge ends; it stops at radius r or at an empty level, so a whole
    component costs O((V + E) * depth), fine for the small graphs of
    tests and checks.
    """
    if not 0 <= r <= n_vertices:
        raise ValueError("radius must be in 0..n_vertices")
    dist = np.full(n_vertices, r + 1, dtype=np.int64)
    dist[root] = 0
    frontier = np.zeros(n_vertices, dtype=bool)
    frontier[root] = True
    for level in range(1, r + 1):
        reached = np.zeros(n_vertices, dtype=bool)
        reached[dst[frontier[src]]] = True
        reached[src[frontier[dst]]] = True
        reached &= dist > r
        if not reached.any():
            break
        dist[reached] = level
        frontier = reached
    return dist


def tree_ball_code(dist: np.ndarray, src: np.ndarray, dst: np.ndarray, r: int) -> str:
    """Unordered code of the radius-r ball of root_distances when that
    ball is a tree.

    Then its edges join each non-root vertex to its parent one level up,
    and numbering the vertices by distance (breadth-first order) numbers
    every parent before its children.
    """
    ball = np.flatnonzero(dist <= r)
    rank = np.empty_like(dist)
    rank[ball[np.argsort(dist[ball], kind="stable")]] = np.arange(len(ball))
    inner = np.minimum(dist[src], dist[dst]) < r
    src, dst = src[inner], dst[inner]
    deeper = dist[src] > dist[dst]
    parent = np.full(len(src) + 1, -1, dtype=np.int64)
    parent[rank[np.where(deeper, src, dst)]] = rank[np.where(deeper, dst, src)]
    return parent_unordered_code(parent.tolist())


def ball_with_vertices(graph: RootedGraph, r: int) -> tuple[RootedGraph, list[int]]:
    """Ball of radius r plus the list of original vertex ids retained.

    Keeps vertices at distance <= r and edges with at least one endpoint
    at distance <= r-1, so edges joining two vertices both at distance
    exactly r are dropped (as are loops on the boundary).  Retained
    vertices are renumbered in increasing original order and edges keep
    their original order, which makes ball(ball(G, r'), r) == ball(G, r)
    for r <= r'.
    """
    r = min(r, graph.n_vertices)
    dist = graph._distances(r)
    src, dst = graph._ends
    keep = np.flatnonzero(dist <= r)
    relabel = np.zeros(graph.n_vertices, dtype=np.int64)
    relabel[keep] = np.arange(len(keep))
    inner = np.flatnonzero(np.minimum(dist[src], dist[dst]) < r)
    edges = tuple(zip(relabel[src[inner]].tolist(), relabel[dst[inner]].tolist()))
    # the root edge leaves the root, so every ball but radius 0 holds it
    root_edge = int(np.count_nonzero(inner < graph.root_edge)) if edges else None
    return (
        RootedGraph(len(keep), edges, int(relabel[graph.root_vertex]), root_edge),
        keep.tolist(),
    )


def graph_tree_unordered_code(graph: RootedGraph) -> str:
    """Canonical unordered code of a rooted graph that is a tree.

    Raises ValueError when the graph is not a tree.
    """
    if not graph.is_tree():
        raise ValueError("graph is not a tree")
    return tree_ball_code(graph._distances(graph.n_vertices), *graph._ends,
                          graph.n_vertices)


def plane_tree_to_map(tree: PlaneTree) -> RotationMap:
    """Embed a plane tree as a genus-0 one-face map.

    Edges are numbered in preorder (edge i joins vertex i+1 to its
    parent); dart 2i points down the tree and 2i+1 points up.  The face
    contour visits darts in depth-first order, the root dart is the edge
    to the first child, and reading the contour back yields plane_code.
    """
    n = tree.n_edges
    if n == 0:
        raise ValueError("the single-vertex tree has no darts to root at")
    contour: list[int] = []
    stack: list[tuple[int, int]] = [(0, 0)]
    while stack:
        v, i = stack.pop()
        if i < len(tree.children[v]):
            stack.append((v, i + 1))
            c = tree.children[v][i]
            contour.append(2 * (c - 1))
            stack.append((c, 0))
        elif v > 0:
            contour.append(2 * (v - 1) + 1)
    phi = [0] * (2 * n)
    for j, d in enumerate(contour):
        phi[d] = contour[(j + 1) % (2 * n)]
    alpha = [d ^ 1 for d in range(2 * n)]
    sigma = tuple(phi[alpha[d]] for d in range(2 * n))
    return RotationMap(tuple(alpha), sigma, 0)


def _vertices(sigma) -> tuple[list[int], list[int]]:
    """Per dart, the least dart of its sigma cycle (its vertex) and the
    cycle's length (that vertex's degree)."""
    vertex, degree = [0] * len(sigma), [0] * len(sigma)
    for cycle in Permutation(tuple(sigma)).cycles():
        for d in cycle:
            vertex[d], degree[d] = cycle[0], len(cycle)
    return vertex, degree


def _ball_counts(alpha, sigma, vertex, degree, root: int, r: int,
                 subgraph: bool) -> Optional[tuple[int, ...]]:
    """Preorder child counts of the depth-r exploration tree from dart
    root, read with the per-dart vertex and degree arrays of _vertices;
    None when subgraph is set and the walk reaches a vertex twice.

    The tree is the non-backtracking walk of length <= r: the root's
    children leave by every dart around it, in rotation order from root,
    and a vertex reached by dart a has one child per later dart of its
    rotation, sigma(a) up to a, exclusive.  Only vertices above depth r
    get a count: the root's degree, then degree - 1 at each later one.
    A vertex reached twice appears once per arrival, so loops and
    parallel edges unfold into distinct subtrees, which makes replacing
    the explored region by a star of its boundary edges invertible.

    The subgraph ball is a tree exactly when no vertex recurs, and it is
    then this tree: two walks to one vertex close a cycle of ball edges,
    a ball edge off a breadth-first tree gives a second walk to its far
    end, and with no repeat every exit leads to a child.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    counts: list[int] = []
    seen = set()
    # (arrival dart, depth); the root's entry stands for no arrival
    stack = [(root, 0)]
    while stack:
        dart, depth = stack.pop()
        if subgraph:
            if vertex[dart] in seen:
                return None
            seen.add(vertex[dart])
        if depth == r:
            continue
        e = sigma[dart] if depth else dart
        children = degree[dart] - (depth > 0)
        counts.append(children)
        if subgraph or depth + 2 < r:
            arrivals = []
            for _ in range(children):
                arrivals.append(alpha[e])
                e = sigma[e]
            stack.extend((a, depth + 1) for a in reversed(arrivals))
        elif depth + 2 == r:
            # children one step short of r have only leaves below them
            for _ in range(children):
                counts.append(degree[alpha[e]] - 1)
                e = sigma[e]
    return tuple(counts)


def _tree_counts(tree: PlaneTree, r: int) -> tuple[int, ...]:
    """The _ball_counts key of a plane tree of height <= r."""
    return tuple(len(cs) for cs, h in zip(tree.children, tree.heights()) if h < r)


def _counts_code(counts, r: int) -> str:
    """Plane code of the tree of a _ball_counts key at radius r."""
    rest = iter(counts)
    code: list[str] = []
    # children still to open at each vertex of the current path; a vertex
    # at depth r has no count and no children
    pending = [next(rest)] if r else []
    while pending:
        if pending[-1]:
            pending[-1] -= 1
            code.append("(")
            pending.append(next(rest) if len(pending) < r else 0)
        else:
            pending.pop()
            code.append(")")
    # the root closes no edge
    return "".join(code[:-1])


def rotation_ball_code(m: RotationMap, r: int) -> tuple[bool, Optional[str]]:
    """Ball of radius r in a rotation map, compared as a plane structure.

    Returns (is_tree, code): ``code`` is the tree ball's contour code in
    rotation order from the root dart, and non-tree balls get
    (False, None).  A tree ball is the exploration tree of
    unfolding_ball_code (see _ball_counts).
    """
    counts = _ball_counts(m.alpha, m.sigma, *_vertices(m.sigma), m.root_dart, r, True)
    return (False, None) if counts is None else (True, _counts_code(counts, r))


def unfolding_ball_code(m: RotationMap, r: int) -> str:
    """Depth-r non-backtracking exploration tree of a rotation map as a
    plane code.  Unlike the subgraph ball of rotation_ball_code it stays
    a tree through loops and multiple edges (see _ball_counts)."""
    counts = _ball_counts(m.alpha, m.sigma, *_vertices(m.sigma), m.root_dart, r, False)
    return _counts_code(counts, r)
