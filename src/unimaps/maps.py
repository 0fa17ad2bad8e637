"""Rotation systems, rooted multigraphs, Euler genus, and metric balls.

A map with n edges lives on 2n darts.  ``alpha`` swaps the two darts
of each edge and ``sigma`` rotates the darts counterclockwise around
their vertex.  Faces are the cycles of sigma composed after alpha, and
the Euler relation v - n + f = 2 - 2g gives the genus.  The balls of a
rooted multigraph are read off root_distances, one numpy pass per level
over its edge arrays.
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

    @property
    def n_edges(self) -> int:
        return len(self.alpha) // 2

    def vertex_cycles(self) -> list[tuple[int, ...]]:
        return Permutation(self.sigma).cycles()

    def faces_and_genus(self) -> tuple[int, int]:
        return faces_and_genus(self.alpha, self.sigma)

    def vertex_of_dart(self) -> list[int]:
        """Vertex id (index of its sigma-cycle, ordered by minimum dart)
        for every dart."""
        return _owner_of(self.vertex_cycles(), len(self.sigma))

    def root_degree(self) -> int:
        """Degree of the root vertex, i.e. number of darts around it."""
        owner = self.vertex_of_dart()
        rv = owner[self.root_dart]
        return sum(1 for d in range(len(self.sigma)) if owner[d] == rv)


def _owner_of(cycles: list[tuple[int, ...]], n_darts: int) -> list[int]:
    """Index in cycles of the cycle through each dart."""
    owner = [0] * n_darts
    for vid, cyc in enumerate(cycles):
        for d in cyc:
            owner[d] = vid
    return owner


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


def rotation_ball_code(m: RotationMap, r: int) -> tuple[bool, Optional[str]]:
    """Ball of radius r in a rotation map, compared as a plane structure.

    Returns (is_tree, code): when the ball is a tree, ``code`` is its
    balanced-parenthesis contour code read from the restricted rotation,
    rooted at the map's root dart.  Non-tree balls get (False, None);
    canonical codes for those are out of scope.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    if r == 0:
        return True, ""
    # BFS over darts, kept apart from root_distances, which this checks:
    # a vertex is a sigma cycle and alpha leads to the next vertex
    cycles = m.vertex_cycles()
    owner = _owner_of(cycles, len(m.sigma))
    dist = [-1] * len(cycles)
    dist[owner[m.root_dart]] = 0
    queue = [owner[m.root_dart]]
    for v in queue:
        if dist[v] == r:
            break
        for d in cycles[v]:
            w = owner[m.alpha[d]]
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    # edges are the alpha orbits; one is kept when an endpoint is strictly
    # inside the ball
    nd = len(m.alpha)
    edge_id = [-1] * nd
    kept_dart = [False] * nd
    n_ball_edges = 0
    n_edges_seen = 0
    for d in range(nd):
        if d < m.alpha[d]:
            a = m.alpha[d]
            edge_id[d] = edge_id[a] = n_edges_seen
            n_edges_seen += 1
            du, dv = dist[owner[d]], dist[owner[a]]
            if du == -1 or dv == -1:
                continue
            if min(du, dv) <= r - 1:
                kept_dart[d] = kept_dart[a] = True
                n_ball_edges += 1
    n_ball_vertices = sum(1 for d in dist if d >= 0)
    if n_ball_edges != n_ball_vertices - 1:
        return False, None
    # restrict sigma to kept darts within each vertex cycle
    sigma_ball = {}
    for cyc in cycles:
        kept = [d for d in cyc if kept_dart[d]]
        for j, d in enumerate(kept):
            sigma_ball[d] = kept[(j + 1) % len(kept)]
    # contour of the restricted map, "(" on first visit of an edge
    out = []
    seen_edge = set()
    d = m.root_dart
    for _ in range(2 * n_ball_edges):
        e = edge_id[d]
        if e in seen_edge:
            out.append(")")
        else:
            seen_edge.add(e)
            out.append("(")
        d = sigma_ball[m.alpha[d]]
    if d != m.root_dart:
        raise AssertionError("restricted contour did not close")
    return True, "".join(out)


def unfolding_ball_code(m: RotationMap, r: int) -> str:
    """Depth-r non-backtracking exploration tree of a rotation map.

    Walks outward from the root for r steps, never immediately reversing
    an edge, and records the branching it sees as a plane code.  A vertex
    reached twice appears once per arrival, so a loop or a pair of
    parallel edges unfolds into distinct subtrees instead of closing a
    cycle.  This is the radius-r view for which replacing the explored
    region by a star of its boundary edges is exactly invertible; the
    plain subgraph ball of rotation_ball_code loses that property as soon
    as the neighborhood of the root carries a loop or a multiple edge.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    if r == 0:
        return ""
    sigma = m.sigma
    alpha = m.alpha
    degree = [0] * len(sigma)  # per dart, filled for a vertex when first read
    out: list[str] = []

    def degree_at(dart: int) -> int:
        if not degree[dart]:
            cycle = [dart]
            e = sigma[dart]
            while e != dart:
                cycle.append(e)
                e = sigma[e]
            for d in cycle:
                degree[d] = len(cycle)
        return degree[dart]

    def explore(arrival: int, depth: int) -> None:
        # exits are the rotation at the current vertex starting after the
        # arrival dart; skipping the arrival itself bans the reversal.  At
        # depth r - 1 every exit is a leaf, so only their number matters.
        if depth == r - 1:
            out.append("()" * (degree_at(arrival) - 1))
            return
        e = sigma[arrival]
        while e != arrival:
            out.append("(")
            explore(alpha[e], depth + 1)
            out.append(")")
            e = sigma[e]

    # the root vertex has no arrival direction: every dart is an exit,
    # in rotation order starting at the root dart
    if r == 1:
        return "()" * degree_at(m.root_dart)
    e = m.root_dart
    first = True
    while first or e != m.root_dart:
        first = False
        out.append("(")
        explore(alpha[e], 1)
        out.append(")")
        e = sigma[e]
    return "".join(out)
