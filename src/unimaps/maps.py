"""Rotation systems, rooted multigraphs, Euler genus, and metric balls.

A map with n edges lives on 2n darts.  ``alpha`` swaps the two darts
of each edge and ``sigma`` rotates the darts counterclockwise around
their vertex.  Faces are the cycles of sigma composed after alpha, and
the Euler relation v - n + f = 2 - 2g gives the genus.
"""

from __future__ import annotations

import json
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

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths in decreasing order."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def fixed_points(self) -> list[int]:
        return [i for i, j in enumerate(self.image) if i == j]

    def has_all_odd_cycles(self) -> bool:
        return all(len(c) % 2 == 1 for c in self.cycles())


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
    def adjacency(self) -> "Adjacency":
        return Adjacency.build(self.n_vertices, [u for u, _ in self.edges],
                               [v for _, v in self.edges])

    def _component(self) -> "Ball":
        return self.adjacency.ball(self.root_vertex, self.n_vertices)

    def is_tree(self) -> bool:
        if len(self.edges) != self.n_vertices - 1:
            return False
        return len(self._component().vertices) == self.n_vertices

    @staticmethod
    def from_json(text: str) -> "RootedGraph":
        obj = json.loads(text)
        return RootedGraph(
            obj["v"],
            tuple((u, v) for u, v in obj["edges"]),
            obj["root_vertex"],
            obj["root_edge"],
        )


class Ball:
    """The vertices within distance r of a root, as a bounded BFS finds them.

    vertices is in BFS order, root first, so distances never decrease
    along it; dist and parent are aligned with it, parent holding the
    position in vertices of the vertex that discovered each one (-1 at the
    root).  edges holds the sorted ids of the edges with an endpoint at
    distance <= r-1, which are the ball's edges: an edge joining two
    vertices at distance exactly r is not, nor is a loop on the boundary.
    The ball is connected, so it is a tree iff it has one edge fewer than
    vertices, and then parent is that tree.
    """

    __slots__ = ("vertices", "dist", "parent", "edges")

    def __init__(self, vertices: list[int], dist: list[int], parent: list[int],
                 edges: list[int]):
        self.vertices, self.dist, self.parent, self.edges = vertices, dist, parent, edges

    @property
    def is_tree(self) -> bool:
        return len(self.edges) == len(self.vertices) - 1

    @property
    def height(self) -> int:
        return self.dist[-1]


class Adjacency:
    """Compressed adjacency of a multigraph on vertices 0..n-1.

    The edge ends at v are the entries start[v]:start[v+1] of nbr (the
    other endpoint) and eid (the edge index); a loop sits at its vertex
    twice.  This is the one ball implementation: RootedGraph trees and
    balls and the sampler's balls all run ball().
    """

    __slots__ = ("start", "nbr", "eid")

    def __init__(self, start: np.ndarray, nbr: np.ndarray, eid: np.ndarray):
        self.start, self.nbr, self.eid = start, nbr, eid

    @classmethod
    def build(cls, n_vertices: int, src, dst) -> "Adjacency":
        """Adjacency of the edges (src[i], dst[i]), i = 0, 1, ..."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        ends = np.concatenate((src, dst))
        # the narrow dtype lets numpy use a radix sort
        order = np.argsort(ends.astype(np.min_scalar_type(n_vertices)), kind="stable")
        start = np.zeros(n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=n_vertices), out=start[1:])
        nbr = np.concatenate((dst, src))[order]
        eid = np.tile(np.arange(len(src), dtype=np.int64), 2)[order]
        return cls(start, nbr, eid)

    def ball(self, root: int, r: int) -> Ball:
        """Bounded BFS from root that visits only the ball of radius r."""
        if r < 0:
            raise ValueError("radius must be >= 0")
        start, nbr, eid = self.start, self.nbr, self.eid
        vertices, dist, parent = [int(root)], [0], [-1]
        seen = {vertices[0]}
        edges: set[int] = set()
        i = 0
        while i < len(vertices) and dist[i] < r:
            u, du = vertices[i], dist[i] + 1
            lo, hi = start[u], start[u + 1]
            edges.update(eid[lo:hi].tolist())
            for w in nbr[lo:hi].tolist():
                if w not in seen:
                    seen.add(w)
                    vertices.append(w)
                    dist.append(du)
                    parent.append(i)
            i += 1
        return Ball(vertices, dist, parent, sorted(edges))


def ball_with_vertices(graph: RootedGraph, r: int) -> tuple[RootedGraph, list[int]]:
    """Ball of radius r plus the list of original vertex ids retained.

    Keeps vertices at distance <= r and edges with at least one endpoint
    at distance <= r-1, so edges joining two vertices both at distance
    exactly r are dropped (as are loops on the boundary).  Retained
    vertices are renumbered in increasing original order and edges keep
    their original order, which makes ball(ball(G, r'), r) == ball(G, r)
    for r <= r'.
    """
    ball = graph.adjacency.ball(graph.root_vertex, r)
    keep = sorted(ball.vertices)
    relabel = {v: i for i, v in enumerate(keep)}
    edges = []
    root_edge = None
    for i in ball.edges:
        u, v = graph.edges[i]
        if i == graph.root_edge:
            root_edge = len(edges)
        edges.append((relabel[u], relabel[v]))
    return (
        RootedGraph(len(keep), tuple(edges), relabel[graph.root_vertex], root_edge),
        keep,
    )


def graph_tree_unordered_code(graph: RootedGraph) -> str:
    """Canonical unordered code of a rooted graph that is a tree.

    Raises ValueError when the graph is not a tree.
    """
    ball = graph._component()
    if len(ball.vertices) != graph.n_vertices or not ball.is_tree:
        raise ValueError("graph is not a tree")
    return parent_unordered_code(ball.parent)


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
    # BFS over darts, kept apart from Adjacency.ball, which this checks:
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
