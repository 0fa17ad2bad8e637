"""Rotation systems, rooted multigraphs, Euler genus, and metric balls.

A map with n edges lives on 2n darts.  ``alpha`` swaps the two darts
of each edge and ``sigma`` rotates the darts counterclockwise around
their vertex.  Faces are the cycles of sigma composed after alpha, and
the Euler relation v - n + f = 2 - 2g gives the genus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .trees import PlaneTree


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
        owner = [0] * len(self.sigma)
        for vid, cyc in enumerate(self.vertex_cycles()):
            for d in cyc:
                owner[d] = vid
        return owner

    def root_degree(self) -> int:
        """Degree of the root vertex, i.e. number of darts around it."""
        owner = self.vertex_of_dart()
        rv = owner[self.root_dart]
        return sum(1 for d in range(len(self.sigma)) if owner[d] == rv)

    def underlying_graph(self) -> "RootedGraph":
        owner = self.vertex_of_dart()
        nv = max(owner) + 1
        # edges are the alpha orbits, numbered by their smaller dart
        edge_of_dart = [-1] * len(self.alpha)
        edges = []
        for d, a in enumerate(self.alpha):
            if d < a:
                edge_of_dart[d] = edge_of_dart[a] = len(edges)
                edges.append((owner[d], owner[a]))
        root_vertex = owner[self.root_dart]
        root_edge = edge_of_dart[self.root_dart]
        # orient the root edge away from the root vertex
        u, v = edges[root_edge]
        if u != root_vertex:
            edges[root_edge] = (v, u)
        return RootedGraph(nv, tuple(edges), root_vertex, root_edge)


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

    def degree(self, v: int) -> int:
        """Edge endpoints at v; a loop contributes 2."""
        return sum((u == v) + (w == v) for u, w in self.edges)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """adj[v] = list of (neighbor, edge index); loops appear twice."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_vertices)]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        return adj

    def distances(self, max_r: Optional[int] = None) -> list[int]:
        """BFS distance from the root vertex; -1 beyond max_r or unreachable."""
        dist = [-1] * self.n_vertices
        dist[self.root_vertex] = 0
        frontier = [self.root_vertex]
        adj = self.adjacency()
        r = 0
        while frontier and (max_r is None or r < max_r):
            r += 1
            nxt = []
            for u in frontier:
                for w, _ in adj[u]:
                    if dist[w] == -1:
                        dist[w] = r
                        nxt.append(w)
            frontier = nxt
        return dist

    def is_tree(self) -> bool:
        if len(self.edges) != self.n_vertices - 1:
            return False
        return sum(1 for d in self.distances() if d >= 0) == self.n_vertices

    @staticmethod
    def from_json(text: str) -> "RootedGraph":
        obj = json.loads(text)
        return RootedGraph(
            obj["v"],
            tuple((u, v) for u, v in obj["edges"]),
            obj["root_vertex"],
            obj["root_edge"],
        )


def ball_with_vertices(graph: RootedGraph, r: int) -> tuple[RootedGraph, list[int]]:
    """Ball of radius r plus the list of original vertex ids retained.

    Keeps vertices at distance <= r and edges with at least one endpoint
    at distance <= r-1, so edges joining two vertices both at distance
    exactly r are dropped (as are loops on the boundary).  Retained
    vertices are renumbered in increasing original order, which makes
    ball(ball(G, r'), r) == ball(G, r) for r <= r'.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    dist = graph.distances(max_r=r)
    keep = [v for v in range(graph.n_vertices) if dist[v] >= 0]
    relabel = {v: i for i, v in enumerate(keep)}
    edges = []
    root_edge = None
    for i, (u, v) in enumerate(graph.edges):
        if dist[u] == -1 or dist[v] == -1:
            continue
        if min(dist[u], dist[v]) > r - 1:
            continue
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
    if not graph.is_tree():
        raise ValueError("graph is not a tree")
    adj = graph.adjacency()
    n = graph.n_vertices
    parent = [-2] * n
    parent[graph.root_vertex] = -1
    order = [graph.root_vertex]
    for u in order:
        for w, _ in adj[u]:
            if parent[w] == -2:
                parent[w] = u
                order.append(w)
    codes = [""] * n
    for u in reversed(order):
        parts = sorted("(" + codes[w] + ")" for w, _ in adj[u] if parent[w] == u)
        codes[u] = "".join(parts)
    return codes[graph.root_vertex]


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
    owner = m.vertex_of_dart()
    graph = m.underlying_graph()
    dist = graph.distances(max_r=r)
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
    for cyc in m.vertex_cycles():
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
    sigma = m.sigma
    alpha = m.alpha
    out: list[str] = []

    def explore(arrival: int, depth: int) -> None:
        # exits are the rotation at the current vertex starting after the
        # arrival dart; skipping the arrival itself bans the reversal
        if depth == r:
            return
        e = sigma[arrival]
        while e != arrival:
            out.append("(")
            explore(alpha[e], depth + 1)
            out.append(")")
            e = sigma[e]

    if r == 0:
        return ""
    # the root vertex has no arrival direction: every dart is an exit,
    # in rotation order starting at the root dart
    e = m.root_dart
    first = True
    while first or e != m.root_dart:
        first = False
        out.append("(")
        explore(alpha[e], 1)
        out.append(")")
        e = sigma[e]
    return "".join(out)
