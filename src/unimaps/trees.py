"""Rooted plane trees: parenthesis codes with exact uniform sampling
and height truncation.

A plane tree with n edges is stored as a tuple of children lists, with
vertices numbered 0..n in depth-first (preorder) order so that vertex 0
is the root and every child has a larger id than its parent.  The
balanced-parenthesis code walks the contour: "(" the first time an edge
is traversed, ")" the second time.  A single vertex has the empty code.

The sampler keeps that code as a Dyck word, an int8 array of +1 and -1
steps: its up-steps are a uniform subset of positions cut by the cycle
lemma (sample_dyck_word).  Vertex depths are read off the up-step
positions with no prefix sum (dyck_depths); parents (dyck_parents, one
stable radix sort) and height truncations (dyck_truncation_code) are
read off the depths; a PlaneTree is built from it only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def catalan(n: int) -> int:
    """n-th Catalan number (2n)! / (n! (n+1)!), the number of plane trees
    with n edges.  catalan(0) == 1 counts the single-vertex tree."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class PlaneTree:
    """Rooted plane tree with preorder-numbered vertices.

    children[v] lists the children of v from first to last.  The root is
    vertex 0.  Preorder numbering means children appear in increasing id
    order and every subtree occupies a contiguous id range.
    """

    children: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = 0
        for v, cs in enumerate(self.children):
            for c in cs:
                if not (v < c < len(self.children)):
                    raise ValueError("children must be preorder-numbered")
                seen += 1
        if seen != len(self.children) - 1:
            raise ValueError("not a tree: edge count mismatch")

    @property
    def n_vertices(self) -> int:
        return len(self.children)

    @property
    def n_edges(self) -> int:
        return len(self.children) - 1

    def parents(self) -> list[int]:
        """parent[v] for every non-root vertex; parent[0] == -1."""
        par = [-1] * self.n_vertices
        for v, cs in enumerate(self.children):
            for c in cs:
                par[c] = v
        return par

    def heights(self) -> list[int]:
        """Distance from the root for every vertex (preorder single pass)."""
        h = [0] * self.n_vertices
        for v, cs in enumerate(self.children):
            for c in cs:
                h[c] = h[v] + 1
        return h

    def height(self) -> int:
        return max(self.heights())

    def count_at_height(self, r: int) -> int:
        return sum(1 for h in self.heights() if h == r)

    def truncate(self, r: int) -> "PlaneTree":
        """Subtree of all vertices at height <= r, child order preserved."""
        if r < 0:
            raise ValueError("radius must be >= 0")
        h = self.heights()
        keep = [v for v in range(self.n_vertices) if h[v] <= r]
        relabel = {v: i for i, v in enumerate(keep)}
        new_children = tuple(
            tuple(relabel[c] for c in self.children[v] if h[c] <= r) for v in keep
        )
        return PlaneTree(new_children)

    def degrees(self) -> list[int]:
        """Graph degree of each vertex: children plus one for the parent edge."""
        return [len(cs) + (1 if v > 0 else 0) for v, cs in enumerate(self.children)]


def plane_code(tree: PlaneTree) -> str:
    """Balanced-parenthesis contour code; "" for the single-vertex tree."""
    out = []
    # iterative DFS: (vertex, index of next child to visit)
    stack = [(0, 0)]
    while stack:
        v, i = stack.pop()
        if i < len(tree.children[v]):
            stack.append((v, i + 1))
            out.append("(")
            stack.append((tree.children[v][i], 0))
        elif stack:
            out.append(")")
    return "".join(out)


def parse_plane_code(code: str) -> PlaneTree:
    """Inverse of plane_code.  Raises ValueError on unbalanced input."""
    children: list[list[int]] = [[]]
    stack = [0]
    nxt = 1
    for ch in code:
        if ch == "(":
            children.append([])
            children[stack[-1]].append(nxt)
            stack.append(nxt)
            nxt += 1
        elif ch == ")":
            stack.pop()
            if not stack:
                raise ValueError("unbalanced code")
        else:
            raise ValueError(f"bad character {ch!r} in code")
    if len(stack) != 1:
        raise ValueError("unbalanced code")
    return PlaneTree(tuple(tuple(cs) for cs in children))


def unordered_code(tree: PlaneTree) -> str:
    """Canonical code invariant under reordering of children.

    Children codes are sorted at every vertex (AHU style), so two trees
    get the same string exactly when they are isomorphic as rooted
    unordered trees.  The root contributes no outer parentheses, matching
    plane_code on the single-vertex tree.
    """
    return parent_unordered_code(tree.parents())


def parent_unordered_code(parent) -> str:
    """unordered_code of the tree given by parent[v] < v for v >= 1, with
    vertex 0 the root; any numbering where parents come first works, such
    as preorder or breadth-first order."""
    parts: list[list[str]] = [[] for _ in parent]
    # children have larger ids, so a reverse sweep finishes them first
    for v in range(len(parent) - 1, 0, -1):
        parts[parent[v]].append("(" + "".join(sorted(parts[v])) + ")")
    return "".join(sorted(parts[0]))


def plane_embeddings_count(tree: PlaneTree) -> int:
    """Number of distinct plane trees with this tree's unordered shape.

    Product over vertices of the multinomial counting distinguishable
    orderings of the child subtrees.
    """
    n = tree.n_vertices
    codes: list[str] = [""] * n
    total = 1
    for v in range(n - 1, -1, -1):
        child_codes = ["(" + codes[c] + ")" for c in tree.children[v]]
        mult: dict[str, int] = {}
        for cc in child_codes:
            mult[cc] = mult.get(cc, 0) + 1
        ways = math.factorial(len(child_codes))
        for m in mult.values():
            ways //= math.factorial(m)
        total *= ways
        codes[v] = "".join(sorted(child_codes))
    return total


@lru_cache(maxsize=32)
def _codes_with_edges(n: int) -> tuple[str, ...]:
    if n == 0:
        return ("",)
    out = []
    for a in range(n):
        for first in _codes_with_edges(a):
            for rest in _codes_with_edges(n - 1 - a):
                out.append("(" + first + ")" + rest)
    return tuple(out)


def enumerate_plane_trees(n: int):
    """Yield all catalan(n) plane trees with n edges."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for code in _codes_with_edges(n):
        yield parse_plane_code(code)


def sample_plane_tree(n: int, rng: np.random.Generator) -> PlaneTree:
    """Exactly uniform plane tree with n edges (see sample_dyck_word)."""
    return tree_from_parents(dyck_parents(dyck_depths(sample_dyck_word(n, rng))))


def sample_dyck_word(n: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly uniform Dyck word of length 2n via the cycle lemma, as int8
    steps +1 (down the tree, "(") and -1 (back up, ")").

    The positions of the n up-steps among 2n+1 steps are a uniform n-subset
    (Floyd's algorithm, a partial tail shuffle past 10^4 positions); the
    other n+1 steps go down.  Of the 2n+1 cyclic rotations of that word
    exactly one stays nonnegative until the final step.  Rotating to just
    after the first minimum of the partial sums and dropping the last
    down-step leaves a uniform Dyck word of length 2n.

    The walk ends at -1, and a first minimum before the end is followed
    by an up-step, so it is the partial sum just before some up-step,
    2i - up[i] before the i-th (i up-steps and up[i] - i down-steps), or
    the end itself: no prefix sum over the word is needed.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    steps = np.full(2 * n + 1, -1, dtype=np.int8)
    steps[rng.choice(2 * n + 1, n, replace=False, shuffle=False)] = 1
    up = np.flatnonzero(steps > 0)
    before = np.arange(0, 2 * n, 2) - up
    i = int(np.argmin(before)) if n else 0
    # the end, at -1, is the first minimum unless a sum before an up-step reaches -1
    cut = int(up[i]) if n and before[i] <= -1 else 2 * n + 1
    return np.concatenate((steps[cut:], steps[:cut - 1]))


def dyck_depths(word) -> np.ndarray:
    """Depth of every vertex of the plane tree of a Dyck word, root first.

    Vertex v >= 1 is opened by the v-th up-step (a step of exactly +1, so
    that a validator can count the other steps), and the numbering is
    preorder: v up-steps and up[v-1] + 1 - v down-steps end there, at
    depth 2v - 1 - up[v-1].  A +-1 word of length 2n is a Dyck word
    exactly when it has n up-steps and every depth past the root is >= 1:
    the first up-step after the walk reaches -1 ends at depth <= 0.
    """
    up = np.flatnonzero(np.asarray(word) == 1)
    depth = np.zeros(up.size + 1, dtype=np.int64)
    depth[1:] = np.arange(1, 2 * up.size, 2) - up
    return depth


def dyck_parents(depth) -> np.ndarray:
    """Preorder parent array (parent[0] == -1) of the plane tree with the
    given vertex depths (see dyck_depths).

    A vertex v one level deeper than v - 1 is a first child, whose parent
    is v - 1.  Any other vertex has the parent of the vertex before it at
    its own depth, its previous sibling.  One stable sort by depth puts
    those two next to each other, and a running maximum carries each
    first child's slot over its later siblings.
    """
    depth = np.asarray(depth)
    n = depth.size - 1
    # the narrow dtype lets numpy use a radix sort
    order = np.argsort(depth.astype(np.min_scalar_type(n)), kind="stable")
    first = np.ones(n + 1, dtype=bool)  # the root heads its own level
    first[1:] = depth[1:] > depth[:-1]
    head = np.where(first[order], np.arange(n + 1), 0)
    np.maximum.accumulate(head, out=head)
    parent = np.empty(n + 1, dtype=np.int64)
    parent[order] = order[head] - 1
    return parent


def dyck_truncation_code(depth, r: int) -> str:
    """plane_code of the height-r truncation of the plane tree with the
    given vertex depths (see dyck_depths).

    The kept vertices are those at depth <= r, in preorder; the j-th of
    them (from 1), at depth d_j, is opened by the up-step at position
    2j - 1 - d_j of the truncated word, as in dyck_depths.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    depth = np.asarray(depth)[1:]
    kept = depth[depth <= r]
    code = np.full(2 * kept.size, ord(")"), dtype=np.uint8)
    code[np.arange(1, 2 * kept.size, 2) - kept] = ord("(")
    return code.tobytes().decode("ascii")


def dyck_forest_codes(word) -> list[str]:
    """plane_code of each subtree of the root of a Dyck word, in order.

    A forest drawn side by side, as `distributions` draws batches of
    balls, is the Dyck word of a tree whose root has its trees as
    subtrees; tree i spans the steps after the (i-1)-th return to depth 0
    up to the i-th, less that outer pair.
    """
    word = np.asarray(word)
    ends = np.flatnonzero(np.cumsum(word, dtype=np.int64) == 0).tolist()
    code = _code(word)
    return [code[start + 1:end] for start, end in zip([0] + [e + 1 for e in ends], ends)]


def _code(word: np.ndarray) -> str:
    return np.where(word > 0, ord("("), ord(")")).astype(np.uint8).tobytes().decode("ascii")


def tree_from_parents(parent) -> PlaneTree:
    """PlaneTree of a preorder parent array (parent[0] == -1)."""
    children: list[list[int]] = [[] for _ in range(len(parent))]
    for v, p in enumerate(np.asarray(parent)[1:].tolist(), start=1):
        children[p].append(v)
    return PlaneTree(tuple(tuple(cs) for cs in children))
