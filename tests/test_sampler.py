"""Uniform map sampler built from decorated trees."""

import math
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unimaps import sampler as sampler_module
from unimaps.maps import (
    Permutation,
    ball_with_vertices,
    graph_tree_unordered_code,
    root_distances,
)
from unimaps.sampler import (
    OddCyclePermutationSampler,
    _quotient,
    ball_as_tree,
    root_degree,
    sample_c_decorated_tree,
    sample_odd_cycle_permutation,
    sample_unicellular,
)
from unimaps.stats import chi_square_gof
from unimaps.trees import parse_plane_code, plane_code


def test_permutation_sampler_cycle_types():
    rng = np.random.default_rng(0)
    sampler = OddCyclePermutationSampler(7, 3)
    for image in sampler.sample(rng, 100).tolist():
        cycles = Permutation(tuple(image)).cycles()
        assert len(cycles) == 3
        assert all(len(c) % 2 == 1 for c in cycles)


def test_permutation_sampler_identity_case():
    rng = np.random.default_rng(1)
    images = sample_odd_cycle_permutation(4, 4, rng, 3)
    assert images.tolist() == [[0, 1, 2, 3]] * 3


def test_permutation_sampler_rejects_impossible():
    with pytest.raises(ValueError):
        OddCyclePermutationSampler(4, 3)  # parity forbids 3 odd cycles on 4


def test_decorated_tree_invariants():
    rng = np.random.default_rng(2)
    for cdt in sample_c_decorated_tree(6, 1, rng, 20):
        assert cdt.n_edges == 6
        assert cdt.genus == 1
        assert len(cdt.signs) == cdt.n_cycles


def test_sample_sizes_and_root():
    rng = np.random.default_rng(3)
    for n, g in [(5, 0), (6, 1), (8, 3)]:
        for s in sample_unicellular(n, g, rng, 10):
            assert s.genus == g
            assert len(s.graph.edges) == n
            assert s.graph.n_vertices == n + 1 - 2 * g
            assert root_degree(s.source) >= 1


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**64 - 1))
def test_samples_are_connected_maps_of_their_size(seed):
    rng = np.random.default_rng(seed)
    for n in range(1, 13):
        for g in range(n // 2 + 1):
            [s] = sample_unicellular(n, g, rng, 1)
            v = n + 1 - 2 * g
            assert s.graph.n_vertices == v
            assert len(s.graph.edges) == n
            assert int(np.bincount(np.concatenate((s.src, s.dst)), minlength=v).sum()) == 2 * n
            assert s.graph.root_vertex == 0 and s.graph.root_edge == 0
            assert s.graph.edges[0][0] == 0
            assert np.all(root_distances(v, s.src, s.dst, 0, v) < v), (n, g)


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**64 - 1))
def test_root_degree_equals_the_quotient_root_degree(seed):
    # the tree degrees summed over the root's cycle are the endpoints at
    # quotient vertex 0, loops counted twice
    rng = np.random.default_rng(seed)
    for n in range(1, 13):
        for g in range(n // 2 + 1):
            [cdt] = sample_c_decorated_tree(n, g, rng, 1)
            q = _quotient(cdt)
            assert root_degree(cdt) == (np.count_nonzero(q.src == 0)
                                        + np.count_nonzero(q.dst == 0)), (n, g)


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**64 - 1))
def test_balls_nest(seed):
    # the radius-r ball sits inside the radius-(r+1) ball, at the same
    # distances from the root
    rng = np.random.default_rng(seed)
    for n in range(1, 13):
        for g in range(n // 2 + 1):
            [s] = sample_unicellular(n, g, rng, 1)
            v = len(s.fixed_point_mask)
            # no ball grows past radius v - 1
            for r in range(min(4, v)):
                inner = root_distances(v, s.src, s.dst, 0, r)
                outer = root_distances(v, s.src, s.dst, 0, r + 1)
                ball = inner <= r
                assert np.array_equal(outer[ball], inner[ball]), (n, g, r)


def test_root_distances_mark_unreached_vertices():
    # a path 0-1-2 with a loop at 2, and the edge 3-4 out of reach
    src, dst = np.array([0, 1, 2, 3]), np.array([1, 2, 2, 4])
    assert root_distances(5, src, dst, 0, 5).tolist() == [0, 1, 2, 6, 6]
    assert root_distances(5, src, dst, 0, 1).tolist() == [0, 1, 2, 2, 2]
    assert root_distances(5, src, dst, 0, 0).tolist() == [0, 1, 1, 1, 1]
    for r in (-1, 6):
        with pytest.raises(ValueError):
            root_distances(5, src, dst, 0, r)


def test_root_degree_counts_loops_twice():
    rng = np.random.default_rng(4)
    degs = [root_degree(cdt) for cdt in sample_c_decorated_tree(2, 1, rng, 30)]
    # the torus map on two edges has a single vertex, degree four
    assert degs == [4] * 30


def test_planar_balls_are_clean_trees():
    rng = np.random.default_rng(5)
    for s in sample_unicellular(7, 0, rng, 25):
        [shape] = ball_as_tree(s, (2,))
        assert shape.is_tree
        assert not shape.merged
        assert shape.plane_code is not None
        assert parse_plane_code(shape.plane_code).height() <= 2
        assert shape.n_nonfixed == 0


def test_one_vertex_torus_ball_is_never_a_tree():
    rng = np.random.default_rng(6)
    for s in sample_unicellular(2, 1, rng, 20):
        [shape] = ball_as_tree(s, (1,))
        assert not shape.is_tree
        assert shape.unordered_code is None


def test_nonfixed_accounting():
    rng = np.random.default_rng(7)
    for s in sample_unicellular(8, 2, rng, 20):
        mask = s.fixed_point_mask
        nonfixed_total = sum(1 for fixed in mask if not fixed)
        [shape] = ball_as_tree(s, (1,))
        assert 0 <= shape.n_nonfixed <= nonfixed_total
        assert shape.n_vertices <= s.graph.n_vertices


def test_determinism_by_seed():
    [a] = sample_unicellular(9, 2, np.random.default_rng(42), 1)
    [b] = sample_unicellular(9, 2, np.random.default_rng(42), 1)
    assert a.graph.edges == b.graph.edges
    assert a.source.perm.image == b.source.perm.image
    assert a.source.signs == b.source.signs


# (7, 3), (9, 3), (13, 3): s <= TAIL, so the whole draw is the exact split
# of m; (15, 5), (21, 7), (41, 5): the head is drawn, accepted or not, and
# the last TAIL sizes are split from the rest
@pytest.mark.parametrize("m,s", [(7, 3), (9, 3), (13, 3), (15, 5), (21, 7), (41, 5)])
def test_cycle_type_frequencies_match_exact_law(m, s):
    # P(type) is the share of odd-cycle permutations with that cycle type,
    # whose count is Cauchy's m! / prod over lengths k of (c_k! * k^c_k)
    weights = {}
    for parts in combinations_with_replacement(range(1, m + 1, 2), s):
        if sum(parts) == m:
            denom = math.prod(math.factorial(c) * k**c for k, c in Counter(parts).items())
            weights[parts[::-1]] = math.factorial(m) // denom
    total = sum(weights.values())
    probs = {parts: w / total for parts, w in weights.items()}
    rng = np.random.default_rng(1000 + m)
    draws = 20_000
    sizes = OddCyclePermutationSampler(m, s).sample_sizes(rng, draws)
    assert sizes.shape == (draws, s)
    counts = Counter(tuple(sorted(row, reverse=True)) for row in sizes.tolist())
    assert set(counts) <= set(probs)
    assert chi_square_gof(counts, probs, draws).p_value > 0.001


@pytest.mark.parametrize("m,s", [(9, 3), (41, 5), (2001, 201)])
def test_identical_calls_give_identical_sizes(m, s):
    sampler = OddCyclePermutationSampler(m, s)
    first = sampler.sample_sizes(np.random.default_rng(5), 50)
    assert np.array_equal(first, sampler.sample_sizes(np.random.default_rng(5), 50))


@pytest.mark.parametrize("m,s", [(9, 1), (9, 9), (2001, 3), (20001, 10001)])
def test_cycle_sizes_are_valid_at_the_extremes(m, s):
    rng = np.random.default_rng(s)
    sizes = OddCyclePermutationSampler(m, s).sample_sizes(rng, 3)
    assert sizes.shape == (3, s)
    assert np.all(sizes.sum(axis=1) == m)
    assert np.all(sizes % 2 == 1)


@pytest.mark.parametrize("m,s", [(2001, 5), (21, 7)])
def test_predicted_acceptance_matches_hit_rate(m, s):
    law = sampler_module._size_law(m, s)
    rng = np.random.default_rng(11)
    # asking for a whole block of hits makes every block one full block of tries
    hits = sum(len(sampler_module._accepted_tries(law, rng, law.block)) for _ in range(20))
    assert hits / (20 * law.block) == pytest.approx(law.accept, rel=0.1)


def test_cold_and_warm_cache_draws_agree():
    def draw():
        [sample] = sample_unicellular(300, 60, np.random.default_rng(99), 1)
        return sample.src.tolist(), sample.dst.tolist(), sample.source.signs

    sampler_module._size_law.cache_clear()
    cold = draw()
    assert sampler_module._size_law.cache_info().currsize == 1
    assert draw() == cold


def _reference_ball(graph, mask, r):
    """The radius-r ball by a full BFS over the edge list: (is_tree,
    unordered code or None, vertex count, non-fixed count)."""
    nbrs = [[] for _ in range(graph.n_vertices)]
    for u, v in graph.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    dist = {graph.root_vertex: 0}
    queue = [graph.root_vertex]
    for u in queue:
        for w in nbrs[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    inside = {v for v, d in dist.items() if d <= r}
    n_edges = sum(1 for u, v in graph.edges
                  if u in inside and v in inside and min(dist[u], dist[v]) <= r - 1)
    is_tree = n_edges == len(inside) - 1

    def code(v):
        kids = [w for w in nbrs[v] if w in inside and dist[w] == dist[v] + 1]
        return "".join(sorted("(" + code(w) + ")" for w in kids))

    nonfixed = sum(1 for v in inside if not mask[v])
    return is_tree, code(graph.root_vertex) if is_tree else None, len(inside), nonfixed


def test_balls_of_all_radii_match_full_bfs_reference():
    rng = np.random.default_rng(31)
    loops = multi = 0
    for _ in range(300):
        n = int(rng.integers(1, 41))
        g = int(rng.integers(0, n // 2 + 1))
        [sample] = sample_unicellular(n, g, rng, 1)
        graph = sample.graph
        loops += any(u == v for u, v in graph.edges)
        multi += len(set(map(frozenset, graph.edges))) < len(graph.edges)
        shapes = dict(zip((3, 0, 2, 1), ball_as_tree(sample, (3, 0, 2, 1))))
        for r, shape in enumerate(ball_as_tree(sample, (0, 1, 2, 3))):
            assert shapes[r] == shape
            expected = _reference_ball(graph, sample.fixed_point_mask, r)
            assert (shape.is_tree, shape.unordered_code, shape.n_vertices,
                    shape.n_nonfixed) == expected
            if shape.is_tree and shape.n_nonfixed == 0:
                assert shape.plane_code == plane_code(sample.source.tree.truncate(r))
            else:
                assert shape.plane_code is None
            ball, kept = ball_with_vertices(graph, r)
            assert (ball.n_vertices, ball.is_tree()) == (shape.n_vertices, shape.is_tree)
            if shape.is_tree:
                assert graph_tree_unordered_code(ball) == shape.unordered_code
            for inner in range(r + 1):
                # balls nest: cutting a ball again gives the smaller ball
                assert ball_with_vertices(ball, inner)[0] == ball_with_vertices(graph, inner)[0]
    assert loops and multi


def test_quotient_matches_the_permutation_cycles():
    # graph vertices are the cycles, the root's cycle is vertex 0, and a
    # vertex is fixed exactly when its cycle is a singleton
    rng = np.random.default_rng(8)
    for sample in sample_unicellular(12, 3, rng, 50):
        cycles = sample.source.perm.cycles()
        owner = {}
        for c in cycles:
            for v in c:
                owner[v] = c
        parents = sample.source.tree.parents()
        vertex_of = {}
        for v, edge in zip(range(1, 13), sample.graph.edges):
            for cycle, vertex in zip((owner[parents[v]], owner[v]), edge):
                assert vertex_of.setdefault(cycle, vertex) == vertex
        assert vertex_of[owner[0]] == 0
        assert len(set(vertex_of.values())) == len(cycles) == sample.graph.n_vertices
        for c, vertex in vertex_of.items():
            assert sample.fixed_point_mask[vertex] == (len(c) == 1)
