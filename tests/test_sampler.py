"""Uniform map sampler built from decorated trees."""

import math
from collections import Counter
from itertools import combinations_with_replacement, product

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
    SIZE_ROWS,
    CDecoratedTree,
    OddCyclePermutationSampler,
    _quotient,
    ball_as_tree,
    root_degree,
    sample_c_decorated_tree,
    sample_odd_cycle_permutation,
    sample_unicellular,
)
from unimaps.trees import parse_plane_code, plane_code

from chi_square import chi_square_gof


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


def _parts(word, labels, sizes, signs):
    return tuple(np.array(x, dtype=np.int64) for x in (word, labels, sizes, signs))


# (3, 1) decorations of the tree "(())" on 3 vertices, each with one
# fault, and the message of the check that must catch it
BAD_DECORATED_TREES = [
    (([1, -1, -1, 1], [0, 1, 2], [3], [1]), "Dyck word"),  # dips below zero
    (([1, 1, 1, -1], [0, 1, 2], [3], [1]), "Dyck word"),  # three up-steps
    (([1, -1], [0, 1, 2], [3], [1]), "Dyck word"),  # too short
    (([1, 1, -1, -1, 1, -1], [0, 1, 2], [3], [1]), "Dyck word"),  # too long
    (([1, 0, 0, -1], [0, 1, 2], [3], [1]), "Dyck word"),  # a step of 0
    (([1, 2, -1, -1], [0, 1, 2], [3], [1]), "Dyck word"),  # a step of 2
    (([1, 1, -1, -1], [0, 1, 1], [3], [1]), "permutation"),  # a repeated label
    (([1, 1, -1, -1], [0, 1, 3], [3], [1]), "permutation"),  # a label past m - 1
    (([1, 1, -1, -1], [1, 0, 2], [3], [1]), "tree root"),  # root not first
    (([1, 1, -1, -1], [0, 1, 2], [2, 1], [1, 1]), "odd"),  # an even size
    (([1, 1, -1, -1], [0, 1, 2], [0, 3], [1, 1]), "odd"),  # a zero size
    (([1, 1, -1, -1], [0, 1, 2], [1, 1], [1, 1]), "odd"),  # sizes sum to 2
    (([1, 1, -1, -1], [0, 1, 2], [1, 1, 1], [1, 1]), "one sign"),  # a sign missing
    (([1, 1, -1, -1], [0, 1, 2], [1, 1, 1], [1, 0, -1]), "signs"),  # a sign of 0
    (([1, 1, -2, 0], [0, 1, 2], [3], [1]), "Dyck word"),  # m - 1 up-steps, no -1
    (([1, 1, -1, -1], [0, -1, 2], [3], [1]), "permutation"),  # a negative label
    (([1, 1, -1, -1], [0, 1, 2], [5, -1, -1], [1, 1, 1]), "odd"),  # a negative size
    (([1, 1, -1, -1], [0, 1, 2], [], []), "odd"),  # no cycle
]


@pytest.mark.parametrize("parts,message", BAD_DECORATED_TREES)
def test_decorated_tree_validation_rejects_each_fault(parts, message):
    CDecoratedTree(*_parts([1, 1, -1, -1], [0, 1, 2], [1, 1, 1], [1, -1, 1]))
    with pytest.raises(ValueError, match=message):
        CDecoratedTree(*_parts(*parts))


def test_depth_dyck_test_matches_prefix_sums():
    # every +-1 word of length <= 12, decorated by the identity, passes
    # validation exactly when its prefix sums stay >= 0 and end at 0; the
    # depths are then the prefix sums at the up-steps
    for length in range(13):
        m = length // 2 + 1
        for steps in product((1, -1), repeat=length):
            word = np.array(steps, dtype=np.int8)
            sums = np.cumsum(word)
            dyck = length % 2 == 0 and (length == 0 or (sums.min() >= 0 and sums[-1] == 0))
            try:
                cdt = CDecoratedTree(word, np.arange(m), np.ones(m, dtype=np.int64),
                                     np.ones(m, dtype=np.int8))
            except ValueError:
                assert not dyck, steps
                continue
            assert dyck, steps
            assert cdt.depth.tolist() == [0] + sums[word > 0].tolist()


@pytest.mark.parametrize("size", [1, SIZE_ROWS - 1, SIZE_ROWS, SIZE_ROWS + 1, 2 * SIZE_ROWS + 1])
def test_draws_across_size_calls(size):
    # every draw is a valid decorated tree whatever its place in a size
    # call, and the same seed gives the same trees
    def draw():
        return list(sample_c_decorated_tree(30, 5, np.random.default_rng(size), size))

    first, again = draw(), draw()
    assert len(first) == len(again) == size
    for a, b in zip(first, again):
        for name in ("word", "labels", "sizes", "cycle_signs"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert (a.n_edges, a.genus, a.n_cycles) == (30, 5, 21)
        cycles = a.perm.cycles()
        assert sorted(map(len, cycles)) == sorted(a.sizes.tolist())
        assert len(next(c for c in cycles if 0 in c)) == a.sizes[0]


@pytest.mark.parametrize("g", [0, 10])
def test_root_block_is_size_biased_at_128_vertices(g):
    # m = 128 is one past what int8 holds: the block ends must not wrap,
    # and a wrapped last end sends every pick that falls in the last block
    # past the row.  Given a row of sizes, the root's block has size k with
    # probability k * (count of k) / m, so sizes[0] has mean sum(k^2) / m
    # and variance sum(k^3) / m - mean^2; the sum of the deviations over
    # the draws is compared with its standard deviation.
    m, dev, var = 128, 0.0, 0.0
    draws = list(sample_c_decorated_tree(m - 1, g, np.random.default_rng(g), 125 * SIZE_ROWS))
    assert len(draws) == 125 * SIZE_ROWS
    for cdt in draws:
        assert (cdt.n_edges, cdt.genus) == (m - 1, g)
        cycles = cdt.perm.cycles()
        assert len(next(c for c in cycles if 0 in c)) == cdt.sizes[0]
        k = cdt.sizes.astype(np.float64)
        mean = k @ k / m
        dev += cdt.sizes[0] - mean
        var += k @ k ** 2 / m - mean ** 2
    assert abs(dev) <= 4 * math.sqrt(var) + 1e-9


@pytest.mark.parametrize("m,dtype", [(127, np.int8), (128, np.int16), (32767, np.int16),
                                     (32768, np.int32)])
def test_size_dtype_is_the_smallest_that_holds_m(m, dtype):
    assert sampler_module._size_dtype(m) == dtype


def test_root_block_pick_follows_block_sizes():
    # a row of distinct sizes summing to m = 128, in the dtype the sampler
    # returns: the block swapped to the front must be block i with
    # probability sizes[i] / m
    m, draws = 128, 20000
    row = np.array([1, 3, 5, 7, 9, 11, 13, 15, 17, 47])
    dtype = OddCyclePermutationSampler(m, len(row)).sample_sizes(np.random.default_rng(0), 1).dtype
    sizes = np.tile(row, (draws, 1)).astype(dtype)
    sampler_module._root_block_first(sizes, m, np.random.default_rng(7))
    assert np.array_equal(np.sort(sizes, axis=1), np.tile(row, (draws, 1)))
    counts = Counter(sizes[:, 0].tolist())
    assert chi_square_gof(counts, {k: k / m for k in row.tolist()}, draws).p_value > 0.001


@pytest.mark.parametrize("n,g,draws", [(4, 1, 4000), (6, 1, 7000)])
def test_decorated_tree_permutations_are_uniform(n, g, draws):
    # the root's block is put first by a size-biased pick; the permutation
    # must still be uniform over the all-odd ones with n + 1 - 2g cycles
    # (20 at (4, 1): the root sits in the 3-cycle of 12; 70 at (6, 1))
    rng = np.random.default_rng(n)
    counts = Counter(cdt.perm.image for cdt in sample_c_decorated_tree(n, g, rng, draws))
    cells = {4: 20, 6: 70}[n]
    assert len(counts) == cells
    assert chi_square_gof(counts, {p: 1 / cells for p in counts}, draws).p_value > 0.001


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
    # a draw over several size calls, also against the tree degrees summed
    # over the root's cycle of the tuple permutation
    for cdt in sample_c_decorated_tree(60, 10, rng, 2 * SIZE_ROWS + 3):
        q = _quotient(cdt)
        degree = root_degree(cdt)
        assert degree == np.count_nonzero(q.src == 0) + np.count_nonzero(q.dst == 0)
        [cycle] = [c for c in cdt.perm.cycles() if 0 in c]
        assert degree == sum(cdt.tree.degrees()[v] for v in cycle)


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
