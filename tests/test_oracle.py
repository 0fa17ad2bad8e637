"""Exhaustive small-case ground truth used to pin the fast routes."""

from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from unimaps.counting import double_factorial, odd_cycle_perm_count
from unimaps.maps import (
    Permutation,
    RotationMap,
    faces_and_genus,
    root_distances,
    rotation_ball_code,
    tree_ball_code,
)
from unimaps.oracle import (
    NON_TREE,
    _ball_tally,
    _degree_tally,
    _map_blocks,
    _maps,
    census,
    exact_ball_dist,
    exact_root_degree_dist,
    exact_tree_ball_dist,
    verify_surgery,
)
from unimaps.sampler import CDecoratedTree, _quotient, ball_as_tree, root_degree
from unimaps.trees import enumerate_plane_trees, parse_plane_code, plane_code, unordered_code


def test_census_frozen_tables():
    assert census(1).counts == {0: 1}
    assert census(2).counts == {0: 2, 1: 1}
    assert census(3).counts == {0: 5, 1: 10}
    assert census(4).counts == {0: 14, 1: 70, 2: 21}
    assert census(5).counts == {0: 42, 1: 420, 2: 483}


def test_census_cap():
    with pytest.raises(ValueError):
        census(9)


def test_root_degree_three_edges_planar():
    probs = exact_root_degree_dist(3, 0)
    assert probs == {1: Fraction(2, 5), 2: Fraction(2, 5), 3: Fraction(1, 5)}


def test_root_degree_sums_to_one():
    for n, g in [(3, 1), (4, 1), (4, 2)]:
        probs = exact_root_degree_dist(n, g)
        assert sum(probs.values()) == 1


def test_planar_balls_equal_truncated_trees():
    for n in range(2, 7):
        for r in (1, 2, 3):
            assert exact_ball_dist(n, 0, r) == exact_tree_ball_dist(n, r)


def test_torus_ball_table():
    probs = exact_ball_dist(3, 1, 1)
    assert probs == {NON_TREE: Fraction(9, 10), "()": Fraction(1, 10)}


def test_surgery_identity_cases():
    path2 = parse_plane_code("(())")
    for n, g, lhs in [(3, 1, 0), (4, 1, 1), (5, 1, 10), (6, 2, 21)]:
        check = verify_surgery(n, g, path2)
        assert check.equal
        assert check.lhs_count == lhs
        assert (check.k, check.d, check.r) == (2, 1, 2)


def test_surgery_branching_case():
    check = verify_surgery(6, 1, parse_plane_code("(()())"))
    assert check.equal
    assert check.lhs_count == check.rhs_count == 70
    assert (check.k, check.d, check.r) == (3, 2, 2)


def test_surgery_radius_one():
    check = verify_surgery(5, 0, parse_plane_code("()()"))
    assert check.equal
    assert check.lhs_count == 14
    assert (check.k, check.d, check.r) == (2, 2, 1)


def test_one_walk_reads_genus_and_root_degree_of_every_map():
    for n in range(1, 7):
        for alpha, sigma, vertex, degree, genus in _maps(n):
            assert faces_and_genus(alpha, sigma) == (1, genus)
            # the ball walker trusts these: each dart's least cycle-mate
            # and cycle length
            for cycle in Permutation(tuple(sigma)).cycles():
                for d in cycle:
                    assert (vertex[d], degree[d]) == (cycle[0], len(cycle))


@pytest.mark.parametrize("entries", [2 ** 6, 2 ** 14])
def test_blocks_hold_every_pairing_once(entries):
    for n in range(1, 7):
        seen = set()
        for alpha, _, _, _, _ in _map_blocks(n, entries):
            assert alpha.shape[0] == 2 * n and alpha.size <= entries
            for column in alpha.T.tolist():
                assert all(column[column[d]] == d != column[d] for d in range(2 * n))
                seen.add(tuple(column))
        assert len(seen) == double_factorial(2 * n - 1)


def test_every_tally_counts_every_map_once():
    for n in range(1, 6):
        total = double_factorial(2 * n - 1)
        assert sum(_degree_tally(n).values()) == total
        for r in (1, 2):
            for subgraph in (True, False):
                assert sum(_ball_tally(n, r, subgraph).values()) == total


def test_oracle_balls_match_the_sampler_ball_reader():
    # the oracle walks darts; the sampler's reader runs root_distances on
    # the underlying graph: one vertex per sigma cycle, one edge per alpha
    # pair, the tree test by edge count
    for n in range(1, 7):
        for alpha, sigma, _, _, _ in _maps(n):
            owner = [0] * (2 * n)
            cycles = Permutation(tuple(sigma)).cycles()
            for v, cycle in enumerate(cycles):
                for d in cycle:
                    owner[d] = v
            src = np.array([owner[d] for d in range(2 * n) if d < alpha[d]])
            dst = np.array([owner[alpha[d]] for d in range(2 * n) if d < alpha[d]])
            m = RotationMap(tuple(alpha), tuple(sigma), 0)
            for r in (1, 2, 3):
                # no ball grows past the vertex count
                top = min(r, len(cycles))
                dist = root_distances(len(cycles), src, dst, owner[0], top)
                inner = np.count_nonzero(np.minimum(dist[src], dist[dst]) < top)
                is_tree, code = rotation_ball_code(m, r)
                assert is_tree == (inner == np.count_nonzero(dist <= top) - 1)
                if is_tree:
                    assert (unordered_code(parse_plane_code(code))
                            == tree_ball_code(dist, src, dst, top))


def _odd_cycle_labelings(m: int, s: int):
    """(labels, sizes) of every permutation of 0..m-1 with s cycles, all
    odd: each cycle listed from its least label, the cycles in order of
    their least labels, so the root's cycle comes first."""
    for images in permutations(range(m)):
        labels, sizes = [], []
        for start in range(m):
            if start in labels:
                continue
            cycle = [start]
            while images[cycle[-1]] != start:
                cycle.append(images[cycle[-1]])
            labels += cycle
            sizes.append(len(cycle))
        if len(sizes) == s and all(size % 2 for size in sizes):
            yield np.array(labels), np.array(sizes)


@pytest.mark.parametrize("n,g", [(n, g) for n in range(1, 6) for g in range(n // 2 + 1)]
                         + [(6, 1)])
def test_sampler_pushes_uniform_decorations_onto_the_oracle_laws(n, g):
    # the sampler's deterministic half (validation, quotient, root degree,
    # balls) applied to every (Dyck word, all-odd permutation) pair, each
    # once, must give the exact laws of the gluing scan: by the
    # Chapuy-Feray-Fusy bijection the quotient of a uniform decorated tree
    # is the underlying graph of a uniform one-face map (signs, all +1
    # here, do not enter the graph)
    radii = (1, 2, 3)
    s = n + 1 - 2 * g
    labelings = list(_odd_cycle_labelings(n + 1, s))
    assert len(labelings) == odd_cycle_perm_count(n + 1, s)
    signs = np.ones(s, dtype=np.int8)
    degrees, balls = Counter(), {r: Counter() for r in radii}
    for tree in enumerate_plane_trees(n):
        word = np.array([1 if step == "(" else -1 for step in plane_code(tree)], dtype=np.int8)
        for labels, sizes in labelings:
            cdt = CDecoratedTree(word, labels, sizes, signs)
            degrees[root_degree(cdt)] += 1
            for r, ball in zip(radii, ball_as_tree(_quotient(cdt), radii)):
                balls[r][ball.unordered_code if ball.is_tree else NON_TREE] += 1
    total = sum(degrees.values())
    assert {d: Fraction(c, total) for d, c in degrees.items()} == exact_root_degree_dist(n, g)
    for r in radii:
        expected = Counter()
        for code, p in exact_ball_dist(n, g, r).items():
            expected[code if code == NON_TREE else unordered_code(parse_plane_code(code))] += p
        assert {code: Fraction(c, total) for code, c in balls[r].items()} == dict(expected), r
