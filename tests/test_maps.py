"""Rotation systems, polygon gluings, and ball extraction on them."""

import pytest

from unimaps.maps import (
    Permutation,
    RotationMap,
    _ball_counts,
    _counts_code,
    _tree_counts,
    _vertices,
    faces_and_genus,
    plane_tree_to_map,
    rotation_ball_code,
    unfolding_ball_code,
)
from unimaps.oracle import enumerate_unicellular
from unimaps.counting import double_factorial
from unimaps.trees import enumerate_plane_trees, parse_plane_code, plane_code


def test_permutation_basics():
    p = Permutation((1, 2, 0, 4, 3))
    assert len(p) == 5
    assert p(0) == 1
    assert p.cycles() == [(0, 1, 2), (3, 4)]
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_tree_maps_are_planar_and_one_faced():
    for n in range(1, 6):
        for tree in enumerate_plane_trees(n):
            m = plane_tree_to_map(tree)
            faces, genus = faces_and_genus(m.alpha, m.sigma)
            assert (faces, genus) == (1, 0)


def test_gluing_enumeration_count():
    for n in range(1, 6):
        maps = list(enumerate_unicellular(n))
        assert len(maps) == double_factorial(2 * n - 1)
        for m in maps:
            assert isinstance(m, RotationMap)


def test_ball_code_of_tree_map_is_the_tree():
    # with no cycles in sight the two ball notions agree with the tree itself
    for tree in enumerate_plane_trees(4):
        m = plane_tree_to_map(tree)
        is_tree, code = rotation_ball_code(m, 10)
        assert is_tree
        assert code == plane_code(tree)
        assert unfolding_ball_code(m, 10) == plane_code(tree)
    # the readers keep no stack frame per level, so a path deeper than
    # the interpreter's recursion limit reads too
    path = parse_plane_code("(" * 3000 + ")" * 3000)
    assert rotation_ball_code(plane_tree_to_map(path), 5000) == (True, plane_code(path))


def test_ball_keys_name_plane_trees():
    # at r = height and height + 1 the key decodes back to the tree, and
    # the walker on the tree's own map reads the same key
    for n in range(8):
        for tree in enumerate_plane_trees(n):
            for r in (tree.height(), tree.height() + 1):
                counts = _tree_counts(tree, r)
                assert _counts_code(counts, r) == plane_code(tree)
                if n:
                    m = plane_tree_to_map(tree)
                    for subgraph in (True, False):
                        assert _ball_counts(m.alpha, m.sigma, *_vertices(m.sigma), 0, r,
                                            subgraph) == counts


def test_ball_codes_on_the_one_edge_loop():
    # one vertex, one loop: the subgraph ball sees a cycle, the exploration
    # view walks through the loop once from each side
    loop = RotationMap(alpha=(1, 0), sigma=(1, 0), root_dart=0)
    is_tree, code = rotation_ball_code(loop, 1)
    assert not is_tree
    assert code is None
    assert unfolding_ball_code(loop, 1) == "()()"


def test_unfolding_radius_zero_is_empty():
    chain = plane_tree_to_map(next(iter(enumerate_plane_trees(3))))
    assert unfolding_ball_code(chain, 0) == ""


def test_root_degree_via_rotation():
    for tree in enumerate_plane_trees(3):
        m = plane_tree_to_map(tree)
        assert m.root_degree() == tree.degrees()[0]
