"""Plane tree codes, enumeration, and the uniform sampler."""

import numpy as np
import pytest

from unimaps.trees import (
    PlaneTree,
    catalan,
    dyck_depths,
    dyck_forest_codes,
    dyck_parents,
    dyck_truncation_code,
    enumerate_plane_trees,
    parse_plane_code,
    plane_code,
    plane_embeddings_count,
    sample_dyck_word,
    sample_plane_tree,
    unordered_code,
)

from chi_square import chi_square_gof


def test_catalan_prefix():
    assert [catalan(i) for i in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_roundtrip_and_enumeration_counts():
    for n in range(1, 8):
        codes = [plane_code(t) for t in enumerate_plane_trees(n)]
        assert len(codes) == catalan(n)
        assert len(set(codes)) == len(codes)
        for code in codes:
            assert plane_code(parse_plane_code(code)) == code


def test_parse_rejects_garbage():
    for bad in ["(", "())(", "(()", "ab", "())("]:
        with pytest.raises(ValueError):
            parse_plane_code(bad)


def test_heights_and_truncation():
    t = parse_plane_code("((())())")
    assert t.n_edges == 4
    assert t.height() == 3
    assert t.count_at_height(3) == 1
    assert t.count_at_height(2) == 2
    cut = t.truncate(2)
    assert plane_code(cut) == "(()())"
    assert cut.height() == 2


def test_unordered_code_identifies_reflections():
    a = parse_plane_code("(())()")
    b = parse_plane_code("()(())")
    assert unordered_code(a) == unordered_code(b)
    assert plane_code(a) != plane_code(b)


def test_embeddings_partition_catalan():
    # summing plane embeddings over distinct shapes recovers the plane count
    for n in range(1, 8):
        shapes = {}
        for t in enumerate_plane_trees(n):
            shapes.setdefault(unordered_code(t), t)
        assert sum(plane_embeddings_count(t) for t in shapes.values()) == catalan(n)


def test_embeddings_small_cases():
    assert plane_embeddings_count(parse_plane_code("(())")) == 1
    assert plane_embeddings_count(parse_plane_code("()()")) == 1
    assert plane_embeddings_count(parse_plane_code("(())()")) == 2
    assert plane_embeddings_count(parse_plane_code("(())(())")) == 1


def _uniformity_p_value(n, draws, seed):
    rng = np.random.default_rng(seed)
    counts = {}
    for _ in range(draws):
        code = plane_code(sample_plane_tree(n, rng))
        counts[code] = counts.get(code, 0) + 1
    probs = {plane_code(t): 1 / catalan(n) for t in enumerate_plane_trees(n)}
    assert set(counts) <= set(probs)
    return chi_square_gof(counts, probs, draws).p_value


def test_sampler_is_uniform_over_small_trees():
    assert _uniformity_p_value(3, 5000, 7) > 0.001


def test_sampler_is_uniform_over_the_42_trees_with_five_edges():
    assert _uniformity_p_value(5, 8400, 17) > 0.001


def test_empty_dyck_word():
    word = sample_dyck_word(0, np.random.default_rng(0))
    assert word.dtype == np.int8 and word.shape == (0,)


def test_sampled_sizes():
    rng = np.random.default_rng(3)
    for n in (1, 2, 9):
        t = sample_plane_tree(n, rng)
        assert isinstance(t, PlaneTree)
        assert t.n_edges == n
        assert t.n_vertices == n + 1


def test_cycle_lemma_cut_matches_prefix_sum_argmin():
    # the cut read off the up-step positions against the first minimum of
    # the prefix sums, on the same up-step draw
    for n in range(41):
        for seed in range(50):
            steps = np.full(2 * n + 1, -1, dtype=np.int8)
            up = np.random.default_rng(seed).choice(2 * n + 1, n, replace=False, shuffle=False)
            steps[up] = 1
            cut = int(np.argmin(np.cumsum(steps))) + 1
            expected = np.concatenate((steps[cut:], steps[:cut - 1]))
            assert np.array_equal(sample_dyck_word(n, np.random.default_rng(seed)), expected)


def test_dyck_word_arrays_match_tuple_trees():
    # the vectorised parents, depths and truncation codes against the
    # tuple parser and PlaneTree.truncate, on every tree with n <= 7
    for n in range(8):
        for tree in enumerate_plane_trees(n):
            code = plane_code(tree)
            word = np.array([1 if c == "(" else -1 for c in code], dtype=np.int8)
            depth = dyck_depths(word)
            reference = parse_plane_code(code)
            assert dyck_parents(depth).tolist() == reference.parents()
            assert depth.tolist() == reference.heights()
            for r in range(4):
                assert dyck_truncation_code(depth, r) == plane_code(tree.truncate(r))
    # a forest word, the trees' words each wrapped in one pair, splits back
    codes = [plane_code(t) for n in range(5) for t in enumerate_plane_trees(n)]
    forest = "".join("(" + code + ")" for code in codes)
    word = np.array([1 if c == "(" else -1 for c in forest], dtype=np.int8)
    assert dyck_forest_codes(word) == codes


@pytest.mark.parametrize("n", [50, 300, 2000])
def test_dyck_parents_match_tuple_trees_on_sampled_words(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        word = sample_dyck_word(n, rng)
        assert word.dtype == np.int8 and len(word) == 2 * n
        reference = parse_plane_code("".join("(" if s > 0 else ")" for s in word.tolist()))
        depth = dyck_depths(word)
        assert dyck_parents(depth).tolist() == reference.parents()
        assert depth.tolist() == reference.heights()
