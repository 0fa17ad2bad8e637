"""Odd-valued step law, branching-tree ball laws, and their samplers."""

import math
from collections import Counter

import numpy as np
import pytest

from unimaps import distributions
from unimaps.asymptotics import solve_beta_theta
from unimaps.distributions import (
    GENERATION_ROWS,
    XBetaLaw,
    ball_probability,
    ball_probability_kd,
    extinction_prob,
    gw_ball_probability,
    gw_ball_sample,
    gw_inf_ball_sample,
    inf_ball_generations,
    inf_ball_mean_size,
    root_degree_conv_pmf,
    root_degree_limit_pmf,
    root_degree_pmf_beta,
    size_biased_cycle_pmf,
    x_beta_pmf,
)
from unimaps.trees import (
    dyck_forest_codes,
    enumerate_plane_trees,
    parse_plane_code,
)

CHUNK = 2000  # balls per batched draw


def test_x_beta_pmf_frozen_and_normalized():
    assert x_beta_pmf(0.5, 1) == pytest.approx(0.9102392266268375, rel=1e-12)
    assert x_beta_pmf(0.5, 2) == 0.0
    total = sum(x_beta_pmf(0.5, v) for v in range(1, 201, 2))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_x_beta_sampling_is_odd_and_centered():
    law = XBetaLaw(solve_beta_theta(0.25))
    rng = np.random.default_rng(5)
    draws = law.sample(rng, size=4000)
    assert np.all(draws % 2 == 1)
    assert float(np.mean(draws)) == pytest.approx(2.0, abs=0.15)


def test_x_beta_cumulative_table():
    law = XBetaLaw(0.5)
    table = law.cumulative(10 ** 6)
    running = np.cumsum([law.pmf(v) for v in range(1, 2 * len(table), 2)])
    np.testing.assert_allclose(table, running, rtol=1e-14, atol=0)
    # a long cap is cut where the law is covered to double precision
    assert len(table) < 40
    assert 1.0 - table[-1] < 2.0 ** -52
    capped = law.cumulative(9)
    assert len(capped) == 5
    assert capped[-1] == pytest.approx(table[4], rel=1e-15)
    assert XBetaLaw(0.0).cumulative(9).tolist() == [1.0]


@pytest.mark.parametrize("beta", [0.3, 0.9, 0.999999, 1.0 - 2.0 ** -53])
def test_x_beta_sampling_matches_pmf_up_to_beta_near_one(beta):
    law = XBetaLaw(beta)
    n = 40000
    draws = law.sample(np.random.default_rng(17), size=n)
    assert draws.dtype == np.int64 and np.all(draws >= 1) and np.all(draws % 2 == 1)
    for v in (1, 3, 5):
        p = law.pmf(v)
        z = (np.count_nonzero(draws == v) - n * p) / np.sqrt(n * p * (1.0 - p))
        assert abs(z) < 4.5, (v, z)


def test_size_biased_pmf():
    assert size_biased_cycle_pmf(0.5, 3) == pytest.approx(0.1875, rel=1e-12)
    beta = 0.5
    total = sum(size_biased_cycle_pmf(beta, v) for v in range(1, 301, 2))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_root_degree_routes_agree():
    for theta in (0.05, 0.25):
        beta = solve_beta_theta(theta)
        for d in range(1, 12):
            assert root_degree_pmf_beta(beta, d) == pytest.approx(
                root_degree_conv_pmf(beta, d), rel=1e-10)
    total = sum(root_degree_limit_pmf(0.25, d) for d in range(1, 400))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_root_degree_first_two_values_coincide():
    # the two geometric factors have success rates summing to one, which
    # makes the first two pmf values equal
    p1 = root_degree_limit_pmf(0.25, 1)
    p2 = root_degree_limit_pmf(0.25, 2)
    assert p1 == pytest.approx(0.09144139666253231, rel=1e-10)
    assert p2 == pytest.approx(p1, rel=1e-12)


def test_ball_probability_depends_only_on_k_and_d():
    xi = 0.23
    for tree in enumerate_plane_trees(4):
        h = tree.height()
        want = ball_probability_kd(xi, tree.n_edges, tree.count_at_height(h))
        assert ball_probability(xi, tree) == pytest.approx(want, rel=1e-12)


def test_critical_ball_closed_form():
    for k, d in [(1, 1), (3, 2), (5, 1), (4, 4)]:
        want = d * 0.25 ** (k + 1 - d) * 0.5 ** (d - 1)
        assert ball_probability_kd(0.5, k, d) == pytest.approx(want, rel=1e-12)


def test_star_masses_sum_to_one():
    for xi in (0.1, 0.3, 0.5):
        total = sum(ball_probability_kd(xi, d, d) for d in range(1, 4000))
        assert abs(total - 1.0) < 1e-12


def test_extinction_prob():
    assert extinction_prob(0.3) == pytest.approx(0.3 / 0.7, rel=1e-12)
    assert extinction_prob(0.5) == 1.0


def _heights(forest):
    """Height of every ball of a forest word."""
    depth = np.cumsum(forest)
    ends = np.flatnonzero(depth == 0)
    return np.maximum.reduceat(depth, np.r_[0, ends[:-1] + 1]) - 1


def test_gw_ball_sampler_shapes():
    xi, r, draws = 0.4, 2, 20000
    rng = np.random.default_rng(11)
    counts = Counter()
    for _ in range(draws // CHUNK):
        forest = gw_ball_sample(xi, r, rng, size=CHUNK)
        assert _heights(forest).max() <= r
        counts.update(dyck_forest_codes(forest))
        assert np.all(_heights(gw_inf_ball_sample(xi, r, rng, size=CHUNK)) == r)
    probs = {code: gw_ball_probability(xi, parse_plane_code(code), r) for code in counts}
    for code in sorted(probs, key=probs.get, reverse=True)[:15]:
        se = math.sqrt(probs[code] * (1 - probs[code]) / draws)
        assert abs(counts[code] / draws - probs[code]) < 4.5 * se, code


def test_inf_ball_against_formula_small():
    r, draws = 1, 20000
    rng = np.random.default_rng(2)
    for xi in (0.3, 0.5):
        counts = Counter()
        for _ in range(draws // CHUNK):
            counts.update(dyck_forest_codes(gw_inf_ball_sample(xi, r, rng, size=CHUNK)))
        for d in range(1, 5):
            code = "()" * d
            prob = ball_probability_kd(xi, d, d)
            se = math.sqrt(prob * (1 - prob) / draws)
            assert abs(counts[code] / draws - prob) < 4.5 * se, (xi, code)


def test_forest_word_splits_into_balls():
    rng = np.random.default_rng(12)
    r, balls = 2, 1000
    for xi in (0.1, 0.3, 0.5):
        forest = gw_inf_ball_sample(xi, r, rng, size=balls)
        codes = dyck_forest_codes(forest)
        assert len(codes) == balls
        assert np.all(_heights(forest) == r)
        if xi < 0.5:
            forest = gw_ball_sample(xi, r, rng, size=balls)
            assert len(dyck_forest_codes(forest)) == balls
            assert _heights(forest).max() <= r
    assert gw_inf_ball_sample(0.3, 2, rng, size=0).size == 0
    assert dyck_forest_codes(gw_inf_ball_sample(0.3, 0, rng, size=3)) == ["", "", ""]
    with pytest.raises(ValueError):
        gw_inf_ball_sample(0.3, 2, rng, size=-1)


def _generation_sizes(xi, r, rng, size):
    """One block of the stream as a (size, r + 1) array, column h = Z_h."""
    return np.column_stack([z for _, z in inf_ball_generations(xi, r, rng, size)])


def test_mean_ball_size_matches_generation_sizes():
    draws = 20000
    rng = np.random.default_rng(13)
    for xi, r in ((0.1, 2), (0.3, 3), (0.5, 4)):
        gen = _generation_sizes(xi, r, rng, size=draws)
        assert gen.shape == (draws, r + 1)
        assert np.all(gen[:, 0] == 1)
        sizes = gen.sum(axis=1)
        se = sizes.std() / math.sqrt(draws)
        assert abs(sizes.mean() - inf_ball_mean_size(xi, r)) < 4.5 * se, (xi, r)
    assert inf_ball_mean_size(0.3, 0) == 1.0


def test_unconditioned_ball_probability():
    # without survival conditioning the law factorizes over edges
    xi = 0.2
    for tree in enumerate_plane_trees(3):
        h = tree.height()
        k, d = tree.n_edges, tree.count_at_height(h)
        want = (1 - xi) ** k * xi ** (k + 1 - d)
        assert gw_ball_probability(xi, tree, h) == pytest.approx(want, rel=1e-12)


def test_generation_sizes_start_at_root():
    rng = np.random.default_rng(8)
    gen = _generation_sizes(0.3, 4, rng, size=1)
    assert gen.shape == (1, 5)
    assert gen[0, 0] == 1
    assert np.all(gen >= 1)


class _CountingRng:
    """A Generator whose negative_binomial calls are counted."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def negative_binomial(self, n, p):
        self.calls += 1
        return self.rng.negative_binomial(n, p)


def test_generations_take_two_calls_per_generation_and_block():
    r, samples = 300, 10000
    rng = _CountingRng(np.random.default_rng(4))
    for _ in inf_ball_generations(0.5, r, rng, samples):
        pass
    assert rng.calls == 2 * r * math.ceil(samples / GENERATION_ROWS)


def test_generation_radius_is_checked_at_once():
    rng = _CountingRng(np.random.default_rng(4))
    for r in (-1, 1 << 16):
        with pytest.raises(ValueError):
            inf_ball_generations(0.5, r, rng, 1)
    assert rng.calls == 0


def test_generations_restart_with_each_block(monkeypatch):
    monkeypatch.setattr(distributions, "GENERATION_ROWS", 5)
    stream = inf_ball_generations(0.3, 2, np.random.default_rng(6), 12)
    assert [(h, z.size) for h, z in stream] == [(h, rows) for rows in (5, 5, 2)
                                                for h in range(3)]


def test_generation_sizes_match_ball_law():
    # at r = 2 the j = Z1 root children carry d = Z2 grandchildren in
    # C(d + j - 1, j - 1) plane arrangements, all of ball probability
    # ball_probability_kd(xi, j + d, d)
    r, draws = 2, 40000
    rng = np.random.default_rng(9)
    for xi in (0.3, 0.5):
        cells = {(j + d, d): math.comb(d + j - 1, j - 1) * ball_probability_kd(xi, j + d, d)
                 for j in range(1, 80) for d in range(1, 200)}
        assert sum(cells.values()) == pytest.approx(1.0, abs=1e-9)
        gen = _generation_sizes(xi, r, rng, size=draws)
        counts = Counter(zip((gen[:, 1] + gen[:, 2]).tolist(), gen[:, 2].tolist()))
        for kd in sorted(cells, key=cells.get, reverse=True)[:15]:
            se = math.sqrt(cells[kd] * (1 - cells[kd]) / draws)
            assert abs(counts[kd] / draws - cells[kd]) < 4.5 * se, (xi, kd)
