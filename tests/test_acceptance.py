"""End-to-end gate for the package's headline guarantees.

Every test here is deterministic: fixed seeds, fixed configurations,
tolerances stated inline.  Statistical checks use z-scores against
binomial standard errors and total-variation caps; exact checks compare
integers.  The module takes about 27 s on a 2-core x86_64 machine, of
a whole suite of 36-43 s, nearly all of it in the four sampling tests
of the root degree, ball frequencies, odd-cycle uniformity and
near-planar balls.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from unimaps.asymptotics import (
    asymptotic_ratio,
    f_beta,
    log_asymptotic_count,
    regime,
    solve_beta_theta,
    x_moments,
)
from unimaps.counting import double_factorial, lehman_walsh_count
from unimaps.distributions import ball_probability_kd, gw_inf_ball_sample
from unimaps.experiments import (
    ExperimentConfig,
    degree_profile,
    run_local_limit,
    run_root_degree,
)
from unimaps.oracle import census, verify_surgery
from unimaps.sampler import OddCyclePermutationSampler, sample_unicellular
from unimaps.trees import dyck_forest_codes, enumerate_plane_trees, plane_code
from unimaps.cli import main

from chi_square import chi_square_gof


def test_closed_form_counts_match_exhaustive_enumeration():
    for n in range(1, 8):
        result = census(n)
        assert sum(result.counts.values()) == double_factorial(2 * n - 1)
        for g in range(n // 2 + 1):
            assert result.counts.get(g, 0) == lehman_walsh_count(n, g)
    assert lehman_walsh_count(3, 1) == 10
    assert lehman_walsh_count(4, 2) == 21
    assert lehman_walsh_count(2, 1) == 1


def test_growth_rate_solver_satisfies_defining_identities():
    start = time.perf_counter()
    for theta in np.linspace(0.005, 0.49, 50):
        beta = solve_beta_theta(theta)
        assert abs(f_beta(beta) - (1.0 - 2.0 * theta)) < 1e-10
        _, mean, _ = x_moments(beta)
        assert abs(mean * (1.0 - 2.0 * theta) - 1.0) < 1e-9
    assert time.perf_counter() - start < 1.0


def test_asymptotic_formula_tracks_exact_counts():
    ratio_300 = asymptotic_ratio(300, 30)
    assert 0.9 < ratio_300 < 1.1
    direct = math.exp(log_asymptotic_count(300, 30)
                      - math.log(lehman_walsh_count(300, 30)))
    assert direct == pytest.approx(ratio_300, rel=1e-9)
    ratio_100 = asymptotic_ratio(100, 10)
    assert abs(ratio_300 - 1.0) < abs(ratio_100 - 1.0)


def test_sampled_root_degree_matches_predicted_laws():
    cfg = ExperimentConfig(n=2000, g=500, samples=10_000, seed=11,
                           workers=4)
    report = run_root_degree(cfg, reference="limit", tv_max=0.05)
    assert report.passed
    assert report.tv_of("root_degree") <= 0.05
    for row in report.section_rows("root_degree"):
        if int(row.outcome) <= 8 and row.expected > 0:
            assert abs(row.z) <= 4.0

    small = ExperimentConfig(n=4, g=1, samples=100_000, seed=17,
                             workers=4)
    exact_report = run_root_degree(small, reference="exact", tv_max=0.01)
    assert exact_report.passed
    assert exact_report.tv_of("root_degree") < 0.01


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _likely_ball_outcomes(xi, r, p_min):
    """Plane codes of height-r trees whose ball probability is >= p_min.

    At radius 1 the only trees are stars.  At radius 2 a tree is a list
    of root children with m_i grandchildren each, so the (k, d) cell with
    k - d children splits into compositions of d.
    """
    out = {}
    if r == 1:
        for k in range(1, 200):
            p = ball_probability_kd(xi, k, k)
            if p >= p_min:
                out["()" * k] = p
        return out
    for k in range(2, 200):
        if ball_probability_kd(xi, k, k - 1) < p_min:
            if k > 8:
                break
            continue
        for d in range(1, k):
            p = ball_probability_kd(xi, k, d)
            if p < p_min:
                continue
            for parts in _compositions(d, k - d):
                code = "".join("(" + "()" * m + ")" for m in parts)
                out[code] = p
    return out


def test_conditioned_tree_ball_law_is_self_consistent():
    samples = 100_000
    seed = 101
    for xi in (0.1, 0.3):
        for r in (1, 2):
            rng = np.random.default_rng(seed)
            seed += 1
            counts = Counter()
            for _ in range(samples // 2000):
                counts.update(dyck_forest_codes(gw_inf_ball_sample(xi, r, rng, size=2000)))
            outcomes = _likely_ball_outcomes(xi, r, 50.0 / samples)
            assert outcomes
            assert sum(outcomes.values()) <= 1.0 + 1e-12
            for code, prob in outcomes.items():
                se = math.sqrt(prob * (1.0 - prob) / samples)
                z = (counts[code] / samples - prob) / se
                assert abs(z) <= 4.0, (xi, r, code, z)
    for xi in (0.1, 0.3, 0.5):
        total = sum(ball_probability_kd(xi, k, k) for k in range(1, 2000))
        assert total == pytest.approx(1.0, abs=1e-12)


def _scored_head_within_z(report, z_max=4.0, min_expected=50.0, top_m=10):
    samples = dict(report.params)["samples"]
    for section in report.scored:
        rows = sorted(report.section_rows(section),
                      key=lambda row: (-row.expected, row.outcome))
        for row in rows[:top_m]:
            if row.expected * samples >= min_expected:
                assert abs(row.z) <= z_max, (section, row.outcome, row.z)


def test_ball_frequencies_converge_to_limit_law():
    cfg = ExperimentConfig(n=2000, g=500, samples=10_000,
                           seed=20260822, workers=4)
    report = run_local_limit(cfg, radii=(1, 2))
    assert report.passed
    # at this genus nearly every radius-2 ball touches a glued vertex, so
    # full plane structure at radius 2 is reported but cannot be scored;
    # tree shapes (at radius 1 a star, which fixes its plane order) and
    # the (edges, deepest) pooling remain scorable
    assert set(report.scored) >= {"shape_r1", "shape_r2", "kd_r2"}
    assert "plane_r2" not in report.scored
    _scored_head_within_z(report)
    assert report.mass("nontree_r2") < 1.0

    def nontree_mass(n, g, seed):
        sub = ExperimentConfig(n=n, g=g, samples=3000, seed=seed,
                               workers=4)
        return run_local_limit(sub, radii=(2,)).mass("nontree_r2")

    low, high = nontree_mass(1000, 250, 99), nontree_mass(4000, 1000, 99)
    assert high < low - 0.05


def test_near_planar_maps_match_critical_ball_law():
    cfg = ExperimentConfig(n=2000, g=3, samples=10_000, seed=4242,
                           workers=4)
    report = run_local_limit(cfg, radii=(1, 2), xi=0.5)
    assert report.passed
    assert "plane_r2" in report.scored
    _scored_head_within_z(report)
    bound = 2.0 * (2.0 * cfg.g / (cfg.n + 1))
    assert report.mass("nonfixed_vertex_fraction_r2") <= bound


def test_cut_and_reattach_count_identity_exhaustive():
    checked = 0
    for k in range(1, 4):
        for tree in enumerate_plane_trees(k):
            d = tree.count_at_height(tree.height())
            for n in range(1, 7):
                if n - k + d < 1:
                    continue
                for g in range(n // 2 + 1):
                    if 2 * g > n - k + d:
                        continue
                    check = verify_surgery(n, g, tree)
                    assert check.equal, (n, g, plane_code(tree))
                    checked += 1
    assert checked > 50


def test_odd_cycle_permutation_sampler_is_uniform():
    rng = np.random.default_rng(12)
    sampler = OddCyclePermutationSampler(5, 3)
    draws = 200_000
    counts = Counter(map(tuple, sampler.sample(rng, draws).tolist()))
    assert len(counts) == 20
    result = chi_square_gof(counts, {perm: 1 / 20 for perm in counts},
                            draws)
    assert result.p_value > 0.001

    identity = OddCyclePermutationSampler(6, 6)
    assert identity.sample(rng, 50).tolist() == [list(range(6))] * 50


def test_mean_degree_identity_and_ball_average_bias():
    rng = np.random.default_rng(8)
    for n, g in ((5, 0), (12, 3), (50, 10)):
        [sample] = sample_unicellular(n, g, rng, 1)
        graph = sample.graph
        degrees = Counter()
        for a, b in graph.edges:
            degrees[a] += 1
            degrees[b] += 1
        assert len(degrees) == n + 1 - 2 * g
        assert sum(degrees.values()) == 2 * n

    cfg = ExperimentConfig(n=2000, g=500, samples=2000, seed=23,
                           workers=4)
    report = degree_profile(cfg, r=12)
    assert report.passed
    global_row = report.section_rows("global")[0]
    assert global_row.observed == 2.0 * 2000 / (2000 + 1 - 2 * 500)
    beta = dict(report.constants)["beta"]
    ball_rows = report.section_rows("ball_average")
    last = ball_rows[-1]
    assert last.expected == pytest.approx(2.0 / (1.0 - beta), rel=1e-12)
    assert abs(last.observed / last.expected - 1.0) <= 0.10
    # the ball average sits strictly above the global mean: the ball of
    # the limit tree is size biased toward busy neighborhoods
    assert last.expected > global_row.expected


def test_identical_config_reproduces_identical_reports(tmp_path, capsys):
    cfg = ExperimentConfig(n=40, g=5, samples=400, seed=2024, workers=3)
    first = run_local_limit(cfg, radii=(1, 2))
    second = run_local_limit(cfg, radii=(1, 2))
    assert first.to_csv() == second.to_csv()
    assert first.to_json() == second.to_json()

    deg_cfg = ExperimentConfig(n=60, g=10, samples=500, seed=3,
                               workers=2)
    assert (run_root_degree(deg_cfg).to_csv()
            == run_root_degree(deg_cfg).to_csv())

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["sample", "--n", "12", "--g", "3", "--samples", "5",
            "--seed", "77", "--emit-cdt"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
