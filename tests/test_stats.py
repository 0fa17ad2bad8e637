"""The report's TV distance and the tests' goodness-of-fit helper."""

import pytest

from unimaps.experiments import tv_distance

from chi_square import chi_square_gof


def test_tv_trivial_cases():
    assert tv_distance({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}) == 0.0
    assert tv_distance({"a": 1.0}, {"b": 1.0}) == 1.0
    assert tv_distance({"a": 0.5, "b": 0.5}, {"a": 1.0}) == pytest.approx(0.5)


def test_tv_residual_mass():
    # a table covering only part of its mass contributes the leftover
    assert tv_distance({"a": 0.6}, {"a": 0.6, "b": 0.4}) == pytest.approx(0.4)
    # mass past one is no leftover: d(p, p) == 0 for every table
    assert tv_distance({"a": 0.6, "b": 0.6}, {"a": 0.6, "b": 0.6}) == 0.0


def test_tv_rejects_negative():
    with pytest.raises(ValueError):
        tv_distance({"a": -0.1, "b": 1.1}, {"a": 1.0})


def test_chi_square_identity_fit():
    counts = {"a": 500, "b": 300, "c": 200}
    probs = {"a": 0.5, "b": 0.3, "c": 0.2}
    result = chi_square_gof(counts, probs, 1000)
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == pytest.approx(1.0)


def test_chi_square_merges_rare_outcomes():
    probs = {"a": 0.9985, "b": 0.0005, "c": 0.0005, "d": 0.0005}
    counts = {"a": 998, "b": 1, "c": 1, "d": 0}
    result = chi_square_gof(counts, probs, 1000)
    assert result.dof >= 1
    assert 0.0 <= result.p_value <= 1.0
