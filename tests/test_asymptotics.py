"""Tilt parameter solver, moment formulas, and count asymptotics."""

import math

import numpy as np
import pytest

from unimaps.asymptotics import (
    asymptotic_ratio,
    count_ratio_limit,
    f_beta,
    log_asymptotic_count,
    regime,
    solve_beta_theta,
    x_moments,
)
from unimaps.counting import lehman_walsh_count
from unimaps.distributions import x_beta_pmf


def test_solver_frozen_value():
    assert solve_beta_theta(0.25) == pytest.approx(0.7963883558602993, abs=1e-12)


def test_solver_inverts_f():
    for theta in np.linspace(0.01, 0.49, 25):
        beta = solve_beta_theta(float(theta))
        assert abs(f_beta(beta) - (1.0 - 2.0 * theta)) < 1e-10


def test_solver_monotone():
    betas = [solve_beta_theta(t) for t in np.linspace(0.0, 0.45, 12)]
    assert all(a < b for a, b in zip(betas, betas[1:]))


def test_mean_matches_series():
    beta = solve_beta_theta(0.3)
    z, mean, var = x_moments(beta)
    series = sum(v * x_beta_pmf(beta, v) for v in range(1, 4001, 2))
    assert mean == pytest.approx(series, rel=1e-10)
    assert mean == pytest.approx(1.0 / (1.0 - 2.0 * 0.3), rel=1e-9)
    assert z == pytest.approx(math.atanh(beta), rel=1e-12)
    assert var > 0


def test_regime_theta_zero():
    reg = regime(0.0)
    assert reg.beta == 0.0
    assert reg.xi == 0.5
    assert reg.mean_x == 1.0
    assert reg.z_beta == 0.0


def test_regime_frozen_quarter():
    reg = regime(0.25)
    assert reg.xi == pytest.approx(0.10180582206985034, abs=1e-12)
    assert reg.mean_x == pytest.approx(2.0, rel=1e-9)
    assert reg.a_const == pytest.approx(0.359131900744396, rel=1e-6)


def test_solver_pins_finite_size_mean():
    # theta = g/(n+1) is the finite-size mean constraint E[X] = (n+1)/s
    for n, g in ((50, 10), (500, 100), (400, 199), (10, 1)):
        s = n + 1 - 2 * g
        _, mean, _ = x_moments(solve_beta_theta(g / (n + 1)))
        assert mean == pytest.approx((n + 1) / s, rel=1e-12)


def test_asymptotic_against_exact_counts():
    exact = lehman_walsh_count(60, 6)
    ratio = math.exp(log_asymptotic_count(60, 6) - math.log(exact))
    assert 0.9 < ratio < 1.1
    assert asymptotic_ratio(100, 10) == pytest.approx(1.0008871237339698, rel=1e-9)
    assert asymptotic_ratio(300, 30) == pytest.approx(1.0002865490681925, rel=1e-9)


def test_count_ratio_limit_values():
    beta = solve_beta_theta(0.25)
    want = (1.0 - beta * beta) / 4.0
    assert count_ratio_limit(0.25, 5, 4) == pytest.approx(want, rel=1e-12)
    assert count_ratio_limit(0.25, 5, 5) == 1.0
    assert count_ratio_limit(0.0, 3, 1) == pytest.approx(0.0625, rel=1e-12)
