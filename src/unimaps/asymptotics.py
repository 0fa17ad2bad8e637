"""The linear-genus regime: the tilt parameter with its moments and
log-scale asymptotic counts.

When the genus grows like g ~ theta*n, the cycle lengths of the vertex
permutation behave like i.i.d. odd-valued variables X with
P(X = k) = beta^k / (Z k), Z = arctanh(beta).  The tilt beta is pinned
by the mean constraint

    E[X_beta] = beta / (Z (1 - beta^2)) = 1 / (1 - 2 theta),

equivalently f(beta) := Z (1 - beta^2) / beta = 1 - 2 theta, and the
count of one-face maps satisfies

    #U(n, g) ~ A * (2n)! / (n! s! sqrt(s)) * Z^s / (4^g beta^(n+1)),

with s = n+1-2g and A = 2 / sqrt(2 pi Var(X_beta)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .counting import lehman_walsh_count

_BISECT_STEPS = 200


def f_beta(beta: float) -> float:
    """f(beta) = arctanh(beta) * (1 - beta^2) / beta, decreasing from 1
    at beta -> 0 to 0 at beta -> 1; the reciprocal of E[X_beta]."""
    if not (0 < beta < 1):
        raise ValueError("beta must be in (0, 1)")
    return math.atanh(beta) * (1.0 - beta * beta) / beta


def x_moments(beta: float) -> tuple[float, float, float]:
    """(Z, mean, variance) of the odd-valued law P(X=k) = beta^k / (Z k).

    Closed forms from the geometric series:
        E[X]   = beta / (Z (1 - beta^2))
        E[X^2] = beta (1 + beta^2) / (Z (1 - beta^2)^2)
    """
    if not (0 < beta < 1):
        raise ValueError("beta must be in (0, 1)")
    z = math.atanh(beta)
    one = 1.0 - beta * beta
    mean = beta / (z * one)
    ex2 = beta * (1.0 + beta * beta) / (z * one * one)
    return z, mean, ex2 - mean * mean


def solve_beta_theta(theta: float) -> float:
    """beta with f(beta) = 1 - 2*theta, by bisection; 0.0 at theta = 0."""
    if not (0 <= theta < 0.5):
        raise ValueError("theta must be in [0, 1/2)")
    if theta == 0:
        return 0.0
    target = 1.0 - 2.0 * theta
    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if f_beta(mid) > target:  # f decreasing: solution above mid
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Regime:
    """Resolved constants of the linear-genus regime at a given theta."""

    theta: float
    beta: float
    xi: float
    z_beta: float
    mean_x: float
    var_x: float
    a_const: float


def regime(theta: float) -> Regime:
    """Solve the mean constraint at theta and package the constants.

    xi = (1 - beta)/2 is the offspring parameter of the limiting
    Galton-Watson tree; a_const = 2/sqrt(2 pi Var) is the local-limit
    prefactor, infinite at theta = 0 where the variance vanishes.
    """
    beta = solve_beta_theta(theta)
    if theta == 0:
        return Regime(0.0, 0.0, 0.5, 0.0, 1.0, 0.0, math.inf)
    z, mean, var = x_moments(beta)
    return Regime(theta, beta, (1.0 - beta) / 2.0, z, mean, var, 2.0 / math.sqrt(2.0 * math.pi * var))


def log_asymptotic_count(n: int, g: int) -> float:
    """Natural log of the asymptotic count of one-face maps, evaluated
    in log-space with lgamma; beta is pinned at the finite-size mean
    (n+1)/s, i.e. at theta = g/(n+1), while the variance prefactor uses
    theta = g/n.

    Defined for 1 <= g and 2g < n: at g = 0 the variance vanishes, and
    at 2g = n the prefactor's theta reaches 1/2.
    """
    if not (1 <= g and 2 * g < n):
        raise ValueError(f"asymptotic count needs 1 <= g and 2g < n, got n={n}, g={g}")
    s = n + 1 - 2 * g
    beta = solve_beta_theta(g / (n + 1))
    z = math.atanh(beta)
    _, _, var = x_moments(solve_beta_theta(g / n))
    a_const = 2.0 / math.sqrt(2.0 * math.pi * var)
    return (
        math.log(a_const)
        + math.lgamma(2 * n + 1)
        - math.lgamma(n + 1)
        - math.lgamma(s + 1)
        - 0.5 * math.log(s)
        + s * math.log(z)
        - g * math.log(4.0)
        - (n + 1) * math.log(beta)
    )


def asymptotic_ratio(n: int, g: int) -> float:
    """exp(log_asymptotic_count - log exact count); -> 1 as n grows."""
    return ratio_to_exact(log_asymptotic_count(n, g), lehman_walsh_count(n, g))


def ratio_to_exact(log_asymptotic: float, exact: int) -> float:
    """exp(log_asymptotic - log exact), for callers that hold both."""
    if exact == 0:
        raise ValueError("no maps at this (n, g)")
    return math.exp(log_asymptotic - math.log(exact))


def count_ratio_limit(theta: float, k: int, d: int) -> float:
    """Limit of #U(n - (k-d), g) / #U(n, g) along g ~ theta * n:
    ((1 - beta^2)/4)^(k-d)."""
    if not (0 <= theta < 0.5):
        raise ValueError("theta must be in [0, 1/2)")
    if k < d:
        raise ValueError("need k >= d")
    beta = solve_beta_theta(theta)
    return ((1.0 - beta * beta) / 4.0) ** (k - d)
