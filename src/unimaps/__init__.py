"""Unicellular (one-face) maps on orientable surfaces.

Exact enumeration and exact uniform sampling through odd-cycle-decorated
plane trees, together with the supercritical geometric Galton-Watson
trees that describe their local (Benjamini-Schramm) limits when the
genus grows linearly with the size.
"""

__version__ = "0.1.0"

from .trees import PlaneTree, catalan, sample_plane_tree, plane_code, parse_plane_code, unordered_code
from .maps import (
    Permutation,
    RotationMap,
    RootedGraph,
    faces_and_genus,
    rotation_ball_code,
    unfolding_ball_code,
)
from .counting import (
    odd_cycle_perm_count,
    lehman_walsh_count,
    lehman_walsh_row,
)
from .asymptotics import (
    Regime,
    f_beta,
    solve_beta_theta,
    x_moments,
    regime,
    log_asymptotic_count,
    count_ratio_limit,
)
from .distributions import (
    XBetaLaw,
    x_beta_pmf,
    size_biased_cycle_pmf,
    root_degree_limit_pmf,
    extinction_prob,
    gw_ball_sample,
    gw_inf_ball_sample,
    ball_probability,
)
from .sampler import (
    CDecoratedTree,
    UnicellularSample,
    OddCyclePermutationSampler,
    BallShape,
    sample_odd_cycle_permutation,
    sample_unicellular,
    root_degree,
    ball_as_tree,
)
from .oracle import (
    GluingCensus,
    enumerate_unicellular,
    census,
    exact_root_degree_dist,
    exact_ball_dist,
    verify_surgery,
)
from .experiments import (
    ExperimentConfig,
    ComparisonReport,
    run_local_limit,
    run_root_degree,
    degree_profile,
    tv_distance,
)
