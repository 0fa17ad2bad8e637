"""Chi-square goodness of fit for the tests' uniformity checks.

Outcome tables are plain mappings from hashable outcomes to probabilities
or counts; nothing here knows what the outcomes mean.  scipy, which
gives the p-value, comes with the package's test extra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from scipy import stats as sps

# bucket label for mass not covered by the listed outcomes
OTHER = "!other"


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float
    buckets: dict = field(compare=False)


def chi_square_gof(counts: Mapping, probs: Mapping, n_samples: int,
                   min_expected: float = 10.0) -> ChiSquareResult:
    """Goodness of fit with sparse outcomes merged into an OTHER bucket.

    Theory buckets with expected count below min_expected are pooled, as is
    all theory mass outside the listed outcomes; observed counts follow the
    same pooling, so the statistic is a valid multinomial chi-square.
    """
    kept = {k: float(p) for k, p in probs.items()
            if float(p) * n_samples >= min_expected}
    other_p = 1.0 - sum(kept.values())
    obs = {k: counts.get(k, 0) for k in kept}
    other_o = n_samples - sum(obs.values())
    buckets = dict(obs)
    exp = {k: p * n_samples for k, p in kept.items()}
    if other_p * n_samples >= min_expected or other_o > 0:
        buckets[OTHER] = other_o
        exp[OTHER] = other_p * n_samples
    stat = 0.0
    for k, e in exp.items():
        if e <= 0:
            if buckets[k] > 0:
                raise ValueError(f"observed outcome {k!r} has zero expected mass")
            continue
        stat += (buckets[k] - e) ** 2 / e
    dof = max(1, len(exp) - 1)
    return ChiSquareResult(stat, dof, float(sps.chi2.sf(stat, dof)), buckets)
