"""Small statistics toolkit for comparing empirical and exact laws.

Outcome tables are plain mappings from hashable outcomes to probabilities
or counts; nothing here knows what the outcomes mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "OTHER",
    "tv_distance",
    "ChiSquareResult",
    "chi_square_gof",
]

# bucket label for mass not covered by the listed outcomes
OTHER = "!other"


def tv_distance(p: Mapping, q: Mapping) -> float:
    """Total variation (1/2) sum |p - q|, with each table's missing mass
    treated as a private residual outcome.

    Tables need not sum to one: leftover mass on either side counts as its
    own outcome, disjoint from the other side's, which keeps the result a
    true distance on sub-probability tables.  A table whose floats sum
    past one (rounding, or overlapping masses) has no leftover, so
    d(p, p) == 0 for every table.
    """
    diffs = []
    for k in set(p) | set(q):
        pv, qv = float(p.get(k, 0)), float(q.get(k, 0))
        if pv < 0 or qv < 0:
            raise ValueError("negative probability")
        diffs.append(abs(pv - qv))
    # fsum is exactly rounded, so the result does not follow set order
    rp = max(0.0, 1.0 - math.fsum(float(v) for v in p.values()))
    rq = max(0.0, 1.0 - math.fsum(float(v) for v in q.values()))
    return 0.5 * (math.fsum(diffs) + rp + rq)


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
    # imported here: scipy.stats takes longer to import than the whole
    # package and roughly triples its memory, and no CLI path needs it
    from scipy import stats as sps

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
