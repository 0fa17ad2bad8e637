"""Seeded statistical experiments against the limit laws.

Each run samples one-face maps, reduces them to a local observable
(root degree, radius-r ball), and compares empirical frequencies with
the corresponding limit formula.  Reports are plain data with a
reproducibility header; identical config and seed give byte-identical
output.  `render_table` is the one table writer: every CLI table and
every report's rows go through it.  Every sampled run reads its draws
from one iterator, `_draws`, which chains the config's seed streams in
order in this process and folds nothing itself.

Three comparison granularities coexist for balls.  The plane-level rows
need every ball vertex to be a fixed point of the decoration, which at
large theta almost never happens, so the shape-level rows aggregate the
limit law over all plane orderings of each unordered ball and stay
informative at any theta.  The (k, d) rows, at radius 2 only, pool the
shapes further by edge count k and population d at the full height, the
pair the limit law depends on.
"""

from __future__ import annotations

import json
import math
import sys
import zlib
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from . import __version__
from .asymptotics import solve_beta_theta
from .distributions import (
    ball_probability,
    ball_probability_kd,
    inf_ball_generations,
    root_degree_pmf_beta,
)
from .oracle import exact_ball_dist, exact_root_degree_dist, exact_tree_ball_dist
from .sampler import ball_as_tree, root_degree, sample_c_decorated_tree, sample_unicellular
from .trees import parse_plane_code, plane_embeddings_count

# pass-flag settings no caller varies; local-limit reports print the first three
Z_MAX = 4.0
MIN_EXPECTED = 50.0
TOP_M = 10
Z_DEGREE_MAX = 8
REL_TOL = 0.1


def _records(header, rows) -> list[dict]:
    return [dict(zip(header, row)) for row in rows]


def render_table(fmt: str, header, rows) -> str:
    """Render a table as CSV (None as an empty cell) or as JSON records
    (None as null)."""
    # exact counts pass CPython's int-to-str digit limit (4300 digits near
    # n = 2000, g = 500; absent before 3.10.7): lift it while rendering only
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            return json.dumps(_records(header, rows), sort_keys=True, indent=2) + "\n"
        if fmt == "csv":
            cells = (["" if cell is None else str(cell) for cell in row]
                     for row in [header, *rows])
            return "".join(",".join(line) + "\n" for line in cells)
        raise ValueError("format must be csv or json")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@dataclass(frozen=True)
class ExperimentConfig:
    """Sampling parameters shared by the experiment drivers."""

    n: int
    g: int
    samples: int = 10_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one edge")
        if not (0 <= 2 * self.g <= self.n):
            raise ValueError("need 0 <= 2g <= n")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")

    @property
    def theta(self) -> float:
        return self.g / self.n


class ReportRow(NamedTuple):
    section: str
    outcome: str
    observed: float
    expected: float
    std_err: float
    z: float | None  # None where a z-score would not measure sampling error


@dataclass(frozen=True)
class ComparisonReport:
    """Empirical-versus-theory table plus the context to rerun it.

    masses hold probability leftovers that are reported rather than
    matched per outcome (non-tree balls, unrecoverable plane structure).
    tv carries one total-variation figure per section.  scored lists the
    sections whose rows drive the pass flag; the others are informative.
    """

    kind: str
    params: tuple[tuple[str, object], ...]
    constants: tuple[tuple[str, object], ...]
    rows: tuple[ReportRow, ...]
    tv: tuple[tuple[str, float], ...]
    masses: tuple[tuple[str, float], ...]
    passed: bool
    scored: tuple[str, ...] = ()

    def section_rows(self, section: str) -> tuple[ReportRow, ...]:
        return tuple(row for row in self.rows if row.section == section)

    def mass(self, name: str) -> float:
        return dict(self.masses)[name]

    def tv_of(self, section: str) -> float:
        return dict(self.tv)[section]

    def to_json(self) -> str:
        obj = {
            "kind": self.kind,
            "params": dict(self.params),
            "constants": dict(self.constants),
            "rows": _records(ReportRow._fields, self.rows),
            "tv": dict(self.tv),
            "masses": dict(self.masses),
            "passed": self.passed,
            "scored": list(self.scored),
        }
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        head = (("kind", self.kind),) + self.params + self.constants
        head += tuple((f"tv.{key}", value) for key, value in self.tv)
        head += tuple((f"mass.{key}", value) for key, value in self.masses)
        head += (("scored", ",".join(self.scored)), ("passed", self.passed))
        return ("".join(f"# {key}={value}\n" for key, value in head)
                + render_table("csv", ReportRow._fields, self.rows))

    def render(self, fmt: str) -> str:
        if fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        return self.to_json() if fmt == "json" else self.to_csv()


@lru_cache(maxsize=1)
def build_id() -> str:
    """Source identifier embedded in every report: the package version
    and a CRC32 over the names and contents of the package's .py files,
    so it changes exactly when the code does, checked out or installed."""
    crc = 0
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        crc = zlib.crc32(path.name.encode() + b"\0" + path.read_bytes(), crc)
    return f"unimaps-{__version__}+{crc:08x}"


def _resolve_constants(theta: float, xi: float | None) -> tuple[float, float, tuple]:
    """(beta, xi, report constants) for a run; xi may be forced, e.g. to 1/2."""
    if xi is None:
        beta = solve_beta_theta(theta)
        xi = (1.0 - beta) / 2.0
    else:
        beta = 1.0 - 2.0 * xi
    z_beta = math.atanh(beta) if beta > 0 else 0.0
    constants = (("beta", beta), ("xi", xi), ("z_beta", z_beta), ("build", build_id()))
    return beta, xi, constants


def _draws(cfg: ExperimentConfig, draw):
    """Chain draw(rng, count) over cfg.workers child streams of cfg.seed,
    in order.

    The samples split as evenly as they go, the first streams taking one
    more, and a stream with none draws nothing, so what is drawn depends
    only on (seed, samples, workers).
    """
    base, extra = divmod(cfg.samples, cfg.workers)
    for i, stream in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.workers)):
        count = base + (i < extra)
        if count:
            yield from draw(np.random.default_rng(stream), count)


def _binomial_row(section: str, outcome: str, count: int, prob: float,
                  n_samples: int) -> ReportRow:
    freq = count / n_samples
    se = math.sqrt(prob * (1.0 - prob) / n_samples)
    if se > 0:
        z = (freq - prob) / se
    else:
        z = 0.0 if freq == prob else math.copysign(math.inf, freq - prob)
    return ReportRow(section, outcome, freq, prob, se, z)


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


def _compare(section: str, counts, probs, n_samples: int, scored,
             z_max: float) -> tuple[list[ReportRow], float, bool]:
    """Binomial rows over the sorted union of observed and law outcomes,
    the section's TV, and whether every outcome in scored has |z| <= z_max."""
    outcomes = sorted(set(counts) | set(probs))
    rows = [_binomial_row(section, str(o), counts.get(o, 0), probs.get(o, 0.0), n_samples)
            for o in outcomes]
    tv = tv_distance({o: c / n_samples for o, c in counts.items()}, probs)
    within = all(abs(row.z) <= z_max for o, row in zip(outcomes, rows) if o in scored)
    return rows, tv, within


def _shape_stats(code: str) -> tuple[int, int, int]:
    """(k, d, embeddings) of an unordered ball code, d at its full height."""
    rep = parse_plane_code(code)
    return rep.n_edges, rep.count_at_height(rep.height()), plane_embeddings_count(rep)


def _height2_tree_count(k: int, d: int) -> int:
    """Plane trees with k edges, height exactly 2, d vertices at height 2.

    The root has k-d children carrying d grandchildren between them in
    some composition, hence a single binomial coefficient.
    """
    j = k - d
    if d < 1 or j < 1:
        return 0
    return math.comb(d + j - 1, j - 1)


def run_local_limit(cfg: ExperimentConfig, radii: tuple[int, ...],
                    xi: float | None = None) -> ComparisonReport:
    """Sampled radius-r balls against the limit ball law.

    One sampling pass serves every radius.  Observed values are raw
    frequencies over all samples; the local limit is a per-outcome
    statement, so each fixed ball keeps its own limit probability while
    the finite-size leftovers (cycles through the ball, unrecoverable
    plane order) sit on outcomes outside the table and are reported as
    masses.  Plane-level rows compare ordered balls from radius 2 on (a
    radius-1 tree ball is a star, whose shape row is its plane row);
    they recover plane order only when the ball misses every merged
    vertex, so at large theta those rows go unscored and the unordered
    rows carry the check.  Shape rows
    aggregate the law over plane orderings; at radius 2 a pooled section
    over (edge count, deepest population) adds resolution where single
    shapes get rare.

    The pass flag looks at scored sections only, and within them at the
    TOP_M outcomes by limit probability whose expected count reaches
    MIN_EXPECTED, and asks each for |z| <= Z_MAX.  Rare-outcome tails
    converge slower than any fixed z threshold at fixed n, so scoring the
    head is what a finite run can actually certify; the full table still
    lands in the report.

    With g=0 and n small the sampling is replaced by exact enumeration
    against the truncated uniform-tree law.  Passing xi overrides the
    theta-resolved limit parameter; xi=0.5 compares against the critical
    law, the stated limit when theta -> 0.
    """
    if any(r < 1 for r in radii):
        raise ValueError("radii must be >= 1")
    if len(set(radii)) < len(radii):
        raise ValueError("radii must not repeat")
    if cfg.g == 0 and cfg.n <= 6:
        return _exact_local_limit(cfg, radii)
    beta, xi_val, constants = _resolve_constants(cfg.theta, xi)

    # merged vertices cost a star nothing, so the merged leftover starts
    # at radius 2 with the plane rows
    plane = {r: Counter() for r in radii if r > 1}
    shape = {r: Counter() for r in radii}
    # (name, r) -> balls outside the tables, and ball vertex tallies
    left: Counter = Counter()
    for sample in _draws(cfg, partial(sample_unicellular, cfg.n, cfg.g)):
        for r, ball in zip(radii, ball_as_tree(sample, radii)):
            left[("seen", r)] += ball.n_vertices
            left[("nonfixed", r)] += ball.n_nonfixed
            if not ball.is_tree:
                left[("nontree", r)] += 1
                continue
            full = ball.height == r
            if full:
                shape[r][ball.unordered_code] += 1
            else:
                left[("shallow", r)] += 1
            if r == 1:
                continue
            if ball.merged:
                left[("merged", r)] += 1
            elif full:
                plane[r][ball.plane_code] += 1

    n_samples = cfg.samples
    rows: list[ReportRow] = []
    tv: list[tuple[str, float]] = []
    masses: list[tuple[str, float]] = []
    scored: list[str] = []
    passed = True
    for r in radii:
        shape_probs, kd_probs, kd_counts = {}, {}, Counter()
        for code, count in shape[r].items():
            k_edges, d, embeddings = _shape_stats(code)
            p_kd = ball_probability_kd(xi_val, k_edges, d)
            shape_probs[code] = embeddings * p_kd
            kd = f"k={k_edges} d={d}"  # cells read at r = 2 only
            kd_counts[kd] += count
            kd_probs[kd] = _height2_tree_count(k_edges, d) * p_kd
        sections = []
        if r > 1:
            plane_probs = {code: ball_probability(xi_val, parse_plane_code(code))
                           for code in plane[r]}
            tree_balls = n_samples - left[("nontree", r)]
            plane_scored = left[("merged", r)] <= 0.05 * tree_balls
            sections.append((f"plane_r{r}", plane[r], plane_probs, plane_scored))
        sections.append((f"shape_r{r}", shape[r], shape_probs, True))
        if r == 2:
            # individual ball shapes get rare as they grow, so the z checks
            # need outcomes pooled by the (k, d) pair the law depends on
            sections.append((f"kd_r{r}", kd_counts, kd_probs, True))
        for section, counts, probs, section_scored in sections:
            head = sorted(probs, key=lambda c: (-probs[c], c))[:TOP_M]
            scored_head = {c for c in head
                           if section_scored and probs[c] * n_samples >= MIN_EXPECTED}
            section_rows, section_tv, within = _compare(section, counts, probs, n_samples,
                                                        scored_head, Z_MAX)
            rows += section_rows
            tv.append((section, section_tv))
            # a scored section with no ball in it checks nothing
            passed = passed and within and (bool(section_rows) or not section_scored)
            if section_scored:
                scored.append(section)
        for name in ("nontree", "merged", "shallow") if r > 1 else ("nontree", "shallow"):
            masses.append((f"{name}_r{r}", left[(name, r)] / n_samples))
        seen = left[("seen", r)]
        masses.append((f"nonfixed_vertex_fraction_r{r}",
                       left[("nonfixed", r)] / seen if seen else 0.0))
    params = (("n", cfg.n), ("g", cfg.g), ("radii", ",".join(map(str, radii))),
              ("samples", cfg.samples), ("seed", cfg.seed), ("workers", cfg.workers),
              ("z_max", Z_MAX), ("min_expected", MIN_EXPECTED), ("top_m", TOP_M))
    return ComparisonReport("local-limit", params, constants, tuple(rows),
                            tuple(tv), tuple(masses), passed, tuple(scored))


def _exact_local_limit(cfg: ExperimentConfig, radii: tuple[int, ...]) -> ComparisonReport:
    """Planar small-n check: enumerated ball law versus truncated trees."""
    rows: list[ReportRow] = []
    tv: list[tuple[str, float]] = []
    passed = True
    for r in radii:
        by_map = exact_ball_dist(cfg.n, 0, r)
        by_tree = exact_tree_ball_dist(cfg.n, r)
        equal = by_map == by_tree
        passed = passed and equal
        for code in sorted(by_tree):
            p_map = float(by_map.get(code, 0))
            p_tree = float(by_tree[code])
            rows.append(ReportRow(f"exact_r{r}", code, p_map, p_tree, 0.0, 0.0))
        tv.append((f"exact_r{r}", tv_distance(by_map, by_tree)))
    params = (("n", cfg.n), ("g", cfg.g), ("radii", ",".join(map(str, radii))),
              ("samples", 0), ("seed", cfg.seed), ("workers", cfg.workers))
    # the g=0 limit parameters; the comparison itself is enumeration only
    constants = _resolve_constants(0.0, 0.5)[2]
    return ComparisonReport("local-limit", params, constants, tuple(rows),
                            tuple(tv), tuple(),
                            passed, tuple(f"exact_r{r}" for r in radii))


def run_root_degree(cfg: ExperimentConfig, reference: str = "limit",
                    tv_max: float | None = None) -> ComparisonReport:
    """Sampled root degree against the limit pmf or the exact finite-n pmf.

    reference "limit" uses the independent-sum law at theta = g/n;
    "exact" uses the enumerated distribution, needs oracle-scale n, and
    at n = 2g leaves out the limit constants.  The pass flag scores the
    degrees up to Z_DEGREE_MAX that have positive probability, and the
    TV against tv_max when one is given.
    """
    if reference not in ("limit", "exact"):
        raise ValueError("reference must be limit or exact")
    if reference == "exact":
        # before sampling: the enumeration refuses n past its cap at once
        probs = {d: float(p)
                 for d, p in sorted(exact_root_degree_dist(cfg.n, cfg.g).items())}
    if reference == "limit" or cfg.theta < 0.5:  # the limit refuses theta = 1/2 here
        beta, _, constants = _resolve_constants(cfg.theta, None)
    else:  # theta = 1/2 has no limit constants, and the exact law needs none
        constants = (("build", build_id()),)

    degrees = Counter(map(root_degree,
                          _draws(cfg, partial(sample_c_decorated_tree, cfg.n, cfg.g))))
    if reference == "limit":
        probs = {d: root_degree_pmf_beta(beta, d) for d in range(1, max(degrees) + 1)}
    scored = {d for d, p in probs.items() if d <= Z_DEGREE_MAX and p > 0}
    rows, tv_val, passed = _compare("root_degree", degrees, probs, cfg.samples,
                                    scored, Z_MAX)
    if tv_max is not None and tv_val > tv_max:
        passed = False
    params = (("n", cfg.n), ("g", cfg.g), ("samples", cfg.samples),
              ("seed", cfg.seed), ("workers", cfg.workers),
              ("reference", reference))
    return ComparisonReport("root-degree", params, constants, tuple(rows),
                            (("root_degree", tv_val),), tuple(),
                            passed, ("root_degree",))


def degree_profile(cfg: ExperimentConfig, r: int) -> ComparisonReport:
    """Global mean degree identity next to the local ball average.

    The global mean is 2n over the vertex count, an exact identity with
    limit 2/(1-2 theta).  The local figure averages degrees over the
    radius-r ball of the survival-conditioned limit tree and approaches
    the strictly larger 2/(1-beta); the gap is the size bias of balls.
    Rows cover every radius up to r; the pass flag checks the last
    radius against the limit within REL_TOL.  Radius h folds the degree
    sum 2(v_h - 1) + Z_{h+1}, v_h = Z_0 + ... + Z_h, from the stream of
    `inf_ball_generations` to radius r + 1, which must accept it.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    beta, xi_val, constants = _resolve_constants(cfg.theta, None)
    local_limit = 2.0 / (1.0 - beta) if beta < 1 else math.inf

    acc: Counter = Counter()
    for h, z in _draws(cfg, partial(inf_ball_generations, xi_val, r + 1)):
        if h >= 2:  # total = v_{h-1} and z = Z_h close radius h - 1
            avg = (2.0 * (total - 1.0) + z) / total
            acc[("sum", h - 1)] += float(avg.sum())
            acc[("sumsq", h - 1)] += float(np.square(avg).sum())
        total = z if h == 0 else total + z
    rows = []
    n_samples = cfg.samples
    global_mean = 2.0 * cfg.n / (cfg.n + 1 - 2 * cfg.g)
    rows.append(ReportRow("global", "mean_degree", global_mean,
                          2.0 / (1.0 - 2.0 * cfg.theta), 0.0, 0.0))
    passed = True
    for h in range(1, r + 1):
        mean = acc[("sum", h)] / n_samples
        var = max(acc[("sumsq", h)] / n_samples - mean * mean, 0.0)
        se = math.sqrt(var / n_samples)
        # no z: the gap to the limit is the ball average's finite-r bias,
        # which outgrows sampling error, so only REL_TOL scores it
        rows.append(ReportRow("ball_average", f"r={h}", mean, local_limit, se, None))
        if h == r and abs(mean / local_limit - 1.0) > REL_TOL:
            passed = False
    params = (("n", cfg.n), ("g", cfg.g), ("r", r), ("samples", cfg.samples),
              ("seed", cfg.seed), ("workers", cfg.workers))
    return ComparisonReport("degree-profile", params, constants, tuple(rows),
                            tuple(), tuple(), passed, ("global", "ball_average"))
