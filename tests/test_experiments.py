"""Experiment drivers: reports, determinism, and the exact small mode."""

import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import unimaps
from unimaps.experiments import (
    ComparisonReport,
    ExperimentConfig,
    _binomial_row,
    _draws,
    build_id,
    degree_profile,
    run_local_limit,
    run_root_degree,
)
from unimaps.sampler import root_degree, sample_c_decorated_tree


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=4, g=3)
    with pytest.raises(ValueError):
        ExperimentConfig(n=0, g=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n=4, g=1, samples=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n=4, g=1, seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(n=4, g=1, workers=0)
    assert ExperimentConfig(n=4, g=1).theta == 0.25


def test_binomial_row_z_scores():
    above = _binomial_row("s", "a", 60, 0.5, 100)
    below = _binomial_row("s", "b", 40, 0.5, 100)
    assert above.z == pytest.approx(2.0, abs=1e-9)
    assert above.z > 0 > below.z
    # a zero standard error still reports an observed deviation
    assert _binomial_row("s", "c", 3, 0.0, 100).z == math.inf
    assert _binomial_row("s", "c", 0, 0.0, 100).z == 0.0


def test_exact_small_mode():
    cfg = ExperimentConfig(n=5, g=0, samples=10)
    report = run_local_limit(cfg, radii=(1, 2))
    assert report.passed
    assert report.scored == ("exact_r1", "exact_r2")
    assert report.tv_of("exact_r1") == 0.0
    assert report.tv_of("exact_r2") == 0.0
    for row in report.rows:
        assert row.observed == row.expected


def test_build_id_reads_the_sources_without_a_subprocess(monkeypatch):
    def no_subprocess(*args, **kwargs):
        raise AssertionError("build_id started a subprocess")

    monkeypatch.setattr(subprocess, "run", no_subprocess)
    build_id.cache_clear()
    first = build_id()
    build_id.cache_clear()
    assert build_id() == first
    assert re.fullmatch(r"unimaps-.+\+[0-9a-f]{8}", first)


def test_report_headers_and_formats():
    cfg = ExperimentConfig(n=5, g=0)
    report = run_local_limit(cfg, radii=(1,))
    constants = dict(report.constants)
    assert {"beta", "xi", "z_beta", "build"} <= set(constants)
    assert constants["build"] == build_id()
    text = report.to_csv()
    assert text.startswith("# kind=local-limit\n")
    assert "# passed=True" in text
    payload = json.loads(report.to_json())
    assert payload["passed"] is True
    assert payload["kind"] == "local-limit"
    with pytest.raises(ValueError):
        report.render("xml")


def test_reports_are_byte_identical():
    cfg = ExperimentConfig(n=30, g=4, samples=150, seed=9, workers=3)
    a = run_local_limit(cfg, radii=(1,))
    b = run_local_limit(cfg, radii=(1,))
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def test_reports_do_not_depend_on_the_hash_seed():
    # at these sizes, summing TV terms in set order gave a different last
    # digit under PYTHONHASHSEED 1 and 2
    src = str(Path(unimaps.__file__).resolve().parents[1])
    for argv in (["verify", "local-limit", "--n", "500", "--g", "125", "--r", "1", "2",
                  "--samples", "60", "--seed", "41", "--workers", "2"],
                 ["verify", "root-degree", "--n", "200", "--g", "10",
                  "--samples", "60", "--seed", "41", "--workers", "1"]):
        outs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-m", "unimaps.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode in (0, 1), done.stderr
            outs.append(done.stdout)
        assert outs[0] == outs[1]


def test_worker_split_changes_stream_but_stays_valid():
    base = ExperimentConfig(n=20, g=2, samples=120, seed=1, workers=1)
    split = ExperimentConfig(n=20, g=2, samples=120, seed=1, workers=4)
    a = run_root_degree(base)
    b = run_root_degree(split)
    total_a = sum(row.observed for row in a.rows)
    total_b = sum(row.observed for row in b.rows)
    assert total_a == pytest.approx(1.0)
    assert total_b == pytest.approx(1.0)


def test_seed_streams_split_the_samples_in_order():
    # 10 samples over 3 streams of seed 11 draw 4, 3 and 3, in stream order
    cfg = ExperimentConfig(n=20, g=2, samples=10, seed=11, workers=3)
    streams = np.random.SeedSequence(11).spawn(3)
    by_hand = [draw for stream, count in zip(streams, (4, 3, 3))
               for draw in np.random.default_rng(stream).integers(2**62, size=count)]
    assert list(_draws(cfg, lambda rng, count: rng.integers(2**62, size=count))) == by_hand
    degrees = Counter()
    for stream, count in zip(streams, (4, 3, 3)):
        rng = np.random.default_rng(stream)
        degrees.update(map(root_degree, sample_c_decorated_tree(20, 2, rng, count)))
    rows = run_root_degree(cfg).rows
    assert {int(row.outcome): round(row.observed * 10) for row in rows if row.observed} == degrees


def test_streams_past_the_sample_count_draw_nothing():
    # 2 samples over 5 streams: the first two draw one each, the rest none
    cfg = ExperimentConfig(n=20, g=2, samples=2, seed=11, workers=5)
    assert list(_draws(cfg, lambda rng, count: [count])) == [1, 1]
    report = run_root_degree(cfg)
    assert sum(row.observed for row in report.rows) == pytest.approx(1.0)
    assert dict(report.params)["workers"] == 5


def test_root_degree_exact_reference():
    cfg = ExperimentConfig(n=4, g=1, samples=20_000, seed=17, workers=2)
    report = run_root_degree(cfg, reference="exact")
    assert report.passed
    assert report.tv_of("root_degree") < 0.02


def test_root_degree_rejects_bad_reference():
    with pytest.raises(ValueError):
        run_root_degree(ExperimentConfig(n=4, g=1), reference="folklore")


def test_degree_profile_identity_and_convergence():
    cfg = ExperimentConfig(n=2000, g=500, samples=300, seed=23)
    report = degree_profile(cfg, r=12)
    glob = report.section_rows("global")[0]
    assert glob.observed == pytest.approx(2 * 2000 / 1001)
    assert glob.expected == pytest.approx(4.0)
    assert report.passed
    last = report.section_rows("ball_average")[-1]
    assert last.observed == pytest.approx(last.expected, rel=0.1)


def test_report_accessors_raise_on_unknown():
    cfg = ExperimentConfig(n=5, g=0)
    report = run_local_limit(cfg, radii=(1,))
    assert isinstance(report, ComparisonReport)
    with pytest.raises(KeyError):
        report.mass("missing")
    with pytest.raises(KeyError):
        report.tv_of("nope")
