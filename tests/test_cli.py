"""End-to-end checks of the command line driver through main()."""

import contextlib
import csv
import io
import json
import math
import signal
import sys

import pytest
from hypothesis import given, settings, strategies as st

from unimaps import distributions
from unimaps.asymptotics import regime
from unimaps.cli import build_parser, main
from unimaps.counting import lehman_walsh_count, lehman_walsh_row
from unimaps.distributions import ball_probability_kd, root_degree_limit_pmf
from unimaps.experiments import _height2_tree_count
from unimaps.maps import RootedGraph


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_all_genera_matches_direct_counts(capsys):
    code, out, _ = run(capsys, ["count", "--n", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,g,count"
    parsed = [line.split(",") for line in lines[1:]]
    assert [int(row[1]) for row in parsed] == [0, 1, 2]
    for row in parsed:
        assert int(row[2]) == lehman_walsh_count(4, int(row[1]))


def test_count_single_genus_json(capsys):
    code, out, _ = run(capsys, ["count", "--n", "5", "--g", "1",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == [{"n": 5, "g": 1, "count": 420}]


def test_count_asymptotic_columns(capsys):
    code, out, _ = run(capsys, ["count", "--n", "40", "--g", "4",
                                "--asymptotic"])
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "n,g,count,log_asymptotic,ratio"
    ratio = float(row.split(",")[4])
    assert 0.8 < ratio < 1.2


def test_count_at_linear_genus_with_asymptotics(capsys):
    code, out, _ = run(capsys, ["count", "--n", "2000", "--g", "500",
                                "--asymptotic"])
    assert code == 0
    _, row = out.strip().splitlines()
    assert 0.99 <= float(row.split(",")[4]) <= 1.01


def test_count_past_the_int_string_limit(capsys):
    # about 5360 digits, past CPython's default limit of 4300
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, ["count", "--n", "2500", "--g", "600"])
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    _, row = out.strip().splitlines()
    sys.set_int_max_str_digits(0)
    try:
        assert int(row.split(",")[2]) == lehman_walsh_count(2500, 600)
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_asymptotic_over_all_genera(capsys):
    code, out, _ = run(capsys, ["count", "--n", "10", "--asymptotic"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(row[1]) for row in rows] == list(range(6))
    # undefined at g = 0 and at 2g = n: empty cells, counts still there
    for row in (rows[0], rows[5]):
        assert row[3:] == ["", ""]
        assert int(row[2]) == lehman_walsh_count(10, int(row[1]))
    assert all(float(row[4]) > 0 for row in rows[1:5])
    code, out, _ = run(capsys, ["count", "--n", "10", "--asymptotic",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["ratio"] is None and payload[5]["log_asymptotic"] is None
    for g in (0, 5):
        code, _, err = run(capsys, ["count", "--n", "10", "--g", str(g),
                                    "--asymptotic"])
        assert code == 2
        assert "1 <= g" in err and "2g < n" in err


def test_beta_columns_and_values(capsys):
    code, out, _ = run(capsys, ["beta", "--theta", "0.25", "0.1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,beta,xi,mean,var,a_theta"
    assert len(lines) == 3
    first = lines[1].split(",")
    reg = regime(0.25)
    assert float(first[1]) == pytest.approx(reg.beta, rel=1e-12)
    assert float(first[2]) == pytest.approx(reg.xi, rel=1e-12)


def test_root_degree_table(capsys):
    code, out, _ = run(capsys, ["root-degree", "--theta", "0.25",
                                "--dmax", "6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,probability"
    assert len(lines) == 7
    d1 = float(lines[1].split(",")[1])
    assert d1 == pytest.approx(root_degree_limit_pmf(0.25, 1), rel=1e-12)


def test_sample_jsonl_shape_and_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["sample", "--n", "6", "--g", "1", "--samples", "3",
            "--seed", "5", "--emit-cdt"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        obj = json.loads(line)
        assert obj["v"] == 6 + 1 - 2 * 1
        assert len(obj["edges"]) == 6
        graph = RootedGraph(obj["v"], tuple((u, v) for u, v in obj["edges"]),
                            obj["root_vertex"], obj["root_edge"])
        assert graph.n_vertices == obj["v"]
        cdt = obj["cdt"]
        assert len(cdt["tree"]) == 12
        assert sorted(cdt["perm"]) == list(range(7))
        assert len(cdt["signs"]) == 7 - 2 * 1


def test_root_degree_solves_beta_once(capsys, monkeypatch):
    import unimaps.asymptotics
    import unimaps.cli
    import unimaps.distributions

    calls = []

    def counted(theta, *args, **kwargs):
        calls.append(theta)
        return unimaps.asymptotics.solve_beta_theta(theta, *args, **kwargs)

    for module in (unimaps.cli, unimaps.distributions):
        monkeypatch.setattr(module, "solve_beta_theta", counted, raising=False)
    code, out, _ = run(capsys, ["root-degree", "--theta", "0.25", "--dmax", "50"])
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 50
    assert calls == [0.25]


def test_sample_different_seed_differs(capsys):
    code, out1, _ = run(capsys, ["sample", "--n", "8", "--g", "2",
                                 "--seed", "1"])
    assert code == 0
    code, out2, _ = run(capsys, ["sample", "--n", "8", "--g", "2",
                                 "--seed", "2"])
    assert code == 0
    assert out1 != out2


def test_gw_probabilities_form_distribution(capsys):
    code, out, _ = run(capsys, ["gw", "--xi", "0.3", "--r", "1",
                                "--samples", "400", "--seed", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,probability"
    probs = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert all(p > 0 for p in probs)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_gw_folds_every_block(capsys, monkeypatch):
    # 12 draws in blocks of 5, 5 and 2 rows still make one distribution
    monkeypatch.setattr(distributions, "GENERATION_ROWS", 5)
    code, out, _ = run(capsys, ["gw", "--xi", "0.3", "--r", "2", "--samples", "12"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,probability"
    probs = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_gw_batched_cells_match_ball_law(capsys):
    # a (k, d) cell at r = 2 holds _height2_tree_count(k, d) plane balls,
    # each of probability ball_probability_kd(xi, k, d)
    draws = 20000
    for xi, seed in ((0.1, 4), (0.3, 5)):
        code, out, _ = run(capsys, ["gw", "--xi", str(xi), "--r", "2",
                                    "--samples", str(draws), "--seed", str(seed)])
        assert code == 0
        observed = {}
        for line in out.strip().splitlines()[1:]:
            value, prob = line.split(",")
            k, d = (int(part.split("=")[1]) for part in value.split())
            observed[(k, d)] = float(prob)
        assert all(1 <= d < k for k, d in observed)
        cells = {(k, d): _height2_tree_count(k, d) * ball_probability_kd(xi, k, d)
                 for k in range(2, 200) for d in range(1, k)}
        for kd in sorted(cells, key=cells.get, reverse=True)[:15]:
            se = math.sqrt(cells[kd] * (1 - cells[kd]) / draws)
            assert abs(observed.get(kd, 0.0) - cells[kd]) < 4.5 * se, (xi, kd)


def test_gw_reaches_deep_radii(capsys):
    # balls of about 4e11 vertices on average: only generation sizes are drawn
    code, out, _ = run(capsys, ["gw", "--xi", "0.1", "--r", "12",
                                "--samples", "1000", "--seed", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,probability"
    total = 0.0
    for line in lines[1:]:
        value, prob = line.split(",")
        k, d = (int(part.split("=")[1]) for part in value.split())
        assert 1 <= d <= k
        total += float(prob)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_gw_radius_past_int64_is_usage_error(capsys):
    # test_degree_profile_radius_stays_within_int64 checks degree-profile at the bound
    code, out, err = run(capsys, ["gw", "--xi", "0.02", "--r", "12"])
    assert code == 2
    assert out == ""
    assert "2^60" in err and "int64" in err


def test_gw_deep_radius_is_refused_at_once(capsys):
    # at xi = 1/2 the mean ball grows only like r^2, far below 2^60 here

    def too_slow(signum, frame):
        raise TimeoutError("still running after one second")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code, out, err = run(capsys, ["gw", "--xi", "0.5", "--r", "100000000",
                                      "--samples", "1"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert out == ""
    assert "2^16" in err


@pytest.mark.parametrize("argv", [
    ["count", "--n", "4"],
    ["verify", "local-limit", "--n", "5", "--g", "0"],
])
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv):
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run(capsys, argv + ["--out", str(path)])
        assert code == 2
        assert out == ""
        assert f"cannot write --out {path}" in err


@pytest.mark.parametrize("argv", [
    ["gw", "--xi", "0.3", "--r", "1", "--samples", "0"],
    ["gw", "--xi", "0.3", "--r", "1", "--samples", "-5"],
    ["sample", "--n", "5", "--g", "1", "--samples", "-1"],
    ["sample", "--n", "5", "--g", "1", "--samples", "0"],
])
def test_sample_count_below_one_is_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "need at least one sample" in err


def test_degree_profile_ball_rows_carry_no_z(capsys):
    code, out, _ = run(capsys, ["degree-profile", "--n", "200", "--g", "0",
                                "--samples", "100"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(
        "".join(line + "\n" for line in out.splitlines() if not line.startswith("#")))))
    ball_rows = [row for row in rows if row["section"] == "ball_average"]
    assert len(ball_rows) == 12
    for row in ball_rows:
        assert row["z"] == ""
        assert float(row["std_err"]) > 0
    assert [row["z"] for row in rows if row["section"] == "global"] == ["0.0"]
    code, out, _ = run(capsys, ["degree-profile", "--n", "200", "--g", "0",
                                "--samples", "100", "--r", "2", "--format", "json"])
    assert [row["z"] for row in json.loads(out)["rows"]] == [0.0, None, None]


@pytest.mark.parametrize("argv", [
    ["verify", "root-degree", "--n", "0", "--g", "0"],
    ["degree-profile", "--n", "0", "--g", "0", "--r", "1"],
])
def test_no_edges_is_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "need at least one edge" in err


@pytest.mark.parametrize("argv", [
    ["count", "--n", "-1"],
    ["count", "--n", "-1", "--g", "0"],
])
def test_negative_edge_count_is_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "n and g must be >= 0" in err


@pytest.mark.parametrize("argv, flag", [
    (["verify", "surgery", "--nmax", "0", "--kmax", "3"], "--nmax"),
    (["verify", "surgery", "--nmax", "-2", "--kmax", "3"], "--nmax"),
    (["verify", "surgery", "--nmax", "4", "--kmax", "0"], "--kmax"),
    (["verify", "surgery", "--nmax", "4", "--kmax", "-1"], "--kmax"),
])
def test_empty_surgery_sweep_is_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"{flag} must be >= 1" in err


def test_exact_reference_cap_is_checked_before_sampling(capsys, monkeypatch):
    import unimaps.experiments

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the enumeration cap")

    monkeypatch.setattr(unimaps.experiments, "sample_unicellular", no_sampling)
    monkeypatch.setattr(unimaps.experiments, "sample_c_decorated_tree", no_sampling)
    code, out, err = run(capsys, ["verify", "root-degree", "--n", "2000", "--g", "500",
                                  "--samples", "3000", "--reference", "exact"])
    assert code == 2
    assert out == ""
    assert "capped at n=8" in err


def test_degree_profile_radius_stays_within_int64(capsys):
    # the mean radius-19 ball at theta = 1/4 passes 2^60 vertices; the
    # largest of 2000 draws came within 5% of int64's range
    code, out, _ = run(capsys, ["degree-profile", "--n", "2000", "--g", "500",
                                "--r", "17", "--samples", "200"])
    assert code == 0
    assert "ball_average,r=17," in out
    code, out, err = run(capsys, ["degree-profile", "--n", "2000", "--g", "500",
                                  "--r", "18"])
    assert code == 2
    assert out == ""
    assert "2^60" in err


# every subcommand, its integers filled in from one small (n, g, r, samples)
COMMANDS = [
    ["count", "--n", "{n}", "--g", "{g}"],
    ["count", "--n", "{n}", "--asymptotic"],
    ["beta", "--theta", "{x}"],
    ["root-degree", "--theta", "{x}", "--dmax", "{r}"],
    ["sample", "--n", "{n}", "--g", "{g}", "--samples", "{k}", "--emit-cdt"],
    ["gw", "--xi", "{x}", "--r", "{r}", "--samples", "{k}"],
    ["oracle", "census", "--n", "{n}"],
    ["oracle", "surgery", "--n", "{n}", "--g", "{g}", "--tree", "{tree}"],
    ["verify", "local-limit", "--n", "{n}", "--g", "{g}", "--r", "{r}", "--samples", "{k}"],
    ["verify", "root-degree", "--n", "{n}", "--g", "{g}", "--samples", "{k}"],
    ["verify", "root-degree", "--n", "{n}", "--g", "{g}", "--samples", "{k}",
     "--reference", "exact"],
    ["verify", "surgery", "--nmax", "{n}", "--kmax", "{r}"],
    ["degree-profile", "--n", "{n}", "--g", "{g}", "--r", "{r}", "--samples", "{k}"],
]


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(n=st.integers(-1, 6), g=st.integers(-1, 4), r=st.integers(-1, 3),
       k=st.integers(-1, 4), x=st.sampled_from([-0.1, 0.0, 0.1, 0.3, 0.5, 0.7]))
def test_every_subcommand_exits_zero_one_or_two(n, g, r, k, x):
    fields = {"n": n, "g": g, "r": r, "k": k, "x": x, "tree": "(" * r + ")" * r}
    for command in COMMANDS:
        argv = [part.format(**fields) for part in command]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 1, 2), (argv, err.getvalue())


def test_oracle_census_json(capsys):
    code, out, _ = run(capsys, ["oracle", "census", "--n", "5",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == [{"n": 5, "g": 0, "count": 42}, {"n": 5, "g": 1, "count": 420},
                       {"n": 5, "g": 2, "count": 483}]
    assert run(capsys, ["count", "--n", "5", "--format", "json"]) == (0, out, "")


def test_oracle_surgery_equal_case_exits_zero(capsys):
    code, out, _ = run(capsys, ["oracle", "surgery", "--n", "5", "--g", "1",
                                "--tree", "(())"])
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "tree,n,g,k,d,r,lhs,rhs,equal"
    cells = row.split(",")
    assert cells[0] == "(())"
    assert cells[6] == cells[7]
    assert cells[8] == "True"


def test_verify_surgery_sweep_exits_zero(capsys):
    code, out, _ = run(capsys, ["verify", "surgery", "--nmax", "4",
                                "--kmax", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) > 1
    assert all(line.endswith("True") for line in lines[1:])


def test_verify_local_limit_exact_small_case(capsys):
    code, out, _ = run(capsys, ["verify", "local-limit", "--n", "5",
                                "--g", "0"])
    assert code == 0
    assert out.startswith("# kind=local-limit\n")
    assert "# passed=True" in out


def test_verify_local_limit_critical_compares_with_the_half_law(capsys):
    code, out, _ = run(capsys, ["verify", "local-limit", "--n", "40", "--g", "1",
                                "--r", "1", "2", "--samples", "50", "--critical"])
    assert code in (0, 1)
    header = out.split("\n# build=")[0].splitlines()
    assert "# beta=0.0" in header
    assert "# xi=0.5" in header


def test_verify_local_limit_repeated_radius_is_usage_error(capsys):
    # a repeated radius would print and count its sections twice
    code, out, err = run(capsys, ["verify", "local-limit", "--n", "40", "--g", "5",
                                  "--r", "1", "1", "--samples", "10"])
    assert code == 2
    assert out == ""
    assert "repeat" in err


def test_verify_local_limit_radius_past_the_vertex_count(capsys):
    # the ball stops growing at the vertex count, so no radius overflows
    # int64; it is then the whole graph, which at genus 5 has cycles, and
    # its scored sections, holding no ball, fail the run
    code, out, _ = run(capsys, ["verify", "local-limit", "--n", "40", "--g", "5",
                                "--r", "1", "99999999999999999999", "--samples", "20"])
    assert code == 1
    assert "# passed=False\n" in out
    assert "# radii=1,99999999999999999999\n" in out
    assert "# mass.nontree_r99999999999999999999=1.0\n" in out


def test_verify_root_degree_failure_exits_one(capsys):
    code, out, _ = run(capsys, ["verify", "root-degree", "--n", "4",
                                "--g", "1", "--samples", "200",
                                "--reference", "exact",
                                "--tv-max", "1e-9", "--seed", "7"])
    assert code == 1
    assert "# passed=False" in out


def test_root_degree_exact_reference_at_half_genus(capsys):
    # n = 2g has one vertex of degree 2n and no limit constants (theta = 1/2)
    code, out, _ = run(capsys, ["verify", "root-degree", "--n", "6", "--g", "3",
                                "--samples", "50", "--reference", "exact"])
    assert code == 0
    assert "# passed=True" in out
    assert "beta" not in out and "xi" not in out
    assert out.endswith("root_degree,12,1.0,1.0,0.0,0.0\n")
    code, out, err = run(capsys, ["verify", "root-degree", "--n", "6", "--g", "3",
                                  "--samples", "50"])
    assert code == 2
    assert out == ""
    assert "theta" in err


@pytest.mark.parametrize("argv", [
    ["verify", "root-degree", "--n", "4", "--g", "1", "--r", "2"],
    ["verify", "root-degree", "--n", "4", "--g", "1", "--samp", "5", "--ref", "exact"],
    ["count", "--n", "4", "--asym", "--form", "json"],
    ["gw", "--xi", "0.3", "--r", "1", "--se", "3"],
])
def test_abbreviated_options_are_usage_errors(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code == 2
    assert out == ""


def test_full_option_names_parse(capsys):
    code, _, _ = run(capsys, ["verify", "root-degree", "--n", "4", "--g", "1",
                              "--samples", "5", "--reference", "exact"])
    assert code == 0
    code, out, _ = run(capsys, ["count", "--n", "4", "--asymptotic", "--format", "json"])
    assert code == 0
    assert len(json.loads(out)) == 3


@pytest.mark.parametrize("argv", [
    # the shared flags come after the subcommand, not before it
    ["--seed", "3", "gw", "--xi", "0.3", "--r", "1"],
    # and only after a subcommand that reads them
    ["count", "--n", "4", "--seed", "3"],
    ["gw", "--xi", "0.3", "--r", "1", "--workers", "2"],
    ["sample", "--n", "4", "--g", "1", "--format", "json"],
    ["beta", "--theta", "0.25", "--workers", "2"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: unimaps")


def test_missing_required_argument_is_usage_error(capsys):
    code, _, err = run(capsys, ["count"])
    assert code == 2
    assert err


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 2


def test_domain_error_is_usage_error(capsys):
    code, _, err = run(capsys, ["beta", "--theta", "0.6"])
    assert code == 2
    assert "usage error" in err


def test_seed_out_of_range_is_usage_error(capsys):
    for seed in (2**64, -1):
        code, out, err = run(capsys, ["gw", "--xi", "0.3", "--r", "1", "--seed", str(seed)])
        assert code == 2
        assert out == ""
        assert "seed must fit in 64 unsigned bits" in err


def test_count_asymptotic_counts_each_genus_once(capsys, monkeypatch):
    import unimaps.asymptotics
    import unimaps.cli

    calls = []

    def counted(n, g, *args, **kwargs):
        calls.append((n, g))
        return lehman_walsh_count(n, g, *args, **kwargs)

    def counted_row(n):
        calls.append((n, None))
        return lehman_walsh_row(n)

    monkeypatch.setattr(unimaps.cli, "lehman_walsh_count", counted)
    monkeypatch.setattr(unimaps.cli, "lehman_walsh_row", counted_row)
    monkeypatch.setattr(unimaps.asymptotics, "lehman_walsh_count", counted)
    code, out, _ = run(capsys, ["count", "--n", "10", "--asymptotic"])
    assert code == 0
    # one recurrence pass counts every genus, and each genus gets one row
    assert calls == [(10, None)]
    assert [line.split(",")[1] for line in out.strip().splitlines()[1:]] == [
        str(g) for g in range(6)]
    calls.clear()
    code, out, _ = run(capsys, ["count", "--n", "40", "--g", "9", "--asymptotic"])
    assert code == 0
    assert calls == [(40, 9)]


GW = ["gw", "--xi", "0.3", "--r", "2", "--samples", "300"]
LOCAL_LIMIT = ["verify", "local-limit", "--n", "30", "--g", "5", "--samples", "20"]


@pytest.mark.parametrize("calls", [
    # a seed, then none: the second run uses seed 0
    [GW + ["--seed", "3"], GW],
    # a seed and a format, then neither: the second run is seed 0 in CSV
    [GW + ["--seed", "3", "--format", "json"], GW],
    # a usage error and --help between two valid calls
    [["count", "--n", "6"], ["count", "--n"], ["--help"], ["count", "--n", "6", "--g", "1"]],
    # the default radii after an explicit --r
    [LOCAL_LIMIT + ["--r", "1", "2", "3"], LOCAL_LIMIT],
])
def test_consecutive_calls_match_fresh_runs(capsys, calls):
    # the cached parser carries nothing from one command line to the next
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, argv))
    build_parser.cache_clear()
    assert [run(capsys, argv) for argv in calls] == fresh
    assert build_parser.cache_info().misses == 1
    assert len({out for _, out, _ in fresh}) == len(calls)


def test_parsed_defaults_are_not_shared_lists():
    args = build_parser().parse_args(LOCAL_LIMIT)
    assert args.r == (1, 2) and isinstance(args.r, tuple)


SCIPY_FREE_LINES = [
    "count --n 8",
    "beta --theta 0.25",
    "root-degree --theta 0.25",
    "sample --n 40 --g 5 --samples 5",
    "gw --xi 0.3 --r 2 --samples 100",
    "oracle census --n 5",
    "oracle surgery --n 5 --g 1 --tree (())",
    "verify local-limit --n 40 --g 5 --r 1 2 --samples 50",
    "verify root-degree --n 40 --g 5 --samples 50",
    "verify surgery --nmax 4 --kmax 2",
    "degree-profile --n 40 --g 5 --r 3 --samples 50",
]


def test_every_subcommand_runs_without_scipy(capsys, monkeypatch):
    # scipy is a test dependency only: a None entry makes any import of it
    # on a command path raise ImportError, which main reports as exit 3.
    # Module-level imports ran before this test; CI's job without the test
    # extra covers those.
    monkeypatch.setitem(sys.modules, "scipy", None)
    for line in SCIPY_FREE_LINES:
        code, _, err = run(capsys, line.split())
        assert code in (0, 1), (line, err)
