"""Command line driver for the counting and sampling tools and for the
verification runs built on them.

Exit codes: 0 success, 1 a verification or equality check failed,
2 usage error, 3 internal error.  All randomized subcommands take
--seed and produce byte-identical output for identical invocations.

A flag is accepted only after a subcommand that reads it: --out after
every one, --format after all but sample (which writes JSON lines),
--seed after sample, gw, verify local-limit, verify root-degree and
degree-profile, and --workers after the last three, which draw their
samples from that many seed streams.

The parser is built once per interpreter (build_parser is cached) and
every main call parses into a fresh namespace, so several command lines
run in one process, as the tests and benchmark do, share no parsed
value and pay the build only once.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np

from .asymptotics import log_asymptotic_count, ratio_to_exact, regime, solve_beta_theta
from .counting import lehman_walsh_count, lehman_walsh_row
from .distributions import inf_ball_generations, root_degree_pmf_beta
from .experiments import (
    ExperimentConfig,
    degree_profile,
    render_table,
    run_local_limit,
    run_root_degree,
)
from .oracle import ENUM_CAP, census, verify_surgery
from .sampler import sample_unicellular
from .trees import enumerate_plane_trees, parse_plane_code, plane_code


def _write(args, text: str) -> None:
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _rows_out(args, header: list[str], rows: list[list]) -> None:
    _write(args, render_table(args.format, header, rows))


def _cmd_count(args) -> int:
    if args.g is None:
        counts = enumerate(lehman_walsh_row(args.n))
    else:
        counts = [(args.g, lehman_walsh_count(args.n, args.g))]
    header = ["n", "g", "count"]
    if args.asymptotic:
        header += ["log_asymptotic", "ratio"]
    rows = []
    for g, count in counts:
        row: list = [args.n, g, count]
        if args.asymptotic and args.g is None and not (1 <= g and 2 * g < args.n):
            # the formula is undefined at this genus; an explicit --g fails
            row += [None, None]
        elif args.asymptotic:
            log_asymptotic = log_asymptotic_count(args.n, g)
            row += [log_asymptotic, ratio_to_exact(log_asymptotic, count)]
        rows.append(row)
    _rows_out(args, header, rows)
    return 0


def _cmd_beta(args) -> int:
    header = ["theta", "beta", "xi", "mean", "var", "a_theta"]
    rows = []
    for theta in args.theta:
        reg = regime(theta)
        rows.append([reg.theta, reg.beta, reg.xi, reg.mean_x, reg.var_x, reg.a_const])
    _rows_out(args, header, rows)
    return 0


def _cmd_root_degree(args) -> int:
    beta = solve_beta_theta(args.theta)
    rows = [[d, root_degree_pmf_beta(beta, d)] for d in range(1, args.dmax + 1)]
    _rows_out(args, ["value", "probability"], rows)
    return 0


def _check_samples(args) -> None:
    if args.samples < 1:
        raise ValueError("need at least one sample")


def _cmd_sample(args) -> int:
    _check_samples(args)
    rng = np.random.default_rng(args.seed)
    lines = []
    for sample in sample_unicellular(args.n, args.g, rng, args.samples):
        graph = sample.graph
        obj = {
            "v": graph.n_vertices,
            "edges": [list(e) for e in graph.edges],
            "root_vertex": graph.root_vertex,
            "root_edge": graph.root_edge,
        }
        if args.emit_cdt:
            cdt = sample.source
            obj["cdt"] = {
                "tree": plane_code(cdt.tree),
                "perm": list(cdt.perm.image),
                "signs": list(cdt.signs),
            }
        lines.append(json.dumps(obj, sort_keys=True))
    _write(args, "\n".join(lines) + "\n")
    return 0


def _cmd_gw(args) -> int:
    _check_samples(args)
    rng = np.random.default_rng(args.seed)
    counts: Counter = Counter()
    # a ball's law depends only on its edges k = Z_1 + ... + Z_r and its
    # depth-r vertices d = Z_r, so generation sizes are all gw draws
    for h, z in inf_ball_generations(args.xi, args.r, rng, args.samples):
        k = np.zeros_like(z) if h == 0 else k + z
        if h == args.r:
            counts.update(zip(k.tolist(), z.tolist()))
    rows = sorted([f"k={k} d={d}", c / args.samples] for (k, d), c in counts.items())
    _rows_out(args, ["value", "probability"], rows)
    return 0


def _cmd_oracle_census(args) -> int:
    result = census(args.n)
    rows = [[result.n, g, c] for g, c in result.counts.items()]
    _rows_out(args, ["n", "g", "count"], rows)
    return 0


def _surgery_out(args, checks) -> int:
    rows = [[tree_code, c.n, c.g, c.k, c.d, c.r, c.lhs_count, c.rhs_count, c.equal]
            for tree_code, c in checks]
    _rows_out(args, ["tree", "n", "g", "k", "d", "r", "lhs", "rhs", "equal"], rows)
    return 0 if all(c.equal for _, c in checks) else 1


def _cmd_oracle_surgery(args) -> int:
    check = verify_surgery(args.n, args.g, parse_plane_code(args.tree))
    return _surgery_out(args, [(args.tree, check)])


def _cmd_verify_surgery(args) -> int:
    for flag in ("nmax", "kmax"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be >= 1")
    if args.nmax > ENUM_CAP:  # before the sweep scans every smaller n
        raise ValueError(f"--nmax must be <= {ENUM_CAP}: exhaustive enumeration"
                         f" capped at n={ENUM_CAP}")
    checks = []
    for k in range(1, args.kmax + 1):
        for tree in enumerate_plane_trees(k):
            r = tree.height()
            d = tree.count_at_height(r)
            for n in range(1, args.nmax + 1):
                n2 = n - k + d
                if n2 < 1:
                    continue
                for g in range(0, n // 2 + 1):
                    if 2 * g > n2:
                        continue
                    checks.append((plane_code(tree), verify_surgery(n, g, tree)))
    return _surgery_out(args, checks)


def _experiment_config(args) -> ExperimentConfig:
    return ExperimentConfig(
        n=args.n,
        g=args.g,
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
    )


def _report_out(args, report) -> int:
    _write(args, report.render(args.format))
    return 0 if report.passed else 1


def _cmd_verify_local_limit(args) -> int:
    cfg = _experiment_config(args)
    report = run_local_limit(
        cfg,
        radii=tuple(args.r),
        xi=0.5 if args.critical else None,
    )
    return _report_out(args, report)


def _cmd_root_degree_verify(args) -> int:
    cfg = _experiment_config(args)
    report = run_root_degree(cfg, reference=args.reference, tv_max=args.tv_max)
    return _report_out(args, report)


def _cmd_degree_profile(args) -> int:
    cfg = _experiment_config(args)
    return _report_out(args, degree_profile(cfg, args.r))


class _Parser(argparse.ArgumentParser):
    """Full option names only, in every subparser too (add_subparsers
    reuses the class): a prefix could change meaning as options are added."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by
    every later one: parse with it, do not add to it."""
    parser = _Parser(
        prog="unimaps",
        description="One-face maps: exact counts and uniform samples, with limit checks.",
    )

    def uint64(text: str) -> int:
        value = int(text)
        if not 0 <= value < 2**64:
            raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
        return value

    out = _Parser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default stdout)")
    table = _Parser(add_help=False, parents=[out])
    table.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format")
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=uint64, default=0, help="RNG seed, unsigned 64-bit")
    streams = _Parser(add_help=False, parents=[table, seeded])
    streams.add_argument("--workers", type=int, default=1,
                         help="seed streams to draw in turn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[table],
                       help="exact map counts; CSV columns n,g,count"
                       " plus log_asymptotic,ratio with --asymptotic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--asymptotic", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("beta", parents=[table], help="regime constants; CSV columns"
                       " theta,beta,xi,mean,var,a_theta")
    p.add_argument("--theta", type=float, nargs="+", required=True)
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("root-degree", parents=[table], help="limit root-degree pmf; CSV columns"
                       " value,probability")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--dmax", type=int, default=20)
    p.set_defaults(func=_cmd_root_degree)

    p = sub.add_parser("sample", parents=[out, seeded], help="uniform samples as JSON lines;"
                       " --emit-cdt includes the decorated tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--emit-cdt", action="store_true")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("gw", parents=[table, seeded], help="conditioned branching-tree ball"
                       " draws pooled by (edges, deepest); CSV columns value,probability")
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.set_defaults(func=_cmd_gw)

    p = sub.add_parser("oracle", help="exhaustive small-case ground truth")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    pc = oracle_sub.add_parser("census", parents=[table],
                               help="per-genus counts; CSV columns n,g,count")
    pc.add_argument("--n", type=int, required=True)
    pc.set_defaults(func=_cmd_oracle_census)
    ps = oracle_sub.add_parser("surgery", parents=[table], help="one count identity check; CSV"
                               " columns tree,n,g,k,d,r,lhs,rhs,equal")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--g", type=int, required=True)
    ps.add_argument("--tree", required=True, help='plane code, e.g. "(()())"')
    ps.set_defaults(func=_cmd_oracle_surgery)

    p = sub.add_parser("verify", help="statistical and exact verification runs")
    verify_sub = p.add_subparsers(dest="verify_command", required=True)
    pl = verify_sub.add_parser("local-limit", parents=[streams], help="sampled balls against the"
                               " limit law; report CSV section,outcome,"
                               "observed,expected,std_err,z")
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--g", type=int, required=True)
    pl.add_argument("--r", type=int, nargs="+", default=(1, 2))
    pl.add_argument("--samples", type=int, default=10_000)
    pl.add_argument("--critical", action="store_true",
                    help="compare against the xi=1/2 law")
    pl.set_defaults(func=_cmd_verify_local_limit)
    pr = verify_sub.add_parser("root-degree", parents=[streams], help="sampled root degree against"
                               " the limit or exact pmf; report CSV as"
                               " local-limit")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--g", type=int, required=True)
    pr.add_argument("--samples", type=int, default=10_000)
    pr.add_argument("--reference", choices=("limit", "exact"), default="limit")
    pr.add_argument("--tv-max", type=float, default=None)
    pr.set_defaults(func=_cmd_root_degree_verify)
    pv = verify_sub.add_parser("surgery", parents=[table], help="exhaustive count identity sweep;"
                               " CSV columns tree,n,g,k,d,r,lhs,rhs,equal")
    pv.add_argument("--nmax", type=int, default=6)
    pv.add_argument("--kmax", type=int, default=3)
    pv.set_defaults(func=_cmd_verify_surgery)

    p = sub.add_parser("degree-profile", parents=[streams], help="global mean degree next to the"
                       " limit-tree ball average; report CSV as local-limit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r", type=int, default=12)
    p.add_argument("--samples", type=int, default=2000)
    p.set_defaults(func=_cmd_degree_profile)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
