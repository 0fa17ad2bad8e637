"""Benchmark of the unimaps command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from any directory of a source checkout: the program is imported
from ``<checkout>/src``, nothing needs installing or building.  Each repetition
("pass") runs the workload's command lines in order through
``unimaps.cli.main`` in a fresh interpreter, so the package's lru caches start
cold as they do for a user of the command line.  One untimed start comes
first: it warms the page cache and runs the untimed output checks.  Passes
follow one at a time, never more than one child process at once, until a
next pass as long as the median one would end more than half a pass after
``--seconds``, so that runs last ``--seconds`` on average; at least two
passes always run.

With ``--trace 0`` the last line of output holds the end-to-end metrics
(medians over passes): ``setup_s``, interpreter start to ``unimaps.cli``
imported; ``wall_s``, the workload's command lines including writing their
output; ``peak_rss_mb``, the largest resident set of any one process.

``setup_s``, ``wall_s`` and ``trace.overhead_s`` are in reference seconds.
The speed of a shared machine drifts by a quarter and more from one minute
to the next, so each pass also times a fixed computation that does not use
the package (``child.reference_seconds``) just before each command line and
just after the last.  A command line's time is scaled by
``REFERENCE_NOMINAL_S`` over the mean of the two reference times around it,
the import time by the first: a reference second is the time in which the
machine runs the reference computation ``1 / REFERENCE_NOMINAL_S`` times.
The times as measured are printed too, as ``setup_measured_s`` and
``wall_measured_s``.

With ``--trace 1`` untraced and traced passes alternate (``local_limit`` runs
with ``--workers 1`` in both, so every span stays in the traced process),
and the last line holds the per-layer metrics of ``child.HOOKS``.  The
lines before it give quartiles, pass counts, samples per second, the share
of failed command lines, the machine and the checks.

The exit code is 0 when every output check holds, 1 when one fails, and 2
when the checkout holds no ``src/unimaps`` or a child process fails.
``--smoke`` runs the same workloads, checks and metric names on tiny
inputs; the benchmark's own tests use it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from child import HOOKS, now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175  # for the whole run, untimed checks included
# about the fastest time of child.reference_seconds() on a 2-core x86_64
# machine, so that a reference second is about a second of that machine
# unloaded; the unit of the scaled times (see above)
REFERENCE_NOMINAL_S = 0.1
MIN_PASSES = 2

# Why each workload is in the benchmark, which layers it stresses and
# which it bypasses, lives in BENCHMARK.json next to the workload names.
WORKLOADS = ("local_limit", "root_degree_sweep", "exact_count", "limit_tree")


@dataclass(frozen=True)
class Size:
    n: int                   # edges of the sampled maps
    local_limit_samples: int
    root_degree_samples: int  # per genus
    gw_samples: int          # per xi
    counts: tuple            # (n, g) of the partition, recurrence, asymptotic queries
    census_n: int
    check_samples: int       # per untimed identity and graph check


FULL = Size(n=2000, local_limit_samples=150, root_degree_samples=100,
            gw_samples=4000, counts=((300, 30), (300, 75), (400, 100)),
            census_n=7, check_samples=20)
SMOKE = Size(n=40, local_limit_samples=6, root_degree_samples=6, gw_samples=40,
             counts=((30, 3), (130, 61), (40, 10)), census_n=5, check_samples=3)

# exits 3 with a RecursionError at the time of writing; run untimed and
# reported, never counted as an op of a workload
KNOWN_DEFECT_PROBE = ("count", "--n", "2000", "--g", "500")
ASYMPTOTIC_RATIO_RANGE = (0.95, 1.05)


@dataclass(frozen=True)
class Op:
    role: str      # unique within a workload; names its output file
    argv: tuple
    samples: int = 0
    predict: tuple | None = None  # (n, g) of a map sampler, for the acceptance


def _argv(*parts) -> tuple:
    return tuple(str(p) for p in parts)


def workload_ops(name: str, seed: int, size: Size, traced: bool = False) -> list[Op]:
    n = size.n
    if name == "local_limit":
        g, k = n // 4, size.local_limit_samples
        workers = 1 if traced else 2
        return [Op("local_limit", _argv("verify", "local-limit", "--n", n, "--g", g,
                                        "--r", 1, 2, "--workers", workers,
                                        "--samples", k, "--seed", seed), k, (n, g))]
    if name == "root_degree_sweep":
        k = size.root_degree_samples
        return [Op(f"root_degree_g{g}", _argv("verify", "root-degree", "--n", n, "--g", g,
                                              "--workers", 1, "--samples", k,
                                              "--seed", seed), k, (n, g))
                for g in (n // 20, 9 * n // 20)]
    if name == "exact_count":
        (n1, g1), (n2, g2), (n3, g3) = size.counts
        return [
            Op("partition_query", _argv("count", "--n", n1, "--g", g1)),
            Op("recurrence_query", _argv("count", "--n", n2, "--g", g2)),
            Op("asymptotic_query", _argv("count", "--n", n3, "--g", g3, "--asymptotic")),
            Op("per_genus_query", _argv("count", "--n", size.census_n)),
            Op("census", _argv("oracle", "census", "--n", size.census_n)),
        ]
    if name == "limit_tree":
        k = size.gw_samples
        return [Op(f"gw_xi{xi}", _argv("gw", "--xi", xi, "--r", 2, "--samples", k,
                                       "--seed", seed), k)
                for xi in ("0.1", "0.3")]
    raise ValueError(f"unknown workload {name!r}")


def check_ops(name: str, seed: int, size: Size) -> list[Op]:
    """Untimed command lines: each randomized op twice in one interpreter
    (their outputs must be byte-identical), emitted decorated trees for
    the graph checks, and the known-defect probe."""
    if name == "exact_count":
        return [Op("probe", KNOWN_DEFECT_PROBE)]
    small = replace(size, local_limit_samples=size.check_samples,
                    root_degree_samples=size.check_samples,
                    gw_samples=10 * size.check_samples)
    ops = []
    for op in workload_ops(name, seed, small):
        ops += [Op(f"{op.role}.first", op.argv), Op(f"{op.role}.second", op.argv)]
    if name == "local_limit":
        n = size.n
        ops.append(Op("cdt", _argv("sample", "--n", n, "--g", n // 4, "--emit-cdt",
                                   "--samples", size.check_samples, "--seed", seed)))
    return ops


# ---------------------------------------------------------------- output checks

def _header(text: str) -> dict:
    return dict(line[2:].split("=", 1) for line in text.splitlines() if line.startswith("# "))


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out, k = out * k, k - 2
    return out


def check_output(op: Op, text: str) -> tuple[list[str], dict]:
    """Problems with one op's output, and facts worth reporting."""
    problems: list[str] = []
    facts: dict = {}
    args = dict(zip(op.argv, op.argv[1:]))

    def need(cond: bool, what: str) -> None:
        if not cond:
            problems.append(f"{op.role}: {what}")

    if op.argv[0] == "verify":
        head = _header(text)
        for key in ("n", "g", "samples", "seed"):
            need(head.get(key) == args[f"--{key}"], f"report {key}={head.get(key)}")
        need(head.get("passed") in ("True", "False"), "no pass flag")
        facts["passed"] = head.get("passed") == "True"
        columns, rows = _csv_rows(text)
        need(columns == ["section", "outcome", "observed", "expected", "std_err", "z"],
             "report columns")
        k = int(args["--samples"])
        sums: dict = {}
        for row in rows:
            observed = float(row[2])
            need(0.0 <= observed <= 1.0 and abs(observed * k - round(observed * k)) < 1e-6,
                 f"observed frequency {row[2]} in {row[0]}")
            sums[row[0]] = sums.get(row[0], 0.0) + observed
        need(bool(rows), "empty report")
        need(all(total <= 1.0 + 1e-9 for total in sums.values()), "section mass above 1")
        if op.argv[1] == "root-degree":
            need(abs(sums.get("root_degree", 0.0) - 1.0) < 1e-9, "root degrees do not sum to 1")
    elif op.argv[0] == "gw":
        columns, rows = _csv_rows(text)
        need(columns == ["value", "probability"], "gw columns")
        total = 0.0
        for value, prob in rows:
            match = re.fullmatch(r"k=(\d+) d=(\d+)", value)
            need(match is not None and 1 <= int(match[2]) <= int(match[1]),
                 f"gw outcome {value}")
            total += float(prob)
        need(abs(total - 1.0) < 1e-9, f"gw probabilities sum to {total}")
    elif op.argv[0] in ("count", "oracle"):
        columns, rows = _csv_rows(text)
        need(columns[:3] == ["n", "g", "count"], "count columns")
        n = int(args["--n"])
        need(all(int(row[0]) == n and int(row[2]) > 0 for row in rows), "counts")
        if "--g" not in args:
            need(sum(int(row[2]) for row in rows) == _double_factorial(2 * n - 1),
                 "per-genus counts do not sum to (2n-1)!!")
        if "--asymptotic" in op.argv:
            ratio = float(rows[0][4])
            facts["ratio"] = ratio
            low, high = ASYMPTOTIC_RATIO_RANGE
            need(low <= ratio <= high, f"asymptotic ratio {ratio}")
        facts["rows"] = len(rows)
    return problems, facts


def check_cdt_sample(line: str, n: int, g: int) -> list[str]:
    """A sampled graph has n+1-2g vertices, n edges, degree sum 2n, is
    connected, and comes from a decorated tree with one odd cycle per
    vertex and one sign per cycle."""
    obj = json.loads(line)
    v, edges, cdt = obj["v"], obj["edges"], obj["cdt"]
    problems = []
    degree = [0] * v
    adjacent: list[list[int]] = [[] for _ in range(v)]
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen, stack = {obj["root_vertex"]}, [obj["root_vertex"]]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    perm = cdt["perm"]
    cycles, visited = [], [False] * len(perm)
    for start in range(len(perm)):
        length, i = 0, start
        while not visited[i]:
            visited[i], i, length = True, perm[i], length + 1
        if length:
            cycles.append(length)
    checks = {
        "vertices": v == n + 1 - 2 * g,
        "edges": len(edges) == n,
        "degree sum": sum(degree) == 2 * n,
        "connected": len(seen) == v,
        "tree code": len(cdt["tree"]) == 2 * n,
        "permutation": sorted(perm) == list(range(n + 1)),
        "odd cycles": all(c % 2 == 1 for c in cycles) and len(cycles) == v,
        "signs": len(cdt["signs"]) == v and set(cdt["signs"]) <= {-1, 1},
    }
    return [f"cdt sample: {name}" for name, ok in checks.items() if not ok]


# ---------------------------------------------------------------- running children

class ChildFailed(RuntimeError):
    pass


def run_child(spec: dict, work: Path, tag: str, deadline: float) -> dict:
    spec_path, result_path = work / f"{tag}.spec.json", work / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
    spawned = now()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path),
                           str(result_path)], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - now()))
    lifetime = now() - spawned
    if proc.returncode != 0:
        raise ChildFailed(f"child {tag} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["imported_at"] - spawned
    result["lifetime_s"] = lifetime
    return result


def op_failed(op_result: dict) -> bool:
    """Exit 2 (usage), 3 (internal) or an escaping exception; a verify
    exit 1 is a completed op whose pass flag is merely recorded."""
    return op_result["code"] not in (0, 1)


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        q2 = statistics.median(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def op_scales(result: dict) -> list[float]:
    """Factor from measured to reference seconds, for each command line
    of a pass: from the reference times just before and just after it."""
    ref = result["reference_s"]
    return [2 * REFERENCE_NOMINAL_S / (before + after) for before, after in zip(ref, ref[1:])]


def pass_figures(result: dict, samples: int) -> dict:
    """End-to-end figures of one untraced pass."""
    wall = sum(op["seconds"] for op in result["ops"])
    scaled = sum(op["seconds"] * k for op, k in zip(result["ops"], op_scales(result)))
    failed = sum(op_failed(op) for op in result["ops"])
    return {
        "setup_s": result["setup_s"] * REFERENCE_NOMINAL_S / result["reference_s"][0],
        "wall_s": scaled,
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "samples_per_s": samples / scaled if samples else 0.0,
        "setup_measured_s": result["setup_s"],
        "wall_measured_s": wall,
        "reference_s": statistics.fmean(result["reference_s"]),
        "failed_share": failed / len(result["ops"]),
        "cpu_s": result["cpu_s"],
        "cpu_util": result["cpu_s"] / result["lifetime_s"],
    }


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "samples_per_s": "1/s", "failed_share": "ratio",
                    "setup_measured_s": "s", "wall_measured_s": "s", "reference_s": "s",
                    "cpu_s": "s", "cpu_util": "ratio"}
GATED = ("setup_s", "wall_s", "peak_rss_mb")
QUERY_ROLES = ("partition_query", "recurrence_query", "asymptotic_query", "per_genus_query")


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for hook, stat, _ in HOOKS:
        names.append((f"{hook}.calls", "count"))
        names.append((f"{hook}.self_ms_per_sample", "ms/sample") if stat == "sample"
                     else (f"{hook}.self_s", "s"))
    names += [
        ("distributions.XBetaLaw.sample.calls_per_sample", "count/sample"),
        ("distributions.XBetaLaw.sample.predicted_calls_per_sample", "count/sample"),
        ("asymptotics.solve_beta_theta.calls_per_sample", "count/sample"),
    ]
    names += [(f"counting.lehman_walsh_count.self_s.{role}", "s") for role in QUERY_ROLES]
    names += [("setup.scipy_stats_import_s", "s"), ("setup.unimaps_import_s", "s"),
              ("process.cpu_s", "s"), ("process.cpu_util", "ratio"),
              ("trace.overhead_s", "s")]
    return names


def traced_figures(result: dict, ops: list[Op]) -> dict:
    """Per-layer figures of one traced pass; a hook the package no longer
    has reads 0 and is listed as absent."""
    samples = sum(op.samples for op in ops)
    hooks = result["hooks"]
    out = {f"counting.lehman_walsh_count.self_s.{role}": 0.0 for role in QUERY_ROLES}
    for hook, stat, _ in HOOKS:
        entry = hooks.get(hook, {"calls": [0] * len(ops), "self_s": [0.0] * len(ops)})
        out[f"{hook}.calls"] = sum(entry["calls"])
        self_s = sum(entry["self_s"])
        if stat == "sample":
            out[f"{hook}.self_ms_per_sample"] = 1000.0 * self_s / samples if samples else 0.0
        else:
            out[f"{hook}.self_s"] = self_s
        if hook == "counting.lehman_walsh_count":
            for i, op in enumerate(ops):
                if op.role in QUERY_ROLES:
                    out[f"{hook}.self_s.{op.role}"] = entry["self_s"][i]
    for hook in ("distributions.XBetaLaw.sample", "asymptotics.solve_beta_theta"):
        out[f"{hook}.calls_per_sample"] = out[f"{hook}.calls"] / samples if samples else 0.0
    predicted = sum(op.samples * p["blocks"] for op, p in zip(ops, result["predicted"]) if p)
    out["distributions.XBetaLaw.sample.predicted_calls_per_sample"] = (
        predicted / samples if samples else 0.0)
    out["setup.scipy_stats_import_s"] = result["scipy_stats_import_s"]
    out["setup.unimaps_import_s"] = result["unimaps_import_s"]
    # in reference seconds, to compare with the untraced passes
    scales = op_scales(result)
    out["wall_s"] = sum(op["seconds"] * k for op, k in zip(result["ops"], scales))
    out["self_total_s"] = sum(s * k for e in hooks.values() for s, k in zip(e["self_s"], scales))
    return out


def machine_info() -> dict:
    def version(dist: str):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {
        "machine": platform.machine(), "processor": platform.processor(),
        "system": platform.platform(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------- the run

def bench(workload: str, seed: int, seconds: float, trace: bool, size: Size) -> tuple[dict, dict]:
    """Run one workload; return (final result line, detailed report)."""
    deadline = now() + RUN_TIMEOUT_S
    ops = workload_ops(workload, seed, size, traced=trace)
    work = HERE / ".work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems: list[str] = []
    report: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": trace, "smoke": size is SMOKE, "machine": machine_info(),
                    "ops": [" ".join(op.argv) for op in ops]}

    # the untimed first start: page cache, pyc files, output checks
    checks = check_ops(workload, seed, size)
    spec = {"root": str(ROOT), "ops": [list(op.argv) + ["--out", str(work / f"check.{op.role}")]
                                       for op in checks]}
    if workload == "exact_count":
        spec["dp_query"] = list(size.counts[0])
    checked = run_child(spec, work, "check", deadline)
    for op, op_result in zip(checks, checked["ops"]):
        text_path = work / f"check.{op.role}"
        if op.role == "probe":
            report["known_defect_probe"] = {"argv": " ".join(op.argv), **op_result}
        elif op_failed(op_result):
            problems.append(f"check {op.role} failed: {op_result['error']}")
        elif op.role.endswith(".second"):
            first = work / f"check.{op.role[:-len('.second')]}.first"
            if first.read_bytes() != text_path.read_bytes():
                problems.append(f"check {op.role}: same seed, same interpreter, different bytes")
        elif op.role == "cdt":
            for line in text_path.read_text().splitlines():
                problems += check_cdt_sample(line, size.n, size.n // 4)

    start = now()
    modes = ("untraced", "traced") if trace else ("untraced",)
    passes: list[tuple[str, dict]] = []
    while True:
        mode = modes[len(passes) % len(modes)]
        k = len(passes)
        spec = {"root": str(ROOT),
                "ops": [list(op.argv) + ["--out", str(work / f"{op.role}.{k}")] for op in ops]}
        if mode == "traced":
            spec.update(trace=True, spans_out=str(work / f"spans.{k}.json"),
                        predict=[list(op.predict) if op.predict else [None, None]
                                 for op in ops])
        passes.append((mode, run_child(spec, work, f"pass{k}", deadline)))
        typical = statistics.median(result["lifetime_s"] for _, result in passes)
        if len(passes) >= MIN_PASSES and now() - start + typical / 2 > seconds:
            break

    attempted = failed = 0
    outputs: dict = {op.role: set() for op in ops}
    for k, (_, result) in enumerate(passes):
        for op, op_result in zip(ops, result["ops"]):
            attempted += 1
            if op_failed(op_result):
                failed += 1
                continue
            text = (work / f"{op.role}.{k}").read_text()
            outputs[op.role].add(hashlib.sha256(text.encode()).hexdigest())
            found, facts = check_output(op, text)
            problems += [f"pass {k}: {p}" for p in found]
            if k == 0:
                report.setdefault("facts", {})[op.role] = facts
    if workload == "exact_count" and not failed:
        text = {op.role: (work / f"{op.role}.0").read_text() for op in ops}
        if text["per_genus_query"] != text["census"]:
            problems.append("count and oracle census CSVs differ")
        if _csv_rows(text["partition_query"])[1][0][2] != checked["dp_count"]:
            problems.append("partition-route count differs from the recurrence route")
    # a promise of the command line that the timed passes can test; reported,
    # not gated (see CHANGES.md for the defect it shows)
    report["cross_process_identical"] = {role: len(d) <= 1 for role, d in outputs.items()}

    samples = sum(op.samples for op in ops)
    untraced = [pass_figures(r, samples) for mode, r in passes if mode == "untraced"]
    summary = {name: {**quartiles([p[name] for p in untraced]), "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    report["end_to_end"] = summary
    report["untraced_passes"] = untraced
    metrics: dict = {}
    if not trace:
        metrics = {name: {"value": summary[name]["median"], "unit": summary[name]["unit"]}
                   for name in GATED}
    else:
        traced = [traced_figures(r, ops) for mode, r in passes if mode == "traced"]
        layer = {name: quartiles([t[name] for t in traced]) for name in traced[0]}
        layer["process.cpu_s"] = summary["cpu_s"]
        layer["process.cpu_util"] = summary["cpu_util"]
        # difference of the traced and untraced medians, same command lines
        overhead = layer["wall_s"]["median"] - summary["wall_s"]["median"]
        layer["trace.overhead_s"] = {"median": overhead, "traced_passes": len(traced),
                                     "untraced_passes": len(untraced)}
        units = dict(per_layer_names())
        metrics = {name: {"value": layer[name]["median"], "unit": unit}
                   for name, unit in units.items()}
        report["per_layer"] = {name: {**layer[name], "unit": units[name]} for name in units}
        if samples:
            report["per_sample_ms"] = {
                "self_total_traced": 1000 * layer["self_total_s"]["median"] / samples,
                "untraced_wall": 1000 * summary["wall_s"]["median"] / samples,
                "tracing_overhead": 1000 * overhead / samples,
            }
        report["absent_hooks"] = sorted({h for _, r in passes for h in r.get("absent", [])})
        report["hook_moves"] = {hook: moves for hook, _, moves in HOOKS}
    report["problems"] = problems
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "unimaps" / "cli.py").is_file():
        print(f"no unimaps source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, report = bench(args.workload, args.seed, args.seconds, bool(args.trace),
                               SMOKE if args.smoke else FULL)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    for name, s in {**report["end_to_end"], **report.get("per_layer", {})}.items():
        spread = f" (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})" if "q1" in s else ""
        print(f"{name}: {s['median']:.6g} {s['unit']}{spread}")
    if "known_defect_probe" in report:
        probe = report["known_defect_probe"]
        print(f"known defect: {probe['argv']} exits {probe['code']}: {probe['error']}")
    for role, same in report["cross_process_identical"].items():
        if not same:
            print(f"note: {role} output differs between interpreters for one seed")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
