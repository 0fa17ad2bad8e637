"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py SPEC.json RESULT.json

SPEC names the repository root and a list of command lines for
``unimaps.cli.main``.  The child imports the package from ``<root>/src``,
runs the command lines in order, timing each, and writes what it measured
to RESULT, with the time of a fixed reference computation just before
each command line and just after the last (see ``reference_seconds``).
With ``"trace": true`` it first imports ``scipy.stats`` alone (timed), then
wraps the public functions in ``HOOKS`` and records one span per call.  With ``"dp_query": [n, g]`` it also computes the recurrence-route
count at (n, g), untimed, as a reference for the partition route.

The lru caches of the package start cold in every child, as they do for a
user of the command line.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

# Layers whose calls the traced run wraps, with the statistic reported for
# each and the end-to-end figure it should move.  "sample" hooks report self
# milliseconds per drawn sample, "pass" hooks self seconds per workload pass.
# The recursive counting helpers (odd_cycle_perm_count, partition_count) are
# deliberately absent: an extra frame per level would move the point where
# their RecursionError fires.
HOOKS = (
    ("cli.main", "pass", "wall_s on every workload (parsing, rendering, writing)"),
    ("experiments.run_local_limit", "pass", "wall_s on local_limit (aggregation, report)"),
    ("experiments.run_root_degree", "pass", "wall_s on root_degree_sweep (aggregation, report)"),
    ("sampler.sample_unicellular", "sample", "samples_per_s on local_limit and root_degree_sweep (quotient)"),
    ("sampler.sample_c_decorated_tree", "sample", "samples_per_s on local_limit and root_degree_sweep (signs, validation)"),
    ("sampler.sample_odd_cycle_permutation", "sample", "samples_per_s on local_limit and root_degree_sweep (labels, block cut)"),
    ("trees.sample_plane_tree", "sample", "samples_per_s on local_limit and root_degree_sweep; flat elsewhere"),
    ("distributions.XBetaLaw.sample", "sample", "samples_per_s, most on root_degree_sweep (size rejection)"),
    ("asymptotics.solve_beta_theta", "sample", "samples_per_s on local_limit and root_degree_sweep (tilt solve per draw)"),
    ("sampler.ball_as_tree", "sample", "samples_per_s on local_limit only; flat on root_degree_sweep"),
    ("maps.ball_with_vertices", "sample", "samples_per_s on local_limit only; flat on root_degree_sweep"),
    ("maps.graph_tree_unordered_code", "sample", "samples_per_s on local_limit only; flat on root_degree_sweep"),
    ("trees.parse_plane_code", "pass", "wall_s on local_limit"),
    ("trees.plane_code", "pass", "wall_s on local_limit"),
    ("distributions.ball_probability", "pass", "wall_s on local_limit"),
    ("distributions.ball_probability_kd", "pass", "wall_s on local_limit"),
    ("distributions.gw_inf_ball_sample", "sample", "samples_per_s on limit_tree only"),
    ("counting.lehman_walsh_count", "pass", "wall_s on exact_count only"),
    ("asymptotics.log_asymptotic_count", "pass", "wall_s on exact_count only"),
    ("asymptotics.asymptotic_ratio", "pass", "wall_s on exact_count only"),
    ("oracle.census", "pass", "wall_s on exact_count only"),
)

PACKAGE = "unimaps"


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans (name, start, end, parent, op) held in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self, hooks=HOOKS) -> list[str]:
        """Wrap every hook that resolves; return the names that do not.

        A module-level function is rebound in every package module that
        holds it, because ``from .x import f`` copies the binding.
        """
        absent = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, _, _ in hooks:
            module_name, *path = name.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                absent.append(name)
                continue
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if not callable(original):
                absent.append(name)
                continue
            wrapped = self.wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, path[-1], wrapped)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
        return absent

    def summary(self, n_ops: int) -> dict:
        """Calls and self seconds per hook and op.  Self time is a span's
        duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for (name, start, end, _, op), inner in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": [0] * n_ops, "self_s": [0.0] * n_ops})
            entry["calls"][op] += 1
            entry["self_s"][op] += end - start - inner
        return out


def predicted_blocks(n: int, g: int):
    """Expected rejection blocks of 64 tries per draw of the cycle sizes,
    from the local-CLT acceptance sqrt(2/(pi*s*Var X)); None if the
    package no longer offers the constants."""
    asymptotics = importlib.import_module(f"{PACKAGE}.asymptotics")
    solve = getattr(asymptotics, "solve_beta_theta", None)
    moments = getattr(asymptotics, "x_moments", None)
    m, s = n + 1, n + 1 - 2 * g
    if solve is None or moments is None or s in (1, m):
        return None
    _, _, var = moments(solve((m - s) / (2.0 * m)))
    accept = min(1.0, math.sqrt(2.0 / (math.pi * s * var)))
    return {"acceptance": accept, "blocks": 1.0 / (1.0 - (1.0 - accept) ** 64)}


REFERENCE_ROUNDS = 80


def reference_seconds(rounds: int = REFERENCE_ROUNDS) -> float:
    """Seconds a fixed computation takes now.  It mixes what the package
    spends its time on (numpy on arrays of a few thousand entries, plain
    Python loops and dicts over them, big-integer products) but calls
    nothing of the package, so a change to the package leaves it alone.
    Timed between the command lines, it tells how fast this shared
    machine runs at that moment.  The collector is off meanwhile,
    so the objects the command lines left alive do not slow it."""
    import numpy as np

    rng = np.random.default_rng(1309_6254)
    total = 0
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for _ in range(rounds):
        perm = rng.permutation(4096)
        order = np.argsort(perm, kind="stable")
        total += int(np.cumsum(order)[-1])
        seen = {}
        for i, x in enumerate(perm.tolist()):
            seen[x] = i ^ total
        total += sum(seen[x] & 1 for x in order.tolist())
        product = 1
        for k in range(1, 700):
            product *= 2 * k + 1
        total += product % 1_000_003
    seconds = time.perf_counter() - start
    if collecting:
        gc.enable()
    return seconds


def run_ops(main, ops: list[list[str]], on_op=None) -> list[dict]:
    """Run each command line through ``main``; a failure never stops the
    rest.  Exit code None means the call raised."""
    results = []
    for i, argv in enumerate(ops):
        if on_op is not None:
            on_op(i)
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = main(list(argv))
        except Exception as exc:  # an escaping error is recorded as a failed op
            code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        results.append({"code": code, "seconds": seconds,
                        "error": err.getvalue().strip()[-300:]})
    return results


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    result: dict = {}
    if spec.get("trace"):
        start = now()
        import scipy.stats  # noqa: F401  (its import cost, measured alone)
        result["scipy_stats_import_s"] = now() - start
    start = now()
    import unimaps.cli
    result["imported_at"] = now()
    result["unimaps_import_s"] = result["imported_at"] - start
    result["module_file"] = unimaps.cli.__file__
    if not Path(unimaps.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"unimaps imported from {unimaps.cli.__file__}, not from {src}")
    if spec.get("predict"):
        result["predicted"] = [predicted_blocks(n, g) if n is not None else None
                               for n, g in spec["predict"]]
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        result["absent"] = tracer.install()
    reference_seconds(1)  # untimed: first-call costs
    result["reference_s"] = []

    def on_op(i):
        result["reference_s"].append(reference_seconds())
        if tracer is not None:
            tracer.op = i

    result["ops"] = run_ops(unimaps.cli.main, spec["ops"], on_op)
    result["reference_s"].append(reference_seconds())
    if tracer is not None:
        result["hooks"] = tracer.summary(len(spec["ops"]))
        Path(spec["spans_out"]).write_text(json.dumps(tracer.spans))
    if spec.get("dp_query"):
        from unimaps.counting import lehman_walsh_count

        n, g = spec["dp_query"]
        result["dp_count"] = str(lehman_walsh_count(n, g, method="dp"))
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    result["cpu_s"] = sum(u.ru_utime + u.ru_stime for u in usage)
    result["maxrss_kb"] = max(u.ru_maxrss for u in usage)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
