"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    result, report = json.loads(result_line), json.loads(report_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    for name in ("samples_per_s", "failed_share"):
        assert name in report["end_to_end"]
    assert report["machine"]["nproc"] >= 1 and report["machine"]["numpy"]
    if workload == "exact_count":
        assert report["known_defect_probe"]["argv"] == " ".join(run.KNOWN_DEFECT_PROBE)
        assert "ratio" in report["facts"]["asymptotic_query"]
    if trace == "1":
        assert report["absent_hooks"] == []
        assert set(report["hook_moves"]) == {hook for hook, _, _ in child.HOOKS}


def test_failed_op_counts_in_failed_share_and_does_not_stop_the_pass():
    codes = iter([0, 3, "raise", 1, 2])

    def fake_main(argv):
        code = next(codes)
        if code == "raise":
            raise RuntimeError("boom")
        return code

    ops = child.run_ops(fake_main, [["op", str(i)] for i in range(5)])
    assert [op["code"] for op in ops] == [0, 3, None, 1, 2]
    assert "RuntimeError: boom" in ops[2]["error"]
    figures = run.pass_figures({"ops": ops, "setup_s": 1.0, "maxrss_kb": 1024,
                                "cpu_s": 1.0, "lifetime_s": 2.0,
                                "reference_s": [0.1] * 6}, samples=10)
    assert figures["failed_share"] == pytest.approx(3 / 5)


def test_times_are_scaled_to_reference_seconds():
    ops = [{"code": 0, "seconds": 1.5, "error": ""}, {"code": 0, "seconds": 0.5, "error": ""}]
    figures = run.pass_figures({"ops": ops, "setup_s": 1.0, "maxrss_kb": 1024,
                                "cpu_s": 1.0, "lifetime_s": 2.0,
                                "reference_s": [0.1, 0.3, 0.5]}, samples=10)
    nominal = run.REFERENCE_NOMINAL_S
    wall = 1.5 * nominal / 0.2 + 0.5 * nominal / 0.4
    assert figures["wall_measured_s"] == pytest.approx(2.0)
    assert figures["wall_s"] == pytest.approx(wall)
    assert figures["setup_s"] == pytest.approx(1.0 * nominal / 0.1)
    assert figures["samples_per_s"] == pytest.approx(10 / wall)


def test_output_checks_catch_wrong_outputs():
    ratio_op = run.Op("asymptotic_query", ("count", "--n", "40", "--g", "10", "--asymptotic"))
    good = "n,g,count,log_asymptotic,ratio\n40,10,5,1.0,0.99\n"
    assert run.check_output(ratio_op, good)[0] == []
    assert run.check_output(ratio_op, good.replace("0.99", "0.90"))[0]
    census_op = run.Op("census", ("oracle", "census", "--n", "3"))
    assert run.check_output(census_op, "n,g,count\n3,0,5\n3,1,10\n")[0] == []
    assert run.check_output(census_op, "n,g,count\n3,0,5\n3,1,9\n")[0]
    sample = {"v": 2, "edges": [[0, 1], [1, 1], [0, 0]], "root_vertex": 0, "root_edge": 0,
              "cdt": {"tree": "((()))", "perm": [1, 2, 0, 3], "signs": [1, -1]}}
    assert run.check_cdt_sample(json.dumps(sample), 3, 1) == []
    sample["edges"] = [[0, 0], [0, 0], [1, 1]]
    assert run.check_cdt_sample(json.dumps(sample), 3, 1) == ["cdt sample: connected"]


def test_missing_hook_is_reported_absent():
    hooks = [("trees.no_such_function", "pass", ""), ("no_such_module.f", "pass", "")]
    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        assert child.Tracer().install(hooks) == [name for name, _, _ in hooks]
    finally:
        sys.path.remove(str(HERE.parent / "src"))


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = bench("--workload", "exact_count", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
