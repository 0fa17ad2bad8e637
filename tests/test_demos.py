"""The demos run, and every name they import from the package exists."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the demos that finish in about a second; 03 and 04 run in CI
FAST = ("01_exact_counts_and_census.py", "02_growth_constants.py",
        "05_degree_paradox.py")


def test_demo_imports_resolve():
    assert len(DEMOS) == 5
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("unimaps"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (demo.name, node.module, alias.name)


@pytest.mark.parametrize("name", FAST)
def test_fast_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
