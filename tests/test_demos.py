"""Each demo script runs to completion against the package in src/, using only
factmine's public names."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # run outside the checkout, so a demo that wrote a file would not leave it there
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def _private(name):
    return name.startswith("_") and not name.endswith("__")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_uses_only_public_names(demo):
    private = []
    for node in ast.walk(ast.parse(demo.read_text(), str(demo))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "factmine":
            names = node.module.split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names if alias.name.split(".")[0] == "factmine"
                     for part in alias.name.split(".")]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        private += [f"line {node.lineno}: {name}" for name in names if _private(name)]
    assert not private
