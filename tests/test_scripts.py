"""Smoke tests: each experiment script runs to completion as a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    # n = 7 is the first iterate whose squarings take the Kronecker path
    ["skew_product_demo.py", "--n-max", "7"],
    ["survey_product_formula.py", "--draws", "1", "--k-max", "3", "--n-max", "20"],
])
def test_script_exits_zero(argv):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
