"""Smoke tests: each experiment script runs as a subprocess and exits with
the code its arguments call for (0 success or INCONCLUSIVE, 1 invalid flag,
3 a FAIL)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, code", [
    # n = 7 is the first iterate whose squarings take the Kronecker path
    pytest.param(["skew_product_demo.py", "--n-max", "7"], 0, id="argv0"),
    pytest.param(["survey_product_formula.py", "--draws", "1", "--k-max", "3", "--n-max", "20"],
                 0, id="argv1"),
    # a tolerance of 1 or more would turn every FAIL into PASS
    pytest.param(["skew_product_demo.py", "--n-max", "3", "--tol", "inf"], 1, id="demo-tol-inf"),
    pytest.param(["skew_product_demo.py", "--n-max", "1"], 1, id="demo-n-max-1"),
    # three iterates are too few: the product formula reads FAIL
    pytest.param(["skew_product_demo.py", "--n-max", "3"], 3, id="demo-n-max-3"),
    pytest.param(["survey_product_formula.py", "--draws", "1", "--k-max", "2", "--tol", "1.0"],
                 1, id="survey-tol-1"),
    pytest.param(["survey_product_formula.py", "--draws", "1", "--k-max", "2", "--n-max", "1"],
                 1, id="survey-n-max-1"),
    # a cap of 2 stops iteration at once: the verdict is INCONCLUSIVE, not FAIL
    pytest.param(["skew_product_demo.py", "--cap", "2"], 0, id="demo-cap-2"),
    pytest.param(["skew_product_demo.py", "--cap", "0"], 1, id="demo-cap-0"),
    pytest.param(["survey_product_formula.py", "--draws", "0"], 1, id="survey-draws-0"),
])
def test_script_exits_zero(argv, code):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == code, result.stderr
    if code == 1:
        assert result.stderr.startswith("error: ")
    else:
        assert result.stdout
