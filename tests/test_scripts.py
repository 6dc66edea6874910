"""Smoke tests: each experiment script runs as a subprocess and exits with
the code its arguments call for (0 success or INCONCLUSIVE, 1 invalid or
malformed flag, 3 a FAIL)."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyndeg
from dyndeg import cli, rational

ROOT = Path(__file__).resolve().parents[1]


def _run(argv):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=300,
    )


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
    # --out is checked before the survey: a directory cannot take the report
    pytest.param(["survey_product_formula.py", "--draws", "1", "--k-max", "2", "--out", "."],
                 1, id="survey-out-dir"),
    pytest.param(["skew_product_demo.py", "--base-exp", "0"], 1, id="demo-base-exp-0"),
])
def test_script_exits_zero(argv, code):
    result = _run(argv)
    assert result.returncode == code, result.stderr
    if code == 1:
        assert result.stderr.startswith("error: ")
        assert not result.stdout
    else:
        assert result.stdout


@pytest.mark.parametrize("argv", [
    pytest.param(["skew_product_demo.py", "--cap", "abc"], id="demo-cap-abc"),
    pytest.param(["survey_product_formula.py", "--draws", "x"], id="survey-draws-x"),
])
def test_malformed_flag_exits_one(argv):
    # argparse reports the flag after its usage line
    result = _run(argv)
    assert result.returncode == 1, result.stderr
    assert "error:" in result.stderr


def test_demo_iterates_three_maps_once(monkeypatch, capsys):
    """The ledger and the profile read one call's records: f for the ledger
    and the total sequence, the base map, and f again inside
    fiber_degree_sequence."""
    spec = importlib.util.spec_from_file_location(
        "skew_product_demo", ROOT / "scripts" / "skew_product_demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    calls = []
    original = rational.iterate_multidegrees

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    # wrap every binding, so that a direct import in the script counts too
    for module in (dyndeg, rational, demo):
        if getattr(module, "iterate_multidegrees", None) is original:
            monkeypatch.setattr(module, "iterate_multidegrees", counted)
    assert demo.main(["--n-max", "7"]) == 0
    assert len(calls) == 3
    assert "product-formula: PASS" in capsys.readouterr().out


def test_report_digests_hash_every_format(tmp_path, capsys):
    """digests runs each job through cli.main in json, table and csv and
    hashes the exit code, stdout and stderr of each run."""
    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "scripts" / "report_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    fibred = {"type": "monomial", "matrix": [[2, 0], [1, 3]], "fibration_dim": 1, "n_max": 4}
    tiny = [
        digests.jobs.Job("fibred", "sequence", fibred),
        # verify-product refuses a map with no fibration, in every format alike
        digests.jobs.Job("unfibred", "verify-product",
                         {"type": "monomial", "matrix": [[2, 1], [1, 1]], "n_max": 4}),
    ]
    lines = digests.digests(tiny, "tiny/0/")
    assert [line.split()[:3] for line in lines] == [
        [f"tiny/0/{name}", fmt, code]
        for name, code in (("fibred", "0"), ("unfibred", "1")) for fmt in ("json", "table", "csv")
    ]
    assert len({line.split()[3] for line in lines}) == 4
    assert digests.digests(tiny, "tiny/0/") == lines

    path = tmp_path / "fibred.json"
    path.write_text(json.dumps(fibred))
    code = cli.main(["sequence", "--input", str(path), "--format", "csv"])
    out, err = capsys.readouterr()
    blob = json.dumps([code, out, err]).encode()
    assert lines[2].split()[3] == hashlib.sha256(blob).hexdigest()
    assert digests.main(["x"]) == 1
