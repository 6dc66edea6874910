import csv
import enum
import io
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from dyndeg import cli
from dyndeg.degrees import VerdictStatus, Verdict


def write_job(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def monomial_job(tmp_path):
    return write_job(
        tmp_path,
        "monomial.json",
        {"type": "monomial", "matrix": [[2, 0], [1, 3]], "fibration_dim": 1,
         "n_max": 10},
    )


@pytest.fixture
def cremona_job(tmp_path):
    return write_job(
        tmp_path,
        "cremona.json",
        {
            "type": "rational",
            "factors": [2],
            "components": [[
                {"coeffs": [[[0, 1, 1], 1]]},
                {"coeffs": [[[1, 0, 1], 1]]},
                {"coeffs": [[[1, 1, 0], 1]]},
            ]],
            "n_max": 8,
        },
    )


@pytest.fixture
def skew_job(tmp_path):
    return write_job(
        tmp_path,
        "skew.json",
        {
            "type": "rational",
            "factors": [1, 1],
            "fibration_dim": 1,
            "components": [
                [
                    {"coeffs": [[[3, 0, 0, 0], 1]]},
                    {"coeffs": [[[0, 3, 0, 0], 1]]},
                ],
                [
                    {"coeffs": [[[1, 0, 2, 0], 1]]},
                    {"coeffs": [[[1, 0, 0, 2], 1], [[0, 1, 2, 0], 1]]},
                ],
            ],
            "n_max": 5,
        },
    )


@pytest.fixture
def non_skew_job(tmp_path):
    # (x, y) -> (xy, x): the base component reads the fiber variable
    return write_job(
        tmp_path,
        "non_skew.json",
        {
            "type": "rational",
            "factors": [1, 1],
            "fibration_dim": 1,
            "components": [
                [
                    {"coeffs": [[[1, 0, 1, 0], 1]]},
                    {"coeffs": [[[0, 1, 0, 1], 1]]},
                ],
                [
                    {"coeffs": [[[1, 0, 0, 0], 1]]},
                    {"coeffs": [[[0, 1, 0, 0], 1]]},
                ],
            ],
            "n_max": 6,
        },
    )


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDegreesCommand:
    def test_monomial_json(self, capsys, monomial_job):
        code, out, _ = run(capsys, "degrees", "--input", monomial_job,
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["job"]["type"] == "monomial"
        assert set(payload["profiles"]) == {"engine", "oracle"}
        oracle = payload["profiles"]["oracle"]
        assert oracle["degrees"][2]["value"] == pytest.approx(6.0)

    def test_table_format(self, capsys, monomial_job):
        code, out, _ = run(capsys, "degrees", "--input", monomial_job,
                           "--format", "table")
        assert code == 0
        assert "oracle" in out and "relative" in out

    def test_csv_format(self, capsys, monomial_job):
        code, out, _ = run(capsys, "degrees", "--input", monomial_job,
                           "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and set(cli._DEGREES_COLUMNS) == set(rows[0])

    def test_out_file(self, capsys, monomial_job, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "degrees", "--input", monomial_job,
                           "--format", "json", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["job"]["type"] == "monomial"

    def test_rational_profile(self, capsys, cremona_job):
        code, out, _ = run(capsys, "degrees", "--input", cremona_job,
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        profile = payload["profiles"]["engine"]
        assert profile["degrees"][1]["value"] == 1.0  # involution

    def test_byte_identical_reports(self, capsys, skew_job):
        code1, out1, _ = run(capsys, "degrees", "--input", skew_job,
                             "--format", "json")
        code2, out2, _ = run(capsys, "degrees", "--input", skew_job,
                             "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2


class TestVerifyProductCommand:
    def test_monomial_pass(self, capsys, monomial_job):
        code, out, _ = run(capsys, "verify-product", "--input", monomial_job,
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "PASS"
        assert {"product_formula_oracle", "product_formula_engine",
                "lower_bound_oracle", "distinctness_oracle"} <= set(payload["checks"])

    def test_engine_distinctness_uses_job_tolerance(self, capsys, tmp_path):
        # exact d_5 = d_6 = 403; the engine estimates them 402.9994 and 403,
        # which a 1e-6 tolerance would call distinct and FAIL on.
        job = write_job(tmp_path, "close.json", {
            "type": "monomial", "fibration_dim": 3, "n_max": 60,
            "matrix": [[4, -3, 5, 0, 0, 0], [-3, 1, -4, 0, 0, 0], [2, -2, 5, 0, 0, 0],
                       [0, -2, -2, 0, 5, -4], [2, -1, -1, -1, 5, -3],
                       [-1, 1, -1, -4, 1, -3]],
        })
        code, out, _ = run(capsys, "verify-product", "--input", job, "--format", "json")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert checks["distinctness_engine"]["status"] == "PASS"
        assert checks["distinctness_engine"]["rows"][0]["total_distinct"][-1] is False
        assert checks["distinctness_oracle"]["status"] == "PASS"

    def test_requires_fibration(self, capsys, tmp_path):
        job = write_job(tmp_path, "plain.json",
                        {"type": "monomial", "matrix": [[2, 1], [1, 1]]})
        code, _, err = run(capsys, "verify-product", "--input", job)
        assert code == 1
        assert "fibration" in err

    @pytest.mark.parametrize("fixture", ["monomial_job", "skew_job"])
    def test_out_of_range_p_range_fails_before_any_work(self, capsys, request, monkeypatch,
                                                        tmp_path, fixture):
        def never(job):
            raise AssertionError("profiles built before p_range was checked")

        monkeypatch.setattr(cli, "_profiles", never)
        payload = json.loads(Path(request.getfixturevalue(fixture)).read_text())
        payload["p_range"] = [0, 99]
        code, out, err = run(capsys, "verify-product", "--input",
                             write_job(tmp_path, "range.json", payload))
        assert code == 1
        assert out == ""
        assert err == "error: p_range must lie within [0, 2]\n"

    def test_skew_inconclusive_or_pass_exits_zero(self, capsys, skew_job):
        code, out, _ = run(capsys, "verify-product", "--input", skew_job,
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["status"] in {"PASS", "INCONCLUSIVE"}

    def test_fail_exit_code(self, capsys, monomial_job, monkeypatch):
        def fake(profile, ps=None):
            return Verdict("product-formula", VerdictStatus.FAIL,
                           ({"p": 1, "status": "FAIL"},))

        monkeypatch.setattr(cli, "product_formula", fake)
        code, out, _ = run(capsys, "verify-product", "--input", monomial_job,
                           "--format", "json")
        assert code == 3
        assert json.loads(out)["status"] == "FAIL"


class TestSequenceCommand:
    def test_monomial_sequences(self, capsys, monomial_job):
        code, out, _ = run(capsys, "sequence", "--input", monomial_job,
                           "--n-max", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        kinds = {entry["kind"] for entry in payload["sequences"]}
        assert {"total", "base", "relative", "mixed", "summed"} == kinds
        totals = next(e for e in payload["sequences"]
                      if e["kind"] == "total" and e["p"] == 1)
        assert totals["values"][:4] == [2, 6, 18, 54]
        assert totals["estimate"]["converged"] is True

    def test_ratio_estimates_track_growth(self, capsys, monomial_job):
        code, out, _ = run(capsys, "sequence", "--input", monomial_job,
                           "--n-max", "8", "--format", "csv")
        assert code == 0
        rows = [r for r in csv.DictReader(io.StringIO(out))
                if r["kind"] == "total" and r["p"] == "1"]
        assert float(rows[-1]["ratio_est"]) == pytest.approx(3.0, rel=0.1)

    def test_rational_sequences(self, capsys, skew_job):
        code, out, _ = run(capsys, "sequence", "--input", skew_job,
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        fibers = next(e for e in payload["sequences"] if e["kind"] == "relative")
        assert fibers["values"][:4] == [1, 2, 4, 8]

    @pytest.mark.parametrize("job, argv", [
        ("skew_job", ["--n-max", "12"]),  # the README job, truncated by the degree cap
        ("monomial_job", []),
    ])
    def test_same_estimates_as_degrees(self, capsys, request, job, argv):
        path = request.getfixturevalue(job)
        code, out, _ = run(capsys, "sequence", "--input", path, *argv, "--format", "json")
        assert code == 0
        printed = {(e["kind"], e["p"]): e["estimate"]
                   for e in json.loads(out)["sequences"] if e["q"] is None}
        code, out, _ = run(capsys, "degrees", "--input", path, *argv, "--format", "json")
        assert code == 0
        engine = json.loads(out)["profiles"]["engine"]
        shared = 0
        for kind, row in (("total", "degrees"), ("base", "base"), ("relative", "relative")):
            for p, value in enumerate(engine[row]):
                if value is not None and value["source"] == "estimated":
                    assert value["estimate"] == printed[kind, p]
                    shared += 1
        assert shared == (3 if job == "skew_job" else 7)

    def test_roots_past_the_float_range_print_in_every_format(self, capsys, tmp_path):
        # lambda_1(f) = 10**400 + 2: its first root is past the float range.
        # The json report never prints it; table and csv print it as 1e+400.
        job = write_job(tmp_path, "big.json",
                        {"type": "monomial", "matrix": [[1, 0], [10**400, 1]], "n_max": 4})
        code, out, err = run(capsys, "sequence", "--input", job, "--format", "json")
        assert (code, err) == (0, "")
        expected = [(s["kind"], s["p"], n, v)
                    for s in json.loads(out)["sequences"] for n, v in enumerate(s["values"])]
        assert expected[6] == ("total", 1, 1, 10**400 + 2)
        code, out, err = run(capsys, "sequence", "--input", job, "--format", "csv")
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["kind"], int(r["p"]), int(r["n"]), int(r["value"])) for r in rows] == expected
        assert rows[6]["root_est"] == "1e+400"
        for (_, _, n, v), row in zip(expected, rows):
            if n >= 1:
                root = Decimal(v) ** (Decimal(1) / n)
                assert abs(Decimal(row["root_est"]) / root - 1) < Decimal("1e-11")
        code, out, err = run(capsys, "sequence", "--input", job, "--format", "table")
        assert (code, err) == (0, "")
        # the table's empty cells (q, and the estimates at small n) split away
        assert [line.split() for line in out.splitlines()[1:]] == [
            [cell for cell in r.values() if cell] for r in rows]


class TestSuiteCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "suite", "--seed", "5", "--n-max", "40",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True

    def test_short_horizon_exits_three(self, capsys):
        code, out, _ = run(capsys, "suite", "--seed", "0", "--n-max", "5",
                           "--format", "json")
        assert code == 3
        payload = json.loads(out)
        assert payload["passed"] is False
        statuses = {v["name"]: v["status"] for v in payload["verdicts"]}
        assert statuses["summed-sequence-convergence"] == "INCONCLUSIVE"

    def test_table_format_shows_overall(self, capsys):
        code, out, _ = run(capsys, "suite", "--seed", "5", "--n-max", "40")
        assert code == 0
        assert "overall: PASS" in out

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, "suite", "--seed", "2", "--n-max", "12",
                             "--format", "json")
        code2, out2, _ = run(capsys, "suite", "--seed", "2", "--n-max", "12",
                             "--format", "json")
        assert out1 == out2


class TestErrorHandling:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "degrees", "--input",
                           str(tmp_path / "nope.json"))
        assert code == 1
        assert err

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "degrees", "--input", str(path))
        assert code == 1

    def test_unknown_type(self, capsys, tmp_path):
        job = write_job(tmp_path, "bad.json", {"type": "projective"})
        assert run(capsys, "degrees", "--input", job)[0] == 1

    def test_non_square_matrix(self, capsys, tmp_path):
        job = write_job(tmp_path, "bad.json",
                        {"type": "monomial", "matrix": [[1, 2, 3], [4, 5, 6]]})
        assert run(capsys, "degrees", "--input", job)[0] == 1

    def test_wrong_component_count(self, capsys, tmp_path):
        job = write_job(
            tmp_path, "bad.json",
            {"type": "rational", "factors": [2],
             "components": [[{"coeffs": [[[1, 0, 0], 1]]}]]},
        )
        assert run(capsys, "degrees", "--input", job)[0] == 1

    @pytest.mark.parametrize("command", ["degrees", "sequence", "verify-product"])
    def test_non_skew_fibration_exits_one(self, capsys, non_skew_job, command):
        code, out, err = run(capsys, command, "--input", non_skew_job)
        assert code == 1
        assert out == ""
        assert err == "error: map does not have skew-product shape for its fibration\n"

    @pytest.mark.parametrize("fibration_dim", [0, 2])
    def test_out_of_range_fibration_same_message(self, capsys, tmp_path, monomial_job,
                                                 skew_job, fibration_dim):
        errors = []
        for path in (monomial_job, skew_job):
            payload = json.loads(Path(path).read_text())
            payload["fibration_dim"] = fibration_dim
            code, out, err = run(capsys, "degrees", "--input",
                                 write_job(tmp_path, "range.json", payload))
            assert code == 1
            assert out == ""
            errors.append(err)
        assert errors[0] == errors[1] == (
            f"error: base must use between 1 and 1 factors, got {fibration_dim}\n")

    @pytest.mark.parametrize("target", ["", "missing/report.json"],
                             ids=["directory", "missing-directory"])
    def test_unwritable_out_exits_one(self, capsys, monomial_job, tmp_path, target):
        code, out, err = run(capsys, "degrees", "--input", monomial_job,
                             "--out", str(tmp_path / target))
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write output file: ")

    def test_unwritable_out_fails_before_any_work(self, capsys, monomial_job, tmp_path,
                                                  monkeypatch):
        def never(job):
            raise AssertionError("profiles built before --out was checked")

        monkeypatch.setattr(cli, "_profiles", never)
        code, out, err = run(capsys, "degrees", "--input", monomial_job,
                             "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write output file: ")

    def test_failed_run_keeps_existing_out(self, capsys, tmp_path):
        # the --out check must not truncate: the overflow below ends in exit 2
        job = write_job(tmp_path, "huge.json",
                        {"type": "monomial", "matrix": [[10**400, 1], [1, 1]], "n_max": 3})
        target = tmp_path / "report.txt"
        target.write_bytes(b"earlier report\n")
        code, _, err = run(capsys, "degrees", "--input", job, "--out", str(target))
        assert code == 2
        assert err.startswith("computation error:")
        assert target.read_bytes() == b"earlier report\n"
        # nor leave behind a file that was not there
        code, _, _ = run(capsys, "degrees", "--input", job, "--out", str(tmp_path / "new.txt"))
        assert code == 2
        assert not (tmp_path / "new.txt").exists()

    def test_float_overflow_is_a_computation_error(self, capsys, tmp_path):
        # the degree's n-th root exceeds the float range in the estimate
        job = write_job(tmp_path, "huge.json",
                        {"type": "monomial", "matrix": [[10**400, 1], [1, 1]], "n_max": 3})
        code, out, err = run(capsys, "degrees", "--input", job)
        assert code == 2
        assert not out
        assert err.startswith("computation error:")

    @pytest.mark.parametrize("field, value", [
        ("matrix", [[True, False], [True, True]]),
        ("fibration_dim", True),
        ("n_max", True),
        ("seed", False),
        ("tolerance", True),
        ("p_range", [False, True]),
        ("factors", [True, True]),
        ("factors", 2),
    ])
    def test_monomial_job_rejects_non_integers(self, capsys, tmp_path, field, value):
        payload = {"type": "monomial", "matrix": [[2, 0], [1, 3]], "fibration_dim": 1,
                   "n_max": 4, field: value}
        job = write_job(tmp_path, "bool.json", payload)
        code, out, err = run(capsys, "sequence", "--input", job)
        assert code == 1
        assert not out and err

    @pytest.mark.parametrize("field, value", [
        ("factors", [True]),
        ("coefficient", True),
        ("exponent", True),
        ("exponent", 1.9),
        ("exponent", "1"),
    ])
    def test_rational_job_rejects_non_integers(self, capsys, tmp_path, field, value):
        line = [[[1, 0], 1], [[0, 1], 2]]
        if field == "coefficient":
            line[1][1] = value
        if field == "exponent":
            line[1][0][1] = value
        payload = {"type": "rational", "factors": [True] if field == "factors" else [1],
                   "components": [[{"coeffs": [[[1, 0], 1]]}, {"coeffs": line}]], "n_max": 3}
        job = write_job(tmp_path, "bad.json", payload)
        code, out, err = run(capsys, "sequence", "--input", job)
        assert code == 1
        assert not out and err

    def test_repeated_exponents_are_summed(self, capsys, tmp_path):
        line = [[[2, 0], 2], [[2, 0], 3], [[1, 1], 1], [[1, 1], -1]]
        payload = {"type": "rational", "factors": [1],
                   "components": [[{"coeffs": line}, {"coeffs": [[[0, 2], 1]]}]], "n_max": 3}
        job = write_job(tmp_path, "repeated.json", payload)
        code, out, _ = run(capsys, "sequence", "--input", job, "--format", "json")
        assert code == 0
        components = json.loads(out)["job"]["components"]
        assert components[0][0] == {"coeffs": [[[2, 0], 5]]}

    def test_invalid_exponents_are_rejected_even_when_they_cancel(self, capsys, tmp_path):
        line = [[[2, 0], 1], [[-1, 3], 2], [[-1, 3], -2]]
        payload = {"type": "rational", "factors": [1],
                   "components": [[{"coeffs": line}, {"coeffs": [[[0, 2], 1]]}]], "n_max": 3}
        job = write_job(tmp_path, "cancelled.json", payload)
        code, out, err = run(capsys, "sequence", "--input", job)
        assert code == 1
        assert not out and "exponents must be nonnegative" in err

    @pytest.mark.parametrize("term, message", [
        ([[5, 5, 5], 0], "exponent vector needs 2 entries, got 3"),
        ([[-1, 3], 0], "exponents must be nonnegative"),
    ])
    def test_zero_valued_terms_still_need_valid_exponents(self, capsys, tmp_path,
                                                          term, message):
        line = [[[2, 0], 1], term]
        payload = {"type": "rational", "factors": [1],
                   "components": [[{"coeffs": line}, {"coeffs": [[[0, 2], 1]]}]], "n_max": 3}
        job = write_job(tmp_path, "zero_term.json", payload)
        code, out, err = run(capsys, "sequence", "--input", job)
        assert code == 1
        assert not out and f"component 0[0]: {message}" in err

    @pytest.mark.parametrize("pair", [
        # (x0^2, x1): monomials, which the strip alone would reduce
        [[[[2, 0], 1]], [[[0, 1], 1]]],
        # (x0^2 + x0 x1, x1 + 3 x0): no monomial entry, the gcd route's shape
        [[[[2, 0], 1], [[1, 1], 1]], [[[0, 1], 1], [[1, 0], 3]]],
    ], ids=["monomials", "binomials"])
    def test_inconsistent_multidegrees_exit_one(self, capsys, tmp_path, pair):
        payload = {"type": "rational", "factors": [1], "n_max": 3,
                   "components": [[{"coeffs": line} for line in pair]]}
        job = write_job(tmp_path, "inconsistent.json", payload)
        code, out, err = run(capsys, "sequence", "--input", job)
        assert code == 1
        assert not out and "tuple entries have inconsistent multidegrees" in err

    def test_exhausted_gcd_budget_exits_2(self, capsys, tmp_path, monkeypatch):
        from dyndeg import rational

        monkeypatch.setattr(rational, "_HEUGCD_TRIES", 0)
        # the Lyness map (XY : YZ + 3Z^2 : XZ): its iterates need the exact gcd
        payload = {"type": "rational", "factors": [2], "n_max": 6, "components": [[
            {"coeffs": [[[1, 1, 0], 1]]},
            {"coeffs": [[[0, 1, 1], 1], [[0, 0, 2], 3]]},
            {"coeffs": [[[1, 0, 1], 1]]},
        ]]}
        job = write_job(tmp_path, "lyness.json", payload)
        code, out, err = run(capsys, "degrees", "--input", job)
        assert code == 2
        assert not out and err.startswith("computation error:")

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 1, 1.0, 2.5, 0, -0.5])
    def test_job_tolerance_must_lie_strictly_between_zero_and_one(self, capsys, tmp_path,
                                                                  value):
        # json writes inf and nan as Infinity and NaN, which json.load accepts
        payload = {"type": "monomial", "matrix": [[2, 0], [1, 3]], "fibration_dim": 1,
                   "n_max": 4, "tolerance": value}
        job = write_job(tmp_path, "tol.json", payload)
        code, out, err = run(capsys, "verify-product", "--input", job)
        assert code == 1
        assert not out and err

    @pytest.mark.parametrize("flags", [
        ("--tol", "inf"), ("--tol", "nan"), ("--tol", "1"), ("--tol", "-0.5"),
        ("--n-max", "1"), ("--n-max", "-3"), ("--tol", "inf", "--n-max", "12"),
    ])
    @pytest.mark.parametrize("command", ["verify-product", "suite"])
    def test_flag_settings_are_checked(self, capsys, monomial_job, command, flags):
        argv = [command, *flags] + (["--input", monomial_job] if command != "suite" else [])
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert not out and err

    def test_bad_flag_value(self, capsys, monomial_job):
        assert run(capsys, "degrees", "--input", monomial_job,
                   "--n-max", "three")[0] == 1

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "transcend")[0] == 1

    def test_self_collapse_exits_two(self, capsys, tmp_path):
        job = write_job(
            tmp_path, "collapse.json",
            {
                "type": "rational",
                "factors": [2],
                "components": [[
                    {"coeffs": [[[0, 0, 2], 1]]},
                    {"coeffs": [[[2, 0, 0], 1]]},
                    {"coeffs": []},
                ]],
                "n_max": 4,
            },
        )
        code, _, err = run(capsys, "sequence", "--input", job)
        assert code == 2
        assert err

    def test_dominance_warning_on_stderr(self, capsys, tmp_path):
        job = write_job(
            tmp_path, "squares.json",
            {
                "type": "rational",
                "factors": [2],
                "components": [[
                    {"coeffs": [[[2, 0, 0], 1]]},
                    {"coeffs": [[[0, 2, 0], 1]]},
                    {"coeffs": [[[1, 1, 0], 1]]},
                ]],
                "n_max": 4,
            },
        )
        code, out, err = run(capsys, "degrees", "--input", job)
        assert code == 0
        assert "dominan" in err.lower()


class TestSharedParser:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts the parsers main builds, from a cleared cache."""
        real = cli.build_parser
        calls = []

        def counted():
            calls.append(None)
            return real()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        yield calls
        cli._parser.cache_clear()

    def test_one_parser_keeps_no_state_between_calls(self, capsys, monomial_job, builds):
        def n_max(*flags):
            code, out, _ = run(capsys, "degrees", "--input", monomial_job,
                               "--format", "json", *flags)
            assert code == 0
            return json.loads(out)["job"]["n_max"]

        assert n_max("--n-max", "5") == 5
        assert n_max() == 10  # from the job file, not the previous call
        assert run(capsys, "degrees", "--input", monomial_job, "--n-max", "x")[0] == 1
        assert n_max() == 10
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "usage: dyndeg" in out
        assert n_max() == 10
        assert len(builds) == 1
        cli._parser.cache_clear()
        assert n_max() == 10
        assert len(builds) == 2


# Reference copies of the commands' row loops, reading the JSON report in
# place of the records the commands hold.
_ESTIMATE_COLUMNS = ["root_estimate", "ratio_estimate", "window_estimate", "chosen"]


def _degrees_rows(report):
    rows = []
    for pname, prof in report["profiles"].items():
        parts = [("total", prof["degrees"])]
        if prof["base"] is not None:
            parts += [("base", prof["base"]), ("relative", prof["relative"])]
        for kind, values in parts:
            for p, v in enumerate(values):
                row = {"profile": pname, "kind": kind, "p": p}
                if v is None:
                    row.update(value="", source="unavailable", converged="")
                else:
                    row.update(value=f"{v['value']:.12g}", source=v["source"],
                               converged=v["converged"])
                    if v["estimate"] is not None:
                        row.update((c, f"{v['estimate'][c]:.12g}")
                                   for c in _ESTIMATE_COLUMNS)
                rows.append(row)
    return rows


def _verify_rows(report):
    # the command lists each profile's checks in this order; json sorts them
    order = [f"{check}_{profile}" for profile in ("engine", "oracle")
             for check in ("product_formula", "lower_bound", "distinctness")]
    rows = []
    for cname in (name for name in order if name in report["checks"]):
        for r in report["checks"][cname]["rows"]:
            rows.append({
                "check": cname,
                "p": r.get("p", ""),
                "j": r.get("j", ""),
                "status": r["status"],
                "lhs": r.get("lhs", ""),
                "rhs": r.get("rhs", r.get("bound", "")),
                "rel_error": r.get("rel_error", ""),
                "argmax": ";".join(map(str, r.get("argmax", []))),
            })
    return rows


def _sequence_rows(report):
    rows = []
    for seq in report["sequences"]:
        values = seq["values"]
        for n, v in enumerate(values):
            row = {
                "kind": seq["kind"], "p": seq["p"],
                "q": "" if seq["q"] is None else seq["q"],
                "n": n, "value": v, "root_est": "", "ratio_est": "",
            }
            if n >= 1:
                row["root_est"] = f"{math.exp(math.log(v) / n):.12g}"
            if n >= 2:
                row["ratio_est"] = f"{v / values[n - 1]:.12g}"
            rows.append(row)
    return rows


def _suite_rows(report):
    return [{"property": v["name"], "status": v["status"], "rows": len(v["rows"])}
            for v in report["verdicts"]]


_ROWS = {
    "degrees": (_degrees_rows, cli._DEGREES_COLUMNS),
    "verify-product": (_verify_rows, cli._VERIFY_COLUMNS),
    "sequence": (_sequence_rows, cli._SEQUENCE_COLUMNS),
    "suite": (_suite_rows, cli._SUITE_COLUMNS),
}


class TestReportRows:
    @pytest.mark.parametrize("argv", [
        ("degrees", "monomial_job"),
        ("verify-product", "monomial_job"),
        ("sequence", "monomial_job"),
        ("degrees", "skew_job"),
        ("verify-product", "skew_job"),
        ("sequence", "skew_job"),
        ("suite", "--n-max", "12"),
    ], ids="-".join)
    def test_table_and_csv_match_rows_rebuilt_from_json(self, capsys, request, argv):
        command, *rest = argv
        if rest and rest[0].endswith("_job"):  # the README skew job or a fibred monomial one
            rest = ["--input", request.getfixturevalue(rest[0])]
        code, out, err = run(capsys, command, *rest, "--format", "json")
        report = json.loads(out)
        build, columns = _ROWS[command]
        rows = build(report)
        assert rows

        table = cli._table(rows, columns)
        if "status" in report:
            table += f"overall: {report['status']}\n"
        assert run(capsys, command, *rest, "--format", "table") == (code, table, err)

        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns, restval="",
                                extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        assert run(capsys, command, *rest, "--format", "csv") == (code, buffer.getvalue(), err)

    def test_json_builds_no_rows(self, capsys, monkeypatch, monomial_job, skew_job):
        class RowsBuilt(Exception):
            pass

        def refuse(*_args):
            raise RowsBuilt

        for name in ("_degrees_rows", "_verify_rows", "_sequence_rows", "_suite_rows"):
            monkeypatch.setattr(cli, name, refuse)
        for job in (monomial_job, skew_job):
            for command in ("degrees", "verify-product", "sequence"):
                code, out, _ = run(capsys, command, "--input", job, "--format", "json")
                assert code == 0 and json.loads(out)["command"] == command
        code, out, _ = run(capsys, "suite", "--n-max", "5", "--format", "json")
        assert code == 3 and json.loads(out)["command"] == "suite"


_EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308)
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f\n\t", "é ✓ 😀 \u2028"]),
)
# Lists of one scalar type are written by one join; lists of mixed values,
# tuples and dicts recurse.
_json_trees = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
        st.lists(st.integers(), max_size=5),
        st.lists(st.floats() | st.sampled_from(_EDGE_FLOATS), max_size=5),
    ),
    max_leaves=20,
)


class Colour(enum.Enum):
    RED = 1


class TestJsonText:
    @given(_json_trees)
    @example([])
    @example({})
    @example([[], {}, [[]], {"a": {}}, ()])
    @example({"b": [1, 2], "a": {"d": (), "c": [None, True, False]}, "": "\"\u00e9"})
    @example([2**64, -(2**200), *_EDGE_FLOATS])
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [
        {1: "a"},
        {"a": 1, 2: "b"},
        [{"a": {1: None}}],
        {1, 2},
        {"a": [frozenset()]},
        Colour.RED,
        [Colour.RED, Colour.RED],
    ], ids=["int-key", "mixed-keys", "nested-int-key", "set", "nested-frozenset",
            "enum", "enum-list"])
    def test_refuses_what_reports_do_not_hold(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)


# Runs in a fresh interpreter: certified-coprime, skew and Lyness jobs, then
# monomial jobs, then a tuple with the planted common factor x0 + 2 x1, which
# needs the exact gcd.  None of them may import sympy, and mpmath loads only
# once the monomial oracle finds roots.
_IMPORT_PROBE = """
import contextlib, io, json, sys
from dyndeg import cli

mpmath = {"import": "mpmath" in sys.modules}
monomial, coprime, skew, lyness = sys.argv[1:]
codes = []

def run(*runs):
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(argv))

run(*[[command, "--input", job] for job in (coprime, skew, lyness)
      for command in ("degrees", "sequence")])
mpmath["rational_jobs"] = "mpmath" in sys.modules
run(["degrees", "--input", monomial])
mpmath["monomial_degrees"] = "mpmath" in sys.modules
run(*[[command, "--input", monomial] for command in ("verify-product", "sequence")])
run(["suite", "--n-max", "5"])
after_jobs = "sympy" in sys.modules

from dyndeg.cohomology import Space
from dyndeg.rational import MultiHomPoly, reduce_tuple

p1 = Space((1,))
g = MultiHomPoly.make(p1, {(1, 0): 1, (0, 1): 2})
p = MultiHomPoly.make(p1, {(2, 0): 1, (0, 2): 3})
q = MultiHomPoly.make(p1, {(2, 0): 1, (1, 1): 1, (0, 2): -1})
reduced = reduce_tuple(p1, (g * p, g * q)) == (p, q)
print(json.dumps({"codes": codes, "sympy_after_jobs": after_jobs, "mpmath": mpmath,
                  "reduced": reduced, "sympy_after_gcd": "sympy" in sys.modules}))
"""


class TestImportHygiene:
    def test_sympy_is_never_imported(self, tmp_path):
        monomial = write_job(
            tmp_path, "readme.json",
            {"type": "monomial", "matrix": [[2, 0], [1, 3]], "fibration_dim": 1,
             "n_max": 12},
        )
        # a map of P^1: it iterates as powers of its degree, so only its
        # construction meets the mod-p certificate
        coprime = write_job(
            tmp_path, "coprime.json",
            {"type": "rational", "factors": [1], "n_max": 5, "components": [[
                {"coeffs": [[[2, 0], 1], [[0, 2], 3]]},
                {"coeffs": [[[2, 0], 1], [[1, 1], 1], [[0, 2], -1]]},
            ]]},
        )
        # a skew product over that map: its fiber tuple uses base variables,
        # so its iterates compose, and the mod-p certificate proves them coprime
        skew = write_job(
            tmp_path, "skew.json",
            {"type": "rational", "factors": [1, 1], "fibration_dim": 1, "n_max": 4,
             "components": [
                 [{"coeffs": [[[2, 0, 0, 0], 1], [[0, 2, 0, 0], 3]]},
                  {"coeffs": [[[2, 0, 0, 0], 1], [[1, 1, 0, 0], 1], [[0, 2, 0, 0], -1]]}],
                 [{"coeffs": [[[1, 0, 2, 0], 1], [[0, 1, 0, 2], 2]]},
                  {"coeffs": [[[1, 0, 1, 1], 1], [[0, 1, 2, 0], -1], [[0, 1, 0, 2], 1]]}],
             ]},
        )
        # the Lyness map, whose iterates need the exact gcd
        lyness = write_job(
            tmp_path, "lyness.json",
            {"type": "rational", "factors": [2], "n_max": 8, "components": [[
                {"coeffs": [[[1, 1, 0], 1]]},
                {"coeffs": [[[0, 1, 1], 1], [[0, 0, 2], 3]]},
                {"coeffs": [[[1, 0, 1], 1]]},
            ]]},
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
        result = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, monomial, coprime, skew, lyness],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {
            # rational, then monomial jobs; suite --n-max 5 is INCONCLUSIVE: exit 3
            "codes": [0, 0, 0, 0, 0, 0, 0, 0, 0, 3],
            "sympy_after_jobs": False,
            "mpmath": {"import": False, "rational_jobs": False, "monomial_degrees": True},
            "reduced": True,
            "sympy_after_gcd": False,
        }
