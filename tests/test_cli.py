import csv
import io
import json
from pathlib import Path

import pytest

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
