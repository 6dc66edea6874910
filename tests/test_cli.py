import csv
import io
import json

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
        def fake(profile, tol=0.0, ps=None):
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
