"""Exact report fields pinned across changes to the engines.

Every report of a few rational and monomial jobs is cut down to the
fields that are exact: the exit code, the job echo, the integer sequences
with the truncation flag, and the verdict statuses.  Floats stay out, so
the pins do not depend on the platform's libm.  report_pins.json holds
the values of two commits, so these reports must not move:

* the rational jobs, as at commit 63a9b09, before the polynomial
  representation changed;
* the monomial jobs, as at commit b75da10, before every sequence kind
  took its weight from cohomology.sequence_pairings.
"""

import contextlib
import io
import json
from pathlib import Path

from dyndeg import cli

PINS = Path(__file__).resolve().parent / "report_pins.json"


def _poly(*terms):
    return {"coeffs": [[list(e), c] for e, c in terms]}


COMMANDS = ("degrees", "verify-product", "sequence")

# (name, job, extra flags, commands)
JOBS = [
    # the README skew product (x, y) -> (x^3, y^2 + x), past its degree cap
    ("readme-skew", {
        "type": "rational", "factors": [1, 1], "fibration_dim": 1,
        "components": [
            [_poly(((3, 0, 0, 0), 1)), _poly(((0, 3, 0, 0), 1))],
            [_poly(((1, 0, 2, 0), 1)), _poly(((1, 0, 0, 2), 1), ((0, 1, 2, 0), 1))],
        ],
    }, ("--n-max", "12"), COMMANDS),
    # the Cremona involution: periodic degrees, monomial-strip reductions
    ("cremona", {
        "type": "rational", "factors": [2], "n_max": 8,
        "components": [[_poly(((0, 1, 1), 1)), _poly(((1, 0, 1), 1)), _poly(((1, 1, 0), 1))]],
    }, (), COMMANDS),
    # the Lyness map at a = 3: its iterates need the exact gcd
    ("lyness-3", {
        "type": "rational", "factors": [2], "n_max": 9,
        "components": [[
            _poly(((1, 1, 0), 1)), _poly(((0, 1, 1), 1), ((0, 0, 2), 3)), _poly(((1, 0, 1), 1)),
        ]],
    }, (), COMMANDS),
    # a skew product over a map of P^1 whose degrees grow like n 2^n
    ("n-2^n", {
        "type": "rational", "factors": [1, 1], "fibration_dim": 1, "n_max": 4,
        "components": [
            [_poly(((2, 0, 0, 0), 1), ((0, 2, 0, 0), 3)),
             _poly(((2, 0, 0, 0), 1), ((1, 1, 0, 0), 1), ((0, 2, 0, 0), -1))],
            [_poly(((1, 0, 2, 0), 1), ((0, 1, 0, 2), 2)),
             _poly(((1, 0, 1, 1), 1), ((0, 1, 2, 0), -1), ((0, 1, 0, 2), 1))],
        ],
    }, (), COMMANDS),
    # a fibred monomial map of (P^1)^4 over (P^1)^2: its sequence report
    # holds total, base, relative, mixed and summed records
    ("monomial-fibred", {
        "type": "monomial", "fibration_dim": 2, "n_max": 8,
        "matrix": [[2, 1, 0, 0], [1, 1, 0, 0], [1, 0, 3, 1], [-1, 2, 1, 2]],
    }, (), COMMANDS),
    # an unfibred monomial map of (P^1)^3: total records only
    ("monomial-unfibred", {
        "type": "monomial", "n_max": 8, "matrix": [[2, 1, 0], [1, -1, 1], [0, 1, 3]],
    }, (), ("sequence",)),
]


def _statuses(checks):
    return {name: [check["status"], [row["status"] for row in check["rows"]]]
            for name, check in sorted(checks.items())}


def _exact_fields(code, text):
    record = {"exit": code}
    if not text:  # verify-product refuses a job with no fibration
        return record
    report = json.loads(text)
    record["job"] = report["job"]
    if "checks" in report:
        record["checks"] = _statuses(report["checks"])
    if "status" in report:
        record["status"] = report["status"]
    if "sequences" in report:
        record["truncated"] = report["truncated"]
        record["sequences"] = [[s["kind"], s["p"], s["q"], s["values"]]
                               for s in report["sequences"]]
    return record


def collect(tmp_path):
    """The exact fields of every pinned report, by "job/command"."""
    out = {}
    for name, job, extra, commands in JOBS:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(job))
        for command in commands:
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, "--input", str(path), *extra, "--format", "json"])
            out[f"{name}/{command}"] = _exact_fields(code, text.getvalue())
    return out


def test_exact_report_fields_are_pinned(tmp_path):
    assert collect(tmp_path) == json.loads(PINS.read_text(encoding="utf-8"))


# a skew product of (P^1)^3 over P^1 whose total degree is (n+3) 2^(n+1)
P1_CUBED_SKEW = {
    "type": "rational", "factors": [1, 1, 1], "fibration_dim": 1, "n_max": 5,
    "components": [
        [_poly(((2, 0, 0, 0, 0, 0), 1), ((1, 1, 0, 0, 0, 0), 1)),
         _poly(((0, 2, 0, 0, 0, 0), 1), ((1, 1, 0, 0, 0, 0), -2))],
        [_poly(((1, 0, 2, 0, 0, 0), 1), ((0, 1, 0, 2, 0, 0), 2)),
         _poly(((1, 0, 1, 1, 0, 0), 1), ((0, 1, 2, 0, 0, 0), -1))],
        [_poly(((1, 0, 1, 0, 1, 0), 1), ((0, 1, 0, 1, 0, 1), 1)),
         _poly(((1, 0, 0, 1, 0, 1), 1), ((0, 1, 1, 0, 1, 0), 3))],
    ],
}


def test_p1_cubed_skew_sequence_is_pinned(tmp_path, monkeypatch):
    seen = []

    def spy(*args, _original=cli.rational_sequences):
        seen.append(_original(*args))
        return seen[-1]

    monkeypatch.setattr(cli, "rational_sequences", spy)
    path = tmp_path / "p1-cubed-skew.json"
    path.write_text(json.dumps(P1_CUBED_SKEW))
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli.main(["sequence", "--input", str(path), "--format", "json"])
    record = _exact_fields(code, text.getvalue())
    assert record["exit"] == 0
    assert record["truncated"] is False
    # total (n+3) 2^(n+1), base 2^n, relative 2^(n+1)
    assert record["sequences"] == [
        ["total", 1, None, [6, 16, 40, 96, 224, 512]],
        ["base", 1, None, [1, 2, 4, 8, 16, 32]],
        ["relative", 1, None, [2, 4, 8, 16, 32, 64]],
    ]
    # M_n is lower-triangular with diagonal (2^n, 2^n, 1)
    [(_, data)] = seen
    assert len(data.multidegrees) == 5
    for n, m in enumerate(data.multidegrees, start=1):
        assert [m[i][i] for i in range(3)] == [2**n, 2**n, 1]
        assert all(m[i][j] == 0 for i in range(3) for j in range(i + 1, 3))
