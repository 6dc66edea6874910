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
