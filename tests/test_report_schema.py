"""The key sets of the JSON reports, and the report dicts of the records.

Each report record (DegreeEstimate, DegreeValue, DegreeProfile, Verdict,
SuiteReport) builds its to_dict from its own dataclass fields.  Two kinds
of test hold that serialization still:

* the recursive key sets of the degrees, verify-product, sequence and
  suite reports are pinned in report_schema.json, so a field that drops
  out of a report, or one that appears in it, fails here;
* a differential property test compares each record's to_dict with a
  local copy of the hand-written key list it replaced.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from dyndeg import cli
from dyndeg.degrees import (
    DegreeEstimate,
    DegreeProfile,
    DegreeValue,
    Verdict,
    VerdictStatus,
)
from dyndeg.suite import SuiteReport

SCHEMA = Path(__file__).resolve().parent / "report_schema.json"


def _poly(*terms):
    return {"coeffs": [[list(e), c] for e, c in terms]}


# (name, job, extra flags)
JOBS = [
    # a fibred monomial map of (P^1)^3 over its first factor
    ("monomial", {
        "type": "monomial", "factors": [1, 1, 1], "fibration_dim": 1, "n_max": 12,
        "matrix": [[2, 0, 0], [1, 3, 1], [1, 0, 2]],
    }, ()),
    # the README skew product (x, y) -> (x^3, y^2 + x), past its degree cap
    ("readme-skew", {
        "type": "rational", "factors": [1, 1], "fibration_dim": 1,
        "components": [
            [_poly(((3, 0, 0, 0), 1)), _poly(((0, 3, 0, 0), 1))],
            [_poly(((1, 0, 2, 0), 1)), _poly(((1, 0, 0, 2), 1), ((0, 1, 2, 0), 1))],
        ],
    }, ("--n-max", "12")),
]

COMMANDS = ("degrees", "verify-product", "sequence")


def key_paths(value, prefix=""):
    """Every key path in a JSON value: a.b for dict keys, a[] for list items."""
    if isinstance(value, dict):
        paths = set()
        for key, item in value.items():
            path = f"{prefix}.{key}" if prefix else key
            paths |= {path} | key_paths(item, path)
        return paths
    if isinstance(value, list):
        return set().union(*(key_paths(item, prefix + "[]") for item in value))
    return set()


def _report(argv):
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
        cli.main([*argv, "--format", "json"])
    return json.loads(text.getvalue())


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """The JSON reports of the pinned jobs, by "job/command", and the suite's."""
    tmp = tmp_path_factory.mktemp("jobs")
    out = {}
    for name, job, extra in JOBS:
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(job))
        for command in COMMANDS:
            out[f"{name}/{command}"] = _report([command, "--input", str(path), *extra])
    out["suite"] = _report(["suite", "--n-max", "12"])
    return out


def test_report_key_sets_are_pinned(reports):
    got = {name: sorted(key_paths(report)) for name, report in reports.items()}
    assert got == json.loads(SCHEMA.read_text(encoding="utf-8"))


def test_tolerance_is_reported_by_estimates_not_profiles(reports):
    profiles = [p for r in reports.values() for p in r.get("profiles", {}).values()]
    assert profiles
    estimates = []
    for profile in profiles:
        assert "tolerance" not in profile
        for row in ("degrees", "base", "relative"):
            estimates += [v["estimate"] for v in profile[row] or () if v and v["estimate"]]
    estimates += [s["estimate"] for r in reports.values() for s in r.get("sequences", ())
                  if s["estimate"] is not None]
    assert estimates
    assert all("tolerance" in e for e in estimates)


# ------------------------------------------- the key lists to_dict replaced


def _estimate_dict(e):
    return {
        "root_estimate": e.root_estimate,
        "ratio_estimate": e.ratio_estimate,
        "window_estimate": e.window_estimate,
        "trend_estimate": e.trend_estimate,
        "converged": e.converged,
        "window_converged": e.window_converged,
        "trend_converged": e.trend_converged,
        "chosen": e.chosen,
        "settled": e.settled,
        "tolerance": e.tolerance,
    }


def _value_dict(v):
    return {
        "value": v.value,
        "source": v.source,
        "converged": v.converged,
        "estimate": None if v.estimate is None else _estimate_dict(v.estimate),
    }


def _profile_dict(p):
    def row(values):
        if values is None:
            return None
        return [None if v is None else _value_dict(v) for v in values]

    return {
        "label": p.label,
        "dim": p.dim,
        "base_dim": p.base_dim,
        "degrees": row(p.degrees),
        "base": row(p.base),
        "relative": row(p.relative),
    }


def _verdict_dict(v):
    return {
        "name": v.name,
        "status": v.status.value,
        "rows": [dict(r) for r in v.rows],
    }


def _suite_dict(s):
    return {
        "seed": s.seed,
        "n_max": s.n_max,
        "tolerance": s.tolerance,
        "passed": s.passed,
        "verdicts": [_verdict_dict(v) for v in s.verdicts],
    }


def _same_json(record, reference):
    assert (json.dumps(record.to_dict(), sort_keys=True)
            == json.dumps(reference(record), sort_keys=True))


floats = st.floats(allow_nan=False, allow_infinity=False)
estimates = st.builds(
    DegreeEstimate, floats, floats, floats, floats, st.booleans(), st.booleans(),
    st.booleans(), floats, st.booleans(), st.floats(1e-12, 0.5),
)
values = st.one_of(
    floats.map(DegreeValue.exact),
    estimates.map(DegreeValue.from_estimate),
    st.builds(DegreeValue, floats, st.sampled_from(["oracle-exact", "estimated"]),
              st.booleans(), st.none() | estimates),
)
entries = st.none() | values


@st.composite
def profiles(draw):
    dim = draw(st.integers(1, 5))
    labels = st.sampled_from(["", "monomial-engine", "monomial-oracle", "rational-engine"])
    extra = {"label": draw(labels), "tolerance": draw(st.floats(1e-12, 0.5))}
    degrees = tuple(draw(entries) for _ in range(dim + 1))
    if dim == 1 or draw(st.booleans()):
        return DegreeProfile(dim, None, degrees, **extra)
    base_dim = draw(st.integers(1, dim - 1))
    base = tuple(draw(entries) for _ in range(base_dim + 1))
    relative = tuple(draw(entries) for _ in range(dim - base_dim + 1))
    return DegreeProfile(dim, base_dim, degrees, base, relative, **extra)


statuses = st.sampled_from(list(VerdictStatus))
rows = st.dictionaries(
    st.sampled_from(["p", "j", "lhs", "rhs", "window", "note"]),
    st.integers(0, 9) | floats | st.lists(st.integers(0, 9)) | st.text(max_size=8),
).flatmap(lambda row: statuses.map(lambda s: {**row, "status": s.value}))
verdicts = st.builds(Verdict, st.text(max_size=12), statuses, st.lists(rows, max_size=4).map(tuple))
suites = st.builds(SuiteReport, st.integers(0, 2**31), st.integers(2, 60),
                   st.floats(1e-12, 0.5), st.lists(verdicts, max_size=6).map(tuple))


class TestToDictMatchesTheKeyLists:
    @given(estimates)
    def test_estimate(self, e):
        _same_json(e, _estimate_dict)

    @given(values)
    def test_value(self, v):
        _same_json(v, _value_dict)

    @given(profiles())
    def test_profile(self, p):
        _same_json(p, _profile_dict)

    @given(verdicts)
    def test_verdict(self, v):
        _same_json(v, _verdict_dict)

    @given(suites)
    def test_suite_report(self, s):
        _same_json(s, _suite_dict)

    def test_verdict_rows_are_copies(self):
        verdict = Verdict("v", VerdictStatus.PASS, ({"status": "PASS"},))
        verdict.to_dict()["rows"][0]["status"] = "FAIL"
        assert verdict.rows[0]["status"] == "PASS"
