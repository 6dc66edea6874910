"""Command-line interface for degree sequences, estimates and checks.

Subcommands
-----------
degrees         degree profile (estimates + spectral reference when exact)
verify-product  product-formula / lower-bound / distinctness checks
sequence        raw degree sequences with running estimates
suite           seeded multi-property verification suite

Job files are JSON::

    {
      "type": "monomial",                  # or "rational"
      "matrix": [[2, 0], [1, 3]],          # monomial: integer exponent matrix
      "factors": [1, 1],                   # rational: projective factor dims
      "components": [                      # rational: one tuple per factor
        [{"coeffs": [[[0,1,0,0], 1]]},     #   each entry: exponent/coeff pairs
         {"coeffs": [[[1,0,0,0], 1]]}],    #   over the concatenated variables
        ...
      ],
      "fibration_dim": 1,                  # optional: leading factors kept
      "n_max": 12, "tolerance": 0.05,      # optional numeric settings
      "seed": 0, "p_range": [0, 2]         # optional seed / grading range
    }

Job files and the job.components echo of the reduced map use full
homogeneous exponent vectors; the engine stores them dehomogenized.

The map must preserve a marked fibration_dim = l, 0 < l < factors: a block
lower-triangular matrix, or base components in base variables only.  Every
command exits 1 otherwise.

Command-line --n-max/--tol/--seed override the job file.  Reports carry no
timestamps and JSON output is sorted, so a fixed job and seed reproduce
byte-identical output.  main reuses one parser per process (each call still
parses into a fresh namespace), and builds table and csv rows only for the
formats that print them.

Exit codes: 0 success, 1 invalid job file, arguments or --out file (checked
before any work), 2 computation error (collapse, root-finding failure, a
degree estimate beyond the float range, an exact gcd out of evaluation
points), 3 a verification FAIL.  The root_est column of sequence rows
prints any n-th root, past the float range too (1e+400).
verify-product reports an INCONCLUSIVE check and exits 0; suite exits 3
unless every property passes, so an INCONCLUSIVE suite exits 3 too.  A
rational iteration stopped by the degree cap before the requested iterate
still exits 0: only sequence reports mark it (truncated), while degrees
and verify-product estimate from the shorter prefix.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from . import monomial, rational, suite as suite_mod
from .cohomology import Space
from .degrees import (
    DEFAULT_ESTIMATE_TOL,
    DegreeProfile,
    combine_rows,
    distinctness_implication,
    estimated_value,
    log_concavity,
    lower_bound_check,
    monomial_engine_profile,
    monomial_oracle_profile,
    monomial_sequences,
    product_formula,
    rational_engine_profile,
    rational_sequences,
)

EXIT_OK = 0
EXIT_INVALID_JOB = 1
EXIT_ENGINE = 2
EXIT_CHECK_FAILED = 3


class JobValidationError(ValueError):
    """The job file or arguments do not describe a well-formed job."""


@dataclass(frozen=True)
class Job:
    kind: str  # "monomial" | "rational"
    map: Any
    n_max: int
    tolerance: float
    seed: int
    p_range: tuple[int, int] | None
    raw: dict


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobValidationError(message)


def _is_int(value: Any) -> bool:
    """A JSON integer: bool is a subclass of int in Python, JSON true is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_settings(n_max: Any, tol: Any) -> None:
    """Shared by job files and suite flags.  A tolerance of 1 or more would
    pass every check (relative differences of positive degrees stay below
    1); 0 < tol < 1 also refuses nan and inf."""
    _require(_is_int(n_max) and n_max >= 2, "n_max must be an integer >= 2")
    _require(isinstance(tol, float) and 0 < tol < 1,
             "tolerance must be a number strictly between 0 and 1")


def _parse_poly(space: Space, entry: Any, where: str) -> rational.MultiHomPoly:
    _require(isinstance(entry, dict) and isinstance(entry.get("coeffs"), list),
             f"{where}: each polynomial needs a 'coeffs' list")
    for pair_ in entry["coeffs"]:
        _require(
            isinstance(pair_, (list, tuple)) and len(pair_) == 2,
            f"{where}: coeffs entries must be [exponents, value] pairs",
        )
        exponents, value = pair_
        _require(
            isinstance(exponents, (list, tuple)) and all(_is_int(e) for e in exponents),
            f"{where}: exponent vectors must be lists of integers",
        )
        _require(_is_int(value), f"{where}: coefficients must be integers")
    try:
        return rational.MultiHomPoly.make(space, entry["coeffs"])
    except ValueError as exc:
        raise JobValidationError(f"{where}: {exc}") from exc


def load_job(path: str, args: argparse.Namespace) -> Job:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise JobValidationError(f"cannot read job file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise JobValidationError(f"job file is not valid JSON: {exc}") from exc
    _require(isinstance(data, dict), "job file must contain a JSON object")
    kind = data.get("type")
    _require(kind in ("monomial", "rational"), "type must be 'monomial' or 'rational'")

    n_max = args.n_max if args.n_max is not None else data.get("n_max", 12)
    tol = args.tol if args.tol is not None else data.get("tolerance", DEFAULT_ESTIMATE_TOL)
    seed = args.seed if args.seed is not None else data.get("seed", 0)
    _check_settings(n_max, tol)
    _require(_is_int(seed), "seed must be an integer")
    p_range = data.get("p_range")
    if p_range is not None:
        _require(
            isinstance(p_range, list) and len(p_range) == 2
            and all(_is_int(x) for x in p_range) and p_range[0] <= p_range[1],
            "p_range must be [lo, hi] with lo <= hi",
        )
        p_range = (p_range[0], p_range[1])
    fibration = data.get("fibration_dim")
    _require(fibration is None or _is_int(fibration),
             "fibration_dim must be an integer when present")

    if kind == "monomial":
        matrix = data.get("matrix")
        _require(
            isinstance(matrix, list) and matrix
            and all(isinstance(r, list) and len(r) == len(matrix) for r in matrix)
            and all(_is_int(x) for r in matrix for x in r),
            "matrix must be a square list of integer lists",
        )
        if "factors" in data:
            factors = data["factors"]
            _require(
                isinstance(factors, list) and all(_is_int(n) for n in factors)
                and factors == [1] * len(matrix),
                "monomial jobs act on products of lines: factors must be all 1",
            )
        try:
            the_map = monomial.MonomialMap(matrix, fibration)
        except ValueError as exc:
            raise JobValidationError(str(exc)) from exc
    else:
        factors = data.get("factors")
        _require(
            isinstance(factors, list) and factors
            and all(_is_int(n) and n >= 1 for n in factors),
            "rational jobs need 'factors': a list of positive factor dimensions",
        )
        try:
            space = Space(tuple(factors))
        except ValueError as exc:
            raise JobValidationError(str(exc)) from exc
        components = data.get("components")
        _require(
            isinstance(components, list) and len(components) == len(factors),
            "components must list one polynomial tuple per factor",
        )
        parsed = []
        for i, comp in enumerate(components):
            _require(
                isinstance(comp, list) and len(comp) == factors[i] + 1,
                f"component {i} needs {factors[i] + 1} polynomials",
            )
            parsed.append(
                tuple(
                    _parse_poly(space, entry, f"component {i}[{j}]")
                    for j, entry in enumerate(comp)
                )
            )
        try:
            the_map = rational.RationalMapDesc(space, tuple(parsed), fibration)
        except ValueError as exc:
            raise JobValidationError(str(exc)) from exc

    echo = {
        "type": kind,
        "fibration_dim": fibration,
        "n_max": n_max,
        "tolerance": float(tol),
        "seed": seed,
        "p_range": list(p_range) if p_range else None,
    }
    if kind == "monomial":
        echo["matrix"] = [list(r) for r in the_map.matrix]
    else:
        echo["factors"] = list(factors)
        echo["components"] = [
            [{"coeffs": [[list(e), c] for e, c in p.homogeneous_terms()]} for p in comp]
            for comp in the_map.components
        ]
    return Job(kind, the_map, n_max, float(tol), seed, p_range, echo)


def _grading_list(job: Job, top: int) -> list[int]:
    if job.p_range is None:
        return list(range(top + 1))
    lo, hi = job.p_range
    _require(0 <= lo and hi <= top, f"p_range must lie within [0, {top}]")
    return list(range(lo, hi + 1))


def _profiles(job: Job) -> dict[str, DegreeProfile]:
    """Engine profile always; independent spectral profile when available.
    Each carries the tolerance its checks compare at."""
    if job.kind == "monomial":
        return {
            "engine": monomial_engine_profile(job.map, job.n_max, job.tolerance),
            "oracle": monomial_oracle_profile(job.map),
        }
    import random as _random

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", rational.DominanceWarning)
        rational.check_dominance(job.map, _random.Random(job.seed))
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return {"engine": rational_engine_profile(job.map, job.n_max, job.tolerance)}


# ---------------------------------------------------------------- commands


def cmd_degrees(args: argparse.Namespace) -> int:
    job = load_job(args.input, args)
    profiles = _profiles(job)
    checks = {f"log_concavity_{name}": log_concavity(prof).to_dict()
              for name, prof in profiles.items()}
    report = {
        "command": "degrees",
        "job": job.raw,
        "profiles": {name: prof.to_dict() for name, prof in profiles.items()},
        "checks": checks,
    }
    _emit(args, report, lambda: _degrees_rows(profiles), _DEGREES_COLUMNS)
    return EXIT_OK


def cmd_verify_product(args: argparse.Namespace) -> int:
    job = load_job(args.input, args)
    _require(job.map.fibration_dim is not None,
             "verify-product needs fibration_dim in the job")
    profiles = _profiles(job)
    default_ps = [0, 1] if job.kind == "rational" else None
    checks: dict[str, dict] = {}
    for name, prof in profiles.items():
        ps = _grading_list(job, prof.dim) if job.p_range is not None else default_ps
        checks[f"product_formula_{name}"] = product_formula(prof, ps).to_dict()
        checks[f"lower_bound_{name}"] = lower_bound_check(prof, ps).to_dict()
        if job.kind == "monomial":
            checks[f"distinctness_{name}"] = distinctness_implication(prof).to_dict()
    overall = combine_rows("verify-product", list(checks.values())).status.value
    report = {
        "command": "verify-product",
        "job": job.raw,
        "profiles": {name: prof.to_dict() for name, prof in profiles.items()},
        "checks": checks,
        "status": overall,
    }
    _emit(args, report, lambda: _verify_rows(checks), _VERIFY_COLUMNS)
    return EXIT_CHECK_FAILED if overall == "FAIL" else EXIT_OK


def cmd_sequence(args: argparse.Namespace) -> int:
    job = load_job(args.input, args)
    if job.kind == "monomial":
        sequences = monomial_sequences(job.map, job.n_max, _grading_list(job, job.map.dim))
        truncated = False
    else:
        sequences, data = rational_sequences(job.map, job.n_max)
        truncated = data.truncated
    enriched = []
    for seq in sequences:
        value = estimated_value(seq["values"], job.tolerance)
        estimate = None if value is None else value.estimate.to_dict()
        enriched.append({**seq, "estimate": estimate})
    report = {
        "command": "sequence",
        "job": job.raw,
        "truncated": truncated,
        "sequences": enriched,
    }
    _emit(args, report, lambda: _sequence_rows(enriched), _SEQUENCE_COLUMNS)
    return EXIT_OK


def cmd_suite(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    n_max = args.n_max if args.n_max is not None else 40
    tol = args.tol if args.tol is not None else DEFAULT_ESTIMATE_TOL
    _check_settings(n_max, tol)
    report_obj = suite_mod.run_suite(seed, n_max, tol)
    report = {"command": "suite", **report_obj.to_dict(), "status": report_obj.status.value}
    _emit(args, report, lambda: _suite_rows(report_obj), _SUITE_COLUMNS)
    return EXIT_OK if report_obj.passed else EXIT_CHECK_FAILED


# ------------------------------------------------------------------ output


_ESTIMATE_COLUMNS = ["root_estimate", "ratio_estimate", "window_estimate", "chosen"]
_DEGREES_COLUMNS = ["profile", "kind", "p", "value", "source", "converged", *_ESTIMATE_COLUMNS]
_SEQUENCE_COLUMNS = ["kind", "p", "q", "n", "value", "root_est", "ratio_est"]
_VERIFY_COLUMNS = ["check", "p", "j", "status", "lhs", "rhs", "rel_error", "argmax"]
_SUITE_COLUMNS = ["property", "status", "rows"]


def _degrees_rows(profiles: dict[str, DegreeProfile]) -> list[dict]:
    rows = []
    for pname, prof in profiles.items():
        parts = [("total", prof.degrees)]
        if prof.base is not None:
            parts += [("base", prof.base), ("relative", prof.relative)]
        for kind, values in parts:
            for p, v in enumerate(values):
                row = {"profile": pname, "kind": kind, "p": p}
                if v is None:
                    row.update(value="", source="unavailable", converged="")
                else:
                    row.update(
                        value=f"{v.value:.12g}", source=v.source, converged=v.converged
                    )
                    if v.estimate is not None:
                        row.update((c, f"{getattr(v.estimate, c):.12g}")
                                   for c in _ESTIMATE_COLUMNS)
                rows.append(row)
    return rows


def _verify_rows(checks: dict[str, dict]) -> list[dict]:
    rows = []
    for cname, verdict in checks.items():
        for r in verdict["rows"]:
            rows.append(
                {
                    "check": cname,
                    "p": r.get("p", ""),
                    "j": r.get("j", ""),
                    "status": r["status"],
                    "lhs": r.get("lhs", ""),
                    "rhs": r.get("rhs", r.get("bound", "")),
                    "rel_error": r.get("rel_error", ""),
                    "argmax": ";".join(map(str, r.get("argmax", []))),
                }
            )
    return rows


def _sequence_rows(sequences: list[dict]) -> list[dict]:
    rows = []
    for seq in sequences:
        values = seq["values"]
        for n, v in enumerate(values):
            row = {
                "kind": seq["kind"], "p": seq["p"],
                "q": "" if seq["q"] is None else seq["q"],
                "n": n, "value": v, "root_est": "", "ratio_est": "",
            }
            if n >= 1:
                try:
                    row["root_est"] = f"{math.exp(math.log(v) / n):.12g}"
                except OverflowError:  # past the float range: 30 digits, printed as .12g would
                    context = decimal.Context(prec=30)
                    root = context.power(v, context.divide(1, n))
                    row["root_est"] = f"{root.normalize(decimal.Context(prec=12)):g}"
            if n >= 2:
                row["ratio_est"] = f"{v / values[n - 1]:.12g}"
            rows.append(row)
    return rows


def _suite_rows(report: suite_mod.SuiteReport) -> list[dict]:
    return [
        {"property": v.name, "status": v.status.value, "rows": len(v.rows)}
        for v in report.verdicts
    ]


def _emit(args: argparse.Namespace, report: dict, rows: Callable[[], list[dict]],
          columns: list[str]) -> None:
    """Writes the report; rows() builds the table/csv rows, so json never does."""
    fmt = args.format
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns, restval="",
                                extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows())
        text = buffer.getvalue()
    else:
        text = _table(rows(), columns)
        status = report.get("status")
        if status:
            text += f"overall: {status}\n"
    if args.out:
        _write_out(args.out, text)
    else:
        sys.stdout.write(text)


def _write_out(path: str, text: str | None = None) -> None:
    """Writes text to the --out file, or with no text only checks that it can
    be written: append mode never truncates it, and a file the check made is
    removed again.  An unwritable file is an invalid argument."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a" if text is None else "w", encoding="utf-8") as handle:
            handle.write(text or "")
    except OSError as exc:
        raise JobValidationError(f"cannot write output file: {exc}") from exc
    if text is None and not existed:
        os.remove(path)


def _table(rows: list[dict], columns: list[str]) -> str:
    cells = [[str(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
        for i, c in enumerate(columns)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() for row in cells]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyndeg",
        description="Degree growth and dynamical-degree estimation for "
                    "monomial and multihomogeneous rational self-maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_input: bool) -> None:
        if needs_input:
            p.add_argument("--input", required=True, metavar="FILE",
                           help="JSON job file (see module docstring for the schema)")
        p.add_argument("--n-max", type=int, default=None, metavar="INT",
                       help="iterates to compute (overrides the job file)")
        p.add_argument("--tol", type=float, default=None, metavar="FLOAT",
                       help="estimate tolerance (overrides the job file)")
        p.add_argument("--seed", type=int, default=None, metavar="INT",
                       help="random seed (overrides the job file)")
        p.add_argument("--format", choices=["table", "csv", "json"],
                       default="table", help="output format (default: table)")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write output to FILE instead of stdout")

    p_degrees = sub.add_parser("degrees", help="degree profile of a map")
    add_common(p_degrees, True)
    p_degrees.set_defaults(func=cmd_degrees)

    p_verify = sub.add_parser("verify-product",
                              help="check the fibered product formula")
    add_common(p_verify, True)
    p_verify.set_defaults(func=cmd_verify_product)

    p_seq = sub.add_parser("sequence", help="raw degree sequences")
    add_common(p_seq, True)
    p_seq.set_defaults(func=cmd_sequence)

    p_suite = sub.add_parser("suite", help="run the seeded verification suite")
    add_common(p_suite, False)
    p_suite.set_defaults(func=cmd_suite)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads: built once per process, until cache_clear.

    build_parser stays fresh for callers that may change the parser it
    returns; parse_args keeps nothing from one call to the next.
    """
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID_JOB
    try:
        if args.out:  # fail before any work
            _write_out(args.out)
        return args.func(args)
    except JobValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_JOB
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
