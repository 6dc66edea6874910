"""Correctness fields of a CLI report, and the checks made on them.

Only a job's exit code, its exact integer sequences and its verdict
statuses are compared; other report fields may change without counting as
a failure.  Seeds with a recorded reference are compared field for field
(through a digest); any other seed is checked against identities that the
generator knows from the structure of its jobs.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def extract(command: str, exit_code: int, text: str) -> dict:
    """The compared fields of one job's JSON report."""
    record: dict = {"exit": exit_code}
    if not text:
        return record
    report = json.loads(text)
    if command == "sequence":
        record["truncated"] = report["truncated"]
        record["sequences"] = [
            [s["kind"], s["p"], s["q"], s["values"]] for s in report["sequences"]
        ]
        return record
    verdicts = report["verdicts"] if command == "suite" else [
        {"name": name, **v} for name, v in sorted(report["checks"].items())
    ]
    record["status"] = report.get("status")
    record["verdicts"] = [
        [v["name"], v["status"], [r["status"] for r in v["rows"]]] for v in verdicts
    ]
    return record


def digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_reference(workload: str, seed: int) -> dict | None:
    """{job id: [exit code, digest]} for a recorded seed, else None."""
    table = json.loads(REFERENCE_PATH.read_text())
    return table.get(workload, {}).get(str(seed))


def identity_problems(facts: dict, record: dict) -> list[str]:
    """Checks that hold for every seed, from what the generator knows."""
    problems = []
    if record["exit"] != 0:
        problems.append(f"exit code {record['exit']}")
    if record.get("status") == "FAIL":
        problems.append("verdict FAIL")
    if "sequences" not in record:
        return problems
    if record["truncated"]:
        problems.append("truncated")
    seqs = {(kind, p): values for kind, p, q, values in record["sequences"] if q is None}
    if "k" in facts:
        k, abs_det = facts["k"], facts["abs_det"]
        lam0, lamk = seqs.get(("total", 0)), seqs.get(("total", k))
        f = math.factorial(k)
        if lam0 is None or any(v != f for v in lam0):
            problems.append("lambda_0(n) != k!")
        if lamk is None or any(v != f * abs_det**n for n, v in enumerate(lamk)):
            problems.append("lambda_k(n) != k! |det A|^n")
    for name, key in (("lambda1", ("total", 1)), ("base", ("base", 1)),
                      ("relative", ("relative", 1))):
        if name in facts and seqs.get(key) != facts[name]:
            problems.append(f"{name} sequence differs from {facts[name]}")
    return problems


def count_failures(jobs: list[dict], passes: list[list[dict]],
                   reference: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every job of every pass.

    ``passes`` holds, per pass, one record per job in job order.  A job
    fails when its fields differ from the reference (recorded seeds), break
    an identity (other seeds), or differ from its own first pass.
    """
    attempted = failed = 0
    messages: list[str] = []
    first = [digest(r) for r in passes[0]]
    for number, records in enumerate(passes):
        for job, record, first_digest in zip(jobs, records, first):
            attempted += 1
            if reference is not None:
                expected = reference.get(job["id"])
                problems = [] if expected == [record["exit"], digest(record)] else [
                    f"differs from reference {expected}"
                ]
            else:
                problems = identity_problems(job["facts"], record)
            if digest(record) != first_digest:
                problems.append("differs from the first pass")
            if problems:
                failed += 1
                messages.append(f"pass {number} {job['id']}: {'; '.join(problems)}")
    return attempted, failed, messages
