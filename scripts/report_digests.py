#!/usr/bin/env python3
"""Print a digest of every report the benchmark's jobs produce.

    python3 scripts/report_digests.py [SEED ...]

For each seed (default 0), every job of every workload in bench/jobs.py
runs through dyndeg.cli.main in this checkout, in json, table and csv.
Each run prints one line

    <workload>/<seed>/<job id> <format> <exit code> <sha256>

where the sha256 covers the exit code, stdout and stderr.  Running the
script in two checkouts and diffing the outputs shows whether a change
kept every report byte-identical.

bench/jobs.py is imported read-only (no bytecode is written), and the job
files go to a temporary directory that is the working directory while
they run, so the digests do not depend on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import jobs  # noqa: E402

sys.dont_write_bytecode = _bytecode
from dyndeg import cli  # noqa: E402

FORMATS = ("json", "table", "csv")


def digests(job_list, label: str = "") -> list[str]:
    """One line per job and format: '<label><job id> <format> <exit> <sha256>'."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for job in job_list:
            argv = [job.command]
            if job.spec is not None:
                Path(f"{job.id}.json").write_text(json.dumps(job.spec))
                argv += ["--input", f"{job.id}.json"]
            for fmt in FORMATS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([*argv, *job.extra, "--format", fmt])
                blob = json.dumps([code, out.getvalue(), err.getvalue()]).encode()
                lines.append(f"{label}{job.id} {fmt} {code} {hashlib.sha256(blob).hexdigest()}")
    return lines


def main(argv: list[str]) -> int:
    try:
        seeds = [int(s) for s in argv] or [0]
    except ValueError:
        print("usage: report_digests.py [SEED ...]", file=sys.stderr)
        return 1
    for seed in seeds:
        for workload in jobs.WORKLOADS:
            for line in digests(jobs.generate(workload, seed), f"{workload}/{seed}/"):
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
