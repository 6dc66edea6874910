"""Record bench/reference.json: the compared fields of every job, per seed.

    PYTHONPATH=src python3 bench/make_reference.py

Runs one untimed pass of every workload for the default seed (0) and the
held-out seed (1), checks the generator's identities on the outputs, and
stores each job's exit code and the digest of its exact sequences and
verdict statuses.  Regenerate only when a change is meant to alter those
fields, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import run
import worker

SEEDS = (0, 1)


def main() -> int:
    table: dict = {}
    problems = []
    for workload in sorted(run.job_gen.WORKLOADS):
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
                jobs = run.job_gen.generate(workload, seed)
                manifest = json.loads(run.write_jobs(jobs, workload, seed, Path(tmp)).read_text())
                outputs = worker.run_pass(manifest, worker.SpeedProbe())["outputs"]
            entry = {}
            for job, (code, text) in zip(manifest, outputs):
                record = checks.extract(job["command"], code, text)
                problems += [f"{workload} {seed} {job['id']}: {p}"
                             for p in checks.identity_problems(job["facts"], record)]
                entry[job["id"]] = [code, checks.digest(record)]
            table.setdefault(workload, {})[str(seed)] = entry
            print(f"{workload} seed {seed}: {len(entry)} jobs", file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    checks.REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
