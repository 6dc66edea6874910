"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py BASE.txt NEW.txt

Each file holds the standard output of one or more runs of bench/run.py
(a details line followed by a result line, per run).  Runs are grouped by
workload; for each metric the median and quartiles of both sets are shown
with the change of the median.  Runs whose environment fingerprints
differ (Python, sympy ground types, mpmath backend, gmpy2, python-flint,
CPU) are never compared: the script refuses and exits 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> dict:
    """{workload: [(env, metrics)]} from the run outputs in a file."""
    runs: dict = defaultdict(list)
    details = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "env" in obj:
                details = obj
            elif "metrics" in obj and details is not None:
                runs[details["workload"]].append((details["env"], obj["metrics"]))
                details = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, new = load(argv[0]), load(argv[1])
    envs = {json.dumps(env, sort_keys=True)
            for runs in (base, new) for group in runs.values() for env, _ in group}
    if len(envs) != 1:
        print("refusing to compare: environment fingerprints differ:", file=sys.stderr)
        for env in sorted(envs):
            print(f"  {env}", file=sys.stderr)
        return 2
    for workload in sorted(set(base) & set(new)):
        print(f"{workload}: {len(base[workload])} base runs, {len(new[workload])} new runs")
        for name, meta in base[workload][0][1].items():
            a = [m[name]["value"] for _, m in base[workload] if name in m]
            b = [m[name]["value"] for _, m in new[workload] if name in m]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
            print(f"  {name:42s} {meta['unit']:6s} base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"  new {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  {change:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
