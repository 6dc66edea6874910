"""The dyndeg benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  It generates the workload's jobs from
the seed, runs them through ``dyndeg.cli.main`` in a fresh Python process
from ``src/``, checks every output, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
passes that fit in S seconds); with --trace 1 they are the per-layer ones
from a traced run.  The line before it holds the environment fingerprint
and per-pass details.  Workloads are listed in BENCHMARK.json; inputs come
from bench/jobs.py, never from the program.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH_DIR))
import jobs as job_gen  # noqa: E402

COMMAND_METRICS = {
    "degrees": "degrees_s",
    "verify-product": "verify_product_s",
    "sequence": "sequence_s",
}


def write_jobs(jobs: list[job_gen.Job], workload: str, seed: int, workdir: Path) -> Path:
    """Write the job files and the manifest the worker reads."""
    manifest = []
    for job in jobs:
        argv = [job.command]
        path = None
        if job.spec is not None:
            path = workdir / f"{job.id}.json"
            path.write_text(json.dumps(job.spec))
            argv += ["--input", str(path)]
        argv += [*job.extra, "--format", "json"]
        manifest.append({
            "id": job.id, "command": job.command, "argv": argv,
            "input": None if path is None else str(path), "facts": job.facts,
            "workload": workload, "seed": seed,
        })
    out = workdir / "manifest.json"
    out.write_text(json.dumps(manifest))
    return out


def child(args: list[str]) -> dict:
    """Run worker.py in a fresh interpreter on ``src/`` and return its JSON."""
    # A fixed hash seed keeps set and dict orders, and so the work done, the
    # same in every worker.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict, setups: list[dict]) -> dict:
    """Medians over passes, in seconds scaled to the reference speed."""
    metrics = {"wall_s": (statistics.median(result["scaled_wall_s"]), "s")}
    for command, name in COMMAND_METRICS.items():
        times = [c.get(command, 0.0) for c in result["scaled_commands"]]
        metrics[name] = (statistics.median(times), "s")
    metrics["setup_s"] = (statistics.median(s["scaled_setup_s"] for s in setups), "s")
    metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one dyndeg benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(job_gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dyndeg" / "cli.py").is_file():
        print(f"error: no dyndeg sources under {SRC}; run from a dyndeg checkout",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = job_gen.generate(args.workload, args.seed)
        manifest = str(write_jobs(jobs, args.workload, args.seed, workdir))
        run_args = [manifest, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans_dir = ROOT / ".bench_out"
            spans_dir.mkdir(exist_ok=True)
            run_args += ["--spans", str(spans_dir / f"spans-{args.workload}-{args.seed}.tsv")]
        result = child(run_args)
        setups = [] if args.trace else [
            child([manifest, "--setup"]) for _ in range(SETUP_REPEATS)
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for message in result["messages"]:
        print(f"check: {message}", file=sys.stderr)
    metrics = result.pop("layers") if args.trace else end_to_end(result, setups)
    details = {key: value for key, value in result.items() if key != "messages"}
    details.update(workload=args.workload, seed=args.seed, trace=args.trace, setups=setups)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["messages"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
