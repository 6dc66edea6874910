"""Runs one workload's jobs through ``dyndeg.cli.main`` in this process.

run.py starts this script in a fresh interpreter for every measurement:

    worker.py MANIFEST --seconds S --trace 0|1 [--spans FILE]
        Passes over the jobs until the next pass would end after S seconds
        (at least one pass).  With --trace 1 each traced pass is followed
        by an untraced one, for the overhead.  Prints one JSON object.
    worker.py MANIFEST --setup
        Imports dyndeg.cli, calls cli.load_job on every job file and prints
        the seconds that took, raw and scaled.

One caller runs one job at a time and waits for it (a closed loop on one
thread).  Every pass starts from cleared dyndeg caches, as a fresh CLI
process would.

The host this was written on is shared, and its speed swings by a factor
of two within seconds.  A SpeedProbe therefore times a fixed kernel every
0.1 s of the run; each job's time excludes those ticks and is also
reported scaled to the reference speed by the ticks taken while it ran.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402


SAMPLE_INTERVAL_S = 0.1
# Seconds speed_kernel takes at the reference speed (its median on an
# Intel Xeon 2-CPU host, Python 3.11.7).
REFERENCE_KERNEL_S = 0.0014

_ROWS = [[(i * 7 + j * 3) % 11 - 5 for j in range(12)] for i in range(12)]
_COLS = list(zip(*_ROWS))
_BIG = 3**12000


def speed_kernel() -> None:
    """About 1.4 ms of what the engines spend their time on.

    Small-integer dot products, dict updates keyed by tuples and big-integer
    products; it does not touch dyndeg, so the program cannot move it.
    """
    acc: dict = {}
    for row in _ROWS:
        for col in _COLS:
            key = (row[0], col[0])
            acc[key] = acc.get(key, 0) + sum(x * y for x, y in zip(row, col))
    x = _BIG
    for _ in range(4):
        x = (x * _BIG) >> 19000


class SpeedProbe:
    """Times speed_kernel every SAMPLE_INTERVAL_S of wall time (SIGALRM).

    ``samples`` holds the kernel times and ``spent`` their sum, so a timed
    region can subtract the ticks that fell inside it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def tick(self, *_signal) -> None:
        begin = perf_counter()
        speed_kernel()
        took = perf_counter() - begin
        self.samples.append(took)
        self.spent += took

    def scale(self, start: int = 0, stop: int | None = None) -> float:
        """Reference over measured speed, from the samples in [start, stop)."""
        window = self.samples[start:stop]
        return REFERENCE_KERNEL_S / statistics.fmean(window)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def setup(jobs: list[dict]) -> dict:
    with SpeedProbe() as probe:
        from dyndeg import cli

        parser = cli.build_parser()
        for job in jobs:
            if job["input"] is not None:
                args = parser.parse_args(job["argv"])
                cli.load_job(args.input, args)
        elapsed = perf_counter() - _STARTED - probe.spent
    while len(probe.samples) < 5:
        probe.tick()
    return {"setup_s": elapsed, "scaled_setup_s": elapsed * probe.scale()}


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "dyndeg" or name.startswith("dyndeg."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_pass(jobs: list[dict], probe: SpeedProbe, tracer=None) -> dict:
    """One pass over the jobs; returns timings, raw reports and exit codes.

    A job's time excludes the probe's ticks; its scaled time multiplies
    that by the speed measured from the ticks during the job and the one
    on either side of it.
    """
    from dyndeg import cli, cohomology

    clear_caches()
    first = len(probe.samples)
    timed = []
    outputs = []
    for job in jobs:
        out = io.StringIO()
        before, spent = len(probe.samples), probe.spent
        begin = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                code = cli.main(job["argv"])
            else:
                tracer.job = job["id"]
                code = tracer.call("cli.main", cli.main, job["argv"])
        gross = perf_counter() - begin
        timed.append((job["command"], gross - (probe.spent - spent), gross, before))
        outputs.append((code, out.getvalue()))
    probe.tick()  # the sample after the last job
    commands: Counter = Counter()
    scaled: Counter = Counter()
    for i, (command, net, _, before) in enumerate(timed):
        after = timed[i + 1][3] if i + 1 < len(timed) else len(probe.samples)
        commands[command] += net
        scaled[command] += net * probe.scale(max(first, before - 1), after + 1)
    info = cohomology.kaehler_power.cache_info()
    return {
        "wall": sum(commands.values()),
        "scaled_wall": sum(scaled.values()),
        "gross": sum(t[2] for t in timed),
        "commands": dict(commands),
        "scaled_commands": dict(scaled),
        "outputs": outputs,
        "kaehler_hit_ratio": info.hits / (info.hits + info.misses) if info.misses else 0.0,
    }


def run(jobs: list[dict], seconds: float, trace: bool, spans_path: str | None) -> dict:
    import checks
    import tracing

    passes, traced = [], []
    started = perf_counter()
    with SpeedProbe() as probe:
        while True:
            if trace:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced_pass = run_pass(jobs, probe, tracer)
                finally:
                    restored = tracer.uninstall()
                summary = tracer.summary(traced_pass["gross"])
                summary.update(
                    wall=traced_pass["wall"],
                    scaled_wall=traced_pass["scaled_wall"],
                    counts=tracer.counts,
                    maxima=tracer.maxima,
                    restored=restored,
                    kaehler_hit_ratio=traced_pass["kaehler_hit_ratio"],
                    report_bytes=sum(len(text.encode()) for _, text in traced_pass["outputs"]),
                    outputs=traced_pass["outputs"],
                )
                if not traced and spans_path:
                    tracer.write_spans(spans_path)
                traced.append(summary)
            passes.append(run_pass(jobs, probe))
            if len(passes) == 1:
                # Later passes only add stored reports; the high-water mark of
                # one pass does not depend on how many passes fit in the run.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            elapsed = perf_counter() - started
            longest = max(p["wall"] for p in passes + traced)
            if elapsed + longest * (2 if trace else 1) > seconds:
                break
    all_outputs = [p["outputs"] for p in traced + passes]
    records = [
        [checks.extract(job["command"], code, text) for job, (code, text) in zip(jobs, outs)]
        for outs in all_outputs
    ]
    reference = checks.load_reference(jobs[0]["workload"], jobs[0]["seed"])
    attempted, failed, messages = checks.count_failures(jobs, records, reference)
    result = {
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "checked_against": "reference" if reference is not None else "identities",
        "passes": len(passes),
        "wall_s": [p["wall"] for p in passes],
        "scaled_wall_s": [p["scaled_wall"] for p in passes],
        "commands": [p["commands"] for p in passes],
        "scaled_commands": [p["scaled_commands"] for p in passes],
        "speed_samples": len(probe.samples),
        "scale": probe.scale(),
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
    }
    if trace:
        untraced = [p["scaled_wall"] for p in passes]
        counts = [{name: m["value"] for name, m in
                   tracing.layer_metrics([t], untraced, 1.0).items()
                   if name in tracing.EXACT_METRICS} for t in traced]
        if any(c != counts[0] for c in counts):
            result["messages"].append("work counts differ between traced passes")
        result["layers"] = tracing.layer_metrics(traced, untraced, result["scale"])
        result["traced_passes"] = len(traced)
    return result


def environment() -> dict:
    """What changes wall time several-fold; results that differ here do not compare."""
    import importlib.util
    import os
    import platform

    import mpmath
    import sympy

    from sympy.external.gmpy import GROUND_TYPES

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "sympy_ground_types": GROUND_TYPES,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "python_flint": importlib.util.find_spec("flint") is not None,
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args()
    with open(args.manifest, encoding="utf-8") as handle:
        jobs = json.load(handle)
    if args.setup:
        print(json.dumps(setup(jobs)))
    else:
        print(json.dumps(run(jobs, args.seconds, bool(args.trace), args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
