"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_same_seed_same_jobs(workload):
    assert jobs.generate(workload, 7) == jobs.generate(workload, 7)
    assert jobs.generate(workload, 7) != jobs.generate(workload, 8)


@pytest.mark.parametrize("seed", range(5))
def test_generator_guards(seed):
    for job in jobs.generate("monomial", seed):
        if job.spec is None:
            continue
        mat, l = job.spec["matrix"], job.spec["fibration_dim"]
        assert jobs.det(mat) != 0
        assert all(mat[i][j] == 0 for i in range(l) for j in range(l, len(mat)))
    for job in jobs.generate("rational-coprime", seed):
        for comp in job.spec["components"]:
            p, q = ([c for _, c in poly["coeffs"]] for poly in comp)
            assert jobs.resultant(p, q) != 0
    assert jobs.skew_degree_bound(2, 3, 5) <= jobs.DEGREE_CAP
    # (x^2, y^2 + 2xy + 3x) reaches the cap at n = 8, and the bound sees it.
    assert jobs.skew_degree_bound(2, 2, 8) > jobs.DEGREE_CAP


def test_resultant_detects_common_factor():
    # (x + y)(x + 2y) and (x + y)(x - y) share x + y.
    assert jobs.resultant([1, 3, 2], [1, 0, -1]) == 0
    assert jobs.resultant([1, 0, 1], [1, 0, -1]) != 0


def _sequence_record(k: int, abs_det: int, n_max: int) -> dict:
    f = math.factorial(k)
    return {
        "exit": 0,
        "truncated": False,
        "sequences": [
            ["total", 0, None, [f] * (n_max + 1)],
            ["total", k, None, [f * abs_det**n for n in range(n_max + 1)]],
        ],
    }


def test_corrupted_sequence_counts_as_failure():
    job = {"id": "j", "facts": {"k": 2, "abs_det": 6}}
    good = _sequence_record(2, 6, 4)
    bad = json.loads(json.dumps(good))
    bad["sequences"][1][3][4] += 1
    assert checks.count_failures([job], [[good]], None)[:2] == (1, 0)
    assert checks.count_failures([job], [[bad]], None)[:2] == (1, 1)
    reference = {"j": [0, checks.digest(good)]}
    assert checks.count_failures([job], [[good], [good]], reference)[:2] == (2, 0)
    assert checks.count_failures([job], [[good], [bad]], reference)[:2] == (2, 1)


def _tiny_jobs() -> list[jobs.Job]:
    rng = random.Random(3)
    mono = {"type": "monomial", "matrix": jobs.block_triangular(rng, 3, 1),
            "fibration_dim": 1, "n_max": 8}
    skew = jobs.generate("rational-reducing", 0)[-1].spec | {"n_max": 4}
    p1 = jobs.generate("rational-coprime", 0)[0].spec | {"n_max": 3}
    return [
        jobs.Job("mono-degrees", "degrees", mono),
        jobs.Job("mono-sequence", "sequence", mono),
        jobs.Job("skew-sequence", "sequence", skew),
        jobs.Job("skew-verify", "verify-product", skew),
        jobs.Job("p1-sequence", "sequence", p1),
    ]


def _traced_counts(tmp_path: Path) -> dict:
    manifest = run.write_jobs(_tiny_jobs(), "tiny", 0, tmp_path)
    result = run.child([str(manifest), "--seconds", "0", "--trace", "1"])
    assert result["messages"] == []
    layers = result["layers"]
    return {name: layers[name]["value"] for name in tracing.EXACT_METRICS} | {
        "trace.restored_bindings": layers["trace.restored_bindings"]["value"]}


def test_exact_counts_repeat_between_traced_runs(tmp_path):
    first = _traced_counts(tmp_path)
    second = _traced_counts(tmp_path)
    assert first == second
    # f, its base map, and f again inside fiber_degree_sequence, per fibred
    # rational job; once for the map of P^1.
    assert first["rational.iterate_multidegrees.calls"] == 3 * 2 + 1
    for name in ("monomial.pullback_class_sequence.calls", "intmat.mat_mul.mults",
                 "oracle.polyroots.calls", "rational.reduce_tuple.gcd.calls",
                 "rational.reduce_tuple.strip.calls", "rational.mul.dict.calls",
                 "trace.restored_bindings"):
        assert first[name] > 0, name


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in tracing.LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: u for n, u, _ in tracing.LAYER_METRICS}
    e2e = run.end_to_end({"scaled_wall_s": [1.0], "scaled_commands": [{}], "peak_rss_mb": 1.0},
                         [{"scaled_setup_s": 1.0}])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        n: m["unit"] for n, m in e2e.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(jobs.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "monomial", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
