#!/usr/bin/env python3
"""Survey the max-product formula across seeded fibered monomial maps.

Draws block-triangular exponent matrices for every fibration shape (k, l)
up to --k-max, computes the exact spectral degree profile and the
sequence-based engine profile for each map, and tallies the structural
checks (product formula, lower bounds, log-concavity, distinctness
inheritance) on both routes, each at its profile's tolerance.
Engine-vs-oracle agreement is reported as the worst relative gap across
decided gradings.

Exit status mirrors the package CLI: 0 when no check fails, 1 on a
malformed flag, an invalid --n-max or --tol, when the flags leave no map
to survey (--draws below 1, --k-max below 2) or when the --out file cannot
be written (checked before the survey), 3 otherwise.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from dyndeg import (
    VerdictStatus,
    distinctness_implication,
    log_concavity,
    lower_bound_check,
    monomial_engine_profile,
    monomial_oracle_profile,
    product_formula,
)
from dyndeg.cli import JobValidationError, _check_settings, _require, _write_out
from dyndeg.degrees import DEFAULT_ESTIMATE_TOL
from dyndeg.sampling import fibration_shapes, random_fibered_map

CHECKS = (
    ("product-formula", product_formula),
    ("lower-bound", lower_bound_check),
    ("log-concavity", log_concavity),
    ("distinctness", distinctness_implication),
)


def _profile_gap(engine, oracle) -> float:
    """Worst relative gap between decided engine entries and oracle values."""
    worst = 0.0
    pairs = list(zip(engine.degrees, oracle.degrees))
    if engine.base is not None:
        pairs += list(zip(engine.base, oracle.base))
        pairs += list(zip(engine.relative, oracle.relative))
    for est, exact in pairs:
        if est is None or not est.converged:
            continue
        worst = max(worst, abs(est.value - exact.value) / exact.value)
    return worst


def survey(seed: int, draws: int, k_max: int, n_max: int, tol: float) -> dict:
    rng = random.Random(seed)
    maps = []
    tallies = {
        route: {name: {s.value: 0 for s in VerdictStatus} for name, _ in CHECKS}
        for route in ("oracle", "engine")
    }
    worst_gap = 0.0
    for k, l in fibration_shapes(k_max):
        for _ in range(draws):
            f, resamples = random_fibered_map(rng, k, l)
            oracle_prof = monomial_oracle_profile(f)
            engine_prof = monomial_engine_profile(f, n_max, tol)
            gap = _profile_gap(engine_prof, oracle_prof)
            worst_gap = max(worst_gap, gap)
            entry = {
                "matrix": [list(row) for row in f.matrix],
                "fibration_dim": l,
                "resamples": resamples,
                "engine_vs_oracle_gap": gap,
                "checks": {},
            }
            for route, prof in (("oracle", oracle_prof), ("engine", engine_prof)):
                for name, check in CHECKS:
                    verdict = check(prof)
                    tallies[route][name][verdict.status.value] += 1
                    entry["checks"][f"{name}-{route}"] = verdict.status.value
            maps.append(entry)
    return {
        "seed": seed,
        "draws_per_shape": draws,
        "n_max": n_max,
        "tolerance": tol,
        "maps": maps,
        "tallies": tallies,
        "worst_engine_vs_oracle_gap": worst_gap,
    }


def _print_report(report: dict) -> None:
    print(f"surveyed {len(report['maps'])} fibered monomial maps "
          f"(seed {report['seed']}, n_max {report['n_max']})")
    print(f"worst engine-vs-oracle relative gap: "
          f"{report['worst_engine_vs_oracle_gap']:.3e}")
    print()
    header = f"{'check':<24}{'route':<8}{'PASS':>6}{'INCONCLUSIVE':>14}{'FAIL':>6}"
    print(header)
    print("-" * len(header))
    for route, by_check in report["tallies"].items():
        for name, counts in by_check.items():
            print(f"{name:<24}{route:<8}{counts['PASS']:>6}"
                  f"{counts['INCONCLUSIVE']:>14}{counts['FAIL']:>6}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--draws", type=int, default=5,
                        help="maps drawn per fibration shape (k, l)")
    parser.add_argument("--k-max", type=int, default=4)
    parser.add_argument("--n-max", type=int, default=60)
    parser.add_argument("--tol", type=float, default=DEFAULT_ESTIMATE_TOL)
    parser.add_argument("--out", default=None, help="write the full report as JSON")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _check_settings(args.n_max, args.tol)
        _require(args.draws >= 1 and args.k_max >= 2,
                 "--draws must be at least 1 and --k-max at least 2")
        if args.out:
            _write_out(args.out)  # fail before the survey
    except JobValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = survey(args.seed, args.draws, args.k_max, args.n_max, args.tol)
    _print_report(report)
    if args.out:
        try:
            _write_out(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
        except JobValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"\nreport written to {args.out}")
    failed = any(
        counts["FAIL"]
        for by_check in report["tallies"].values()
        for counts in by_check.values()
    )
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
