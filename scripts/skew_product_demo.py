#!/usr/bin/env python3
"""Walk through a skew product on P^1 x P^1 fibered over the first line.

The affine map (x, y) -> (x^e, y^2 + x), written multihomogeneously, acts
on the base line with degree e while the fiber degree doubles on every
iterate.  The script iterates the map exactly, prints the multidegree
ledger alongside the base and fiber degree sequences, estimates the first
dynamical degrees of all three, and checks them against the max-product
prediction d_1 = max(d_1(base), d_1(fiber)).

Exit status mirrors the package CLI: 3 when the product formula FAILs,
1 on a malformed flag or an invalid --base-exp, --n-max, --tol or --cap,
0 otherwise (an INCONCLUSIVE verdict included).
"""

from __future__ import annotations

import argparse
import sys

from dyndeg import (
    MultiHomPoly,
    RationalMapDesc,
    Space,
    VerdictStatus,
    lower_bound_check,
    product_formula,
)
from dyndeg.cli import JobValidationError, _check_settings, _require
from dyndeg.degrees import profile_from_sequences, rational_sequences


def skew_map(base_exp: int) -> RationalMapDesc:
    """Homogenization of (x, y) -> (x^e, y^2 + x) on P^1 x P^1 over P^1."""
    space = Space((1, 1), base_factors=1)

    def poly(coeffs):
        return MultiHomPoly.make(space, coeffs)

    return RationalMapDesc(
        space,
        (
            (poly({(base_exp, 0, 0, 0): 1}), poly({(0, base_exp, 0, 0): 1})),
            (poly({(1, 0, 2, 0): 1}), poly({(1, 0, 0, 2): 1, (0, 1, 2, 0): 1})),
        ),
        fibration_dim=1,
    )


def _fmt_value(value) -> str:
    if value is None:
        return "-"
    mark = "" if value.converged else "?"
    return f"{value.value:.6g}{mark}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base-exp", type=int, default=3,
                        help="degree e of the base map x -> x^e")
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--cap", type=int, default=3000,
                        help="stop iterating when the total degree exceeds this")
    parser.add_argument("--tol", type=float, default=5e-2)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _require(args.base_exp >= 1, "--base-exp must be positive")
        _check_settings(args.n_max, args.tol)
        _require(args.cap >= 1, "--cap must be at least 1")
    except JobValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    f = skew_map(args.base_exp)
    records, data = rational_sequences(f, args.n_max, max_total_degree=args.cap)
    lam, base_lam, fiber = (record["values"] for record in records)

    print(f"skew product (x, y) -> (x^{args.base_exp}, y^2 + x) "
          f"on P^1 x P^1 over P^1")
    if data.truncated:
        print(f"note: degree cap {args.cap} reached before n_max={args.n_max}; "
              f"showing the computed prefix")
    print()
    header = (f"{'n':>3}  {'multidegree':<26}{'lambda_1(n)':>12}"
              f"{'base(n)':>10}{'fiber(n)':>10}")
    print(header)
    print("-" * len(header))
    for n in range(len(lam)):
        multi_s = str(data.multidegrees[n - 1]) if n >= 1 else "identity"
        base_s = f"{base_lam[n]}" if n < len(base_lam) else "-"
        fiber_s = f"{fiber[n]}" if n < len(fiber) else "-"
        print(f"{n:>3}  {multi_s:<26}{lam[n]:>12}{base_s:>10}{fiber_s:>10}")

    profile = profile_from_sequences(records, f.space.dim, f.fibered_space.base_dim,
                                     args.tol, "rational-engine")
    print()
    print(f"estimated d_1(total)    = {_fmt_value(profile.degrees[1])}")
    print(f"estimated d_1(base)     = {_fmt_value(profile.base[1])}")
    print(f"estimated d_1(relative) = {_fmt_value(profile.relative[1])}")
    expected = max(args.base_exp, 2)
    print(f"max-product prediction  = max(base, fiber) = {expected}")

    print()
    formula = product_formula(profile, tol=args.tol, ps=(1,))
    for verdict in (formula, lower_bound_check(profile, tol=args.tol, ps=(1,))):
        print(f"{verdict.name}: {verdict.status.value}")
        for row in verdict.rows:
            print(f"  {row}")
    return 3 if formula.status is VerdictStatus.FAIL else 0


if __name__ == "__main__":
    sys.exit(main())
