"""Seeded verification suite for the structural laws of degree growth.

Six properties, each checked over a reproducible random family:

1. spectral product formula -- the exact spectral degrees of fibered
   monomial maps satisfy d_p = max_j d_j(base) * d_{p-j}(fiber) over the
   admissible window, for every fibration shape up to the size cap.  The
   oracle reads a fibred map's spectrum as the union of its base and fiber
   blocks' spectra, so this checks product_formula's window and maximum on
   exact spectra.  Whole-versus-block root-finding agreement is checked
   by a differential test in tests/test_oracle.py instead;
2. minor multiplicativity -- taking p-minors commutes with matrix products;
3. mixed-degree identity -- the relative degree sequence, which is the
   extreme mixed sequence, equals l! times the degree sequence of the
   fiber block as a map of its own, exactly, term by term;
4. pairing monotonicity -- base-cut pairings of effective classes are
   nondecreasing in the number of base cuts;
5. summed-sequence convergence -- the summed mixed sequence and the total
   sequence have the same growth exponent (their n-th roots approach each
   other); reported INCONCLUSIVE rather than guessed when n_max is too
   small to read off the limit;
6. distinctness inheritance -- whenever all consecutive total degrees are
   distinct, the base and fiber profiles inherit the property.

run_suite returns a SuiteReport of verdicts; the CLI maps a non-passing
report to its failure exit code.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import monomial, sampling
from .cohomology import CohClass, admissible_window, alpha, degree_exponents, sequence_pairings
from .degrees import (
    DEFAULT_ESTIMATE_TOL,
    Verdict,
    VerdictStatus,
    _field_dict,
    combine_rows,
    distinctness_implication,
    monomial_oracle_profile,
    product_formula,
)
from .intmat import mat_mul

MIN_CONVERGENCE_N = 10


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    n_max: int
    tolerance: float
    verdicts: tuple[Verdict, ...]

    @property
    def status(self) -> VerdictStatus:
        """The verdict fold over the six properties: FAIL, else INCONCLUSIVE, else PASS."""
        return combine_rows("suite", [{"status": v.status.value} for v in self.verdicts]).status

    @property
    def passed(self) -> bool:
        return self.status is VerdictStatus.PASS

    def to_dict(self) -> dict:
        return _field_dict(self, passed=self.passed, verdicts=[v.to_dict() for v in self.verdicts])


def spectral_product_formula_property(rng: random.Random) -> Verdict:
    rows = []
    for k, l in sampling.fibration_shapes(6):
        for _ in range(7):
            f, resamples = sampling.random_fibered_map(rng, k, l)
            verdict = product_formula(monomial_oracle_profile(f))
            rows.append(
                {
                    "k": k,
                    "l": l,
                    "matrix": [list(r) for r in f.matrix],
                    "resamples": resamples,
                    "status": verdict.status.value,
                }
            )
    return combine_rows("spectral-product-formula", rows)


def minor_multiplicativity_property(rng: random.Random) -> Verdict:
    rows = []
    for i in range(100):
        k = rng.randint(2, 5)
        a = sampling.random_matrix(rng, k)
        b = sampling.random_matrix(rng, k)
        orders = zip(monomial.compounds(mat_mul(a, b)), monomial.compounds(a), monomial.compounds(b))
        ok = all(ab.matrix == mat_mul(ca.matrix, cb.matrix) for ab, ca, cb in orders)
        rows.append({"pair": i, "k": k, "status": "PASS" if ok else "FAIL"})
    return combine_rows("minor-multiplicativity", rows)


def mixed_extreme_identity_property(rng: random.Random) -> Verdict:
    rows = []
    shapes = list(sampling.fibration_shapes(5))
    for _ in range(30):
        k, l = shapes[rng.randrange(len(shapes))]
        f, _ = sampling.random_fibered_map(rng, k, l)
        ok = True
        fiber_map = f.fiber_map()
        for p in range(0, k - l + 1):
            relative = monomial.lambda_relative_sequence(f, p, 8)
            # the full base cut leaves only the fiber block's action
            fiber = monomial.lambda_sequence(fiber_map, p, 8)
            if relative != [math.factorial(l) * x for x in fiber]:
                ok = False
                break
        rows.append({"k": k, "l": l, "status": "PASS" if ok else "FAIL"})
    return combine_rows("mixed-extreme-identity", rows)


def pairing_monotonicity_property(rng: random.Random) -> Verdict:
    rows = []
    for _ in range(60):
        space = sampling.random_fibered_space(rng)
        degree = rng.randint(0, space.dim)
        c = sampling.random_effective_class(rng, space, degree)
        big_l = space.base_dim
        values = [alpha(c, j) for j in admissible_window(degree, big_l, space.dim - big_l)]
        ok = all(a <= b for a, b in zip(values, values[1:]))
        rows.append(
            {
                "factors": list(space.factors),
                "base_factors": space.base_factors,
                "degree": degree,
                "values": values,
                "status": "PASS" if ok else "FAIL",
            }
        )
    return combine_rows("pairing-monotonicity", rows)


def summed_sequence_convergence_property(rng: random.Random, n_max: int, tol: float) -> Verdict:
    """The summed mixed sequence grows at exactly the total sequence's rate.

    Checked two ways: an exact integer sandwich between the sequences
    (weight extremes of the shared coefficients bound their ratio at every
    n, so it can genuinely FAIL only on a real defect), and the n-th-root
    gap at n_max against the tolerance.  When n_max is provably too small
    for the sandwich to force the gap under the tolerance, the row is
    INCONCLUSIVE instead of failed.
    """
    rows = []
    shapes = list(sampling.fibration_shapes(4))
    log_tol = math.log1p(tol)
    for _ in range(12):
        k, l = shapes[rng.randrange(len(shapes))]
        f, _ = sampling.random_fibered_map(rng, k, l)
        p = rng.randint(0, k)
        row = {"k": k, "l": l, "p": p, "n_max": n_max}
        if n_max < MIN_CONVERGENCE_N:
            row["status"] = "INCONCLUSIVE"
            row["note"] = f"need n_max >= {MIN_CONVERGENCE_N} to read off the limit"
            rows.append(row)
            continue
        # Both sequences read off the same pullback coefficients with
        # positive integer weights: pairing each degree-p monomial gives the
        # weight extremes, an exact sandwich between them at every n.
        table = [CohClass.make(f.space, p, {e: 1}) for e in degree_exponents(f.space, p)]
        table.append(monomial.pullback_class_sequence(f, p, n_max)[n_max])
        *lam_weights, lam = sequence_pairings(table, f.space, p, "total")
        *summed_weights, summed = sequence_pairings(table, f.space, p, "summed")
        wmin, wmax = min(summed_weights), max(summed_weights)
        lmin, lmax = min(lam_weights), max(lam_weights)
        sandwich = summed * lmin <= wmax * lam and summed * lmax >= wmin * lam
        gap = abs(math.log(summed) - math.log(lam)) / n_max
        bound = math.log(max(wmax / lmin, lmax / wmin))
        row.update(
            relative_gap=math.expm1(gap),
            gap_bound=math.expm1(bound / n_max),
            sandwich_exact=sandwich,
        )
        if not sandwich:
            row["status"] = "FAIL"
        elif gap <= log_tol:
            row["status"] = "PASS"
        elif bound / n_max > log_tol:
            row["status"] = "INCONCLUSIVE"
            row["note"] = (
                f"sandwich holds; need n_max >= {math.ceil(bound / log_tol)} "
                f"to force the gap under tolerance"
            )
        else:
            row["status"] = "FAIL"
        rows.append(row)
    return combine_rows("summed-sequence-convergence", rows)


def distinctness_inheritance_property(rng: random.Random) -> Verdict:
    rows = []
    shapes = list(sampling.fibration_shapes(6))
    draws = 40
    vacuous = 0
    for _ in range(draws):
        k, l = shapes[rng.randrange(len(shapes))]
        f, _ = sampling.random_fibered_map(rng, k, l)
        verdict = distinctness_implication(monomial_oracle_profile(f))
        row = verdict.rows[0]
        if row.get("note"):
            vacuous += 1
        rows.append({"k": k, "l": l, "status": row["status"]})
    rows.append(
        {
            "summary": f"{vacuous} of {draws} draws had repeated total degrees (vacuous)",
            "status": "PASS",
        }
    )
    return combine_rows("distinctness-inheritance", rows)


def run_suite(seed: int = 0, n_max: int = 40, tol: float = DEFAULT_ESTIMATE_TOL) -> SuiteReport:
    """Runs all six properties on streams derived from one master seed."""
    master = random.Random(seed)
    streams = [random.Random(master.randrange(2**63)) for _ in range(6)]
    verdicts = (
        spectral_product_formula_property(streams[0]),
        minor_multiplicativity_property(streams[1]),
        mixed_extreme_identity_property(streams[2]),
        pairing_monotonicity_property(streams[3]),
        summed_sequence_convergence_property(streams[4], n_max, tol),
        distinctness_inheritance_property(streams[5]),
    )
    return SuiteReport(seed, n_max, tol, verdicts)
