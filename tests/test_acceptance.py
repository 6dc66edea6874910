"""Acceptance suite: ten numbered criteria, one summary line each.

Each test exercises one end-to-end guarantee of the package at its stated
tolerance; the terminal summary echoes a PASS/FAIL line per criterion.
Random draws are seeded so every run checks the same instances.
"""

import json
import math
import random

import pytest

from dyndeg import cli, monomial
from dyndeg.cohomology import Space, alpha, mul, pair
from dyndeg.degrees import (
    VerdictStatus,
    distinct_flags,
    log_concavity,
    lower_bound_check,
    monomial_engine_profile,
    monomial_oracle_profile,
    product_formula,
    rational_engine_profile,
)
from dyndeg.intmat import det
from dyndeg.monomial import MonomialMap, pullback_class_sequence
from dyndeg.oracle import pair_oracle, ring_expand_oracle
from dyndeg.rational import (
    MultiHomPoly,
    RationalMapDesc,
    fiber_degree_sequence,
    iterate_multidegrees,
)
from dyndeg.sampling import fibration_shapes, random_effective_class, random_fibered_map
from dyndeg.suite import minor_multiplicativity_property

ORACLE_SEED = 1104
ENGINE_SEED = 2208
ESTIMATE_TOL = 5e-2
EXACT_TOL = 1e-9


def record(log, num, desc, failures):
    ok = not failures
    log.append((num, desc, ok))
    assert ok, f"criterion {num} [{desc}]: {len(failures)} failures, first: {failures[:3]}"


def nth_root(value, n):
    return math.exp(math.log(value) / n)


@pytest.fixture(scope="session")
def oracle_pool():
    """105 block-triangular fibered draws, k <= 6, with exact spectral profiles."""
    rng = random.Random(ORACLE_SEED)
    pool = []
    for k, l in fibration_shapes(6):
        for _ in range(7):
            f, _ = random_fibered_map(rng, k, l)
            pool.append((f, monomial_oracle_profile(f)))
    return pool


@pytest.fixture(scope="session")
def engine_pool(oracle_pool):
    """30 draws with k <= 4 carrying engine estimates at N = 60."""
    rng = random.Random(ENGINE_SEED)
    pool = []
    for k, l in fibration_shapes(4):
        for _ in range(5):
            f, _ = random_fibered_map(rng, k, l)
            pool.append(
                (f, monomial_engine_profile(f, n_max=60, tol=ESTIMATE_TOL),
                 monomial_oracle_profile(f))
            )
    return pool


def test_c01_product_formula_exact_on_spectral_oracle(acceptance_log, oracle_pool):
    assert len(oracle_pool) >= 100
    failures = []
    for f, prof in oracle_pool:
        verdict = product_formula(prof)
        if verdict.status is not VerdictStatus.PASS:
            failures.append((f.matrix, verdict.status.value))
    record(acceptance_log, 1,
           "product formula exact (1e-9) on >=100 spectral profiles", failures)


def test_c02_engine_estimates_match_formula_and_oracle(acceptance_log, engine_pool):
    assert len(engine_pool) >= 25
    failures = []
    for f, eng, ora in engine_pool:
        verdict = product_formula(eng)
        if verdict.status is not VerdictStatus.PASS:
            failures.append((f.matrix, "formula", verdict.status.value))
            continue
        rows = (
            (eng.degrees, ora.degrees),
            (eng.base, ora.base),
            (eng.relative, ora.relative),
        )
        for got, want in rows:
            for g, w in zip(got, want):
                err = abs(g.value - w.value) / max(w.value, 1.0)
                if not g.converged or err > ESTIMATE_TOL:
                    failures.append((f.matrix, g.value, w.value))
    record(acceptance_log, 2,
           "engine estimates at N=60 within 5e-2 of formula and oracle", failures)


def test_c03_summed_sequence_tracks_total_growth(acceptance_log, engine_pool):
    n = 40
    failures = []
    for f, _, _ in engine_pool:
        for p in range(f.dim + 1):
            lam = monomial.lambda_sequence(f, p, n)
            summed = monomial.b_p_sequence(f, p, n)
            # the two sequences share a growth rate but not a prefactor, so
            # the meaningful N-th-root gap is relative: the absolute gap
            # scales with the degree itself and says nothing about agreement
            gap = abs(nth_root(summed[n], n) / nth_root(lam[n], n) - 1.0)
            if gap >= ESTIMATE_TOL:
                failures.append((f.matrix, p, gap))
    # worked instance with closed forms for both sequences; here the gap is
    # small enough that even the absolute reading holds
    f = MonomialMap(((2, 0), (1, 3)), fibration_dim=1)
    if monomial.lambda_sequence(f, 1, n) != [2 * 3 ** i for i in range(n + 1)]:
        failures.append("total closed form")
    if monomial.b_p_sequence(f, 1, n) != [3 ** (i + 1) for i in range(n + 1)]:
        failures.append("summed closed form")
    abs_gap = abs(nth_root(3 ** (n + 1), n) - nth_root(2 * 3 ** n, n))
    if abs_gap >= ESTIMATE_TOL:
        failures.append(("worked instance absolute gap", abs_gap))
    record(acceptance_log, 3,
           "summed mixed sequence root within 5e-2 of total growth at N=40",
           failures)


def test_c04_diagonal_mixed_equals_relative(acceptance_log, oracle_pool):
    failures = []
    for f, _ in oracle_pool:
        fiber = f.dim - f.fibration_dim
        base_volume = math.factorial(f.fibration_dim)
        for p in range(fiber + 1):
            diag = monomial.a_qp_sequence(f, p, p, 20)
            rel = monomial.lambda_relative_sequence(f, p, 20)
            own = monomial.lambda_sequence(f.fiber_map(), p, 20)
            if diag != rel or rel != [base_volume * x for x in own]:
                failures.append((f.matrix, p))
    record(acceptance_log, 4,
           "diagonal mixed sequence equals relative sequence and l! times the "
           "fiber block's own sequence exactly, n<=20",
           failures)


def test_c05_log_concavity(acceptance_log, oracle_pool, engine_pool):
    failures = []
    for f, prof in oracle_pool:
        if log_concavity(prof).status is not VerdictStatus.PASS:
            failures.append(("oracle", f.matrix))
    for f, eng, _ in engine_pool:
        if log_concavity(eng).status is not VerdictStatus.PASS:
            failures.append(("engine", f.matrix))
    record(acceptance_log, 5,
           "log-concavity exact on oracle, within 5e-2 on engine profiles",
           failures)


def test_c06_endpoint_degrees(acceptance_log, oracle_pool):
    failures = []
    for f, _ in oracle_pool:
        k = f.dim
        base = math.factorial(k)
        d = abs(det(f.matrix))
        if monomial.lambda_sequence(f, 0, 20) != [base] * 21:
            failures.append((f.matrix, 0))
        if monomial.lambda_sequence(f, k, 20) != [base * d ** i for i in range(21)]:
            failures.append((f.matrix, k))
    record(acceptance_log, 6,
           "endpoint sequences k! and k!*|det|^n exact, n<=20", failures)


def test_c07_pairing_monotone_on_pullback_classes(acceptance_log, engine_pool,
                                                  oracle_pool):
    failures = []
    checked = 0
    draws = [(f, (1, 2, 5)) for f, _, _ in engine_pool]
    draws += [(f, (1, 3)) for f, _ in oracle_pool]
    for f, ns in draws:
        space = f.space
        big_l = space.base_dim
        for p in range(f.dim + 1):
            lo, hi = max(0, p - f.dim + big_l), min(p, big_l)
            table = pullback_class_sequence(f, p, max(ns))
            for n in ns:
                c = table[n]
                values = [alpha(c, j) for j in range(lo, hi + 1)]
                checked += 1
                if any(a > b for a, b in zip(values, values[1:])):
                    failures.append((f.matrix, p, n, values))
    assert checked > 400
    record(acceptance_log, 7,
           "alpha pairings nondecreasing on every pullback class", failures)


def _p1_endomorphism(coeff_rows):
    space = Space((1,))
    comps = tuple(MultiHomPoly.make(space, row) for row in coeff_rows)
    return RationalMapDesc(space, (comps,))


def test_c08_rational_engine_classics(acceptance_log):
    failures = []

    p2 = Space((2,))
    cremona = RationalMapDesc(
        p2,
        ((MultiHomPoly.make(p2, {(0, 1, 1): 1}),
          MultiHomPoly.make(p2, {(1, 0, 1): 1}),
          MultiHomPoly.make(p2, {(1, 1, 0): 1})),),
    )
    if list(iterate_multidegrees(cremona, 8).lambda1) != [1, 2, 1, 2, 1, 2, 1, 2, 1]:
        failures.append("involution degree sequence")
    crem_profile = rational_engine_profile(cremona, n_max=8)
    if crem_profile.degrees[1].value != 1.0:
        failures.append("involution degree estimate not exactly 1.0")

    squares = _p1_endomorphism([{(2, 0): 1}, {(0, 2): 1, (2, 0): 1}])
    cubes = _p1_endomorphism([{(3, 0): 1, (0, 3): 1}, {(2, 1): 1}])
    for g, d in ((squares, 2), (cubes, 3)):
        if list(iterate_multidegrees(g, 5).lambda1) != [d ** i for i in range(6)]:
            failures.append(f"degree-{d} iteration not multiplicative")

    space = Space((1, 1), base_factors=1)
    mk = lambda coeffs: MultiHomPoly.make(space, coeffs)
    skew = RationalMapDesc(
        space,
        ((mk({(3, 0, 0, 0): 1}), mk({(0, 3, 0, 0): 1})),
         (mk({(1, 0, 2, 0): 1}), mk({(1, 0, 0, 2): 1, (0, 1, 2, 0): 1}))),
        fibration_dim=1,
    )
    cap = 3000
    data = iterate_multidegrees(skew, 7, max_total_degree=cap)
    if data.lambda1[1] != 6 or data.lambda1[2] != 16:
        failures.append(f"skew first degrees {data.lambda1[:3]}")
    if fiber_degree_sequence(skew, 7, cap) != [2 ** i for i in range(8)]:
        failures.append("fiber degrees not 2^n")
    prof = rational_engine_profile(skew, n_max=7, max_total_degree=cap)
    formula = product_formula(prof, ps=[0, 1])
    bound = lower_bound_check(prof, ps=[0, 1])
    if formula.status is not VerdictStatus.PASS:
        failures.append("skew product formula")
    else:
        row = next(r for r in formula.rows if r["p"] == 1)
        if abs(row["rhs"] - 3.0) > ESTIMATE_TOL * 3.0 or row["argmax"] != [1]:
            failures.append(f"skew formula row {row}")
    if bound.status is not VerdictStatus.PASS:
        failures.append("skew lower bound")
    record(acceptance_log, 8,
           "rational classics: involution, pure powers, skew product", failures)


def test_c09_distinctness_inheritance(acceptance_log, oracle_pool):
    failures = []
    hypothesis_count = 0
    for f, prof in oracle_pool:
        total = distinct_flags(prof.degrees, ESTIMATE_TOL)
        if not all(flag is True for flag in total):
            continue
        hypothesis_count += 1
        if not all(distinct_flags(prof.base, EXACT_TOL)):
            failures.append(("base", f.matrix))
        if not all(distinct_flags(prof.relative, EXACT_TOL)):
            failures.append(("relative", f.matrix))
    assert hypothesis_count > 10  # the check must not hold vacuously
    record(acceptance_log, 9,
           "distinct total degrees force distinct factor degrees", failures)


def _compositions(k):
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in _compositions(k - first):
            yield (first,) + rest


def test_c10_infrastructure_identities(acceptance_log, tmp_path):
    failures = []

    minors = minor_multiplicativity_property(random.Random(3301), pairs=100)
    if minors.status is not VerdictStatus.PASS:
        failures.append("compound multiplicativity")

    rng = random.Random(4402)
    spaces = [Space(c) for k in range(1, 7) for c in _compositions(k)]
    assert len(spaces) == 63
    for space in spaces:
        p1 = rng.randint(0, space.dim)
        c1 = random_effective_class(rng, space, p1)
        c2 = random_effective_class(rng, space, rng.randint(0, space.dim - p1))
        if mul(c1, c2) != ring_expand_oracle(space, [c1, c2]):
            failures.append(("mul", space.factors))
        top1 = random_effective_class(rng, space, p1)
        top2 = random_effective_class(rng, space, space.dim - p1)
        if pair(top1, top2) != pair_oracle(top1, top2):
            failures.append(("pair", space.factors))

    job = tmp_path / "job.json"
    job.write_text(json.dumps(
        {"type": "monomial", "matrix": [[2, 0], [1, 3]], "fibration_dim": 1,
         "n_max": 12}
    ))
    outputs = []
    for name in ("a.json", "b.json"):
        target = tmp_path / name
        code = cli.main(["verify-product", "--input", str(job),
                         "--format", "json", "--out", str(target)])
        if code != 0:
            failures.append(("verify exit", code))
        outputs.append(target.read_bytes())
    if outputs[0] != outputs[1]:
        failures.append("verify-product reports differ")
    outputs = []
    for name in ("s1.json", "s2.json"):
        target = tmp_path / name
        code = cli.main(["suite", "--seed", "9", "--n-max", "40",
                         "--format", "json", "--out", str(target)])
        if code != 0:
            failures.append(("suite exit", code))
        outputs.append(target.read_bytes())
    if outputs[0] != outputs[1]:
        failures.append("suite reports differ")
    record(acceptance_log, 10,
           "compound identities, ring oracle agreement, byte-stable reports",
           failures)
