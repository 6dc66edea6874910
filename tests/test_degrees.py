import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from dyndeg.cohomology import FibrationError, Space, alpha, mass
from dyndeg.degrees import (
    DEFAULT_EXACT_TOL,
    DegreeProfile,
    DegreeValue,
    VerdictStatus,
    combine_rows,
    distinct_flags,
    distinctness_implication,
    estimate,
    estimated_value,
    log_concavity,
    lower_bound_check,
    monomial_engine_profile,
    monomial_oracle_profile,
    product_formula,
    rational_engine_profile,
    window_stride,
)
from dyndeg.intmat import det, freeze
from dyndeg.monomial import MonomialMap, c_p_sequence, pullback_class_sequence
from dyndeg.rational import (
    MultiHomPoly,
    RationalMapDesc,
    base_map,
    fiber_degree_sequence,
    iterate_multidegrees,
)


def profile_from_floats(degrees, base=None, relative=None, tolerance=DEFAULT_EXACT_TOL):
    def wrap(values):
        if values is None:
            return None
        return tuple(None if v is None else DegreeValue.exact(v) for v in values)

    dim = len(degrees) - 1
    base_dim = None if base is None else len(base) - 1
    return DegreeProfile(dim, base_dim, wrap(degrees), wrap(base), wrap(relative),
                         tolerance=tolerance)


class TestDegreeSequence:
    """A degree sequence is a plain list of exact values; estimate checks it."""

    def test_validation(self):
        with pytest.raises(ValueError, match="N >= 2"):
            estimate([1, 2])
        with pytest.raises(ValueError, match="positive"):
            estimate([1, 0, 2])
        with pytest.raises(ValueError, match="positive"):
            estimate([1, -3, 2])

    def test_too_short_gives_no_value(self):
        assert estimated_value([1, 2], 5e-2) is None
        value = estimated_value([1, 2, 4], 5e-2)
        assert value.source == "estimated" and value.value == pytest.approx(2.0)


class TestWindowStride:
    def test_values(self):
        assert window_stride(2) == 1
        assert window_stride(7) == 2
        assert window_stride(8) == 4
        assert window_stride(40) == 20
        assert window_stride(60) == 30

    def test_stride_is_even_once_sequences_are_long(self):
        for n in range(4, 200):
            assert window_stride(n) % 2 == 0 or window_stride(n) == n - 1


class TestEstimate:
    def test_exact_geometric(self):
        est = estimate([3 * 2 ** n for n in range(9)])
        assert est.ratio_estimate == pytest.approx(2.0, rel=1e-12)
        assert est.window_estimate == pytest.approx(2.0, rel=1e-12)
        assert est.converged and est.window_converged
        assert est.chosen == est.ratio_estimate

    def test_period_two_oscillation(self):
        # ratios alternate 2 and 1/2 but every even-stride window is flat
        values = [1 if n % 2 == 0 else 2 for n in range(9)]
        est = estimate(values)
        assert not est.converged
        assert est.window_converged
        assert est.window_estimate == 1.0
        assert est.chosen == 1.0

    def test_two_term_growth(self):
        values = [4 * 3 ** n + 2 ** n for n in range(13)]
        est = estimate(values)
        assert est.converged
        assert est.chosen == pytest.approx(3.0, rel=1e-2)
        assert est.root_estimate == pytest.approx(3.0, rel=0.2)

    def test_tight_tolerance_defers_to_trend(self):
        values = [4 * 3 ** n + 2 ** n for n in range(13)]
        est = estimate(values, tol=1e-9)
        assert not est.converged
        assert not est.settled
        assert est.chosen == est.trend_estimate


class TestDegreeValue:
    def test_exact(self):
        v = DegreeValue.exact(6)
        assert v.value == 6.0 and v.converged and v.source == "oracle-exact"

    def test_from_estimate_uses_window_fallback(self):
        values = [1 if n % 2 == 0 else 2 for n in range(9)]
        v = DegreeValue.from_estimate(estimate(values))
        assert v.converged  # window stability rescues the oscillating ratio
        assert v.value == 1.0


class TestDegreeProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            profile_from_floats([1.0, 2.0], base=[1.0], relative=[1.0, 2.0])
        with pytest.raises(ValueError):
            DegreeProfile(2, None, (DegreeValue.exact(1),))
        with pytest.raises(FibrationError):
            profile_from_floats([1.0, 2.0, 4.0], base=[1.0, 2.0, 4.0], relative=[1.0])

    def test_to_dict_shape(self):
        prof = profile_from_floats([1.0, 3.0, 6.0], base=[1.0, 2.0], relative=[1.0, 3.0])
        d = prof.to_dict()
        assert d["dim"] == 2 and d["base_dim"] == 1
        assert d["degrees"][1]["value"] == 3.0
        assert d["base"][1]["source"] == "oracle-exact"


class TestLogConcavity:
    def test_exact_profile_passes(self, golden_matrix):
        verdict = log_concavity(monomial_oracle_profile(MonomialMap(golden_matrix)))
        assert verdict.status is VerdictStatus.PASS

    def test_synthetic_violation_fails(self):
        verdict = log_concavity(profile_from_floats([1.0, 2.0, 6.0]))
        assert verdict.status is VerdictStatus.FAIL

    def test_missing_middle_is_inconclusive(self):
        verdict = log_concavity(profile_from_floats([1.0, None, 4.0]))
        assert verdict.status is VerdictStatus.INCONCLUSIVE

    def test_unconverged_estimate_is_inconclusive(self):
        shaky = DegreeValue(2.0, "estimated", False)
        prof = DegreeProfile(2, None, (DegreeValue.exact(1.0), shaky, DegreeValue.exact(4.0)))
        assert log_concavity(prof).status is VerdictStatus.INCONCLUSIVE


class TestProductFormula:
    def test_hand_case(self, fib_matrix):
        prof = monomial_oracle_profile(MonomialMap(fib_matrix, fibration_dim=1))
        verdict = product_formula(prof)
        assert verdict.status is VerdictStatus.PASS
        by_p = {row["p"]: row for row in verdict.rows}
        assert by_p[1]["window"] == [0, 1]
        assert by_p[1]["rhs"] == pytest.approx(3.0)
        assert by_p[1]["argmax"] == [0]  # base growth loses to the fiber here
        assert by_p[2]["window"] == [1]
        assert by_p[2]["rhs"] == pytest.approx(6.0)

    def test_requires_fibration(self, golden_matrix):
        prof = monomial_oracle_profile(MonomialMap(golden_matrix))
        with pytest.raises(FibrationError):
            product_formula(prof)

    def test_violation_fails(self):
        prof = profile_from_floats([1.0, 10.0, 6.0], base=[1.0, 2.0], relative=[1.0, 3.0])
        verdict = product_formula(prof, ps=[1])
        assert verdict.status is VerdictStatus.FAIL

    @pytest.mark.parametrize("check", [product_formula, lower_bound_check])
    @pytest.mark.parametrize("p", [-1, 3])
    def test_out_of_range_grading_raises(self, fib_matrix, check, p):
        prof = monomial_oracle_profile(MonomialMap(fib_matrix, fibration_dim=1))
        with pytest.raises(ValueError, match=f"grading {p} out of range"):
            check(prof, ps=[1, p])

    def test_lower_bound_rows(self, fib_matrix):
        prof = monomial_oracle_profile(MonomialMap(fib_matrix, fibration_dim=1))
        verdict = lower_bound_check(prof)
        assert verdict.status is VerdictStatus.PASS
        assert {(r["p"], r["j"]) for r in verdict.rows} == {
            (0, 0), (1, 0), (1, 1), (2, 1),
        }


class TestDistinctness:
    def test_flags(self):
        vals = tuple(DegreeValue.exact(v) for v in (1.0, 3.0, 3.0))
        assert list(distinct_flags(vals, 1e-9)) == [True, False]

    def test_strict_case(self, fib_matrix):
        prof = monomial_oracle_profile(MonomialMap(fib_matrix, fibration_dim=1))
        verdict = distinctness_implication(prof)
        assert verdict.status is VerdictStatus.PASS
        assert "note" not in verdict.rows[0]

    def test_vacuous_case(self):
        prof = monomial_oracle_profile(MonomialMap(((1, 0), (1, 2)), fibration_dim=1))
        verdict = distinctness_implication(prof)
        assert verdict.status is VerdictStatus.PASS
        assert "vacuous" in verdict.rows[0]["note"]


class TestProfileTolerance:
    """Every check compares at the tolerance its profile carries."""

    # each discrepancy is about 1e-4: inside 1e-2, outside the exact 1e-9
    @pytest.mark.parametrize("check, degrees, base, relative", [
        pytest.param(log_concavity, [1.0, 2.0, 4.0004], None, None, id="log-concavity"),
        pytest.param(product_formula, [1.0, 3.0003, 6.0], [1.0, 3.0], [1.0, 2.0],
                     id="product-formula"),
        pytest.param(lower_bound_check, [1.0, 2.9997, 6.0], [1.0, 3.0], [1.0, 2.0],
                     id="lower-bound"),
        # distinct totals at 1e-9 meet equal base degrees; at 1e-2 the
        # totals are not all distinct and the implication holds vacuously
        pytest.param(distinctness_implication, [1.0, 1.0001, 2.0], [1.0, 1.0], [1.0, 2.0],
                     id="distinctness"),
    ])
    def test_passes_loose_and_fails_exact(self, check, degrees, base, relative):
        loose = profile_from_floats(degrees, base, relative, tolerance=1e-2)
        assert check(loose).status is VerdictStatus.PASS
        assert check(profile_from_floats(degrees, base, relative)).status is VerdictStatus.FAIL

    def test_builders_set_it(self, fib_matrix):
        f = MonomialMap(fib_matrix, fibration_dim=1)
        assert monomial_oracle_profile(f).tolerance == DEFAULT_EXACT_TOL
        assert monomial_engine_profile(f, 12, 1e-3).tolerance == 1e-3
        assert rational_engine_profile(_skew(), 6, 2e-2).tolerance == 2e-2


class TestCombineRows:
    def test_fail_dominates(self):
        v = combine_rows("x", [{"status": "PASS"}, {"status": "FAIL"},
                               {"status": "INCONCLUSIVE"}])
        assert v.status is VerdictStatus.FAIL

    def test_inconclusive_before_pass(self):
        v = combine_rows("x", [{"status": "PASS"}, {"status": "INCONCLUSIVE"}])
        assert v.status is VerdictStatus.INCONCLUSIVE
        assert combine_rows("x", []).status is VerdictStatus.INCONCLUSIVE

    def test_all_pass(self):
        v = combine_rows("x", [{"status": "PASS"}] * 3)
        assert v.status is VerdictStatus.PASS and v.passed


class TestEngineVsOracle:
    def test_unfibered_agreement(self, golden_matrix):
        f = MonomialMap(golden_matrix)
        eng = monomial_engine_profile(f, n_max=12)
        ora = monomial_oracle_profile(f)
        for p in range(f.dim + 1):
            assert eng.degrees[p].converged
            assert eng.degrees[p].value == pytest.approx(
                ora.degrees[p].value, rel=5e-2
            )

    def test_fibered_agreement(self, fib_matrix):
        f = MonomialMap(fib_matrix, fibration_dim=1)
        eng = monomial_engine_profile(f, n_max=12)
        ora = monomial_oracle_profile(f)
        for got, want in (
            (eng.degrees, ora.degrees),
            (eng.base, ora.base),
            (eng.relative, ora.relative),
        ):
            for g, w in zip(got, want):
                assert g.value == pytest.approx(w.value, rel=5e-2)


def _skew():
    """The skew product (x, y) -> (x^3, y^2 + x) of P^1 x P^1 over P^1."""
    space = Space((1, 1), base_factors=1)
    mk = lambda coeffs: MultiHomPoly.make(space, coeffs)
    return RationalMapDesc(
        space,
        (
            (mk({(3, 0, 0, 0): 1}), mk({(0, 3, 0, 0): 1})),
            (mk({(1, 0, 2, 0): 1}), mk({(1, 0, 0, 2): 1, (0, 1, 2, 0): 1})),
        ),
        fibration_dim=1,
    )


class TestRationalEngineProfile:

    def test_skew_profile(self):
        prof = rational_engine_profile(_skew(), n_max=6, max_total_degree=3000)
        assert prof.dim == 2 and prof.base_dim == 1
        assert prof.degrees[0].value == 1.0
        assert prof.degrees[1].value == pytest.approx(3.0, rel=5e-2)
        assert prof.degrees[2] is None
        assert prof.base[1].value == pytest.approx(3.0, rel=1e-12)
        assert prof.relative[1].value == pytest.approx(2.0, rel=1e-12)

    def test_truncated_prefix_still_estimates(self):
        prof = rational_engine_profile(_skew(), n_max=10, max_total_degree=400)
        # the cap stops iteration early but leaves enough terms to estimate
        assert prof.degrees[1] is not None
        assert prof.degrees[1].value == pytest.approx(3.0, rel=5e-2)

    def test_product_formula_on_estimates(self):
        prof = rational_engine_profile(_skew(), n_max=6, max_total_degree=3000)
        verdict = product_formula(prof, ps=[0, 1])
        assert verdict.status is VerdictStatus.PASS
        row = next(r for r in verdict.rows if r["p"] == 1)
        assert row["argmax"] == [1]  # base expansion dominates the fiber


# ------------------------------------------------ the fold against the old route


def _estimated(values, tol):
    return None if len(values) < 3 else DegreeValue.from_estimate(estimate(values, tol))


def _reference_monomial_profile(f, n_max, tol):
    """The previous monomial route: one table per p, estimate on each list."""
    k = f.dim
    tables = [pullback_class_sequence(f, p, n_max) for p in range(k + 1)]
    degrees = tuple(_estimated([mass(c) for c in table], tol) for table in tables)
    if f.fibration_dim is None:
        return DegreeProfile(k, None, degrees, label="monomial-engine")
    l = f.fibration_dim
    base = tuple(_estimated(c_p_sequence(f.base_block(), j, n_max), tol) for j in range(l + 1))
    relative = tuple(_estimated([alpha(c, 0) for c in tables[p]], tol)
                     for p in range(k - l + 1))
    return DegreeProfile(k, l, degrees, base, relative, label="monomial-engine")


def _reference_rational_profile(f, n_max, tol, cap):
    """The previous rational route: d_0 = 1 exactly, d_1 estimated from the
    prefix iteration reached, no higher grading."""
    def graded(dim, values):
        return (DegreeValue.exact(1.0), _estimated(list(values), tol)) + (None,) * (dim - 1)

    k = f.space.dim
    total = iterate_multidegrees(f, n_max, cap).lambda1
    if f.fibration_dim is None:
        return DegreeProfile(k, None, graded(k, total), label="rational-engine")
    big_l = f.fibered_space.base_dim
    base = iterate_multidegrees(base_map(f), n_max, cap).lambda1
    relative = fiber_degree_sequence(f, n_max, cap)
    return DegreeProfile(k, big_l, graded(k, total), graded(big_l, base),
                         graded(k - big_l, relative), label="rational-engine")


@st.composite
def small_monomial_maps(draw):
    """Fibred and unfibred monomial maps of (P^1)^k, k <= 4, det != 0."""
    k = draw(st.integers(2, 4))
    l = draw(st.one_of(st.none(), st.integers(1, k - 1)))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                         min_size=k, max_size=k))
    if l is not None:
        rows = [[0 if i < l <= j else x for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    assume(det(freeze(rows)) != 0)
    return MonomialMap(rows, l)


@given(small_monomial_maps(), st.integers(2, 12), st.sampled_from([5e-2, 1e-3]))
def test_monomial_fold_matches_reference(f, n_max, tol):
    assert (monomial_engine_profile(f, n_max, tol).to_dict()
            == _reference_monomial_profile(f, n_max, tol).to_dict())


def _p1_map():
    space = Space((1,))
    mk = lambda coeffs: MultiHomPoly.make(space, coeffs)
    return RationalMapDesc(space, ((mk({(2, 0): 1, (0, 2): 3}), mk({(1, 1): 1})),))


def _cremona():
    space = Space((2,))
    mk = lambda coeffs: MultiHomPoly.make(space, coeffs)
    return RationalMapDesc(space, ((mk({(0, 1, 1): 2}), mk({(1, 0, 1): -3}),
                                    mk({(1, 1, 0): 5})),))


# case: (map, degree cap, largest n_max drawn).  The skew map at cap 3000
# stops at n = 8, but only after composing f^8, which takes tens of seconds.
_RATIONAL_CASES = {
    "skew-cap-400": (_skew(), 400, 12),
    "skew-cap-3000": (_skew(), 3000, 7),
    "cremona": (_cremona(), 400, 12),
    "p1": (_p1_map(), 400, 12),
}


@settings(max_examples=20)
@given(st.sampled_from(sorted(_RATIONAL_CASES)).flatmap(
    lambda case: st.tuples(st.just(case), st.integers(2, _RATIONAL_CASES[case][2]))))
def test_rational_fold_matches_reference(case_n):
    case, n_max = case_n
    f, cap, _ = _RATIONAL_CASES[case]
    got = rational_engine_profile(f, n_max, 5e-2, max_total_degree=cap)
    assert got.to_dict() == _reference_rational_profile(f, n_max, 5e-2, cap).to_dict()
