import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dyndeg import sampling
from dyndeg.cohomology import (
    CohClass,
    DegreeRangeError,
    FibrationError,
    Space,
    SpaceMismatchError,
    admissible_window,
    alpha,
    alpha_weight,
    base_pullback_power,
    degree_exponents,
    kaehler_class,
    kaehler_power,
    mixed_window,
    mul,
    pair,
    pairings,
    sequence_pairings,
    unit_class,
)
from dyndeg.oracle import pair_oracle

P1P1 = Space((1, 1))
P1P1_FIB = Space((1, 1), 1)
P2 = Space((2,))
MIXED = Space((1, 2), 1)
H1 = CohClass.make(P1P1, 1, {(1, 0): 1})
H2 = CohClass.make(P1P1, 1, {(0, 1): 1})


spaces = st.builds(
    Space,
    st.lists(st.integers(1, 2), min_size=1, max_size=3).map(tuple),
)


def class_strategy(space: Space, degree: int, lo: int = -3, hi: int = 3):
    exps = list(degree_exponents(space, degree))
    return st.lists(
        st.integers(lo, hi), min_size=len(exps), max_size=len(exps)
    ).map(lambda cs: CohClass.make(space, degree, dict(zip(exps, cs))))


class TestSpace:
    def test_dim_and_factors(self):
        assert P1P1.dim == 2
        assert MIXED.dim == 3
        assert MIXED.num_factors == 2

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            Space(())
        with pytest.raises(ValueError):
            Space((1, 0))

    def test_base_window(self):
        with pytest.raises(FibrationError):
            Space((1, 1), 0)
        with pytest.raises(FibrationError):
            Space((1, 1), 2)

    def test_base_dim_counts_dimension_not_factors(self):
        assert Space((2, 1, 1), 1).base_dim == 2
        assert Space((1, 2, 1), 2).base_dim == 3
        with pytest.raises(FibrationError):
            P1P1.base_dim

    def test_base_space(self):
        assert MIXED.base_space() == Space((1,))
        assert P1P1.with_base(1).base_space() == Space((1,))


class TestDegreeExponents:
    def test_counts_on_products_of_lines(self):
        for k in range(1, 6):
            space = Space((1,) * k)
            for p in range(k + 1):
                assert len(list(degree_exponents(space, p))) == math.comb(k, p)

    def test_single_projective_space(self):
        assert list(degree_exponents(P2, 2)) == [(2,)]

    def test_mixed(self):
        got = set(degree_exponents(MIXED, 2))
        assert got == {(0, 2), (1, 1)}

    def test_lexicographic_order(self):
        # random_effective_class draws coefficients in this order
        assert list(degree_exponents(Space((2, 1, 3)), 3)) == [
            (0, 0, 3), (0, 1, 2), (1, 0, 2), (1, 1, 1), (2, 0, 1), (2, 1, 0),
        ]

    def test_out_of_range_raises_at_call(self):
        with pytest.raises(DegreeRangeError):
            degree_exponents(MIXED, 4)


class TestCohClass:
    def test_make_validates_degree(self):
        with pytest.raises(ValueError):
            CohClass.make(P1P1, 1, {(1, 1): 1})

    def test_make_validates_exponent_bounds(self):
        with pytest.raises(ValueError):
            CohClass.make(P1P1, 2, {(2, 0): 1})

    def test_drops_zero_coefficients(self):
        c = CohClass.make(P1P1, 1, {(1, 0): 0, (0, 1): 2})
        assert dict(c.terms) == {(0, 1): 2}

    def test_addition_and_scaling(self):
        c = H1 + H2
        assert c == kaehler_class(P1P1)
        assert dict((c + c).terms) == {(1, 0): 2, (0, 1): 2}


class TestMul:
    def test_square_of_line_factor_vanishes(self):
        assert not mul(H1, H1).terms

    def test_kaehler_square_on_two_lines(self):
        w2 = kaehler_power(P1P1, 2)
        assert dict(w2.terms) == {(1, 1): 2}

    def test_top_power_coefficient_is_factorial(self):
        for k in (2, 3, 4):
            space = Space((1,) * k)
            top = kaehler_power(space, k)
            assert dict(top.terms) == {(1,) * k: math.factorial(k)}

    def test_degree_overflow_raises(self):
        w = kaehler_class(P1P1)
        with pytest.raises(DegreeRangeError):
            mul(kaehler_power(P1P1, 2), w)

    @given(
        st.integers(0, 2).flatmap(
            lambda p: st.tuples(
                class_strategy(P1P1, p), class_strategy(P1P1, min(2 - p, 2))
            )
        )
    )
    def test_commutative(self, pair_of_classes):
        c1, c2 = pair_of_classes
        assert mul(c1, c2) == mul(c2, c1)

    @given(
        class_strategy(Space((1, 1, 1)), 1),
        class_strategy(Space((1, 1, 1)), 1),
        class_strategy(Space((1, 1, 1)), 1),
    )
    def test_associative(self, a, b, c):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    @given(
        class_strategy(MIXED, 1),
        class_strategy(MIXED, 1),
        class_strategy(MIXED, 1),
    )
    def test_distributes_over_addition(self, a, b, c):
        assert mul(a + b, c) == mul(a, c) + mul(b, c)

    @given(
        class_strategy(MIXED, 1, lo=0),
        class_strategy(MIXED, 2, lo=0),
    )
    def test_effective_closed_under_product(self, a, b):
        assert all(c >= 0 for _, c in mul(a, b).terms)


class TestPairAndMass:
    def test_pair_requires_complementary_degrees(self):
        w = kaehler_class(P1P1)
        with pytest.raises(ValueError):
            pair(w, unit_class(P1P1))

    def test_pair_hand_value(self):
        c = CohClass.make(P1P1, 1, {(1, 0): 3, (0, 1): 5})
        assert pair(c, kaehler_class(P1P1)) == 8

    def test_mass_of_kaehler_powers(self):
        for k in (2, 3, 4):
            space = Space((1,) * k)
            for p in range(k + 1):
                # all weights of the complementary power survive
                expected = sum(
                    c for _, c in mul(
                        kaehler_power(space, p), kaehler_power(space, k - p)
                    ).terms
                )
                assert sequence_pairings([kaehler_power(space, p)], space, p, "total") == [
                    expected]
        assert sequence_pairings([kaehler_class(P1P1)], P1P1, 1, "total") == [2]
        space = Space((1, 1, 1))
        assert sequence_pairings([unit_class(space)], space, 0, "total") == [6]

    @given(class_strategy(MIXED, 1), class_strategy(MIXED, 2))
    def test_pair_symmetric(self, a, b):
        assert pair(a, b) == pair(b, a)


class TestBasePullbackAndAlpha:
    def test_rejects_unfibered_space(self):
        with pytest.raises(FibrationError):
            base_pullback_power(P1P1, 1)

    def test_rejects_beyond_base_dimension(self):
        with pytest.raises(DegreeRangeError):
            base_pullback_power(P1P1_FIB, 2)
        space = Space((2, 1), 1)
        assert dict(base_pullback_power(space, 2).terms) == {(2, 0): 1}
        two_line_base = Space((1, 1, 1), 2)
        assert dict(base_pullback_power(two_line_base, 2).terms) == {(1, 1, 0): 2}

    def test_zero_power_is_unit(self):
        assert base_pullback_power(P1P1_FIB, 0) == unit_class(P1P1_FIB)

    def test_alpha_hand_values(self):
        c = CohClass.make(P1P1_FIB, 1, {(1, 0): 3, (0, 1): 3})
        assert alpha(c, 0) == 3
        assert alpha(c, 1) == 6
        w = kaehler_class(P1P1_FIB)
        assert alpha(w, 0) == 1
        assert alpha(w, 1) == 2

    def test_alpha_window_enforced(self):
        c = CohClass.make(P1P1_FIB, 1, {(1, 0): 1})
        with pytest.raises(DegreeRangeError):
            alpha(c, 2)
        top = kaehler_power(P1P1_FIB, 2)
        with pytest.raises(DegreeRangeError):
            alpha(top, 0)  # degree 2 needs j >= p - (dim - base_dim) = 1


class TestPairings:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_matches_per_class_pair_mass_and_alpha(self, seed):
        # effective classes with different supports, one table per weight
        rng = random.Random(seed)
        space = sampling.random_fibered_space(rng)
        degree = rng.randint(0, space.dim)
        table = [sampling.random_effective_class(rng, space, degree)
                 for _ in range(rng.randint(0, 4))]
        weight = sampling.random_effective_class(rng, space, space.dim - degree)
        assert pairings(table, weight) == [pair(c, weight) for c in table]
        omega = kaehler_power(space, space.dim - degree)
        assert pairings(table, omega) == [pair_oracle(c, omega) for c in table]
        big_l = space.base_dim
        for j in admissible_window(degree, big_l, space.dim - big_l):
            assert pairings(table, alpha_weight(space, degree, j)) == [alpha(c, j) for c in table]

    @given(st.data())
    def test_matches_top_coefficient_of_the_product(self, data):
        # signed classes and weights, zero coefficients included: the weight
        # is skipped where it vanishes, and nothing else may be
        space = data.draw(st.sampled_from([P1P1, MIXED, Space((1, 1, 1)), Space((2, 1))]))
        degree = data.draw(st.integers(0, space.dim))
        table = data.draw(st.lists(class_strategy(space, degree), max_size=4))
        weight = data.draw(class_strategy(space, space.dim - degree, -2, 2))
        assert pairings(table, weight) == [mul(c, weight).coeff(space.top) for c in table]

    def test_error_paths(self):
        c = CohClass.make(P1P1_FIB, 1, {(1, 0): 1})
        w = kaehler_class(P1P1_FIB)
        with pytest.raises(SpaceMismatchError):
            pairings([c, kaehler_class(P1P1)], w)
        with pytest.raises(DegreeRangeError):
            pairings([c, unit_class(P1P1_FIB)], w)
        with pytest.raises(FibrationError):
            alpha_weight(P1P1, 1, 0)
        with pytest.raises(DegreeRangeError):
            alpha_weight(P1P1_FIB, 1, 2)
        with pytest.raises(DegreeRangeError):
            alpha_weight(P1P1_FIB, 2, 0)  # degree 2 needs j >= 1
        assert pairings([], w) == []


class TestSequencePairings:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_each_kind_matches_per_class_mass_and_alpha(self, seed):
        rng = random.Random(seed)
        space = sampling.random_fibered_space(rng)
        p = rng.randint(0, space.dim)
        table = [sampling.random_effective_class(rng, space, p) for _ in range(rng.randint(0, 4))]
        big_l = space.base_dim
        window = range(max(0, p - big_l), min(p, space.dim - big_l) + 1)
        assert mixed_window(space, p) == window
        omega = kaehler_power(space, space.dim - p)
        assert sequence_pairings(table, space, p, "total") == [
            pair_oracle(c, omega) for c in table]
        if p <= space.dim - big_l:
            assert sequence_pairings(table, space, p, "relative") == [alpha(c, 0) for c in table]
        for q in window:
            assert sequence_pairings(table, space, p, "mixed", q) == [
                alpha(c, p - q) for c in table]
        assert sequence_pairings(table, space, p, "summed") == [
            sum(alpha(c, p - q) for q in window) for c in table]

    def test_error_paths(self):
        c = CohClass.make(P1P1, 1, {(1, 0): 1})
        assert sequence_pairings([c], P1P1, 1, "total") == [1]
        for kind in ("relative", "mixed", "summed"):
            with pytest.raises(FibrationError):
                sequence_pairings([c], P1P1, 1, kind, 1)
        with pytest.raises(FibrationError):
            mixed_window(P1P1, 1)
        with pytest.raises(DegreeRangeError):
            sequence_pairings([], P1P1_FIB, 2, "relative")  # the fiber has dimension 1
        with pytest.raises(DegreeRangeError):
            sequence_pairings([], P1P1_FIB, 2, "mixed", 0)  # q = 0 is outside 1..1
        with pytest.raises(ValueError, match="unknown sequence kind"):
            sequence_pairings([c], P1P1_FIB, 1, "base")
