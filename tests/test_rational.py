import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dyndeg.cohomology import (
    CohClass,
    FibrationError,
    Space,
    base_pullback_power,
    kaehler_power,
    mul,
    pair,
)
from dyndeg.monomial import MonomialMap, lambda_sequence
from dyndeg.rational import (
    CompositionCollapseError,
    DominanceWarning,
    MultiHomPoly,
    RationalMapDesc,
    _dict_mul,
    _kron_mul,
    base_map,
    check_dominance,
    compose,
    fiber_degree,
    fiber_degree_sequence,
    identity_map,
    iterate_multidegrees,
    monomial_to_rational,
    num_variables,
    reduce_tuple,
    validate_skew,
    variable_layout,
)

P2 = Space((2,))
P1xP1 = Space((1, 1), base_factors=1)


def poly(space, coeffs):
    return MultiHomPoly.make(space, coeffs)


def cremona():
    return RationalMapDesc(
        P2,
        (
            (
                poly(P2, {(0, 1, 1): 1}),
                poly(P2, {(1, 0, 1): 1}),
                poly(P2, {(1, 1, 0): 1}),
            ),
        ),
    )


def skew_map(base_exp=3):
    # homogenized (x^e, y^2 + x) as a skew product over the first factor
    return RationalMapDesc(
        P1xP1,
        (
            (
                poly(P1xP1, {(base_exp, 0, 0, 0): 1}),
                poly(P1xP1, {(0, base_exp, 0, 0): 1}),
            ),
            (
                poly(P1xP1, {(1, 0, 2, 0): 1}),
                poly(P1xP1, {(1, 0, 0, 2): 1, (0, 1, 2, 0): 1}),
            ),
        ),
        fibration_dim=1,
    )


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _monomials(space, multidegree):
    layout = variable_layout(space)
    blocks = [
        list(_compositions(d, count))
        for (start, count), d in zip(layout, multidegree)
    ]
    for combo in itertools.product(*blocks):
        yield tuple(x for block in combo for x in block)


def _draw_poly(data, space, multidegree):
    exps = list(_monomials(space, multidegree))
    coeffs = data.draw(
        st.lists(
            st.integers(-9, 9).filter(bool),
            min_size=1,
            max_size=len(exps),
        )
    )
    picked = data.draw(st.permutations(exps)) [: len(coeffs)]
    return poly(space, dict(zip(picked, coeffs)))


class TestMultiHomPoly:
    def test_make_validates(self):
        with pytest.raises(ValueError):
            poly(P2, {(1, 0): 1})  # wrong arity
        with pytest.raises(ValueError):
            poly(P2, {(-1, 1, 1): 1})
        with pytest.raises(ValueError):
            poly(P2, {(2, 0, 0): 1, (1, 0, 0): 1})  # mixed degrees

    def test_zero_and_constant(self):
        assert MultiHomPoly.zero(P2).is_zero
        assert MultiHomPoly.constant(P2, 0).is_zero
        one = MultiHomPoly.constant(P2, 1)
        assert one.multidegree == (0,)
        assert one.total_degree == 0

    def test_variable_and_layout(self):
        assert variable_layout(P1xP1) == ((0, 2), (2, 2))
        assert num_variables(P1xP1) == 4
        y1 = MultiHomPoly.variable(P1xP1, 1, 1)
        assert y1.terms == (((0, 0, 0, 1), 1),)
        with pytest.raises(ValueError):
            MultiHomPoly.variable(P1xP1, 0, 2)

    def test_arithmetic_hand_case(self):
        x0 = MultiHomPoly.variable(P2, 0, 0)
        x1 = MultiHomPoly.variable(P2, 0, 1)
        s = x0 + x1
        sq = s * s
        assert sq.coeff((2, 0, 0)) == 1
        assert sq.coeff((1, 1, 0)) == 2
        assert sq.coeff((0, 2, 0)) == 1
        assert (s + (-s)).is_zero
        assert s.power(3) == s * s * s
        assert s.power(0) == MultiHomPoly.constant(P2, 1)

    def test_derivative_and_evaluate(self):
        x0 = MultiHomPoly.variable(P2, 0, 0)
        x1 = MultiHomPoly.variable(P2, 0, 1)
        p = (x0 + x1).power(2)
        dp = p.derivative(0)
        assert dp.coeff((1, 0, 0)) == 2
        assert dp.coeff((0, 1, 0)) == 2
        assert p.evaluate((2, 3, 7)) == 25
        assert p.evaluate((Fraction(1, 2), Fraction(1, 2), 0)) == 1

    @given(st.data())
    def test_kronecker_multiplication_matches_dict(self, data):
        space = data.draw(st.sampled_from([P2, Space((1, 2))]))
        degs1 = tuple(data.draw(st.integers(0, 3)) for _ in space.factors)
        degs2 = tuple(data.draw(st.integers(0, 3)) for _ in space.factors)
        p1 = _draw_poly(data, space, degs1)
        p2 = _draw_poly(data, space, degs2)
        assert _kron_mul(p1, p2).terms == _dict_mul(p1, p2).terms

    @given(st.data())
    def test_multiplication_respects_multidegrees(self, data):
        space = Space((1, 2))
        degs1 = tuple(data.draw(st.integers(0, 2)) for _ in space.factors)
        degs2 = tuple(data.draw(st.integers(0, 2)) for _ in space.factors)
        p1 = _draw_poly(data, space, degs1)
        p2 = _draw_poly(data, space, degs2)
        prod = p1 * p2
        if not prod.is_zero:
            assert prod.multidegree == tuple(a + b for a, b in zip(degs1, degs2))


class TestReduceTuple:
    def test_strips_common_monomial_and_content(self):
        x0 = MultiHomPoly.variable(P2, 0, 0)
        x1 = MultiHomPoly.variable(P2, 0, 1)
        reduced = reduce_tuple(P2, (x0 * x0.scale(4), (x0 * x1).scale(6), MultiHomPoly.zero(P2)))
        assert reduced[0] == x0.scale(2)
        assert reduced[1] == x1.scale(3)
        assert reduced[2].is_zero

    def test_polynomial_common_factor(self):
        x0 = MultiHomPoly.variable(P2, 0, 0)
        x1 = MultiHomPoly.variable(P2, 0, 1)
        s = x0 + x1
        reduced = reduce_tuple(P2, (s * x0, s * x1))
        assert reduced == (x0, x1)
        # re-multiplying by the factor recovers the originals
        assert reduced[0] * s == s * x0

    def test_single_active_entry_collapses_to_constant(self):
        x2 = MultiHomPoly.variable(P2, 0, 2)
        zero = MultiHomPoly.zero(P2)
        reduced = reduce_tuple(P2, (zero, x2.power(4), zero))
        assert reduced[1] == MultiHomPoly.constant(P2, 1)

    def test_sign_normalization(self):
        x0 = MultiHomPoly.variable(P2, 0, 0)
        x1 = MultiHomPoly.variable(P2, 0, 1)
        assert reduce_tuple(P2, (-x0, -x1)) == (x0, x1)

    def test_all_zero_raises(self):
        zero = MultiHomPoly.zero(P2)
        with pytest.raises(CompositionCollapseError):
            reduce_tuple(P2, (zero, zero, zero))


class TestRationalMapDesc:
    def test_validation(self):
        x0 = MultiHomPoly.variable(P2, 0, 0)
        with pytest.raises(ValueError):
            RationalMapDesc(P2, ((x0, x0),))  # wrong component count
        zero = MultiHomPoly.zero(P2)
        with pytest.raises(CompositionCollapseError):
            RationalMapDesc(P2, ((zero, zero, zero),))
        with pytest.raises(FibrationError):
            skew = skew_map()
            RationalMapDesc(skew.space, skew.components, fibration_dim=2)

    def test_construction_reduces(self):
        x0 = MultiHomPoly.variable(P2, 0, 0)
        x1 = MultiHomPoly.variable(P2, 0, 1)
        x2 = MultiHomPoly.variable(P2, 0, 2)
        f = RationalMapDesc(P2, ((x0 * x0, x0 * x1, x0 * x2),))
        assert f.multidegree_matrix == ((1,),)

    def test_identity_laws(self):
        f = cremona()
        ident = identity_map(P2)
        assert compose(f, ident).components == f.components
        assert compose(ident, f).components == f.components

    def test_cremona_is_an_involution(self):
        f = cremona()
        assert f.multidegree_matrix == ((2,),)
        square = compose(f, f)
        assert square.components == identity_map(P2).components

    def test_cremona_degree_sequence(self):
        data = iterate_multidegrees(cremona(), n_max=6)
        assert list(data.lambda1) == [1, 2, 1, 2, 1, 2, 1]
        assert not data.truncated

    def test_self_collapse_raises(self):
        f = RationalMapDesc(
            P2,
            (
                (
                    poly(P2, {(0, 0, 2): 1}),
                    poly(P2, {(2, 0, 0): 1}),
                    MultiHomPoly.zero(P2),
                ),
            ),
        )
        with pytest.raises(CompositionCollapseError):
            iterate_multidegrees(f, n_max=3)


class TestSkewProduct:
    def test_validate_and_multidegrees(self):
        f = skew_map()
        assert validate_skew(f)
        assert f.multidegree_matrix == ((3, 0), (1, 2))
        not_skew = RationalMapDesc(
            f.space,
            (f.components[1], f.components[0]),
            fibration_dim=1,
        )
        assert not validate_skew(not_skew)
        with pytest.raises(FibrationError):
            base_map(not_skew)

    def test_lambda1_closed_form(self):
        data = iterate_multidegrees(skew_map(), n_max=5, max_total_degree=1000)
        assert not data.truncated
        expected = [2] + [4 * 3 ** (n - 1) + 2 ** n for n in range(1, 6)]
        assert list(data.lambda1) == expected == [2, 6, 16, 44, 124, 356]

    def test_second_iterate_multidegree(self):
        g = skew_map(base_exp=2)
        gg = compose(g, g)
        assert gg.multidegree_matrix == ((4, 0), (2, 4))

    def test_truncation_is_flagged(self):
        data = iterate_multidegrees(skew_map(), n_max=10, max_total_degree=100)
        assert data.truncated
        assert data.n_max == 4  # 3^5 = 243 > 100 stops the fifth iterate

    def test_base_map_and_fiber_degrees(self):
        f = skew_map()
        g = base_map(f)
        assert g.space == Space((1,))
        gdata = iterate_multidegrees(g, n_max=5)
        assert list(gdata.lambda1) == [1, 3, 9, 27, 81, 243]
        assert fiber_degree(f, 0) == 1
        assert fiber_degree(f, 3) == 8
        assert fiber_degree_sequence(f, 5) == [1, 2, 4, 8, 16, 32]

    @pytest.mark.parametrize("f", [
        skew_map(2),
        skew_map(3),
        monomial_to_rational(((2, 0, 0), (1, 3, 0), (-1, 1, 2)), fibration_dim=1),
    ])
    def test_fiber_sequence_matches_cut_then_pair_definition(self, f):
        # reference: multidegree rows -> pullback class, cut by the full base
        # power, paired against the complementary Kaehler power
        space = f.space.with_base(f.fibration_dim)
        big_l, m = space.base_dim, space.num_factors
        cut = base_pullback_power(space, big_l)
        weight = kaehler_power(space, space.dim - big_l - 1)
        data = iterate_multidegrees(f, 5, max_total_degree=1000)
        identity_rows = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
        reference = []
        for rows in (identity_rows,) + data.multidegrees:
            coeffs = {}
            for row in rows:
                for j, d in enumerate(row):
                    if d:
                        e = tuple(1 if t == j else 0 for t in range(m))
                        coeffs[e] = coeffs.get(e, 0) + d
            pullback = CohClass.make(space, 1, coeffs)
            reference.append(pair(mul(pullback, cut), weight))
        assert fiber_degree_sequence(f, 5, max_total_degree=1000) == reference
        assert [fiber_degree(f, n, max_total_degree=1000) for n in range(6)] == reference

    def test_fiber_degree_past_the_cap_raises(self):
        with pytest.raises(ValueError, match="degree cap reached before n = 5"):
            fiber_degree(skew_map(), 5, max_total_degree=100)


class TestDominance:
    def test_certifies_cremona(self):
        assert check_dominance(cremona()) is True

    def test_warns_on_contracted_image(self):
        f = RationalMapDesc(
            P2,
            (
                (
                    poly(P2, {(2, 0, 0): 1}),
                    poly(P2, {(0, 2, 0): 1}),
                    poly(P2, {(1, 1, 0): 1}),
                ),
            ),
        )
        with pytest.warns(DominanceWarning):
            assert check_dominance(f) is False


class TestMonomialBridge:
    def test_lambda1_matches_monomial_engine(self, golden_matrix):
        f = monomial_to_rational(golden_matrix)
        data = iterate_multidegrees(f, n_max=4)
        expected = lambda_sequence(MonomialMap(golden_matrix), 1, 4)
        assert list(data.lambda1) == expected == [2, 5, 13, 34, 89]

    def test_negative_entries_become_denominators(self):
        f = monomial_to_rational(((-1, 0), (0, -1)))
        # the coordinate inversion on (P1)^2 swaps homogeneous coordinates
        ident2 = compose(f, f)
        assert ident2.components == identity_map(f.space).components

    def test_fibration_carries_over(self, fib_matrix):
        f = monomial_to_rational(fib_matrix, fibration_dim=1)
        assert validate_skew(f)
        g = base_map(f)
        gdata = iterate_multidegrees(g, n_max=4)
        assert list(gdata.lambda1) == [1, 2, 4, 8, 16]
