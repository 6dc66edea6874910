import math

import pytest
from hypothesis import given, strategies as st

from dyndeg.cohomology import (
    CohClass,
    Space,
    degree_exponents,
    kaehler_power,
    mul,
    pair,
)
from dyndeg.intmat import freeze, identity
from dyndeg.monomial import MonomialMap, NonDominantError, pullback_class_sequence
from dyndeg.oracle import (
    OracleSizeError,
    charpoly,
    compound_vs_minors,
    eigen_degrees,
    pair_oracle,
    ring_expand_oracle,
)

matrices = lambda k, bound=5: st.lists(
    st.lists(st.integers(-bound, bound), min_size=k, max_size=k),
    min_size=k,
    max_size=k,
).map(freeze)


class TestCharpoly:
    def test_hand_values(self, golden_matrix):
        assert charpoly(golden_matrix) == (1, -3, 1)
        assert charpoly(((2, 0), (1, 3))) == (1, -5, 6)

    def test_identity(self):
        for k in (2, 3, 5):
            expected = tuple((-1) ** j * math.comb(k, j) for j in range(k + 1))
            assert charpoly(identity(k)) == expected

    @given(st.integers(2, 5).flatmap(matrices))
    def test_trace_and_determinant_coefficients(self, mat):
        from dyndeg.intmat import det, trace

        poly = charpoly(mat)
        k = len(mat)
        assert poly[0] == 1
        assert poly[1] == -trace(mat)
        assert poly[k] == (-1) ** k * det(mat)

    @given(st.integers(2, 4).flatmap(matrices))
    def test_cayley_hamilton(self, mat):
        # the matrix must annihilate its own characteristic polynomial
        from dyndeg.intmat import mat_mul

        k = len(mat)
        poly = charpoly(mat)
        acc = [[0] * k for _ in range(k)]
        power = identity(k)
        for coeff in reversed(poly):
            for i in range(k):
                for j in range(k):
                    acc[i][j] += coeff * power[i][j]
            power = mat_mul(power, mat)
        assert all(x == 0 for row in acc for x in row)


class TestEigenDegrees:
    def test_golden_mean(self, golden_matrix):
        got = eigen_degrees(golden_matrix)
        assert got.degrees[0] == 1.0
        assert got.degrees[1] == pytest.approx((3 + math.sqrt(5)) / 2, rel=1e-12)
        assert got.degrees[2] == pytest.approx(1.0, rel=1e-12)

    def test_triple_root(self):
        got = eigen_degrees(((5, -4, 0), (1, 1, 0), (1, 2, 3)))
        assert got.degrees == pytest.approx((1.0, 3.0, 9.0, 27.0), rel=1e-12)

    def test_rejects_singular(self):
        with pytest.raises(NonDominantError):
            eigen_degrees(((1, 1), (1, 1)))

    @given(st.integers(2, 5).flatmap(matrices))
    def test_profile_is_log_concave_and_ends_at_determinant(self, mat):
        from dyndeg.intmat import det

        d = det(mat)
        if d == 0:
            return
        got = eigen_degrees(mat)
        assert got.degrees[-1] == pytest.approx(abs(d), rel=1e-9)
        for p in range(1, len(got.moduli)):
            assert got.moduli[p - 1] >= got.moduli[p] - 1e-12
            lhs = got.degrees[p] ** 2
            rhs = got.degrees[p - 1] * got.degrees[p + 1]
            assert lhs >= rhs * (1 - 1e-9)


class TestRingExpandOracle:
    def test_matches_mul_on_hand_case(self):
        space = Space((1, 1))
        c = CohClass.make(space, 1, {(1, 0): 3, (0, 1): 3})
        w = kaehler_power(space, 1)
        assert ring_expand_oracle(space, [c, w]) == mul(c, w)

    def test_matches_pullback_products(self, golden_matrix):
        f = MonomialMap(golden_matrix)
        space = f.space
        c = pullback_class_sequence(f, 1, 3)[3]
        assert ring_expand_oracle(space, [c, c]) == mul(c, c)

    def test_size_cap(self):
        space = Space((1,) * 9)
        with pytest.raises(OracleSizeError):
            ring_expand_oracle(space, [kaehler_power(space, 1)])

    def test_term_cap(self):
        # 70 terms per factor: 70^4 cross terms exceed the 2,000,000 cap
        space = Space((1,) * 8)
        with pytest.raises(OracleSizeError, match="exceeds cap"):
            ring_expand_oracle(space, [kaehler_power(space, 4)] * 4)

    def test_pair_oracle_agrees(self):
        space = Space((1, 1, 1))
        c1 = CohClass.make(space, 1, {(1, 0, 0): 2, (0, 0, 1): 5})
        c2 = kaehler_power(space, 2)
        assert pair_oracle(c1, c2) == pair(c1, c2)


class TestCompoundVsMinors:
    @given(st.integers(2, 4).flatmap(matrices), st.integers(1, 4))
    def test_agreement(self, mat, n):
        for p in range(len(mat) + 1):
            assert compound_vs_minors(mat, p, n)
