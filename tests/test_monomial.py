import math
import random

import pytest
from hypothesis import assume, given, strategies as st

from dyndeg.cohomology import (
    DegreeRangeError,
    FibrationError,
    Space,
    base_pullback_power,
    kaehler_power,
    mul,
    pair,
)
from dyndeg.intmat import det, freeze, identity, mat_mul, mat_pow
from dyndeg.monomial import (
    MonomialMap,
    NonDominantError,
    a_qp,
    a_qp_sequence,
    admissible_q,
    b_p_sequence,
    c_p_sequence,
    compound,
    lambda_p,
    lambda_relative_sequence,
    lambda_sequence,
    pullback_class,
    pullback_class_sequence,
    topological_degree,
    validate_fibration,
)

matrices = lambda k, bound=4: st.lists(
    st.lists(st.integers(-bound, bound), min_size=k, max_size=k),
    min_size=k,
    max_size=k,
).map(freeze)


@st.composite
def fibered_maps(draw):
    """Random block lower-triangular monomial maps with det != 0."""
    k = draw(st.integers(2, 4))
    l = draw(st.integers(1, k - 1))
    mat = draw(matrices(k, 3))
    mat = freeze([[0 if i < l <= j else x for j, x in enumerate(row)]
                  for i, row in enumerate(mat)])
    assume(det(mat) != 0)
    return MonomialMap(mat, l)


class TestMonomialMap:
    def test_requires_square(self):
        with pytest.raises(ValueError):
            MonomialMap(((1, 2),))

    def test_requires_invertible_exponents(self):
        with pytest.raises(NonDominantError):
            MonomialMap(((1, 1), (2, 2)))

    def test_fibration_shape_enforced(self):
        assert validate_fibration(((2, 0), (1, 3)), 1)
        assert not validate_fibration(((2, 1), (1, 3)), 1)
        with pytest.raises(FibrationError):
            MonomialMap(((2, 1), (1, 3)), 1)
        with pytest.raises(FibrationError):
            MonomialMap(((2, 0), (1, 3)), 2)

    def test_blocks(self, fib_matrix):
        f = MonomialMap(fib_matrix, 1)
        assert f.base_block() == ((2,),)
        assert f.fiber_block() == ((3,),)
        assert f.space == Space((1, 1), 1)

    def test_topological_degree(self, golden_matrix):
        assert topological_degree(MonomialMap(golden_matrix)) == 1
        assert topological_degree(MonomialMap(((2, 0), (0, 3)))) == 6


class TestCompound:
    def test_extreme_orders(self, golden_matrix):
        assert compound(golden_matrix, 0).matrix == ((1,),)
        assert compound(golden_matrix, 2).matrix == ((det(golden_matrix),),)
        assert compound(golden_matrix, 1).matrix == golden_matrix

    def test_identity_compound_is_identity(self):
        for k, p in [(3, 1), (3, 2), (4, 2)]:
            assert compound(identity(k), p).matrix == identity(math.comb(k, p))

    def test_hand_minor(self):
        m = ((1, 2, 3), (4, 5, 6), (7, 8, 10))
        c2 = compound(m, 2).matrix
        # subsets in lexicographic order: (0,1), (0,2), (1,2)
        assert c2[0][0] == 1 * 5 - 2 * 4
        assert c2[2][2] == 5 * 10 - 6 * 8

    @given(st.integers(2, 4).flatmap(lambda k: st.tuples(matrices(k), matrices(k))))
    def test_multiplicative_in_the_matrix(self, pair_of_matrices):
        a, b = pair_of_matrices
        k = len(a)
        for p in range(k + 1):
            lhs = compound(mat_mul(a, b), p).matrix
            rhs = mat_mul(compound(a, p).matrix, compound(b, p).matrix)
            assert lhs == rhs


class TestPullbacks:
    def test_golden_mean_growth(self, golden_matrix):
        f = MonomialMap(golden_matrix)
        assert lambda_sequence(f, 1, 3) == [2, 5, 13, 34]
        assert lambda_sequence(f, 2, 3) == [2, 2, 2, 2]

    def test_pullback_class_hand_value(self, fib_matrix):
        f = MonomialMap(fib_matrix, 1)
        c = pullback_class(f, 1, 1)
        assert c.coeffs == {(1, 0): 3, (0, 1): 3}

    def test_degree_zero_is_constant_mass(self):
        for k in (2, 3, 4):
            f = MonomialMap(identity(k))
            assert lambda_sequence(f, 0, 5) == [math.factorial(k)] * 6

    def test_top_degree_tracks_determinant(self, rng):
        for _ in range(5):
            k = rng.randint(2, 4)
            while True:
                mat = freeze(
                    [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
                )
                if det(mat) != 0:
                    break
            f = MonomialMap(mat)
            d = abs(det(mat))
            expected = [math.factorial(k) * d**n for n in range(7)]
            assert lambda_sequence(f, k, 6) == expected

    def test_pullback_power_consistency(self, golden_matrix):
        # the class of f^(n) equals the class computed from the matrix power
        f = MonomialMap(golden_matrix)
        g = MonomialMap(mat_pow(golden_matrix, 3))
        assert pullback_class(f, 1, 3) == pullback_class(g, 1, 1)
        assert lambda_p(f, 1, 3) == lambda_p(g, 1, 1)


class TestRelativeAndMixed:
    def test_relative_growth(self, fib_matrix):
        f = MonomialMap(fib_matrix, 1)
        assert lambda_relative_sequence(f, 1, 4) == [1, 3, 9, 27, 81]
        assert lambda_relative_sequence(f, 0, 3) == [1, 1, 1, 1]

    def test_requires_fibration(self, golden_matrix):
        f = MonomialMap(golden_matrix)
        with pytest.raises(FibrationError):
            lambda_relative_sequence(f, 1, 2)

    def test_relative_degree_range(self, fib_matrix):
        f = MonomialMap(fib_matrix, 1)
        with pytest.raises(DegreeRangeError):
            lambda_relative_sequence(f, 2, 2)  # fiber dimension is 1

    def test_mixed_hand_values(self, fib_matrix):
        f = MonomialMap(fib_matrix, 1)
        assert a_qp(f, 0, 1, 1) == 6
        assert a_qp(f, 1, 1, 1) == 3

    def test_mixed_window(self, fib_matrix):
        f = MonomialMap(fib_matrix, 1)
        assert list(admissible_q(f, 1)) == [0, 1]
        assert list(admissible_q(f, 2)) == [1]
        with pytest.raises(DegreeRangeError):
            a_qp_sequence(f, 0, 2, 2)

    def test_summed_sequence(self, fib_matrix):
        f = MonomialMap(fib_matrix, 1)
        assert b_p_sequence(f, 1, 3) == [3, 9, 27, 81]

    def test_extreme_mixed_equals_relative(self, rng):
        for _ in range(10):
            k = rng.randint(2, 5)
            l = rng.randint(1, k - 1)
            while True:
                rows = [
                    [
                        0 if i < l <= j else rng.randint(-4, 4)
                        for j in range(k)
                    ]
                    for i in range(k)
                ]
                if det(freeze(rows)) != 0:
                    break
            f = MonomialMap(rows, l)
            for p in range(k - l + 1):
                assert a_qp_sequence(f, p, p, 6) == lambda_relative_sequence(f, p, 6)

    def test_base_sequence_matches_base_map(self, fib_matrix):
        f = MonomialMap(fib_matrix, 1)
        assert c_p_sequence(f.base_block(), 1, 4) == [1, 2, 4, 8, 16]

    def test_base_sequence_rejects_singular_block(self):
        with pytest.raises(NonDominantError):
            c_p_sequence(((1, 1), (2, 2)), 1, 2)


@given(fibered_maps())
def test_sequences_match_cut_then_pair_definition(f):
    # reference: cut the pullback class by the base power, then pair it
    # against the complementary Kaehler power
    k, l, n_max = f.dim, f.fibration_dim, 5
    space = f.space

    def mixed(c, q, p):
        return pair(mul(c, base_pullback_power(space, l - p + q)),
                    kaehler_power(space, k - l - q))

    for p in range(k + 1):
        classes = pullback_class_sequence(f, p, n_max)
        if p <= k - l:
            assert lambda_relative_sequence(f, p, n_max) == [mixed(c, p, p) for c in classes]
        for q in admissible_q(f, p):
            assert a_qp_sequence(f, q, p, n_max) == [mixed(c, q, p) for c in classes]
        assert b_p_sequence(f, p, n_max) == [
            sum(mixed(c, q, p) for q in admissible_q(f, p)) for c in classes
        ]
