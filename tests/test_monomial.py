import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from dyndeg import intmat, monomial
from dyndeg.cohomology import (
    CohClass,
    DegreeRangeError,
    FibrationError,
    Space,
    base_pullback_power,
    kaehler_power,
    mul,
    pair,
)
from dyndeg.degrees import monomial_engine_profile
from dyndeg.intmat import det, freeze, identity, mat_mul, mat_pow
from dyndeg.monomial import (
    MonomialMap,
    NonDominantError,
    a_qp_sequence,
    admissible_q,
    b_p_sequence,
    c_p_sequence,
    compound,
    lambda_relative_sequence,
    lambda_sequence,
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
        c = pullback_class_sequence(f, 1, 1)[1]
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
        assert pullback_class_sequence(f, 1, 3)[3] == pullback_class_sequence(g, 1, 1)[1]
        assert lambda_sequence(f, 1, 3)[3] == lambda_sequence(g, 1, 1)[1]


class TestRelativeAndMixed:
    def test_relative_growth(self, fib_matrix):
        f = MonomialMap(fib_matrix, 1)
        assert lambda_relative_sequence(f, 1, 4) == [1, 3, 9, 27, 81]
        assert lambda_relative_sequence(f, 0, 3) == [1, 1, 1, 1]

    def test_requires_fibration(self, golden_matrix):
        f = MonomialMap(golden_matrix)
        with pytest.raises(FibrationError):
            lambda_relative_sequence(f, 1, 2)
        with pytest.raises(FibrationError):
            a_qp_sequence(f, 1, 1, 2)
        with pytest.raises(FibrationError):
            b_p_sequence(f, 1, 2)
        with pytest.raises(FibrationError):
            admissible_q(f, 1)

    def test_relative_degree_range(self, fib_matrix):
        f = MonomialMap(fib_matrix, 1)
        with pytest.raises(DegreeRangeError):
            lambda_relative_sequence(f, 2, 2)  # fiber dimension is 1

    def test_mixed_hand_values(self, fib_matrix):
        f = MonomialMap(fib_matrix, 1)
        assert a_qp_sequence(f, 0, 1, 1)[1] == 6
        assert a_qp_sequence(f, 1, 1, 1)[1] == 3

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


@st.composite
def chain_cases(draw):
    """(f, p, n_max) over fibred, unfibred and diagonal maps, every p in 0..k.

    A diagonal map's compound is diagonal, so its largest entry meets the
    slot bound ||C||_inf^n of the packed chain exactly at every n.
    """
    kind = draw(st.sampled_from(["fibred", "unfibred", "diagonal"]))
    if kind == "fibred":
        f = draw(fibered_maps())
    else:
        k = draw(st.integers(1, 4))
        if kind == "diagonal":
            diag = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=k, max_size=k))
            mat = freeze([[d if i == j else 0 for j in range(k)] for i, d in enumerate(diag)])
        else:
            mat = draw(matrices(k, 5))
            assume(det(mat) != 0)
        f = MonomialMap(mat)
    return f, draw(st.integers(0, f.dim)), draw(st.integers(0, 9))


def _classes_from_powers(f, p, powers):
    """sum_S w_S |P_{S,T}| h_T for each compound power P, as in the model."""
    space = f.space
    subsets = compound(f.matrix, p).subsets
    exps = [tuple(int(i in s) for i in range(f.dim)) for s in subsets]
    weights = [kaehler_power(space, p).coeffs[e] for e in exps]
    return [
        CohClass.make(space, p, {
            exps[t]: sum(w * abs(row[t]) for w, row in zip(weights, power))
            for t in range(len(subsets))
        })
        for power in powers
    ]


def _mat_mul_chain(f, p, n_max):
    """Compound powers by full matrix products, the chain the packed rows replace."""
    op = compound(f.matrix, p).matrix
    power, out = identity(len(op)), []
    for _ in range(n_max + 1):
        out.append(power)
        power = mat_mul(op, power)
    return out


@given(chain_cases())
def test_packed_chain_matches_mat_mul_chain_and_minors(case):
    f, p, n_max = case
    classes = pullback_class_sequence(f, p, n_max)
    assert classes == _classes_from_powers(f, p, _mat_mul_chain(f, p, n_max))
    minors = [compound(mat_pow(f.matrix, n), p).matrix for n in range(n_max + 1)]
    assert classes == _classes_from_powers(f, p, minors)


def _per_entry_column_sums(rows, weights, width):
    """The reader the packed one replaced: bias a row by half a slot, split
    its bytes, and take each entry's absolute value on its own."""
    m, half = len(rows), 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * m, "little")
    sums = [0] * m
    for w, row in zip(weights, rows):
        image = (row + bias).to_bytes(m * width, "little")
        for t in range(m):
            sums[t] += w * abs(int.from_bytes(image[t * width:(t + 1) * width], "little") - half)
    return sums


@settings(max_examples=60, deadline=None)
@given(chain_cases(), st.data())
def test_packed_read_matches_per_entry_reader(case, data):
    # a square table of entries up to the slot bound ||C||^n of (f, p, n),
    # drawn towards +-bound, read at the width pullback_class_sequence uses
    f, p, n = case
    op = compound(f.matrix, p)
    m = len(op.subsets)
    bound = max(sum(abs(x) for x in row) for row in op.matrix) ** n
    entry = st.one_of(st.sampled_from([bound, -bound, 0]), st.integers(-bound, bound))
    power = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    exps = [tuple(int(i in s) for i in range(f.dim)) for s in op.subsets]
    weights = [kaehler_power(f.space, p).coeffs[e] for e in exps]
    width = (sum(weights) * bound).bit_length() // 8 + 1
    rows = [sum(x << (8 * width * t) for t, x in enumerate(row)) for row in power]
    sums = monomial._abs_column_sums(rows, weights, width)
    assert sums == _per_entry_column_sums(rows, weights, width)
    assert [CohClass.make(f.space, p, dict(zip(exps, sums)))] == _classes_from_powers(
        f, p, [power])


@pytest.mark.parametrize("matrix, p, n_max", [
    (((-3, 0), (1, 2)), 1, 7),     # (C^n)_00 = (-3)^n = -||C||^n at odd n
    (((-3, 0), (1, 2)), 2, 7),     # 1x1 compound (-6)
    (((-1,),), 1, 0),
    (((-255, 0), (0, 1)), 1, 1),   # |entry| = 255 needs a second byte for the sign
    # p = k: the weighted column sum k! |det|^n meets the bound
    # sum(weights) ||C||^n, and ||C||^n alone fits one byte less
    (((-4, 0, 0), (0, 4, 0), (0, 0, 4)), 3, 1),            # 6 * |-64|
    (((2, 0, 0), (0, 2, 0), (0, 0, -2)), 3, 2),            # 6 * |-8|^2
    (((8, 0, 0, 0), (0, 8, 0, 0), (0, 0, 8, 0), (0, 0, 0, -32)), 4, 1),  # 24 * |-2^14|
    (((-8, 0, 0), (0, 8, 0), (0, 0, 1)), 2, 3),            # diagonal at p = 2
])
def test_packed_chain_at_the_slot_bound(matrix, p, n_max):
    f = MonomialMap(matrix)
    assert pullback_class_sequence(f, p, n_max) == _classes_from_powers(
        f, p, _mat_mul_chain(f, p, n_max))


def test_engine_does_not_multiply_matrices(monkeypatch):
    f = MonomialMap(((2, 0, 0), (1, -3, 0), (0, 1, 2)), 1)
    expected = [pullback_class_sequence(f, p, 8) for p in range(4)]
    profile = monomial_engine_profile(f, 8).to_dict()

    def refuse(*args):
        raise AssertionError("the monomial engine multiplied full matrices")

    monkeypatch.setattr(intmat, "mat_mul", refuse)
    monkeypatch.setattr(monomial, "mat_mul", refuse, raising=False)
    assert [pullback_class_sequence(f, p, 8) for p in range(4)] == expected
    assert monomial_engine_profile(f, 8).to_dict() == profile
