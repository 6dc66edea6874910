import itertools
import json
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from dyndeg import cli, intmat, monomial, suite
from dyndeg.cohomology import (
    CohClass,
    DegreeRangeError,
    FibrationError,
    Space,
    base_pullback_power,
    kaehler_power,
    mixed_window,
    mul,
    pair,
)
from dyndeg.degrees import monomial_engine_profile
from dyndeg.intmat import det, freeze, identity, mat_mul, submatrix
from dyndeg.monomial import (
    CompoundOperator,
    MonomialMap,
    NonDominantError,
    a_qp_sequence,
    b_p_sequence,
    c_p_sequence,
    compound,
    compounds,
    lambda_relative_sequence,
    lambda_sequence,
    pullback_class_sequence,
    validate_fibration,
)

matrices = lambda k, bound=4: st.lists(
    st.lists(st.integers(-bound, bound), min_size=k, max_size=k),
    min_size=k,
    max_size=k,
).map(freeze)


def topological_degree(f):
    """|det A|, the topological degree of the monomial map f_A: the
    reference for exact top degrees."""
    return abs(det(f.matrix))


def _mat_pow(a, n):
    """A^n (n >= 0) by binary powering: the reference for the minors of A^n."""
    result = identity(len(a))
    while n:
        if n & 1:
            result = mat_mul(result, a)
        a = mat_mul(a, a)
        n >>= 1
    return result


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
        assert f.base_map() == MonomialMap(((2,),))
        assert f.fiber_map() == MonomialMap(((3,),))
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

    @given(st.integers(2, 4).flatmap(lambda k: matrices(k, 5)), st.integers(1, 4))
    def test_compound_of_a_power_is_the_power_of_the_compound(self, mat, n):
        # singular draws included: C_p(A^n) = C_p(A)^n holds for every A
        for p in range(len(mat) + 1):
            op = compound(mat, p).matrix
            powered = identity(len(op))
            for _ in range(n):
                powered = mat_mul(op, powered)
            assert compound(_mat_pow(mat, n), p).matrix == powered

    @given(st.integers(2, 4).flatmap(lambda k: st.tuples(matrices(k), matrices(k))))
    def test_multiplicative_in_the_matrix(self, pair_of_matrices):
        a, b = pair_of_matrices
        k = len(a)
        for p in range(k + 1):
            lhs = compound(mat_mul(a, b), p).matrix
            rhs = mat_mul(compound(a, p).matrix, compound(b, p).matrix)
            assert lhs == rhs


def _minors_one_by_one(m, p):
    """C_p(m) the direct way: one determinant per pair of p-subsets."""
    subsets = tuple(itertools.combinations(range(len(m)), p))
    return CompoundOperator(
        subsets, tuple(tuple(det(submatrix(m, s, t)) for t in subsets) for s in subsets))


@st.composite
def square_matrices(draw):
    """k <= 6 with entries up to 5 or up to 10**30; rows copied (negated) or
    zeroed, and a transpose, make singular and rank-deficient draws common."""
    k = draw(st.integers(1, 6))
    rows = [list(r) for r in draw(matrices(k, draw(st.sampled_from((5, 10**30)))))]
    for i in draw(st.lists(st.integers(0, k - 1), max_size=k)):
        j = draw(st.integers(0, k - 1))
        rows[i] = [0] * k if i == j else [-x for x in rows[j]]
    if draw(st.booleans()):
        rows = list(zip(*rows))
    return freeze(rows)


@pytest.fixture
def sweeps(monkeypatch):
    """The matrices monomial.compounds sweeps, in call order."""
    swept = []

    def counted(matrix, sweep=monomial.compounds):
        swept.append(freeze(matrix))
        return sweep(matrix)

    monkeypatch.setattr(monomial, "compounds", counted)
    return swept


class TestCompoundSweep:
    @settings(max_examples=150)
    @given(square_matrices())
    def test_sweep_matches_the_minors_one_by_one(self, m):
        ops = compounds(m)
        assert len(ops) == len(m) + 1
        assert ops[0] == CompoundOperator(((),), ((1,),))
        assert ops[-1].matrix == ((det(m),),)
        for p, op in enumerate(ops):
            assert op == _minors_one_by_one(m, p)
            assert compound(m, p) == op

    def test_error_paths(self):
        for bad in (((1, 2),), ((1, 2), (3,))):
            with pytest.raises(ValueError):
                compounds(bad)
            with pytest.raises(ValueError):
                compound(bad, 5)
        with pytest.raises(ValueError):
            compounds(())
        for p in (-1, 3):
            with pytest.raises(DegreeRangeError):
                compound(((1, 2), (3, 4)), p)


_FIBRED_5_2 = [[2, 1, 0, 0, 0], [1, 1, 0, 0, 0], [1, 0, 2, 1, 0], [0, 1, 1, 2, 1],
               [1, 1, 0, 1, 3]]


@pytest.mark.parametrize("command", ["degrees", "sequence", "verify-product"])
def test_fibred_job_sweeps_the_map_and_its_base_block_once(sweeps, tmp_path, capsys, command):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"type": "monomial", "matrix": _FIBRED_5_2,
                                "fibration_dim": 2, "n_max": 12}))
    assert cli.main([command, "--input", str(path)]) == 0
    capsys.readouterr()
    assert sweeps == [freeze(_FIBRED_5_2), ((2, 1), (1, 1))]


def test_suite_sweeps_each_drawn_matrix_once(sweeps):
    # a, b and a*b per multiplicativity pair, f and its fiber map per
    # mixed-extreme draw, f per summed-sequence draw.  Distinct draws may
    # share a matrix (1x1 fiber blocks do), and each sweeps it anew.
    assert suite.run_suite(seed=0, n_max=40).passed
    assert len(sweeps) == 3 * 100 + 2 * 30 + 12


class TestPullbacks:
    def test_golden_mean_growth(self, golden_matrix):
        f = MonomialMap(golden_matrix)
        assert lambda_sequence(f, 1, 3) == [2, 5, 13, 34]
        assert lambda_sequence(f, 2, 3) == [2, 2, 2, 2]

    def test_pullback_class_hand_value(self, fib_matrix):
        f = MonomialMap(fib_matrix, 1)
        c = pullback_class_sequence(f, 1, 1)[1]
        assert dict(c.terms) == {(1, 0): 3, (0, 1): 3}

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
        g = MonomialMap(_mat_pow(golden_matrix, 3))
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
            mixed_window(f.space, 1)

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
        assert list(mixed_window(f.space, 1)) == [0, 1]
        assert list(mixed_window(f.space, 2)) == [1]
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
        for q in mixed_window(f.space, p):
            assert a_qp_sequence(f, q, p, n_max) == [mixed(c, q, p) for c in classes]
        assert b_p_sequence(f, p, n_max) == [
            sum(mixed(c, q, p) for q in mixed_window(f.space, p)) for c in classes
        ]


@st.composite
def chain_cases(draw):
    """(f, p, n_max) over fibred, unfibred and diagonal maps, every p in 0..k.

    A diagonal map's compound is diagonal, so its weighted column sums grow
    by exactly the growth bound kappa at every iterate, and the packed chain
    re-slots where the next iterate would first overflow.  n_max runs to 40
    for k <= 3, which crosses several re-slots.
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
    return f, draw(st.integers(0, f.dim)), draw(st.integers(0, 40 if f.dim <= 3 else 9))


def _weights(f, p):
    """The exponents of the p-subsets and their coefficients in omega^p."""
    exps = [tuple(int(i in s) for i in range(f.dim)) for s in compound(f.matrix, p).subsets]
    coeffs = dict(kaehler_power(f.space, p).terms)
    return exps, [coeffs[e] for e in exps]


def _classes_from_powers(f, p, powers):
    """sum_S w_S |P_{S,T}| h_T for each compound power P, with w_S the
    coefficients of omega^p, as in the model."""
    space = f.space
    exps, weights = _weights(f, p)
    return [
        CohClass.make(space, p, {
            exps[t]: sum(w * abs(row[t]) for w, row in zip(weights, power))
            for t in range(len(exps))
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


def _fixed_width_chain(f, p, n_max):
    """The packed chain at one slot width for every iterate, sized by
    ||C||_inf^n_max, and read entry by entry at the weights of omega^p:
    the route the growing slots and the packed reader replaced."""
    op = compound(f.matrix, p)
    exps, weights = _weights(f, p)
    m = len(exps)
    norm = max(sum(abs(x) for x in row) for row in op.matrix)
    width = (norm**n_max).bit_length() // 8 + 1
    rows, out = [1 << (8 * width * i) for i in range(m)], []
    for _ in range(n_max + 1):
        out.append(CohClass.make(f.space, p, dict(zip(exps, _per_entry_column_sums(
            rows, weights, width)))))
        rows = [sum(c * rows[j] for j, c in enumerate(row) if c) for row in op.matrix]
    return out


@given(chain_cases())
def test_packed_chain_matches_mat_mul_chain_and_minors(case):
    f, p, n_max = case
    classes = pullback_class_sequence(f, p, n_max)
    assert classes == _classes_from_powers(f, p, _mat_mul_chain(f, p, n_max))
    minors = [compound(_mat_pow(f.matrix, n), p).matrix for n in range(n_max + 1)]
    assert classes == _classes_from_powers(f, p, minors)
    assert classes == _fixed_width_chain(f, p, n_max)


@given(chain_cases(), st.data())
def test_prefix_does_not_depend_on_n_max(case, data):
    # the lookahead sizes slots from n_max - n, so the width path differs
    f, p, n_max = case
    n = data.draw(st.integers(0, n_max))
    assert pullback_class_sequence(f, p, n_max)[:n + 1] == pullback_class_sequence(f, p, n)


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
    # a square table of entries up to ||C||_inf^n of (f, p, n), drawn
    # towards +-bound, read at the fixed width whose slots hold a column's
    # m * bound under a sign bit
    f, p, n = case
    op = compound(f.matrix, p)
    m = len(op.subsets)
    bound = max(sum(abs(x) for x in row) for row in op.matrix) ** n
    entry = st.one_of(st.sampled_from([bound, -bound, 0]), st.integers(-bound, bound))
    power = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    exps, _ = _weights(f, p)
    width = (m * bound).bit_length() // 8 + 1
    rows = [sum(x << (8 * width * t) for t, x in enumerate(row)) for row in power]
    bias = monomial._fill(1 << (8 * width - 1), m, width)
    sums = monomial._abs_column_sums(rows, width, bias)
    assert sums == _per_entry_column_sums(rows, [1] * m, width)
    scaled = {e: math.factorial(p) * s for e, s in zip(exps, sums)}
    assert [CohClass.make(f.space, p, scaled)] == _classes_from_powers(f, p, [power])


@pytest.mark.parametrize("matrix, p, n_max", [
    (((-3, 0), (1, 2)), 1, 7),     # (C^n)_00 = (-3)^n at odd n
    (((-3, 0), (1, 2)), 2, 7),     # 1x1 compound (-6)
    (((-1,),), 1, 0),
    (((-255, 0), (0, 1)), 1, 1),   # |entry| = 255 needs a second byte for the sign
    # p = k: the weighted column sum k! |det|^n grows by exactly kappa = |det|,
    # and |det|^n alone fits one byte less
    (((-4, 0, 0), (0, 4, 0), (0, 0, 4)), 3, 1),            # 6 * |-64|
    (((2, 0, 0), (0, 2, 0), (0, 0, -2)), 3, 2),            # 6 * |-8|^2
    (((8, 0, 0, 0), (0, 8, 0, 0), (0, 0, 8, 0), (0, 0, 0, -32)), 4, 1),  # 24 * |-2^14|
    (((-8, 0, 0), (0, 8, 0), (0, 0, 1)), 2, 3),            # diagonal at p = 2
    # kappa met exactly at every iterate, across re-slots
    (((-2, 0), (0, 1)), 1, 40),    # (-2)^n: re-slots at n = 14, 22, 30, 38
    (((-255,),), 1, 20),           # (-255)^n
    (((2, 0, 0), (0, 2, 0), (0, 0, -2)), 3, 20),           # 6 * 8^n: first re-slot at n = 9
])
def test_packed_chain_at_the_slot_bound(matrix, p, n_max):
    f = MonomialMap(matrix)
    assert pullback_class_sequence(f, p, n_max) == _classes_from_powers(
        f, p, _mat_mul_chain(f, p, n_max))


def test_reslots_where_the_next_iterate_would_not_fit(monkeypatch):
    # kappa = 2 and s(n) = 2^n: slots start at 2 bytes for 2^8, and the check
    # at n fails first when 2 * 2^n reaches half the slot, 2^(8W-1)
    widths = []

    def recorded(rows, width, bias, wider, reslot=monomial._reslot):
        widths.append((width, wider))
        return reslot(rows, width, bias, wider)

    monkeypatch.setattr(monomial, "_reslot", recorded)
    f = MonomialMap(((-2, 0), (0, 1)))
    classes = pullback_class_sequence(f, 1, 40)
    assert widths == [(2, 3), (3, 4), (4, 5), (5, 6)]
    assert [c.coeff((1, 0)) for c in classes] == [2**n for n in range(41)]


@pytest.mark.parametrize("width, wider", [(1, 2), (1, 4), (2, 3), (3, 7)])
def test_reslot_round_trips_signed_slots(width, wider):
    half = 1 << (8 * width - 1)
    entries = [0, 1, -1, half - 1, -(half - 1), -half]
    table = [entries[i:] + entries[:i] for i in range(len(entries))]  # each entry in each slot
    pack = lambda w, xs: sum(x << (8 * w * t) for t, x in enumerate(xs))
    bias = monomial._fill(half, len(table), width)
    assert monomial._reslot([pack(width, r) for r in table], width, bias, wider) == [
        pack(wider, r) for r in table]


def test_growth_bound_is_the_largest_column_sum():
    assert monomial._growth_bound(((1, 1), (0, 1))) == 2
    # the largest absolute row sum is 3
    assert monomial._growth_bound(((-3, 0), (1, 2))) == 4


@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    matrices(m, 9), st.lists(st.integers(-50, 50), min_size=m, max_size=m))))
def test_growth_bound_bounds_one_step(case):
    c, x = case
    kappa = monomial._growth_bound(c)
    s = lambda v: sum(abs(vi) for vi in v)
    assert s([sum(cij * xj for cij, xj in zip(row, x)) for row in c]) <= kappa * s(x)
    columns = [s([row[j] for row in c]) for j in range(len(c))]
    assert all(kappa >= sj for sj in columns)
    assert any(kappa - 1 < sj for sj in columns)  # the least such


@pytest.mark.parametrize("k", range(1, 9))
def test_every_kaehler_coefficient_on_lines_is_p_factorial(k):
    # pullback_class_sequence scales its column sums by this one weight
    space = Space((1,) * k)
    for p in range(k + 1):
        coeffs = dict(kaehler_power(space, p).terms)
        assert len(coeffs) == math.comb(k, p)
        assert set(coeffs.values()) == {math.factorial(p)}


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
