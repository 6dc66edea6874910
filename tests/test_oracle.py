import cmath
import json
import math

import mpmath as mp
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from dyndeg import cli, oracle
from dyndeg.cohomology import (
    CohClass,
    Space,
    degree_exponents,
    kaehler_power,
    mul,
    pair,
)
from dyndeg.intmat import det, freeze, identity
from dyndeg.monomial import MonomialMap, NonDominantError, pullback_class_sequence
from dyndeg.oracle import (
    OracleSizeError,
    RootFindingError,
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

    @given(st.integers(1, 7).flatmap(lambda k: matrices(k, 3)))
    def test_constant_coefficient_is_signed_determinant(self, mat):
        # eigen_degrees reads det(A) from the charpoly instead of eliminating
        k = len(mat)
        d = (-1) ** k * charpoly(mat)[-1]
        assert d == det(mat)
        if d == 0:
            with pytest.raises(NonDominantError):
                eigen_degrees(mat)

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


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _sympy_split(poly):
    """The reference split: sympy's square-free decomposition over ZZ."""
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(poly), x, domain=sympy.ZZ).sqf_list()
    return sorted(([int(c) for c in f.all_coeffs()], m) for f, m in factors)


def _cold_moduli(poly):
    """The cold-start route: sympy's split, mpmath's own starting points."""
    moduli = []
    with mp.workdps(60):
        for coeffs, multiplicity in _sympy_split(poly):
            for r in mp.polyroots(coeffs, maxsteps=600, extraprec=200):
                moduli.extend([float(abs(r))] * multiplicity)
    return sorted(moduli)


_small_factors = st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(
    lambda c: c[0] != 0
)
# (b x - a)(b x - a - 1): two roots 1/b apart
_clustered_pairs = st.tuples(st.integers(-50, 50), st.integers(10**3, 10**6)).map(
    lambda ab: _poly_mul([ab[1], -ab[0]], [ab[1], -ab[0] - 1])
)


@st.composite
def integer_polys(draw):
    """Integer polynomials of degree 1..8, often with q^2 and clustered roots."""
    q = draw(_small_factors)
    parts = [q, q] if draw(st.booleans()) else [q]
    if draw(st.booleans()):
        parts.append(draw(_clustered_pairs))
    parts += draw(st.lists(_small_factors, max_size=3))
    poly = [1]
    for part in parts:
        if len(poly) + len(part) - 2 > 8:
            break
        poly = _poly_mul(poly, part)
    return tuple(poly)


@pytest.fixture
def fresh_moduli():
    oracle._root_moduli.cache_clear()
    yield
    oracle._root_moduli.cache_clear()


def _counted_polyroots(monkeypatch, fail_warm=False, fail_cold=False):
    """Replace mp.polyroots; returns the list of roots_init it was given."""
    real = mp.polyroots
    seen = []

    def polyroots(coeffs, **kwargs):
        seen.append(kwargs.get("roots_init"))
        warm = kwargs.get("roots_init") is not None
        if (fail_warm and warm) or (fail_cold and not warm):
            raise mp.mp.NoConvergence("forced")
        return real(coeffs, **kwargs)

    monkeypatch.setattr(oracle.mp, "polyroots", polyroots)
    return seen


class TestRootModuli:
    @settings(max_examples=200)
    @given(integer_polys())
    def test_matches_cold_start_exactly(self, poly):
        assert sorted(oracle._root_moduli.__wrapped__(poly)) == _cold_moduli(poly)

    def test_clustered_and_repeated_hand_case(self):
        poly = tuple(_poly_mul(_poly_mul([1, -3], [1, -3]),
                               _poly_mul([10**6, -7], [10**6, -8])))
        got = sorted(oracle._root_moduli.__wrapped__(poly))
        assert got == _cold_moduli(poly)
        assert got == [7e-6, 8e-6, 3.0, 3.0]

    def test_memo_shares_transpose(self, monkeypatch, fresh_moduli):
        # charpoly (t - 2)(t - 3)^2: square-free factors t - 2 and t - 3
        mat = ((3, 0, 0), (1, 3, 0), (1, 1, 2))
        transpose = tuple(zip(*mat))
        assert charpoly(mat) == charpoly(transpose)
        seen = _counted_polyroots(monkeypatch)
        first = eigen_degrees(mat)
        assert eigen_degrees(transpose) == first
        assert len(seen) == 2
        assert isinstance(oracle._root_moduli(charpoly(mat)), tuple)
        oracle._root_moduli.cache_clear()
        assert eigen_degrees(mat) == first
        assert len(seen) == 4

    def test_no_convergence_raises(self, monkeypatch, golden_matrix, fresh_moduli):
        seen = _counted_polyroots(monkeypatch, fail_warm=True, fail_cold=True)
        with pytest.raises(RootFindingError, match="did not converge"):
            eigen_degrees(golden_matrix)
        assert len(seen) == 2
        assert seen[0] is not None and seen[1] is None

    def test_no_convergence_exits_engine(self, monkeypatch, tmp_path, capsys,
                                         fresh_moduli):
        job = tmp_path / "monomial.json"
        job.write_text(json.dumps({"type": "monomial", "matrix": [[2, 0], [1, 3]],
                                   "fibration_dim": 1, "n_max": 10}))
        _counted_polyroots(monkeypatch, fail_warm=True, fail_cold=True)
        code = cli.main(["degrees", "--input", str(job)])
        assert code == cli.EXIT_ENGINE == 2
        assert "computation error:" in capsys.readouterr().err

    def test_failed_warm_start_retries_cold(self, monkeypatch, fresh_moduli):
        poly = charpoly(((2, 1, 0), (1, 1, 1), (0, 3, 1)))
        expected = _cold_moduli(poly)
        seen = _counted_polyroots(monkeypatch, fail_warm=True)
        assert sorted(oracle._root_moduli(poly)) == expected
        assert len(seen) == 2
        assert seen[0] is not None and seen[1] is None

    @pytest.mark.parametrize("start", [7 + 7j, complex("nan")])
    def test_nonsense_start_keeps_cold_moduli(self, monkeypatch, fresh_moduli, start):
        poly = charpoly(((2, 1, 0), (1, 1, 1), (0, 3, 1)))
        expected = _cold_moduli(poly)
        monkeypatch.setattr(oracle, "_aberth_start",
                            lambda coeffs: [start] * (len(coeffs) - 1))
        seen = _counted_polyroots(monkeypatch)
        assert sorted(oracle._root_moduli(poly)) == expected
        if cmath.isnan(start):
            assert seen == [None]  # a non-finite start is never passed on

    def test_perturbed_moduli_trip_residual_guard(self, monkeypatch, golden_matrix):
        real = oracle._root_moduli
        monkeypatch.setattr(oracle, "_root_moduli",
                            lambda poly: tuple(m * (1 + 1e-6) for m in real(poly)))
        with pytest.raises(RootFindingError, match="misses"):
            eigen_degrees(golden_matrix)


@st.composite
def factored_polys(draw):
    """Degree <= 8, any content and sign, zero roots, small factors up to cubes."""
    poly = [draw(st.integers(-12, 12).filter(bool))] + [0] * draw(st.integers(0, 2))
    for q, power in draw(st.lists(st.tuples(_small_factors, st.integers(1, 3)),
                                  min_size=1, max_size=4)):
        if len(poly) - 1 + power * (len(q) - 1) <= 8:
            for _ in range(power):
                poly = _poly_mul(poly, q)
    return tuple(poly)


@st.composite
def block_triangular_charpolys(draw):
    """Characteristic polynomials of [[A, 0], [C, B]], often with B = A."""
    k = draw(st.integers(1, 4))
    a = draw(matrices(k, 3))
    b = a if draw(st.booleans()) else draw(matrices(draw(st.integers(1, 8 - k)), 3))
    c = draw(matrices(max(k, len(b)), 3))
    top = [list(row) + [0] * len(b) for row in a]
    bottom = [list(c[i][:k]) + list(row) for i, row in enumerate(b)]
    return charpoly(top + bottom)


class TestSquareFreeSplit:
    @settings(max_examples=300)
    @given(st.one_of(factored_polys(), block_triangular_charpolys()))
    def test_matches_sympy_sqf_list(self, poly):
        assert sorted(oracle._square_free_split(poly)) == _sympy_split(poly)

    def test_hand_cases(self):
        # -2 x^2 (x - 1)^3 (2x + 3): content, sign, a zero root and a cube
        poly = [-2, 0, 0]
        for q in ([1, -1], [1, -1], [1, -1], [2, 3]):
            poly = _poly_mul(poly, q)
        assert oracle._square_free_split(poly) == [([2, 3], 1), ([1, 0], 2), ([1, -1], 3)]
        assert oracle._square_free_split((1, -3, 1)) == [([1, -3, 1], 1)]
        assert oracle._square_free_split((5,)) == []


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
