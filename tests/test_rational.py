import contextlib
import decimal
import io
import itertools
import json
import math
import random
import sys
import warnings
from fractions import Fraction
from functools import reduce

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rings import ring

from dyndeg import cli, degrees, rational
from dyndeg.cohomology import (
    CohClass,
    FibrationError,
    Space,
    alpha,
    base_pullback_power,
    kaehler_power,
    mul,
    pair,
)
from dyndeg.intmat import det
from dyndeg.monomial import MonomialMap, lambda_sequence
from dyndeg.oracle import pair_oracle
from dyndeg.rational import (
    CompositionCollapseError,
    DominanceWarning,
    IterateData,
    MultiHomPoly,
    RationalMapDesc,
    _certify_coprime,
    _dict_mul,
    _kron_mul,
    _strip_monomial_and_content,
    base_map,
    check_dominance,
    compose,
    fiber_degree_sequence,
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


def var(space, factor, index):
    """The variable x_{factor,index}, built through make."""
    start, _ = variable_layout(space)[factor]
    e = [0] * num_variables(space)
    e[start + index] = 1
    return poly(space, {tuple(e): 1})


def add(*polys):
    """The sum of polynomials on one space, by make on their homogeneous views."""
    return poly(polys[0].space, [t for p in polys for t in p.homogeneous_terms()])


def identity(space):
    return RationalMapDesc(space, tuple(
        tuple(var(space, i, j) for j in range(n + 1)) for i, n in enumerate(space.factors)
    ))


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


def _packed_ends(space):
    """u and v of _kron_box: the first and the last packed variable."""
    layout = variable_layout(space)
    keep = [i for start, count in layout for i in range(start, start + count - 1)]
    return keep[0], keep[-1]


def _draw_support(data, space):
    """Which monomials an operand may use: all of them, a band along
    v = u + c or along v = c - u (the diagonals a sheared box fits), or
    those above a corner, so that the operand's minima are not zero."""
    u, v = _packed_ends(space)
    shape = data.draw(st.sampled_from(["all", "v ~ u", "v ~ -u", "corner"]))
    c = data.draw(st.integers(-3, 8))
    if shape == "v ~ u":
        return lambda e: abs(e[v] - e[u] - c) <= 1
    if shape == "v ~ -u":
        return lambda e: abs(e[v] + e[u] - c) <= 1
    if shape == "corner":
        low = data.draw(st.integers(1, 3))
        return lambda e: e[u] >= low and e[v] >= low
    return lambda e: True


def _draw_poly(data, space, multidegree, bound=9, support=None):
    exps = [e for e in _monomials(space, multidegree) if support is None or support(e)]
    assume(exps)
    coeffs = data.draw(
        st.lists(
            st.integers(-bound, bound).filter(bool),
            min_size=1,
            max_size=len(exps),
        )
    )
    picked = data.draw(st.permutations(exps)) [: len(coeffs)]
    return poly(space, dict(zip(picked, coeffs)))


def _kron(p1, p2):
    """_kron_mul in the box MultiHomPoly.__mul__ would choose for it."""
    return _kron_mul(p1, p2, rational._kron_box(p1, p2))


def _bytes_kron_mul(p1, p2):
    """Reference for _kron_mul: Kronecker packing into byte slots of one
    big int per operand, multiplied by int; a bias of half a slot is added
    to every slot of the product and removed again when each slot is read."""
    space = p1.space
    layout = variable_layout(space)
    prod_deg = [a + b for a, b in zip(p1.multidegree, p2.multidegree)]
    keep = [i for start, count in layout for i in range(start, start + count - 1)]
    terms1, terms2 = p1.homogeneous_terms(), p2.homogeneous_terms()
    max_sum = [
        max(e[i] for e, _ in terms1) + max(e[i] for e, _ in terms2) for i in keep
    ]
    strides = [0] * len(keep)
    acc = 1
    for j in range(len(keep) - 1, -1, -1):
        strides[j] = acc
        acc *= max_sum[j] + 1
    slots = acc
    c1max = max(abs(c) for _, c in p1.terms)
    c2max = max(abs(c) for _, c in p2.terms)
    bound = min(len(p1.terms), len(p2.terms)) * c1max * c2max * 2 + 1
    slot_bytes = (bound.bit_length() + 7) // 8
    size = slots * slot_bytes
    half = 1 << (8 * slot_bytes - 1)

    def pack(terms):
        parts = (bytearray(size), bytearray(size))  # positive, negative
        for e, c in terms:
            off = sum(e[i] * s for i, s in zip(keep, strides)) * slot_bytes
            parts[c < 0][off : off + slot_bytes] = abs(c).to_bytes(slot_bytes, "little")
        return int.from_bytes(parts[0], "little") - int.from_bytes(parts[1], "little")

    a = pack(terms1)
    b = a if p2 is p1 else pack(terms2)
    bias = int.from_bytes(half.to_bytes(slot_bytes, "little") * slots, "little")
    raw = (a * b + bias).to_bytes(size, "little")
    acc_terms = {}
    for idx in range(slots):
        off = idx * slot_bytes
        c = int.from_bytes(raw[off : off + slot_bytes], "little") - half
        if c == 0:
            continue
        e = [0] * num_variables(space)
        rem = idx
        for j, i in enumerate(keep):
            e[i], rem = divmod(rem, strides[j])
        for f, (start, count) in enumerate(layout):
            e[start + count - 1] = prod_deg[f] - sum(e[start : start + count - 1])
        acc_terms[tuple(e)] = c
    return poly(space, acc_terms)


def _two_part_pack(placed, width):
    """Reference for rational._pack: the positive part minus the negative
    part, each parsed from its own digit string."""
    top = max(offset for offset, _ in placed)
    parts = (["0" * width] * (top + 1), ["0" * width] * (top + 1))  # positive, negative
    for offset, c in placed:
        parts[c < 0][top - offset] = str(rational._CTX.create_decimal(abs(c))).zfill(width)
    positive, negative = (rational._CTX.create_decimal("".join(part)) for part in parts)
    return rational._CTX.subtract(positive, negative)


def _carry_unpack(digits, width, slots):
    """Reference for rational._unpack: the balanced digits of the decimal
    integer `digits` as (slot, digit) pairs, read from its magnitude with a
    carry into the next slot, or None if they need more than `slots` slots."""
    sign = -1 if digits[0] == "-" else 1
    first = int(sign < 0)
    used = -(-(len(digits) - first) // width)
    if used > slots:
        return None
    base = 10**width
    out = []
    carry = 0
    for idx, end in enumerate(range(len(digits), first, -width)):
        c = int(rational._CTX.create_decimal(digits[max(end - width, first) : end])) + carry
        carry = c >= base // 2
        if carry:
            c -= base
        if c:
            out.append((idx, sign * c))
    if carry:
        if used == slots:
            return None
        out.append((used, sign))
    return out


def _biased_digits(value, width, slots):
    """What _unpack reads: the digits of value + H."""
    return str(rational._CTX.add(value, rational._bias(width, slots)))


def _bench_skew_entry(b, c):
    """The n = 6 fiber entry of the bench-shaped skew product
    (x^2, y^2 + b xy + c x), whose squaring is the bench's largest product."""
    f = RationalMapDesc(P1xP1, (
        (poly(P1xP1, {(2, 0, 0, 0): 1}), poly(P1xP1, {(0, 2, 0, 0): 1})),
        (
            poly(P1xP1, {(1, 0, 2, 0): 1}),
            poly(P1xP1, {(1, 0, 0, 2): 1, (0, 1, 1, 1): b, (0, 1, 2, 0): c}),
        ),
    ), fibration_dim=1)
    g = f
    for _ in range(5):
        g = compose(f, g)
    return g.components[1][1]


def _draw_factor(data, space, multidegree):
    # at least two terms, so the factor is not a monomial the strip removes
    exps = data.draw(st.permutations(list(_monomials(space, multidegree))))
    coeffs = data.draw(
        st.lists(st.integers(-9, 9).filter(bool), min_size=2, max_size=len(exps))
    )
    return poly(space, dict(zip(exps, coeffs)))


def _sympy_gens(space):
    names = []
    for i, n in enumerate(space.factors):
        names.extend(f"x{i}_{j}" for j in range(n + 1))
    return sympy.symbols(names)


# Test-local copies of the homogeneous arithmetic that the stored form
# replaced: a polynomial is a dict from full exponent vectors to nonzero
# coefficients, as dict(p.homogeneous_terms()).


def _h_mul(a, b):
    acc = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def _h_strip(polys):
    """The common monomial, over every homogeneous variable, and the
    integer content divided out."""
    active = [p for p in polys if p]
    nvars = len(next(iter(active[0])))
    mins = [min(e[v] for p in active for e in p) for v in range(nvars)]
    content = math.gcd(*(c for p in active for c in p.values()))
    return [{tuple(x - m for x, m in zip(e, mins)): c // content for e, c in p.items()}
            for p in polys]


def _dense_reduce_tuple(space, polys):
    """Reference for reduce_tuple: the homogeneous strip, then every
    gcd-route tuple through sympy's dense Poly gcd and exquo in all the
    homogeneous variables, with no certificate in front."""
    gens = _sympy_gens(space)

    def to_dense(p):
        return sympy.Poly.from_dict(p, *gens, domain=sympy.ZZ)

    polys = _h_strip([dict(p.homogeneous_terms()) for p in polys])
    active = [p for p in polys if p]
    if len(active) == 1:
        polys = [{(0,) * len(gens): 1} if p else p for p in polys]
    elif all(len(p) > 1 for p in active):
        g = reduce(lambda a, b: a.gcd(b), (to_dense(p) for p in active))
        if not g.is_ground:
            polys = _h_strip([
                {tuple(e): int(c) for e, c in to_dense(p).exquo(g).as_dict().items()} if p else p
                for p in polys
            ])
    first = next(p for p in polys if p)
    sign = -1 if first[max(first)] < 0 else 1
    return tuple(poly(space, {e: sign * c for e, c in p.items()}) for p in polys)


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
        assert poly(P2, {(1, 0, 0): 0}) == MultiHomPoly.zero(P2)
        one = MultiHomPoly.constant(P2, 1)
        assert one.multidegree == (0,)
        assert one == poly(P2, {(0, 0, 0): 1})
        assert one.homogeneous_terms() == (((0, 0, 0), 1),)

    def test_variable_and_layout(self):
        assert variable_layout(P1xP1) == ((0, 2), (2, 2))
        assert num_variables(P1xP1) == 4
        y1 = poly(P1xP1, {(0, 0, 0, 1): 1})
        assert y1 == var(P1xP1, 1, 1)
        # the last variable of each block is not stored: y1 keeps its degree only
        assert y1.terms == (((0, 0), 1),)
        assert y1.multidegree == (0, 1)
        assert y1.homogeneous_terms() == (((0, 0, 0, 1), 1),)
        with pytest.raises(ValueError, match="needs 4 entries, got 5"):
            poly(P1xP1, {(0, 0, 1, 0, 0): 1})  # a third variable in the first block

    def test_arithmetic_hand_case(self):
        x0 = var(P2, 0, 0)
        x1 = var(P2, 0, 1)
        s = add(x0, x1)
        sq = s * s
        assert dict(sq.homogeneous_terms()) == {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}
        assert add(s, s.scale(-1)).is_zero
        assert s.power(3) == s * s * s
        assert s.power(0) == MultiHomPoly.constant(P2, 1)

    def test_derivative_and_evaluate(self):
        # check_dominance differentiates and evaluates homogeneous views
        p = poly(P2, {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}).homogeneous_terms()
        dp = rational._derivative(p, 0)
        assert dict(dp) == {(1, 0, 0): 2, (0, 1, 0): 2}
        assert rational._derivative(p, 2) == []
        assert rational._evaluate(p, (2, 3, 7)) == 25
        assert rational._evaluate(dp, (2, 3, 7)) == 10
        assert rational._evaluate(p, (Fraction(1, 2), Fraction(1, 2), 0)) == 1

    @given(st.data())
    def test_kronecker_multiplication_matches_dict(self, data):
        space = data.draw(st.sampled_from(
            [Space((1, 1)), P2, Space((1, 2)), Space((1, 1, 1))]))
        bound = data.draw(st.sampled_from([9, 2**100]))
        # P^1 x P^1 and P^2 reach degree 8, the wider spaces keep 6
        top = 8 if num_variables(space) <= 4 else 6
        degs1 = tuple(data.draw(st.integers(0, top)) for _ in space.factors)
        degs2 = tuple(data.draw(st.integers(0, top)) for _ in space.factors)
        support = _draw_support(data, space)
        p1 = _draw_poly(data, space, degs1, bound, support)
        shape = data.draw(st.sampled_from(["square", "other", "negated", "difference"]))
        if shape == "square":
            # the same object on both sides takes the squaring path
            p2 = p1
        elif shape == "other":
            p2 = _draw_poly(data, space, degs2, bound, support)
        elif shape == "negated":
            # -(p1^2): the top slot is negative
            p2 = p1.scale(-1)
        else:
            # (p + q)(p - q) = p^2 - q^2 cancels whole slots
            q = _draw_poly(data, space, degs1, bound, support)
            p1, p2 = add(p1, q), add(p1, q.scale(-1))
            assume(not p1.is_zero and not p2.is_zero)
        product = _kron(p1, p2).terms
        assert product == _dict_mul(p1, p2).terms
        assert product == _bytes_kron_mul(p1, p2).terms

    @pytest.mark.parametrize("space", [P1xP1, P2, Space((1, 2)), Space((1, 1, 1))],
                             ids=["P1xP1", "P2", "P1xP2", "P1xP1xP1"])
    @pytest.mark.parametrize("support, shear", [
        # v - u in {0, 1} spans 1 where v spans 6: v -> v - u
        pytest.param(lambda e, u, v: 0 <= e[v] - e[u] <= 1, -1, id="v~u"),
        # v + u in {5, 6}: v -> v + u
        pytest.param(lambda e, u, v: 5 <= e[v] + e[u] <= 6, 1, id="v~-u"),
        # minima 2 and 3 to offset, and no diagonal narrower than v
        pytest.param(lambda e, u, v: e[u] >= 2 and e[v] >= 3, 0, id="corner"),
    ])
    def test_kronecker_shears_along_the_narrowest_diagonal(self, space, support, shear):
        u, v = _packed_ends(space)
        rng = random.Random(23)
        p, q = (
            poly(space, {
                e: rng.choice((-1, 1)) * rng.randrange(1, 10**6)
                for e in _monomials(space, (6,) * len(space.factors)) if support(e, u, v)
            })
            for _ in range(2)
        )
        assert rational._kron_box(p, q).shear == shear
        for a, b in ((p, q), (p, p)):
            assert _kron(a, b).terms == _dict_mul(a, b).terms

    def test_kronecker_box_overflow_is_named(self):
        space = Space((1, 1))
        p = poly(space, {e: 1 + i for i, e in enumerate(_monomials(space, (3, 3)))})
        box = rational._kron_box(p, p)
        with pytest.raises(AssertionError, match="overflows its box of 1 slots"):
            _kron_mul(p, p, box._replace(slots=1))

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int/str digit limit")
    def test_kronecker_ignores_int_max_str_digits(self):
        # ~700-digit coefficients make slots of ~1,400 digits; int <-> str
        # refuses both above the limit, so the slots convert through decimal
        space = Space((1, 1))
        rng = random.Random(41)
        monomials = list(_monomials(space, (4, 7)))
        p, q = (
            poly(space, {e: rng.randrange(-10**700, 10**700) for e in monomials})
            for _ in range(2)
        )
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert _kron(p, p).terms == _dict_mul(p, p).terms
            product = _kron(p, q)
            assert product.terms == _dict_mul(p, q).terms
            assert rational._exquo(dict(product.terms), dict(p.terms)) == dict(q.terms)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_kronecker_ignores_the_thread_decimal_context(self):
        space = Space((1, 1))
        rng = random.Random(5)
        monomials = list(_monomials(space, (5, 6)))
        p, q = (
            poly(space, {e: rng.randrange(-10**6, 10**6) for e in monomials})
            for _ in range(2)
        )
        before = repr(decimal.getcontext())
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            narrow = repr(ctx)
            assert _kron(p, p).terms == _dict_mul(p, p).terms
            assert _kron(p, q).terms == _dict_mul(p, q).terms
            # no operation ran in this context: no flag was raised in it
            assert repr(decimal.getcontext()) == narrow
        assert repr(decimal.getcontext()) == before

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


def _cli_exit(tmp_dir, space, entry):
    """cli.main's exit code on the identity map of space with its first
    entry replaced by the coeffs list `entry`."""
    components = [
        [{"coeffs": [[list(e), c] for e, c in var(space, i, j).homogeneous_terms()]}
         for j in range(n + 1)]
        for i, n in enumerate(space.factors)
    ]
    components[0][0] = {"coeffs": entry}
    path = tmp_dir / "job.json"
    path.write_text(json.dumps({"type": "rational", "factors": list(space.factors),
                                "components": components, "n_max": 2}))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["sequence", "--input", str(path)])


class TestMakeFuzz:
    """make is the one validator: it reads full vectors from job input."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from([Space((1,)), P2, P1xP1, Space((1, 2))]),
           st.sampled_from(["valid", "length", "negative", "degree", "type"]))
    def test_make_validates_and_round_trips(self, tmp_path_factory, data, space, flaw):
        nvars = num_variables(space)
        degs = tuple(data.draw(st.integers(0, 3)) for _ in space.factors)
        pairs = data.draw(st.lists(st.tuples(
            st.sampled_from(list(_monomials(space, degs))), st.integers(-3, 3)), max_size=8))
        if flaw == "valid":
            merged = {}
            for e, c in pairs:
                merged[e] = merged.get(e, 0) + c
            p = MultiHomPoly.make(space, pairs)
            expected = tuple(sorted((e, c) for e, c in merged.items() if c))
            assert p.homogeneous_terms() == expected
            assert p.multidegree == (degs if expected else None)
            assert MultiHomPoly.make(space, expected) == p
            return
        # a zero value checks the vector too
        value = data.draw(st.integers(-3, 3))
        if flaw == "length":
            size = data.draw(st.integers(0, nvars + 3).filter(lambda n: n != nvars))
            bad = tuple(data.draw(st.integers(0, 3)) for _ in range(size))
        elif flaw == "negative":
            bad = list(data.draw(st.sampled_from(list(_monomials(space, degs)))))
            bad[data.draw(st.integers(0, nvars - 1))] = data.draw(st.integers(-3, -1))
            bad = tuple(bad)
        elif flaw == "type":
            # a float, bool or str where an int goes, in the vector or the value
            bad = list(data.draw(st.sampled_from(list(_monomials(space, degs)))))
            retype = data.draw(st.sampled_from([float, bool, str]))
            slot = data.draw(st.integers(0, nvars))
            if slot == nvars:
                value = retype(value)
            else:
                bad[slot] = retype(bad[slot])
            bad = tuple(bad)
        else:
            # a term of another multidegree survives beside a surviving one
            other = tuple(d + data.draw(st.integers(1, 2)) for d in degs)
            bad = data.draw(st.sampled_from(list(_monomials(space, other))))
            value = data.draw(st.integers(-3, 3).filter(bool))
            pairs = [(e, c) for e, c in pairs if c] or [(next(_monomials(space, degs)), 1)]
            assume(MultiHomPoly.make(space, pairs).terms)
        pairs.insert(data.draw(st.integers(0, len(pairs))), (bad, value))
        with pytest.raises(ValueError):
            MultiHomPoly.make(space, pairs)
        entry = [[list(e), c] for e, c in pairs]
        assert _cli_exit(tmp_path_factory.mktemp("make"), space, entry) == 1


class TestMultiplicationRoute:
    @pytest.fixture
    def routes(self, monkeypatch):
        """The calls that reach _dict_mul and _kron_mul, by name."""
        calls = []
        for name in ("_dict_mul", "_kron_mul"):
            def record(*args, _name=name, _original=getattr(rational, name)):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(rational, name, record)
        return calls

    def test_monomial_operand_is_a_shift(self, routes):
        space = Space((1, 1))
        p = poly(space, {e: 2 * i - 11 for i, e in enumerate(_monomials(space, (2, 3)))})
        m = poly(space, {(1, 2, 0, 3): -7})
        for a, b in ((p, m), (m, p), (m, m), (m.scale(-1), p)):
            assert (a * b).terms == _dict_mul(a, b).terms
        assert routes == []

    def test_sparse_wide_product_stays_off_the_packer(self, routes):
        # 40 x 40 terms of bidegree (400, 400): a box of about 600,000
        # slots for 1,600 cross terms
        rng = random.Random(400)
        picks = rng.sample(range(401 * 401), 80)
        p, q = (
            poly(P1xP1, {
                (i // 401, 400 - i // 401, i % 401, 400 - i % 401): rng.randrange(-9, 10) or 1
                for i in half
            })
            for half in (picks[:40], picks[40:])
        )
        assert len(p.terms) * len(q.terms) > rational._KRON_THRESHOLD
        assert (p * q).terms == _dict_mul(p, q).terms
        assert routes == ["_dict_mul"]

    def test_dense_product_takes_the_packer(self, routes):
        rng = random.Random(50)
        p, q = (
            poly(P1xP1, {e: rng.randrange(-99, 100) or 1 for e in _monomials(P1xP1, (4, 9))})
            for _ in range(2)
        )
        assert len(p.terms) == len(q.terms) == 50
        assert (p * q).terms == _dict_mul(p, q).terms
        assert (p * p).terms == _dict_mul(p, p).terms
        assert routes == ["_kron_mul", "_kron_mul"]

    def test_sheared_box_halves_the_skew_iterates(self):
        # a deterministic work count: the slots the n = 6 fiber entry's
        # squaring packs, against the unsheared box from zero, for the
        # bench-shaped skew product (x^2, y^2 + 2xy + 4x)
        entry = _bench_skew_entry(2, 4)
        u, v = _packed_ends(P1xP1)
        terms = entry.homogeneous_terms()
        unsheared = math.prod(2 * max(e[i] for e, _ in terms) + 1 for i in (u, v))
        box = rational._kron_box(entry, entry)
        assert (len(entry.terms), unsheared) == (1088, 16383)
        assert box.shear == 1
        assert box.slots <= 0.51 * unsheared


class TestKroneckerSlots:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pack_then_unpack_returns_the_placed_slots(self, data):
        width = data.draw(st.integers(1, 70))
        half = 10**width // 2
        top = data.draw(st.integers(0, 30))
        offsets = data.draw(st.sets(st.integers(0, top), max_size=8)) | {top}
        coefficient = st.one_of(
            st.integers(-(half - 1), half - 1),
            st.sampled_from([half - 1, 1 - half, 1, -1]),
        ).filter(bool)
        placed = [(offset, data.draw(coefficient)) for offset in sorted(offsets)]
        if data.draw(st.booleans()):
            # a negative top slot: its biased digit may be shorter than a slot
            placed[-1] = (top, -data.draw(st.integers(1, half - 1)))
        slots = top + 1 + data.draw(st.sampled_from([0, 0, 1, 3]))
        value = rational._pack(placed, width)
        assert value == _two_part_pack(placed, width)
        read = rational._unpack(_biased_digits(value, width, slots), width, slots, range(slots))
        assert read == placed
        assert read == _carry_unpack(str(value), width, slots)
        # one slot too long, for either sign
        for sign in (1, -1):
            longer = rational._pack([*placed, (slots, sign * data.draw(coefficient.map(abs)))],
                                    width)
            assert rational._unpack(
                _biased_digits(longer, width, slots), width, slots, range(slots)) is None
            assert _carry_unpack(str(longer), width, slots) is None

    @pytest.mark.parametrize("sign", [1, -1], ids=["plus", "alternating"])
    def test_central_coefficient_at_the_slot_bound(self, sign):
        # 1118^2 (1 + x + x^2 + x^3)^2 has central coefficient 4 * 1118^2 =
        # 4,999,696; the slots are 7 digits, half of 10**7 is 5,000,000, and
        # the biased digit is 9,999,696, or 304 with alternating signs
        p1 = Space((1,))
        p = poly(p1, {(k, 3 - k): 1118 * sign**k for k in range(4)})
        product = _kron(p, p)
        assert product.terms == _dict_mul(p, p).terms
        assert dict(product.homogeneous_terms())[(3, 3)] == sign * 4_999_696

    @pytest.mark.parametrize("b, c, terms, product_terms", [
        (2, 4, 1088, 4222), (5, -1, 1072, 4158),
    ])
    def test_bench_largest_product_matches_byte_slots(self, b, c, terms, product_terms):
        entry = _bench_skew_entry(b, c)
        square = _kron(entry, entry)
        assert (len(entry.terms), len(square.terms)) == (terms, product_terms)
        assert square.terms == _bytes_kron_mul(entry, entry).terms


class TestReduceTuple:
    def test_strips_common_monomial_and_content(self):
        x0 = var(P2, 0, 0)
        x1 = var(P2, 0, 1)
        reduced = reduce_tuple(P2, (x0 * x0.scale(4), (x0 * x1).scale(6), MultiHomPoly.zero(P2)))
        assert reduced[0] == x0.scale(2)
        assert reduced[1] == x1.scale(3)
        assert reduced[2].is_zero

    def test_polynomial_common_factor(self):
        x0 = var(P2, 0, 0)
        x1 = var(P2, 0, 1)
        s = add(x0, x1)
        reduced = reduce_tuple(P2, (s * x0, s * x1))
        assert reduced == (x0, x1)
        # re-multiplying by the factor recovers the originals
        assert reduced[0] * s == s * x0

    def test_single_active_entry_collapses_to_constant(self):
        x2 = var(P2, 0, 2)
        zero = MultiHomPoly.zero(P2)
        reduced = reduce_tuple(P2, (zero, x2.power(4), zero))
        assert reduced[1] == MultiHomPoly.constant(P2, 1)

    def test_sign_normalization(self):
        x0 = var(P2, 0, 0)
        x1 = var(P2, 0, 1)
        assert reduce_tuple(P2, (x0.scale(-1), x1.scale(-1))) == (x0, x1)

    def test_all_zero_raises(self):
        zero = MultiHomPoly.zero(P2)
        with pytest.raises(CompositionCollapseError):
            reduce_tuple(P2, (zero, zero, zero))

    @settings(max_examples=150)
    @given(st.data())
    def test_matches_dense_sympy_route(self, data):
        space = data.draw(st.sampled_from([Space((1,)), P2, Space((1, 1)), Space((1, 2))]))
        degs = tuple(data.draw(st.integers(0, 2)) for _ in space.factors)
        entries = [
            MultiHomPoly.zero(space) if data.draw(st.integers(0, 4)) == 0
            else _draw_poly(data, space, degs)
            for _ in range(data.draw(st.integers(2, 4)))
        ]
        # the variable the exact gcd sets to 1 in each block is the last one
        layout = variable_layout(space)
        block = data.draw(st.integers(0, len(layout) - 1))
        dropped = [
            var(space, b, count - 1) for b, (_, count) in enumerate(layout)
        ]
        if data.draw(st.booleans()):
            # a dropped variable divides some entries, another variable the rest
            first = var(space, block, 0)
            flags = [True, False] + [data.draw(st.booleans()) for _ in entries[2:]]
            entries = [p * (dropped[block] if flag else first) for p, flag in zip(entries, flags)]
        planted = data.draw(st.booleans())
        if planted:
            g_degs = tuple(data.draw(st.integers(0, 1)) for _ in space.factors)
            if not any(g_degs):
                g_degs = (1,) + g_degs[1:]
            factor = _draw_factor(data, space, g_degs)
            if data.draw(st.booleans()):
                # a factor whose affine image has terms of lower block degree
                corner = reduce(MultiHomPoly.__mul__,
                                (x.power(d) for x, d in zip(dropped, g_degs)))
                # a scale that cancels the corner's own term could leave a monomial
                present = dict(factor.homogeneous_terms()).get(
                    corner.homogeneous_terms()[0][0], 0)
                scale = data.draw(st.integers(-9, 9).filter(lambda c: c and c != -present))
                factor = add(factor, corner.scale(scale))
            entries = [p * factor for p in entries]
        if all(p.is_zero for p in entries):
            entries[0] = _draw_poly(data, space, degs)
        assert reduce_tuple(space, entries) == _dense_reduce_tuple(space, entries)
        if planted:
            active = [p for p in _strip_monomial_and_content(entries) if not p.is_zero]
            assert len(active) < 2 or not _certify_coprime(active)

    def test_coprime_iterates_never_reach_sympy(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a certified coprime tuple reached the exact gcd")

        monkeypatch.setattr(rational, "_divide_out_gcd", refuse)
        certified = []
        certify_coprime = rational._certify_coprime

        def recording(active):
            certified.append(certify_coprime(active))
            return certified[-1]

        monkeypatch.setattr(rational, "_certify_coprime", recording)
        p1 = Space((1,))
        f = RationalMapDesc(p1, ((
            poly(p1, {(2, 0): 1, (0, 2): 3}),
            poly(p1, {(2, 0): 1, (1, 1): 1, (0, 2): -1}),
        ),))
        assert certified == [True]
        # a map of P^1 iterates as powers of its degree: no iterate is reduced
        data = iterate_multidegrees(f, n_max=5)
        assert list(data.lambda1) == [2**m for m in range(6)]
        assert certified == [True]
        # a skew product over that map: its fiber tuple uses base variables,
        # so it is not a product of maps of P^1, every iterate composes, and
        # the certificate proves every composed tuple coprime
        skew = RationalMapDesc(P1xP1, (
            (
                poly(P1xP1, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 3}),
                poly(P1xP1, {(2, 0, 0, 0): 1, (1, 1, 0, 0): 1, (0, 2, 0, 0): -1}),
            ),
            (
                poly(P1xP1, {(1, 0, 2, 0): 1, (0, 1, 0, 2): 2}),
                poly(P1xP1, {(1, 0, 1, 1): 1, (0, 1, 2, 0): -1, (0, 1, 0, 2): 1}),
            ),
        ), fibration_dim=1)
        certified.clear()
        data = iterate_multidegrees(skew, n_max=4)
        assert data.multidegrees == (
            ((2, 0), (1, 2)), ((4, 0), (4, 4)), ((8, 0), (12, 8)), ((16, 0), (32, 16)),
        )
        assert data.lambda1 == (2, 5, 12, 28, 64)
        assert certified == [True] * 6


def _affine_mul(a, b):
    out = {}
    for e, c in a.items():
        for f, d in b.items():
            key = tuple(x + y for x, y in zip(e, f))
            out[key] = out.get(key, 0) + c * d
    return {e: c for e, c in out.items() if c}


def _draw_affine(data, degrees, bound, min_terms=1):
    """An affine polynomial with at most degrees[v] in variable v (0 keeps a
    variable out of it)."""
    exponent = st.tuples(*(st.integers(0, d) for d in degrees))
    terms = data.draw(st.dictionaries(
        exponent, st.integers(-bound, bound).filter(bool), min_size=min_terms, max_size=5,
    ))
    assume(len(terms) >= min_terms)
    return terms


def _sympy_ring(nvars):
    return ring([f"y{i}" for i in range(nvars)], sympy.ZZ)[0]


def _as_dict(element):
    return {tuple(e): int(c) for e, c in element.items()}


class TestHeuristicGcd:
    """The standard-library heuristic gcd against sympy's ring gcd and exquo."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_sympy_ring_gcd(self, data):
        nvars = data.draw(st.integers(1, 3))
        # 10**30 puts the first evaluation point below the heuristic's bound
        bound = data.draw(st.sampled_from([9, 10**6, 10**30]))
        shape = data.draw(st.sampled_from(["planted", "equal", "inner content", "drawn"]))
        degrees = [2] * nvars
        # the inner-content factor needs its first variable
        first = int(shape == "inner content")
        absent = data.draw(st.none() | st.integers(first, nvars - 1)) if first < nvars else None
        if absent is not None:
            degrees[absent] = 0  # a variable no entry uses
        count = data.draw(st.integers(2, 4))
        if shape == "planted":
            factor = _draw_affine(data, degrees, bound, min_terms=2)
            entries = [_affine_mul(factor, _draw_affine(data, degrees, bound))
                       for _ in range(count)]
        elif shape == "equal":
            entry = _draw_affine(data, degrees, bound)
            entries = [{e: c * data.draw(st.sampled_from([1, -1, 3])) for e, c in entry.items()}
                       for _ in range(count)]
        elif shape == "inner content":
            # the factor uses the first variable only and the cofactors avoid
            # it, so the images' gcd below the first level is an integer
            factor = _draw_affine(data, degrees[:1] + [0] * (nvars - 1), bound, min_terms=2)
            entries = [
                _affine_mul(factor, _draw_affine(data, [0] + degrees[1:], bound))
                for _ in range(count)
            ]
        else:
            entries = [_draw_affine(data, degrees, bound) for _ in range(count)]
        assume(all(entries))
        ring_ = _sympy_ring(nvars)
        elements = [ring_.from_dict(p) for p in entries]
        expected = reduce(lambda a, b: a.gcd(b), elements)
        h, quotients = next(rational._heugcd(entries))
        assert h in (_as_dict(expected), _as_dict(-expected))
        divisor = ring_.from_dict(h)
        assert quotients == [_as_dict(element.exquo(divisor)) for element in elements]

    def test_inner_content_is_restored(self):
        # y2 (y0 + 1) and 2 y1 (y0 + 1): at y0 = xi the images' gcd is the
        # integer xi + 1, which the level below pulls out as content
        entries = [{(1, 0, 1): 1, (0, 0, 1): 1}, {(1, 1, 0): 2, (0, 1, 0): 2}]
        h, quotients = next(rational._heugcd(entries))
        assert h == {(1, 0, 0): 1, (0, 0, 0): 1}
        assert quotients == [{(0, 0, 1): 1}, {(0, 1, 0): 2}]
        space = Space((1, 2))
        x0, x1, x2, x3, x4 = (var(space, *v)
                              for v in ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2)))
        assert reduce_tuple(space, (x3 * add(x0, x1), (x2 * add(x0, x1)).scale(2))) == (
            x3, x2.scale(2))

    def test_xi_grows_when_the_first_point_fails(self, monkeypatch):
        entries = [
            _affine_mul({(2,): -160222, (0,): 178448}, {(2,): 623809}),
            _affine_mul({(2,): -160222, (0,): 178448}, {(0,): 679052}),
        ]
        points = []
        evaluate = rational._evaluate_first

        def recording(p, xi):
            points.append(xi)
            return evaluate(p, xi)

        monkeypatch.setattr(rational, "_evaluate_first", recording)
        h, _ = next(rational._heugcd(entries))
        assert h == {(2,): 160222, (0,): -178448}
        assert len(set(points)) == 2

    def test_cofactors_larger_than_their_product(self):
        # (x0 + x1)^30 has coefficients 61 times those of (x0^2 - x1^2)^10 (x0 + x1)^20,
        # so a slot sized for the entries alone cannot hold the quotient
        x0, x1 = var(Space((1,)), 0, 0), var(Space((1,)), 0, 1)
        factor = add(x0, x1.scale(-1)).power(10)
        big = add(x0, x1).power(30)
        other = add(x0.power(30), x1.power(30))
        assert reduce_tuple(Space((1,)), (factor * big, factor * other)) == (big, other)
        # on P^1 the stored keys are the affine exponents
        affine = [dict(p.terms) for p in (factor * big, factor, big)]
        assert rational._exquo(affine[0], affine[1]) == affine[2]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_exquo_matches_sympy(self, data):
        nvars = data.draw(st.integers(1, 3))
        bound = data.draw(st.sampled_from([9, 10**20]))
        divisor = _draw_affine(data, [2] * nvars, bound)
        p = _affine_mul(divisor, _draw_affine(data, [2] * nvars, bound))
        if data.draw(st.booleans()):
            for e, c in _draw_affine(data, [3] * nvars, bound).items():
                p[e] = p.get(e, 0) + c
            p = {e: c for e, c in p.items() if c}
        assume(p)
        ring_ = _sympy_ring(nvars)
        try:
            expected = _as_dict(ring_.from_dict(p).exquo(ring_.from_dict(divisor)))
        except ExactQuotientFailed:
            expected = None
        assert rational._exquo(p, divisor) == expected

    def test_exquo_refuses_a_packing_collision(self):
        # x + 10 does not divide x^3 + x, yet at the 3-digit slots _exquo
        # picks for them 1010 divides 1000001000; the balanced digits of the
        # integer quotient read x^2 - 10x + 100, whose product with x + 10
        # is x^3 + 1000: its coefficients exceed the quotient bound
        assert rational._exquo({(3,): 1, (1,): 1}, {(1,): 1, (0,): 10}) is None
        assert rational._exquo({(3,): 1, (0,): 1000}, {(1,): 1, (0,): 10}) == {
            (2,): 1, (1,): -10, (0,): 100}
        # y + xy does not divide x (1 + x)(1 + y); with p's y-degree 1 the
        # strides pack y^2 where they pack x, so the integer quotient reads
        # x + y, whose product with y + xy leaves the stride box
        p = {(1, 0): 1, (1, 1): 1, (2, 0): 1, (2, 1): 1}
        assert rational._exquo(p, {(0, 1): 1, (1, 1): 1}) is None

    def test_a_proper_divisor_is_not_taken_for_the_gcd(self, monkeypatch):
        # the heuristic's own test accepts any common divisor; the cofactor
        # certificate sends quotients that still share (x0 + 2 x1) back
        p1 = Space((1,))
        x0, x1 = var(p1, 0, 0), var(p1, 0, 1)
        shared, rest = add(x0, x1), add(x0, x1.scale(2))
        q1, q2 = add(x0, x1.scale(3)), add(x0, x1.scale(5))
        heugcd = rational._heugcd

        def short_first(polys):
            if len(next(iter(polys[0]))) == 1 and len(polys[0]) == 4:
                yield {(1,): 1, (0,): 1}, [dict((rest * q).terms) for q in (q1, q2)]
            yield from heugcd(polys)

        monkeypatch.setattr(rational, "_heugcd", short_first)
        assert reduce_tuple(p1, (shared * rest * q1, shared * rest * q2)) == (q1, q2)

    def test_budget_exhaustion_raises_runtime_error(self, monkeypatch):
        monkeypatch.setattr(rational, "_HEUGCD_TRIES", 0)
        p1 = Space((1,))
        x0, x1 = var(p1, 0, 0), var(p1, 0, 1)
        g = add(x0, x1.scale(2))
        with pytest.raises(RuntimeError, match="heuristic gcd"):
            reduce_tuple(p1, (g * add(x0, x1), g * add(x0, x1.scale(3))))


class TestRationalMapDesc:
    def test_validation(self):
        x0 = var(P2, 0, 0)
        with pytest.raises(ValueError):
            RationalMapDesc(P2, ((x0, x0),))  # wrong component count
        zero = MultiHomPoly.zero(P2)
        with pytest.raises(CompositionCollapseError):
            RationalMapDesc(P2, ((zero, zero, zero),))
        with pytest.raises(FibrationError):
            skew = skew_map()
            RationalMapDesc(skew.space, skew.components, fibration_dim=2)

    def test_construction_reduces(self):
        x0 = var(P2, 0, 0)
        x1 = var(P2, 0, 1)
        x2 = var(P2, 0, 2)
        f = RationalMapDesc(P2, ((x0 * x0, x0 * x1, x0 * x2),))
        assert f.multidegree_matrix == ((1,),)

    def test_identity_laws(self):
        f = cremona()
        ident = identity(P2)
        assert compose(f, ident).components == f.components
        assert compose(ident, f).components == f.components

    def test_cremona_is_an_involution(self):
        f = cremona()
        assert f.multidegree_matrix == ((2,),)
        square = compose(f, f)
        assert square.components == identity(P2).components

    def test_cremona_degree_sequence(self):
        data = iterate_multidegrees(cremona(), n_max=6)
        assert list(data.lambda1) == [1, 2, 1, 2, 1, 2, 1]
        assert not data.truncated

    @pytest.mark.parametrize("a", [3, -4])
    def test_lyness_degree_sequence(self, monkeypatch, a):
        # (XY : YZ + aZ^2 : XZ): quadratic growth, and its iterates lose
        # common factors that are not monomials
        found = []
        divide_out_gcd = rational._divide_out_gcd

        def recording(space, polys):
            reduced = divide_out_gcd(space, polys)
            found.append(reduced != tuple(polys))
            return reduced

        monkeypatch.setattr(rational, "_divide_out_gcd", recording)
        f = RationalMapDesc(P2, ((
            poly(P2, {(1, 1, 0): 1}),
            poly(P2, {(0, 1, 1): 1, (0, 0, 2): a}),
            poly(P2, {(1, 0, 1): 1}),
        ),))
        data = iterate_multidegrees(f, n_max=10)
        assert data.lambda1 == (1, 2, 2, 3, 4, 5, 7, 9, 11, 14, 16)
        assert any(found)

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

    @settings(max_examples=100)
    @given(st.data())
    def test_compose_matches_per_entry_substitution(self, data):
        space = data.draw(st.sampled_from([Space((1,)), P2, Space((1, 1))]))
        f, g = _draw_map(data, space), _draw_map(data, space)
        try:
            expected = _compose_per_entry(f, g)
        except CompositionCollapseError:
            with pytest.raises(CompositionCollapseError):
                compose(f, g)
            return
        assert compose(f, g) == expected


def _draw_map(data, space):
    """A random map whose tuples may hold zero entries; a tuple with one
    nonzero entry reduces to the constant tuple (1, 0, ...)."""
    components = []
    for n in space.factors:
        degs = tuple(data.draw(st.integers(0, 2)) for _ in space.factors)
        entries = [
            MultiHomPoly.zero(space) if data.draw(st.integers(0, 2)) == 0
            else _draw_poly(data, space, degs)
            for _ in range(n + 1)
        ]
        if all(p.is_zero for p in entries):
            entries[data.draw(st.integers(0, n))] = _draw_poly(data, space, degs)
        components.append(tuple(entries))
    return RationalMapDesc(space, tuple(components))


def _substitute(p, g):
    """g's components substituted into p on its own, with no shared power
    table: each monomial is a constant times repeated products of g's
    components, summed as a homogeneous dict."""
    images = [dict(q.homogeneous_terms()) for comp in g.components for q in comp]
    total = {}
    for exponents, coefficient in p.homogeneous_terms():
        term = {(0,) * num_variables(g.space): coefficient}
        for v, e in enumerate(exponents):
            for _ in range(e):
                term = _h_mul(term, images[v])
        for m, c in term.items():
            total[m] = total.get(m, 0) + c
    return poly(g.space, total)


def _compose_per_entry(f, g):
    """Reference for compose: every entry of f substituted on its own."""
    return RationalMapDesc(
        g.space,
        tuple(tuple(_substitute(p, g) for p in comp) for comp in f.components),
        f.fibration_dim,
    )


def _draw_family_map(data, family):
    """A skew product over P^1, a Lyness-type map (bXY : YZ + aZ^2 : cXZ)
    or a map of P^2 of degree 1 or 2."""
    if family == "skew":
        d = data.draw(st.integers(1, 3))
        base = tuple(_draw_poly(data, P1xP1, (d, 0)) for _ in range(2))
        degs = (data.draw(st.integers(0, 2)), data.draw(st.integers(1, 2)))
        fiber = tuple(_draw_poly(data, P1xP1, degs) for _ in range(2))
        return RationalMapDesc(P1xP1, (base, fiber), fibration_dim=1)
    if family == "lyness":
        a, b, c = (data.draw(st.integers(-5, 5).filter(bool)) for _ in range(3))
        return RationalMapDesc(P2, ((
            poly(P2, {(1, 1, 0): b}),
            poly(P2, {(0, 1, 1): 1, (0, 0, 2): a}),
            poly(P2, {(1, 0, 1): c}),
        ),))
    degs = (data.draw(st.integers(1, 2)),)
    return RationalMapDesc(P2, (tuple(_draw_poly(data, P2, degs) for _ in range(3)),))


class TestStoredFormMatchesHomogeneous:
    """Products, powers, reductions and compositions against the test-local
    homogeneous copies above, read through the homogeneous view."""

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from(["skew", "lyness", "P2"]))
    def test_arithmetic_matches_homogeneous_copies(self, data, family):
        f, g = _draw_family_map(data, family), _draw_family_map(data, family)
        space = f.space
        entries = [p for comp in f.components + g.components for p in comp if not p.is_zero]
        p, q = data.draw(st.sampled_from(entries)), data.draw(st.sampled_from(entries))
        hp = dict(p.homogeneous_terms())
        assert p * q == poly(space, _h_mul(hp, dict(q.homogeneous_terms())))
        power = {(0,) * num_variables(space): 1}
        for k in range(5):
            assert p.power(k) == poly(space, power)
            power = _h_mul(power, hp)
        # the unreduced tuples of f o g, times a monomial that may hold any
        # variable's power, the last of a block's included
        degs = tuple(data.draw(st.integers(0, 2)) for _ in space.factors)
        monomial = poly(space, {data.draw(st.sampled_from(list(_monomials(space, degs)))):
                                data.draw(st.integers(-3, 3).filter(bool))})
        substituted = [tuple(_substitute(p, g) for p in comp) for comp in f.components]
        if any(all(p.is_zero for p in comp) for comp in substituted):
            with pytest.raises(CompositionCollapseError):
                compose(f, g)
            return
        for comp in substituted:
            planted = tuple(p * monomial for p in comp)
            assert reduce_tuple(space, planted) == _dense_reduce_tuple(space, planted)
        assert compose(f, g).components == tuple(
            _dense_reduce_tuple(space, comp) for comp in substituted)

    @pytest.mark.parametrize("space, entries, reduced", [
        # x1, the last variable of P^1, is the common factor
        (Space((1,)), ({(1, 1): 1}, {(0, 2): 1}), ({(1, 0): 1}, {(0, 1): 1})),
        # z^2 on P^2, with a binomial entry
        (P2, ({(1, 0, 2): 2}, {(0, 1, 2): 4, (0, 0, 3): 6}),
         ({(1, 0, 0): 1}, {(0, 1, 0): 2, (0, 0, 1): 3})),
        # x0 y1 on P^1 x P^1; the sign of the first entry is kept
        (P1xP1, ({(1, 0, 1, 1): 1}, {(1, 0, 0, 2): -1}), ({(0, 0, 1, 0): 1}, {(0, 0, 0, 1): -1})),
    ])
    def test_strip_takes_the_last_variables_common_power(self, space, entries, reduced):
        polys = tuple(poly(space, e) for e in entries)
        assert reduce_tuple(space, polys) == tuple(poly(space, e) for e in reduced)
        assert reduce_tuple(space, polys) == _dense_reduce_tuple(space, polys)


class TestSkewProduct:
    def test_validate_and_multidegrees(self):
        f = skew_map()
        assert validate_skew(f)
        assert f.multidegree_matrix == ((3, 0), (1, 2))
        with pytest.raises(FibrationError, match="skew-product shape"):
            RationalMapDesc(f.space, (f.components[1], f.components[0]), fibration_dim=1)

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
        assert len(data.multidegrees) == 4  # 3^5 = 243 > 100 stops the fifth iterate

    def test_base_map_and_fiber_degrees(self):
        f = skew_map()
        g = base_map(f)
        assert g.space == Space((1,))
        gdata = iterate_multidegrees(g, n_max=5)
        assert list(gdata.lambda1) == [1, 3, 9, 27, 81, 243]
        assert fiber_degree_sequence(f, 1)[0] == 1
        assert fiber_degree_sequence(f, 3)[3] == 8
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
        assert _composed_fiber_degrees(f, 5, 1000) == reference
        assert [fiber_degree_sequence(f, max(n, 1), max_total_degree=1000)[n]
                for n in range(6)] == reference

    def test_fiber_degree_sequence_stops_at_the_cap(self):
        # 3^5 = 243 > 100 stops the fifth iterate: the prefix n = 0..4 remains
        assert fiber_degree_sequence(skew_map(), 5, max_total_degree=100) == [1, 2, 4, 8, 16]


def _pullback(space, rows):
    """(f^n)^* omega from f^n's multidegree matrix: h_j gets the column sum j."""
    m = space.num_factors
    return CohClass.make(space, 1, {
        tuple(int(t == j) for t in range(m)): sum(row[j] for row in rows) for j in range(m)
    })


def _composed_iterates(f, n_max, max_total_degree):
    """Reference for iterate_multidegrees: compose every iterate, whatever
    the map, read its reduced multidegrees, and pair each pullback class
    with omega^{k-1} on its own, by the brute-force oracle."""
    m = f.space.num_factors
    omega = kaehler_power(f.space, f.space.dim - 1)
    rows = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    lambda1 = [pair_oracle(_pullback(f.space, rows), omega)]
    multidegrees = []
    current = f
    for n in range(1, n_max + 1):
        if n > 1:
            current = compose(f, current)
        rows = current.multidegree_matrix
        if any(sum(row) > max_total_degree for row in rows):
            return IterateData(tuple(multidegrees), tuple(lambda1), True)
        multidegrees.append(rows)
        lambda1.append(pair_oracle(_pullback(f.space, rows), omega))
    return IterateData(tuple(multidegrees), tuple(lambda1), False)


def _composed_fiber_degrees(f, n_max, max_total_degree):
    """Reference for fiber_degree_sequence: alpha(., 0) of each pullback
    class of the composed iterates, on its own."""
    space = f.space.with_base(f.fibration_dim)
    m = space.num_factors
    identity_rows = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    data = _composed_iterates(f, n_max, max_total_degree)
    return [alpha(_pullback(space, rows), 0) for rows in (identity_rows, *data.multidegrees)]


def _draw_p1_product(data):
    """A product of 1 to 3 maps of P^1, fibred or not: factor i's tuple
    uses factor i's two variables only.  Degree 0 gives a constant map,
    degree 1 a Moebius map (or a constant, when the two forms are
    proportional); an entry may be zero or a monomial."""
    k = data.draw(st.integers(1, 3))
    space = Space((1,) * k)
    components = []
    for i in range(k):
        degs = tuple(data.draw(st.sampled_from((1, 2, 3, 0))) if j == i else 0 for j in range(k))
        entries = [
            MultiHomPoly.zero(space) if data.draw(st.integers(0, 7)) == 7
            else _draw_poly(data, space, degs)
            for _ in range(2)
        ]
        if all(p.is_zero for p in entries):
            entries[data.draw(st.integers(0, 1))] = _draw_poly(data, space, degs)
        components.append(tuple(entries))
    fibration_dim = data.draw(st.sampled_from([None, *range(1, k)]))
    return RationalMapDesc(space, tuple(components), fibration_dim)


class TestProductsOfMapsOfP1:
    @settings(max_examples=100)
    @given(st.data())
    def test_matches_composed_iterates(self, data):
        f = _draw_p1_product(data)
        n_max = data.draw(st.integers(1, 5))
        cap = data.draw(st.integers(0, 40))
        assert iterate_multidegrees(f, n_max, cap) == _composed_iterates(f, n_max, cap)
        if f.fibration_dim is not None:
            assert fiber_degree_sequence(f, n_max, cap) == _composed_fiber_degrees(f, n_max, cap)
            records, _ = degrees.rational_sequences(f, n_max, cap)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rational, "iterate_multidegrees", _composed_iterates)
                assert records == degrees.rational_sequences(f, n_max, cap)[0]

    def test_composes_only_maps_that_are_not_products(self, monkeypatch):
        calls = []
        original = rational.compose

        def recording(f, g):
            calls.append(f)
            return original(f, g)

        monkeypatch.setattr(rational, "compose", recording)
        # the README skew product: every factor is P^1, but the fiber tuple
        # uses the base variable, so M = ((3, 0), (1, 2)) is not diagonal and
        # M^6 would have 665 where f^6 has 243
        data = iterate_multidegrees(skew_map(), n_max=6, max_total_degree=1000)
        assert data.multidegrees == (
            ((3, 0), (1, 2)), ((9, 0), (3, 4)), ((27, 0), (9, 8)),
            ((81, 0), (27, 16)), ((243, 0), (81, 32)), ((729, 0), (243, 64)),
        )
        assert len(calls) == 5
        calls.clear()
        space = Space((1, 1))
        product = RationalMapDesc(space, (
            (
                poly(space, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 3}),
                poly(space, {(2, 0, 0, 0): 1, (1, 1, 0, 0): 1, (0, 2, 0, 0): -1}),
            ),
            (
                poly(space, {(0, 0, 3, 0): 1}),
                poly(space, {(0, 0, 0, 3): 1, (0, 0, 3, 0): 2}),
            ),
        ))
        data = iterate_multidegrees(product, n_max=6, max_total_degree=1000)
        assert data.multidegrees == tuple(((2**n, 0), (0, 3**n)) for n in range(1, 7))
        assert calls == []


def _quotient_rule_dominance(f, rng):
    """Reference for check_dominance: the affine-chart Jacobian in Fractions
    by the quotient rule (dP_j q - P_j dq) / q^2, ranked by sympy, on the
    homogeneous views of the entries."""
    space = f.space
    k = space.dim
    layout = variable_layout(space)
    affine_vars = [start + j for start, count in layout for j in range(1, count)]
    flat_polys = [p.homogeneous_terms() for comp in f.components for p in comp]

    def derivative(terms, v):
        out = []
        for e, c in terms:
            if e[v]:
                d = list(e)
                d[v] -= 1
                out.append((d, c * e[v]))
        return out

    def evaluate(terms, point):
        total = 0
        for e, c in terms:
            for x, m in zip(point, e):
                c *= x**m
            total += c
        return total

    derivatives = [[derivative(p, v) for v in affine_vars] for p in flat_polys]
    offsets = list(itertools.accumulate((len(c) for c in f.components), initial=0))
    for _ in range(3):
        for _attempt in range(40):
            values = [0] * num_variables(space)
            for start, count in layout:
                values[start] = 1
                for j in range(1, count):
                    values[start + j] = rng.randint(-9, 9)
            vals = [Fraction(v) for v in values]
            point_values = [evaluate(p, vals) for p in flat_polys]
            pivots = []
            for i, comp in enumerate(f.components):
                pivot, best = None, 0
                for j in range(len(comp)):
                    val = point_values[offsets[i] + j]
                    if val != 0 and abs(val) > best:
                        pivot, best = j, abs(val)
                pivots.append(pivot)
            if None in pivots:
                continue
            jac = []
            for i, comp in enumerate(f.components):
                q_at = offsets[i] + pivots[i]
                q_val = point_values[q_at]
                dq = [evaluate(d, vals) for d in derivatives[q_at]]
                for j in range(len(comp)):
                    if j == pivots[i]:
                        continue
                    p_val = point_values[offsets[i] + j]
                    dp = [evaluate(d, vals) for d in derivatives[offsets[i] + j]]
                    jac.append([Fraction(dp[c] * q_val - p_val * dq[c], q_val * q_val)
                                for c in range(k)])
            if sympy.Matrix(jac).rank() == k:
                return True
            break
    warnings.warn("no full-rank Jacobian point found; the map may not be dominant",
                  DominanceWarning)
    return False


def _draw_full_map(data, space):
    """A random map whose entries are all nonzero and whose tuple i has
    positive degree in factor i; most such maps are dominant."""
    components = []
    for i, n in enumerate(space.factors):
        degs = tuple(data.draw(st.integers(int(i == j), 2)) for j in range(len(space.factors)))
        components.append(tuple(_draw_poly(data, space, degs) for _ in range(n + 1)))
    return RationalMapDesc(space, tuple(components))


class TestDominance:
    @given(st.data(), st.sampled_from([(1,), (2,), (1, 1), (1, 2)]), st.integers(0, 2**32))
    def test_matches_quotient_rule_route(self, data, factors, seed):
        # _draw_map gives mostly non-dominant maps (constant tuples, degree-0
        # rows), _draw_full_map mostly dominant ones
        draw_map = data.draw(st.sampled_from([_draw_map, _draw_full_map]))
        f = draw_map(data, Space(factors))
        outcomes = []
        for route in (check_dominance, _quotient_rule_dominance):
            rng = random.Random(seed)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", DominanceWarning)
                result = route(f, rng)
            messages = [str(w.message) for w in caught if w.category is DominanceWarning]
            # the same result, the same warning, and the same draws from rng
            outcomes.append((result, messages, rng.getstate()))
        assert outcomes[0] == outcomes[1]

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

    def test_decides_on_the_jacobian_not_the_multidegrees(self):
        # both maps have the singular multidegree matrix ((1, 1), (1, 1))
        space = Space((1, 1))
        xy = (poly(space, {(1, 0, 1, 0): 1}), poly(space, {(0, 1, 0, 1): 1}))
        x_over_y = (poly(space, {(1, 0, 0, 1): 1}), poly(space, {(0, 1, 1, 0): 1}))
        # affine (xy, x/y) has Jacobian determinant -2x/y
        with warnings.catch_warnings():
            warnings.simplefilter("error", DominanceWarning)
            assert check_dominance(RationalMapDesc(space, (xy, x_over_y))) is True
        # affine (xy, xy) has image a curve
        with pytest.warns(DominanceWarning):
            assert check_dominance(RationalMapDesc(space, (xy, xy))) is False


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
        assert ident2.components == identity(f.space).components

    @settings(max_examples=150)
    @given(st.data())
    def test_fibration_rule_matches_monomial_map(self, data):
        # block lower-triangular at l for MonomialMap, base components in
        # base variables for the rational map: the same matrices pass both
        k = data.draw(st.integers(1, 4))
        row = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
        mat = [data.draw(row) for _ in range(k)]
        if k > 1 and data.draw(st.booleans()):
            split = data.draw(st.integers(1, k - 1))
            mat = [[0 if i < split <= j else x for j, x in enumerate(r)]
                   for i, r in enumerate(mat)]
        assume(det(mat) != 0)
        l = data.draw(st.integers(0, k))
        errors = []
        for build in (MonomialMap, monomial_to_rational):
            try:
                build(mat, l)
            except FibrationError as exc:
                errors.append(str(exc))
            else:
                errors.append(None)
        assert (errors[0] is None) == (errors[1] is None)
        if not 0 < l < k:
            assert errors[0] is not None
            assert errors[0] == errors[1]

    def test_fibration_carries_over(self, fib_matrix):
        f = monomial_to_rational(fib_matrix, fibration_dim=1)
        assert validate_skew(f)
        g = base_map(f)
        gdata = iterate_multidegrees(g, n_max=4)
        assert list(gdata.lambda1) == [1, 2, 4, 8, 16]
