"""Multihomogeneous rational self-maps of products of projective spaces.

A map is described per factor: component i is a tuple of n_i + 1
multihomogeneous polynomials sharing a common multidegree, with no common
factor (reduced form).  Composition is substitution followed by exact
cancellation of the common factor; the drop between the naive product of
multidegrees and the reduced multidegree is precisely the degree-drop
phenomenon that makes first dynamical degrees of rational maps
non-obvious, so the cancellation step is the heart of this module.
Substitution builds one table of the powers of g's components per
composition f o g and shares it between all entries of f.

A MultiHomPoly stores dehomogenized keys and its multidegree, and every
operation below works on those keys.  Full vectors appear only at the
edges: job input (make), the job echo, check_dominance and compose's
read of f (homogeneous_terms).

Cancellation is staged.  First the common *monomial* part and the integer
content are stripped by direct exponent/coefficient arithmetic (this
covers the classical examples, e.g. the Cremona involution).  A tuple with
no monomial entry left then meets a mod-p coprimality certificate: per
stored variable, univariate images at a point where the first entry keeps
its leading coefficient, folded through Euclid mod 2^61 - 1 (Brown 1971).
It never certifies a tuple with a common factor; a coprime tuple fails it
only at an unlucky point.  Only an uncertified tuple gets an exact
multivariate gcd over Z, so the output never depends on the point.  That
gcd runs on the stored keys; it is the heuristic gcd (Char, Geddes and
Gonnet 1989), and its result is proved, not trusted (see _divide_out_gcd
for both).
A product with a one-term operand is an exponent shift.  A product of
many cross terms whose packed box is dense enough uses signed Kronecker
packing into decimal slots: one big decimal integer per operand and one
exact product, taken by libmpdec.  Each slot carries a bias of half its
range, so an operand is written as one digit string and the product is
read in one pass with no carries (_unpack).  The box is sheared along
the diagonal that fits the operands best and offset to their minima, so
it covers their Newton polytopes rather than the bounding box of all
exponents.  Every other product goes through a dict.  Exact quotients
are packed and divided the same way, in an unsheared box, and everything
stays exact.

The iterates of a product of maps of P^1 never reduce, so they are not
composed: their multidegree matrices are powers of the map's
(iterate_multidegrees says why).

Coordinates and charts: within factor i the variables are
x_{i,0}, ..., x_{i,n_i}; check_dominance works in the chart x_{i,0} = 1,
so on (P^1)^k the affine value of coordinate i is
component_i[1] / component_i[0].
"""

from __future__ import annotations

import decimal
import itertools
import math
import operator
import random
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .cohomology import CohClass, FibrationError, Space, sequence_pairings
from .intmat import IntMatrix, det, freeze, identity, mat_mul

DEFAULT_MAX_TOTAL_DEGREE = 400

# A product of more than _KRON_THRESHOLD cross terms goes through Kronecker
# packing when its sheared box holds at most _KRON_SLOTS_PER_TERM slots per
# cross term; any other product of two polynomials goes through a dict.
# Measured on dense and sparse products: the packing wins on dense ones
# from about 300 cross terms, and loses on sparse ones from about half a
# slot per cross term, since it reads every slot.
_KRON_THRESHOLD = 400
_KRON_SLOTS_PER_TERM = 0.25

# Kronecker products are exact decimal integers: this context never rounds
# and traps if it would.  Only its methods are used, since the arithmetic
# operators run in the calling thread's own context.
_CTX = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.Inexact, decimal.Rounded],
)


class CompositionCollapseError(ValueError):
    """A whole component tuple became identically zero (indeterminacy collapse)."""


class DominanceWarning(UserWarning):
    """The probabilistic Jacobian test found no full-rank point."""


def _blocks(space: Space) -> list[tuple[int, int]]:
    """(lo, hi): each factor block's slice of a stored exponent tuple."""
    bounds = list(itertools.accumulate(space.factors, initial=0))
    return list(zip(bounds, bounds[1:]))


def variable_layout(space: Space) -> tuple[tuple[int, int], ...]:
    """(start, count) of each factor's homogeneous variable block."""
    return tuple((lo + i, hi - lo + 1) for i, (lo, hi) in enumerate(_blocks(space)))


def num_variables(space: Space) -> int:
    return space.dim + space.num_factors


@dataclass(frozen=True)
class MultiHomPoly:
    """A multihomogeneous polynomial with integer coefficients, stored
    dehomogenized.

    In block i every monomial has exponent sum multidegree[i], so its last
    exponent follows from the others.  terms pairs the other exponents,
    concatenated over the blocks (the image in the affine ring where each
    block's last variable is 1), with nonzero coefficients, sorted: lex
    order on these keys is lex order on the full vectors.  The zero
    polynomial has no terms and multidegree None.  Only make validates.
    """

    space: Space
    terms: tuple[tuple[tuple[int, ...], int], ...]
    multidegree: tuple[int, ...] | None

    @classmethod
    def make(cls, space: Space, coeffs) -> "MultiHomPoly":
        """The polynomial of (full exponent vector, coefficient) pairs, as a
        mapping or a list; repeated vectors add up.  The one validator of
        job polynomials: ValueError on an entry that is not a pair, an
        exponent or value that is not an int (bool refused), a vector of
        the wrong length, a negative exponent, or two multidegrees."""
        nvars = num_variables(space)
        cleaned: dict[tuple[int, ...], int] = {}
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        for pair in items:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValueError("coeffs entries must be [exponents, value] pairs")
            exponents, value = pair
            if not isinstance(exponents, (list, tuple)) or any(
                    type(x) is not int for x in exponents):
                raise ValueError("exponent vectors must be lists of integers")
            if type(value) is not int:
                raise ValueError("coefficients must be integers")
            e = tuple(exponents)
            if len(e) != nvars:
                raise ValueError(f"exponent vector needs {nvars} entries, got {len(e)}")
            if any(x < 0 for x in e):
                raise ValueError("exponents must be nonnegative")
            if value:
                cleaned[e] = cleaned.get(e, 0) + value
        layout = variable_layout(space)
        terms = sorted((e, c) for e, c in cleaned.items() if c)
        degrees = {tuple(sum(e[start : start + count]) for start, count in layout)
                   for e, _ in terms}
        if len(degrees) > 1:
            raise ValueError("polynomial is not multihomogeneous")
        return cls(space, tuple(
            (tuple(x for start, count in layout for x in e[start : start + count - 1]), c)
            for e, c in terms
        ), degrees.pop() if degrees else None)

    @classmethod
    def zero(cls, space: Space) -> "MultiHomPoly":
        return cls(space, (), None)

    @classmethod
    def constant(cls, space: Space, value: int) -> "MultiHomPoly":
        if value == 0:
            return cls.zero(space)
        return cls(space, (((0,) * space.dim, value),), (0,) * space.num_factors)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def homogeneous_terms(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """terms with full exponent vectors, in the same order."""
        blocks = _blocks(self.space)
        return tuple(
            (tuple(x for (lo, hi), d in zip(blocks, self.multidegree)
                   for x in (*e[lo:hi], d - sum(e[lo:hi]))), c)
            for e, c in self.terms
        )

    def scale(self, factor: int) -> "MultiHomPoly":
        if factor == 0:
            return MultiHomPoly.zero(self.space)
        return MultiHomPoly(
            self.space, tuple((e, factor * c) for e, c in self.terms), self.multidegree)

    def __mul__(self, other: "MultiHomPoly") -> "MultiHomPoly":
        if self.space != other.space:
            raise ValueError("cannot multiply polynomials on different spaces")
        if self.is_zero or other.is_zero:
            return MultiHomPoly.zero(self.space)
        if other.is_monomial:
            return _shift(self, other)
        if self.is_monomial:
            return _shift(other, self)
        cross = len(self.terms) * len(other.terms)
        if cross > _KRON_THRESHOLD:
            box = _kron_box(self, other)
            if box.slots <= _KRON_SLOTS_PER_TERM * cross:
                return _kron_mul(self, other, box)
        return _dict_mul(self, other)

    def power(self, exponent: int) -> "MultiHomPoly":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        if exponent == 0:
            return MultiHomPoly.constant(self.space, 1)
        result = None
        base = self
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base


def _product_degree(p1: MultiHomPoly, p2: MultiHomPoly) -> tuple[int, ...]:
    return tuple(map(operator.add, p1.multidegree, p2.multidegree))


def _dict_mul(p1: MultiHomPoly, p2: MultiHomPoly) -> MultiHomPoly:
    acc: dict[tuple[int, ...], int] = {}
    for e1, c1 in p1.terms:
        for e2, c2 in p2.terms:
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return MultiHomPoly(p1.space, tuple(sorted((e, c) for e, c in acc.items() if c != 0)),
                        _product_degree(p1, p2))


def _shift(p: MultiHomPoly, monomial: MultiHomPoly) -> MultiHomPoly:
    """p times a one-term polynomial: adding an exponent tuple keeps term order."""
    ((exponents, coefficient),) = monomial.terms
    return MultiHomPoly(p.space, tuple(
        (tuple(map(operator.add, e, exponents)), c * coefficient) for e, c in p.terms
    ), _product_degree(p, monomial))


def _decimal_width(bound: int) -> int:
    """The least number of decimal digits w with 10**w > bound."""
    width = max(1, bound.bit_length() * 3 // 10)  # never above the least width
    while 10**width <= bound:
        width += 1
    return width


def _plain_digits(width: int) -> bool:
    """Whether slots of `width` digits convert through int and str: only
    below the interpreter's int/str digit limit (0: none), above which they
    refuse.  decimal converts any width, about three times slower."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return not limit or width < limit


def _bias(width: int, slots: int) -> decimal.Decimal:
    """H: half of 10**width in each of `slots` slots of `width` digits.

    Built by doubling the number of slots, a few times faster than parsing
    its digits."""
    half = _CTX.create_decimal(10**width // 2)
    bias, count = half, 1
    for bit in bin(slots)[3:]:
        bias = _CTX.add(_CTX.scaleb(bias, count * width), bias)
        count *= 2
        if bit == "1":
            bias = _CTX.add(_CTX.scaleb(bias, width), half)
            count += 1
    return bias


def _pack(placed: Sequence[tuple[int, int]], width: int) -> decimal.Decimal:
    """sum(c * 10**(width * offset)) over (offset, c) pairs with distinct
    offsets and |c| < half of 10**width.

    One digit string holds c + half in each placed slot and half in every
    other slot below the top one; it is parsed once, and the bias H of as
    many slots is subtracted.
    """
    half = 10**width // 2
    digit = str if _plain_digits(width) else lambda c: str(_CTX.create_decimal(c))
    top = max(offset for offset, _ in placed)
    chunks = ["5" + "0" * (width - 1)] * (top + 1)  # half
    for offset, c in placed:
        chunks[top - offset] = digit(c + half).zfill(width)
    return _CTX.subtract(_CTX.create_decimal("".join(chunks)), _bias(width, top + 1))


def _unpack(digits: str, width: int, slots: int, keys: Iterable) -> list[tuple] | None:
    """The nonzero balanced base-10**width digits of v, read from the
    decimal digits of v + H (H = _bias(width, slots)), as (key, digit)
    pairs; keys name the slots, least significant first.  None if v needs
    more than `slots` slots, that is when v + H is negative or longer than
    slots * width digits.

    Every balanced digit c of v lies in [-half, half), so slot by slot the
    digit of v + H is c + half, in [0, 10**width): no slot carries, and
    each one reads on its own (signed Kronecker substitution, Harvey 2009).
    A chunk of half is a zero digit, and slots above the string's top
    digit hold 0, the digit -half.
    """
    size = len(digits)
    if digits[0] == "-" or size > slots * width:
        return None
    half = 10**width // 2
    digit = int if _plain_digits(width) else lambda chunk: int(_CTX.create_decimal(chunk))
    short = size % width  # the length of a short top chunk
    # cut every chunk before converting any: interleaving the two left the
    # kept digits scattered over the heap and measured a higher peak RSS
    chunks = [digits[end - width : end] for end in range(size, short, -width)]
    if short:
        chunks.append(digits[:short])
    chunks += ["0"] * (slots - len(chunks))
    empty = "5" + "0" * (width - 1)
    return [(key, digit(chunk) - half) for key, chunk in zip(keys, chunks) if chunk != empty]


class _KronBox(NamedTuple):
    """Where the terms of a product go in its Kronecker packing.

    The last stored coordinate is sheared to e[-1] + shear * e[0]; every
    coordinate is offset by its minimum over the operand, lows[0] for p1
    and lows[1] for p2, and strides place the sheared offsets in `slots`
    slots, in term order.
    """

    shear: int
    lows: tuple[list[int], list[int]]
    strides: list[int]
    slots: int


def _kron_box(p1: MultiHomPoly, p2: MultiHomPoly) -> _KronBox:
    """The smallest sheared box that holds the stored exponents of p1 p2.

    Every stored coordinate is packed; of them, u is the first and v the
    last.  The shear v -> v + k u (k in 0, 1, -1) is unimodular, so the
    sheared exponents of p1 p2 lie in the Minkowski sum of the operands'
    sheared exponents, whose span in each coordinate is the sum of the
    operands' spans.  One pass over each operand reads the extremes of
    every coordinate and of v + u and v - u, and the k whose sheared v
    spans least wins.  The skew iterates lie along such a diagonal, and
    the shear about halves their boxes.  The strides keep u most
    significant and v least, so slot order is lex order on
    (u, ..., v + k u), which is term order.
    """
    nvars = p1.space.dim
    shears = (0, 1, -1) if nvars > 1 else (0,)
    last = nvars - 1
    lows: tuple[list[int], list[int]] = ([], [])
    spans = [0] * (last + len(shears))
    for p, low in zip((p1, p2), lows):
        cols = list(zip(*(e for e, _ in p.terms)))
        u, v = cols[0], cols[-1]
        # the coordinates but v, then v + k u for every shear k
        coords = cols[:-1] + [
            v if k == 0 else list(map(operator.add if k > 0 else operator.sub, v, u))
            for k in shears
        ]
        for j, w in enumerate(coords):
            low.append(min(w))
            spans[j] += max(w) - low[j]
    best = min(range(len(shears)), key=lambda t: spans[last + t])
    for low in lows:
        low[last:] = [low[last + best]]
    spans[last:] = [spans[last + best]]
    strides = [0] * nvars
    slots = 1
    for j in range(last, -1, -1):
        strides[j] = slots
        slots *= spans[j] + 1
    return _KronBox(shears[best], lows, strides, slots)


def _kron_mul(p1: MultiHomPoly, p2: MultiHomPoly, box: _KronBox) -> MultiHomPoly:
    """Exact multiplication via Kronecker packing into big decimal integers.

    Each term goes to the slot of its sheared packed exponents, offset by
    the operand's minima, in `box`, which _kron_box chose for p1 p2.  A
    slot is `width` decimal digits, and half of 10**width exceeds the
    largest product coefficient's magnitude.  Each operand packs to one
    signed decimal and libmpdec takes one product, a squaring when both
    operands are the same object; at these sizes it multiplies by a
    number-theoretic transform.  The product plus the bias H is read in
    one pass (_unpack), in slot order, which is term order: the keys run
    over the box's offset ranges shifted by the sum of the minima, and the
    range of v moves by -k u on each row u to undo the shear.  Slots
    convert through int and str below the interpreter's int/str digit
    limit, and through decimal at or above it.
    """
    shear, lows, strides, slots = box
    c1max = max(abs(c) for _, c in p1.terms)
    c2max = max(abs(c) for _, c in p2.terms)
    width = _decimal_width(min(len(p1.terms), len(p2.terms)) * c1max * c2max * 2)
    # v + k u has stride 1, so the shear adds k to the stride of u
    pack_strides = [strides[0] + shear, *strides[1:]]

    def pack(terms, low):
        base = sum(x * s for x, s in zip(low, strides))
        return _pack([
            (sum(x * s for x, s in zip(e, pack_strides)) - base, c) for e, c in terms
        ], width)

    a = pack(p1.terms, lows[0])
    b = a if p2 is p1 else pack(p2.terms, lows[1])
    digits = str(_CTX.add(_CTX.multiply(a, b), _bias(width, slots)))
    del a, b
    sizes = [slots // strides[0], *map(operator.floordiv, strides, strides[1:])]
    ranges = [range(m, m + n) for m, n in zip(map(operator.add, *lows), sizes)]
    if shear:
        first, *middle, last = ranges
        keys = itertools.chain.from_iterable(
            itertools.product((u,), *middle,
                              range(last.start - shear * u, last.stop - shear * u))
            for u in first
        )
    else:
        keys = itertools.product(*ranges)
    terms = _unpack(digits, width, slots, keys)
    if terms is None:
        raise AssertionError(f"Kronecker product overflows its box of {slots} slots")
    return MultiHomPoly(p1.space, tuple(terms), _product_degree(p1, p2))


def _strip_monomial_and_content(
    polys: Sequence[MultiHomPoly],
) -> tuple[MultiHomPoly, ...]:
    """Divide the common monomial and the integer content out of a tuple
    whose nonzero entries share one multidegree d.

    A stored variable's common power is its least exponent.  The common
    power of block i's last variable is d_i minus the largest block-i sum
    of the stored exponents, since the last exponent is d_i minus that sum.
    """
    active = [p for p in polys if not p.is_zero]
    degree = active[0].multidegree
    cols = list(zip(*(e for p in active for e, _ in p.terms)))
    mins = [min(col) for col in cols]
    blocks = _blocks(active[0].space)
    lasts = [d - max(map(sum, zip(*cols[lo:hi]))) for d, (lo, hi) in zip(degree, blocks)]
    content = math.gcd(*(c for p in active for _, c in p.terms))
    if not any(mins) and not any(lasts) and content == 1:
        return tuple(polys)
    degree = tuple(d - sum(mins[lo:hi]) - last
                   for d, (lo, hi), last in zip(degree, blocks, lasts))
    return tuple(p if p.is_zero else MultiHomPoly(p.space, tuple(
        (tuple(map(operator.sub, e, mins)), c // content) for e, c in p.terms
    ), degree) for p in polys)


# a prime: images mod it are exact field arithmetic on Python ints
_MODULUS = (1 << 61) - 1
_CERTIFICATE_POINTS = 4


@lru_cache(maxsize=None)
def _evaluation_point(nvars: int, attempt: int) -> tuple[int, ...]:
    rng = random.Random(nvars * 1009 + attempt)
    return tuple(rng.randrange(2, _MODULUS) for _ in range(nvars))


def _trim(coeffs: list[int]) -> list[int]:
    lead = next((i for i, x in enumerate(coeffs) if x), len(coeffs))
    return coeffs[lead:]


def _univariate_image(p: MultiHomPoly, v: int, point: Sequence[int]) -> list[int]:
    """p mod _MODULUS with every variable but v set to point, as
    coefficients in v from the highest nonzero one down."""
    m = _MODULUS
    powers: dict[tuple[int, int], int] = {}
    coeffs = [0] * (max(e[v] for e, _ in p.terms) + 1)
    for e, c in p.terms:
        value = c % m
        for j, x in enumerate(e):
            if x and j != v:
                key = (j, x)
                if key not in powers:
                    powers[key] = pow(point[j], x, m)
                value = value * powers[key] % m
        coeffs[e[v]] += value
    return _trim([c % m for c in reversed(coeffs)])


def _gcd_mod_p(a: list[int], b: list[int]) -> list[int]:
    """Euclid mod _MODULUS on coefficient lists with nonzero leading terms."""
    m = _MODULUS
    if len(a) < len(b):
        a, b = b, a
    while b:
        inv = pow(b[0], -1, m)
        b = [x * inv % m for x in b]
        n = len(b) - 1
        a = a[:]
        for i in range(len(a) - n):
            q = a[i]
            if q:
                a[i + 1 : i + 1 + n] = [
                    (x - q * y) % m for x, y in zip(a[i + 1 : i + 1 + n], b[1:])
                ]
        a, b = b, _trim(a[len(a) - n :])
    return a


def _certify_coprime(active: Sequence[MultiHomPoly]) -> bool:
    """True only if the nonzero entries have no common factor over Z.

    It reads the stored keys, the entries' images in the affine ring where
    each block's last variable is 1.  For each variable v of the first
    entry P_1, the other variables are set to a point mod p where lc_v(P_1)
    does not vanish, and the univariate images are folded through Euclid
    mod p.  A common factor G over Z divides P_1, so lc_v(G) does not
    vanish there either: G's image keeps degree deg_v G and divides every
    image.  Constant gcds for every v thus rule out every nonconstant
    affine G (the content is already stripped).  That covers every
    homogeneous common factor too: after the strip no variable divides the
    gcd, so a nonconstant homogeneous factor is not a monomial in the last
    variables, and its affine image is nonconstant.  False means "not
    certified", not "not coprime".
    """
    first = active[0]
    nvars = len(first.terms[0][0])
    for v in range(nvars):
        degree = max(e[v] for e, _ in first.terms)
        if degree == 0:
            continue
        for attempt in range(_CERTIFICATE_POINTS):
            point = _evaluation_point(nvars, attempt)
            g = _univariate_image(first, v, point)
            if len(g) == degree + 1:  # lc_v(P_1) survived
                break
        else:
            return False
        for p in active[1:]:
            if len(g) == 1:
                break
            image = _univariate_image(p, v, point)
            if image:
                g = _gcd_mod_p(g, image)
        if len(g) > 1:
            return False
    return True


# An affine polynomial is a dict from exponent tuples to nonzero ints, as
# dict(p.terms) of a stored polynomial p; its leading term is the largest
# exponent tuple (lex order).
Affine = dict[tuple[int, ...], int]


def _exquo(p: Affine, d: Affine) -> Affine | None:
    """The exact quotient p / d of nonzero affine polynomials over Z, or None
    when d does not divide p.

    Both pack by one Kronecker substitution into decimal slots: strides from
    p's degree in each variable, and a slot width w whose 10**w exceeds
    twice |p| + len(d) |d| Q, where Q = 2**(deg p - deg d) ||p||_2 bounds
    the coefficients of any quotient (Mahler measure: M(q) <= M(p) <=
    ||p||_2, and a coefficient of q is at most 2**deg q M(q)).  libmpdec
    divides exactly, and _unpack reads every balanced digit of the integer
    quotient, keyed by the exponents of the stride box in slot order, as q.
    The result is proved, not trusted: pack(d) pack(q) == pack(p) holds
    as integers, q d lies in the stride box (deg q + deg d <= deg p in
    every variable), and every coefficient of p - q d is below half a slot
    (|q| <= Q), so p - q d, which packs to zero, is zero.
    """
    nvars = len(next(iter(p)))
    deg_p = [max(e[v] for e in p) for v in range(nvars)]
    deg_d = [max(e[v] for e in d) for v in range(nvars)]
    lead_p, lead_d = max(p), max(d)
    if (
        any(a < b for a, b in zip(deg_p, deg_d))
        or any(a < b for a, b in zip(lead_p, lead_d))
        or p[lead_p] % d[lead_d]
    ):
        return None  # the leading term of a product is the product of theirs
    strides = [0] * nvars
    slots = 1
    for v in range(nvars - 1, -1, -1):
        strides[v] = slots
        slots *= deg_p[v] + 1
    q_bound = (math.isqrt(sum(c * c for c in p.values())) + 1) << (sum(deg_p) - sum(deg_d))
    p_max = max(abs(c) for c in p.values())
    width = _decimal_width(2 * (p_max + len(d) * max(abs(c) for c in d.values()) * q_bound))

    def pack(poly):
        return _pack([(sum(x * s for x, s in zip(e, strides)), c) for e, c in poly.items()], width)

    quotient, remainder = _CTX.divmod(pack(p), pack(d))
    if remainder:
        return None
    terms = _unpack(str(_CTX.add(quotient, _bias(width, slots))), width, slots,
                    itertools.product(*(range(x + 1) for x in deg_p)))
    if not terms or any(abs(c) > q_bound for _, c in terms):
        return None
    q = dict(terms)
    if any(max(e[v] for e in q) + deg_d[v] > deg_p[v] for v in range(nvars)):
        return None
    return q


def _evaluate_first(p: Affine, xi: int) -> Affine | int:
    """p with its first variable set to xi: an int if p is univariate."""
    powers = [1]
    for _ in range(max(e[0] for e in p)):
        powers.append(powers[-1] * xi)
    if len(next(iter(p))) == 1:
        return sum(c * powers[e[0]] for e, c in p.items())
    image: Affine = {}
    for e, c in p.items():
        image[e[1:]] = image.get(e[1:], 0) + c * powers[e[0]]
    return {e: c for e, c in image.items() if c}


def _interpolate(image: Affine | int, xi: int) -> Affine:
    """The polynomial whose first variable's coefficients are the balanced
    base-xi digits of image's coefficients, with positive leading
    coefficient."""
    half = xi // 2
    out: Affine = {}
    for rest, c in image.items() if isinstance(image, dict) else (((), image),):
        i = 0
        while c:
            c, digit = divmod(c, xi)
            if digit > half:
                digit -= xi
                c += 1
            if digit:
                out[(i,) + rest] = digit
            i += 1
    if out[max(out)] < 0:
        out = {e: -c for e, c in out.items()}
    return out


def _candidates(
    polys: list[Affine], h: Affine | int, cofactors: list, xi: int
) -> Iterator[tuple[Affine, list]]:
    """sympy's three candidate routes, from the images' gcd h and cofactors
    at xi: the primitive part of h interpolated, with no quotient known yet;
    then, for each entry, its cofactor interpolated, with the entry's exact
    quotient by it as the divisor."""
    h = _interpolate(h, xi)
    g = math.gcd(*h.values())
    yield {e: c // g for e, c in h.items()}, [None] * len(polys)
    for j, image in enumerate(cofactors):
        cofactor = _interpolate(image, xi)
        h = _exquo(polys[j], cofactor)
        if h is not None:
            quotients = [None] * len(polys)
            quotients[j] = cofactor
            yield h, quotients


_HEUGCD_TRIES = 6  # evaluation points per level, as in sympy's heugcd


def _heugcd(polys: list[Affine]) -> Iterator[tuple[Affine, list[Affine]]]:
    """Yield common divisors h of nonzero affine polynomials over Z with their
    cofactors, h * cofactors[i] == polys[i] for every i, proved by _exquo.

    The heuristic gcd (Char, Geddes and Gonnet 1989; Liao and Fateman 1995),
    ported from sympy's heugcd to any number of entries: the integer
    content is pulled out and multiplied back into every h; the first
    variable is evaluated at xi, and the images' gcd and cofactors come
    from math.gcd when they are ints and from this function's first yield
    otherwise.  Three kinds of candidate are then tried: the primitive part
    of the gcd interpolated from balanced base-xi digits, and for each
    entry, its cofactor interpolated the same way, with h its exact quotient.
    Each candidate h must divide every entry exactly.  xi starts and grows
    as in sympy; RuntimeError after _HEUGCD_TRIES points.  The first yield
    is the gcd whenever xi is large enough, and it is what sympy returns;
    a caller may ask for more.
    """
    content = math.gcd(*(c for p in polys for c in p.values()))
    if content != 1:
        polys = [{e: c // content for e, c in p.items()} for p in polys]
    norms = [max(abs(c) for c in p.values()) for p in polys]
    bound = 2 * min(norms) + 29
    xi = max(
        min(bound, 99 * math.isqrt(bound)),
        2 * min(n // abs(p[max(p)]) for n, p in zip(norms, polys)) + 4,
    )
    for _ in range(_HEUGCD_TRIES):
        images = [_evaluate_first(p, xi) for p in polys]
        if all(images):
            if isinstance(images[0], int):
                image_gcd = math.gcd(*images)
                cofactors = [a // image_gcd for a in images]
            else:
                image_gcd, cofactors = next(_heugcd(images))
            for h, quotients in _candidates(polys, image_gcd, cofactors, xi):
                for i, p in enumerate(polys):
                    if quotients[i] is None:
                        quotients[i] = _exquo(p, h)
                        if quotients[i] is None:
                            break
                else:
                    yield {e: c * content for e, c in h.items()}, quotients
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    raise RuntimeError(f"heuristic gcd found no exact divisor in {_HEUGCD_TRIES} tries")


def _divide_out_gcd(space: Space, polys: Sequence[MultiHomPoly]) -> tuple[MultiHomPoly, ...]:
    """Divide the exact gcd over Z out of every entry of a stripped tuple.

    The gcd is taken on the stored keys, in the affine ring where the last
    variable of each factor block is 1.  That is exact.  Setting a variable
    to 1 respects products, and it loses nothing on a polynomial that the
    variable does not divide: the stored keys and the multidegree give it
    back.  After the strip no variable divides every entry, so none
    divides the gcd, and the affine gcd is the image of the homogeneous
    one.  So the gcd's degree in block i is the largest block-i sum of its
    affine exponents, and each quotient's multidegree is its entry's minus
    the gcd's.  The quotients need no second strip: a variable or an
    integer dividing all of them would divide every entry.

    The gcd is the heuristic one (_heugcd), and the result is proved in
    two parts: every quotient times the divisor is its entry exactly
    (_exquo), and the quotients pass _certify_coprime.  Quotients it
    cannot certify get another divisor taken out; a candidate that divides
    out nothing is skipped.  RuntimeError when the heuristic runs out of
    evaluation points.
    """
    active = [i for i, p in enumerate(polys) if not p.is_zero]
    degree = polys[active[0]].multidegree
    blocks = _blocks(space)
    entries = [dict(polys[i].terms) for i in active]
    out = list(polys)
    while True:
        h, entries = next(
            (h, q) for h, q in _heugcd(entries) if len(h) > 1 or any(next(iter(h)))
        )
        degree = tuple(d - max(sum(e[lo:hi]) for e in h) for d, (lo, hi) in zip(degree, blocks))
        for i, q in zip(active, entries):
            out[i] = MultiHomPoly(space, tuple(sorted(q.items())), degree)
        if _certify_coprime([out[i] for i in active]):
            return tuple(out)


def reduce_tuple(space: Space, polys: Sequence[MultiHomPoly]) -> tuple[MultiHomPoly, ...]:
    """Canonical reduced form of a component tuple.

    ValueError unless the nonzero entries share one multidegree.  Strips
    the common monomial factor and integer content directly.  When at
    least two nonzero entries remain and none of them is a monomial (a
    monomial entry would force any common factor to be a monomial, which
    is already stripped), the mod-p certificate runs first and only a tuple
    it cannot certify coprime gets an exact gcd.  The sign is normalized so
    the first nonzero entry has positive leading coefficient.
    """
    polys = tuple(polys)
    degrees = {p.multidegree for p in polys if not p.is_zero}
    if not degrees:
        raise CompositionCollapseError("component tuple is identically zero")
    if len(degrees) != 1:
        raise ValueError("tuple entries have inconsistent multidegrees")
    polys = _strip_monomial_and_content(polys)
    active = [p for p in polys if not p.is_zero]
    if len(active) == 1:
        # projectively a coordinate point in this factor: divide by itself
        polys = tuple(
            MultiHomPoly.constant(space, 1) if not p.is_zero else p for p in polys
        )
    elif not any(p.is_monomial for p in active) and not _certify_coprime(active):
        polys = _divide_out_gcd(space, polys)
    first = next(p for p in polys if not p.is_zero)
    if first.terms[-1][1] < 0:
        polys = tuple(p.scale(-1) for p in polys)
    return polys


@dataclass(frozen=True)
class RationalMapDesc:
    """A rational self-map in reduced multihomogeneous coordinates.

    components[i] is the tuple of n_i + 1 polynomials defining the map to
    the i-th factor; construction reduces each tuple to canonical form.
    fibration_dim = l marks the coordinate projection onto the first l
    factors, 0 < l < num_factors, and the map must preserve it: after
    reduction the base components 1..l may use base variables only (the
    skew-product shape validate_skew reports).  Construction raises
    FibrationError otherwise.

    Dominance is not certified at construction; see check_dominance for the
    probabilistic Jacobian test (full rank at one rational point certifies
    dominance, failure to find one only warns).
    """

    space: Space
    components: tuple[tuple[MultiHomPoly, ...], ...]
    fibration_dim: int | None = None

    def __post_init__(self) -> None:
        if len(self.components) != self.space.num_factors:
            raise ValueError("need one component tuple per factor")
        reduced = []
        for i, (n, comp) in enumerate(zip(self.space.factors, self.components)):
            comp = tuple(comp)
            if len(comp) != n + 1:
                raise ValueError(
                    f"component {i} needs {n + 1} polynomials, got {len(comp)}"
                )
            for p in comp:
                if p.space != self.space:
                    raise ValueError("component polynomial on wrong space")
            try:
                reduced.append(reduce_tuple(self.space, comp))
            except CompositionCollapseError:
                raise CompositionCollapseError(
                    f"component {i} is identically zero"
                ) from None
        object.__setattr__(self, "components", tuple(reduced))
        if self.fibration_dim is not None:
            l = int(self.fibration_dim)
            object.__setattr__(self, "fibration_dim", l)
            self.space.with_base(l)  # Space checks 0 < l < num_factors
            if not validate_skew(self):
                raise FibrationError("map does not have skew-product shape for its fibration")

    @cached_property
    def multidegree_matrix(self) -> IntMatrix:
        """Row i = multidegree vector of component i (reduced form)."""
        rows = []
        for comp in self.components:
            deg = next(p.multidegree for p in comp if not p.is_zero)
            rows.append(deg)
        return freeze(rows)

    @property
    def fibered_space(self) -> Space:
        if self.fibration_dim is None:
            raise FibrationError("map has no fibration marked")
        return self.space.with_base(self.fibration_dim)


def compose(f: RationalMapDesc, g: RationalMapDesc) -> RationalMapDesc:
    """f after g, in reduced form.

    Substitutes g's components into f's homogeneous view, where each full
    exponent picks one of g's components, and cancels the common factor of
    each resulting tuple.  Every entry of f reads one table of the powers
    of g's components, and each monomial of an entry adds its coefficient
    times the product of its powers into one dict; the multidegree of
    tuple i is row i of f's matrix times g's.  Raises
    CompositionCollapseError when a whole tuple vanishes (the composition's
    image meets the indeterminacy locus of f along the image of g).  The
    result keeps f's fibration, and its construction checks it again.
    """
    if f.space.factors != g.space.factors:
        raise ValueError("composition needs self-maps of the same space")
    space = g.space
    one = MultiHomPoly.constant(space, 1)
    images = [p for comp in g.components for p in comp]
    powers: dict[tuple[int, int], MultiHomPoly] = {}
    new_components = []
    for i, (comp, row) in enumerate(zip(f.components, f.multidegree_matrix)):
        degree = tuple(sum(d * g_row[j] for d, g_row in zip(row, g.multidegree_matrix))
                       for j in range(space.num_factors))
        entries = []
        for p in comp:
            acc: dict[tuple[int, ...], int] = {}
            for exponents, coefficient in p.homogeneous_terms():
                term = None
                for v, e in enumerate(exponents):
                    if e:
                        if (v, e) not in powers:
                            powers[v, e] = images[v].power(e)
                        term = powers[v, e] if term is None else term * powers[v, e]
                        if term.is_zero:
                            break
                for m, c in (one if term is None else term).terms:
                    acc[m] = acc.get(m, 0) + coefficient * c
            terms = tuple(sorted((m, c) for m, c in acc.items() if c != 0))
            entries.append(MultiHomPoly(space, terms, degree if terms else None))
        if all(p.is_zero for p in entries):
            raise CompositionCollapseError(
                f"component {i} vanishes identically after composition"
            )
        new_components.append(tuple(entries))
    return RationalMapDesc(space, tuple(new_components), f.fibration_dim)


@dataclass(frozen=True)
class IterateData:
    """Reduced iterate data: multidegrees of f^1..f^N and degrees lambda1.

    The multidegrees are those of the reduced iterates, whether read from
    composed iterates or, for a product of maps of P^1, from powers of f's
    multidegree matrix (see iterate_multidegrees).

    lambda1[n] is the pairing of (f^n)^* omega with omega^{k-1} for
    n = 0..N, the total sequence of cohomology.sequence_pairings (index 0
    is the identity normalization).
    truncated is set when the per-component total-degree cap stopped the
    iteration early; the fields then hold the computed prefix.
    """

    multidegrees: tuple[IntMatrix, ...]
    lambda1: tuple[int, ...]
    truncated: bool


def _pullback_table(space: Space, multidegrees: Sequence[IntMatrix]) -> list[CohClass]:
    """(f^n)^* omega for n = 0..N from the multidegree matrices of f^1..f^N:
    row i of f^n's matrix pulls h_i back to sum_j rows[i][j] h_j."""
    m = space.num_factors
    return [CohClass.make(space, 1, {
        tuple(int(t == j) for t in range(m)): sum(row[j] for row in rows) for j in range(m)
    }) for rows in (identity(m), *multidegrees)]


def iterate_multidegrees(
    f: RationalMapDesc,
    n_max: int,
    max_total_degree: int = DEFAULT_MAX_TOTAL_DEGREE,
) -> IterateData:
    """Reduced multidegrees of f, f^2, ..., f^n_max and their degrees lambda1.

    Iteration stops early (truncated = True) as soon as any component's
    total degree would exceed max_total_degree; the computed prefix is
    returned.  lambda1[0] is the pairing of omega with omega^{k-1}.

    Each iterate is composed with f and reduced, except for a product of
    maps of P^1: every factor is P^1 and the multidegree matrix is
    diagonal, M = diag(d_1, ..., d_k).  Then the multidegrees of f^n are
    M^n, with no composition.  The diagonal test is enough because every
    entry is multihomogeneous: a zero at (i, j) means component i uses none
    of factor j's variables, so component i is a pair of binary forms in
    factor i's two variables.  Reduced, the two forms are coprime, so they
    have no common zero on P^1 and the factor map is a morphism, a constant
    one when d_i = 0.  A composition of morphisms is a morphism, and a
    morphism's tuple has no common factor, since a nonconstant one would
    vanish at some point of P^1.  So no iterate of f reduces or collapses,
    and component i of f^n has degree d_i^n in its own variables
    (Silverman, The Arithmetic of Dynamical Systems, ch. 2).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    space = f.space
    m = space.num_factors
    matrix = f.multidegree_matrix
    morphism = all(n == 1 for n in space.factors) and all(
        matrix[i][j] == 0 for i in range(m) for j in range(m) if i != j
    )
    multidegrees: list[IntMatrix] = []
    current = f
    truncated = False
    for n in range(1, n_max + 1):
        if n == 1:
            degs = matrix
        elif morphism:
            degs = mat_mul(matrix, degs)
        else:
            current = compose(f, current)
            degs = current.multidegree_matrix
        if any(sum(row) > max_total_degree for row in degs):
            truncated = True
            break
        multidegrees.append(degs)
    lambda1 = sequence_pairings(_pullback_table(space, multidegrees), space, 1, "total")
    return IterateData(tuple(multidegrees), tuple(lambda1), truncated)


def validate_skew(f: RationalMapDesc) -> bool:
    """True iff the base components only use base-factor variables.

    A multihomogeneous entry uses none of factor j's variables exactly when
    its degree in factor j is 0, so the fiber degrees of every nonzero base
    entry must be 0.
    """
    if f.fibration_dim is None:
        raise FibrationError("validate_skew needs fibration_dim set")
    l = f.fibration_dim
    return not any(
        any(p.multidegree[l:]) for comp in f.components[:l] for p in comp if not p.is_zero
    )


def base_map(f: RationalMapDesc) -> RationalMapDesc:
    """The induced self-map of the base (first l factors) of a skew product.

    Base entries have fiber degree 0, so their stored fiber exponents are 0
    and cutting them off keeps the term order.
    """
    base_space = f.fibered_space.base_space()
    l = f.fibration_dim
    keep = base_space.dim
    components = tuple(
        tuple(
            MultiHomPoly(base_space, tuple((e[:keep], c) for e, c in p.terms),
                         None if p.is_zero else p.multidegree[:l])
            for p in comp
        )
        for comp in f.components[:l]
    )
    return RationalMapDesc(base_space, components)


def fiber_degree_sequence(
    f: RationalMapDesc,
    n_max: int,
    max_total_degree: int = DEFAULT_MAX_TOTAL_DEGREE,
) -> list[int]:
    """Fiber degrees of f^0..f^N from the reduced multidegree matrices.

    Each pullback class of omega is cut by the full base power and paired
    against the complementary omega power, alpha(., 0): the relative kind of
    cohomology.sequence_pairings, which isolates the fiber-variable degrees
    of the fiber components.  The list stops early when the degree cap
    truncates the iteration.
    """
    space = f.fibered_space
    data = iterate_multidegrees(f, n_max, max_total_degree)
    return sequence_pairings(_pullback_table(space, data.multidegrees), space, 1, "relative")


_DOMINANCE_POINTS = 3

# MultiHomPoly.homogeneous_terms, or a derivative of it
Terms = Sequence[tuple[tuple[int, ...], int]]


def _derivative(terms: Terms, var: int) -> Terms:
    """d/dx_var of homogeneous terms; distinct exponents stay distinct."""
    return [(e[:var] + (e[var] - 1,) + e[var + 1 :], c * e[var]) for e, c in terms if e[var]]


def _evaluate(terms: Terms, point: Sequence[int]) -> int:
    return sum(c * math.prod(x**k for x, k in zip(point, e) if k) for e, c in terms)


def check_dominance(f: RationalMapDesc, rng: random.Random | None = None) -> bool:
    """Probabilistic dominance test via an exact Jacobian determinant at random points.

    At up to three random integer points, each component tuple is read in
    the affine chart of its entry q of largest absolute value.  The
    Jacobian row of P_j / q is (q dP_j - P_j dq) / q^2; the integer row
    q dP_j - P_j dq is that row times q^2 != 0, so the rank is the same.
    Tuple i gives n_i rows and there is one column per affine variable, so
    the Jacobian is square of size dim, and it has full rank exactly when
    its determinant is nonzero.  Full rank at any point certifies
    dominance; if no tested point has full rank, a DominanceWarning is
    emitted (never an error -- the test is one-sided).  The entries are
    read through their homogeneous views, in the chart x_{i,0} = 1.
    """
    rng = rng or random.Random(1729)
    space = f.space
    layout = variable_layout(space)
    affine_vars = [start + j for start, count in layout for j in range(1, count)]
    components = [
        [(t, [_derivative(t, v) for v in affine_vars])
         for t in map(MultiHomPoly.homogeneous_terms, comp)]
        for comp in f.components
    ]
    for _ in range(_DOMINANCE_POINTS):
        for _attempt in range(40):
            point = [0] * num_variables(space)
            for start, count in layout:
                point[start] = 1
                for j in range(1, count):
                    point[start + j] = rng.randint(-9, 9)
            values = [[_evaluate(t, point) for t, _ in comp] for comp in components]
            if not all(any(vals) for vals in values):
                continue
            jac = []
            for comp, vals in zip(components, values):
                pivot = max(range(len(vals)), key=lambda j: abs(vals[j]))
                q, dq = vals[pivot], [_evaluate(d, point) for d in comp[pivot][1]]
                for j, (_, dp) in enumerate(comp):
                    if j != pivot:
                        jac.append([_evaluate(d, point) * q - vals[j] * c
                                    for d, c in zip(dp, dq)])
            if det(jac) != 0:
                return True
            break
    warnings.warn(
        "no full-rank Jacobian point found; the map may not be dominant",
        DominanceWarning,
        stacklevel=2,
    )
    return False


def monomial_to_rational(matrix, fibration_dim: int | None = None) -> RationalMapDesc:
    """Express a monomial map of (P^1)^k as a reduced rational map.

    Coordinate i with exponent row a: the affine monomial prod x_j^{a_j}
    homogenizes to the pair (prod x_{j,0}^{a_j^+} x_{j,1}^{a_j^-},
    prod x_{j,0}^{a_j^-} x_{j,1}^{a_j^+}), one P^1 pair per coordinate, of
    multidegree |a|.  Their stored keys are the exponents of the x_{j,0}.
    """
    mat = freeze(matrix)
    space = Space((1,) * len(mat))
    components = tuple(
        tuple(MultiHomPoly(space, ((tuple(max(sign * a, 0) for a in row), 1),),
                           tuple(map(abs, row)))
              for sign in (1, -1))
        for row in mat
    )
    return RationalMapDesc(space, components, fibration_dim)
