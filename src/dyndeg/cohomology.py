"""Exact intersection arithmetic on products of projective spaces.

All computations happen in the truncated polynomial ring

    Z[h_1, ..., h_m] / (h_1^{n_1+1}, ..., h_m^{n_m+1}),

where h_i is the hyperplane class of the i-th factor of
X = P^{n_1} x ... x P^{n_m}.  A class of pure degree p is stored as an
integer combination of the monomials h^e with 0 <= e_i <= n_i and
sum(e) = p.  Effectiveness means coefficientwise nonnegativity; products
of effective classes stay effective, which is the positivity the degree
estimators rely on.

Coefficients are Python ints, so pullback classes of high iterates are
exact regardless of size.  Nothing here uses floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping


class SpaceMismatchError(ValueError):
    """Operands live on different model spaces."""


class DegreeRangeError(ValueError):
    """A cohomological degree, power, or window index is out of range."""


class FibrationError(ValueError):
    """A fibration-specific operation was requested without a valid fibration."""


@dataclass(frozen=True)
class Space:
    """A product of projective spaces, optionally fibered over leading factors.

    factors[i] = n_i is the dimension of the i-th factor.  When
    ``base_factors = l`` is set, the space is regarded as fibered by the
    coordinate projection onto its first l factors; the base then is the
    product of those factors and has dimension sum(factors[:l]).  A trivial
    base (l = 0) or trivial fiber (l = m) is rejected.
    """

    factors: tuple[int, ...]
    base_factors: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(int(n) for n in self.factors))
        if len(self.factors) == 0:
            raise ValueError("a space needs at least one factor")
        if any(n < 1 for n in self.factors):
            raise ValueError("factor dimensions must be positive")
        if self.base_factors is not None:
            l = int(self.base_factors)
            object.__setattr__(self, "base_factors", l)
            if not 0 < l < len(self.factors):
                raise FibrationError(
                    f"base must use between 1 and {len(self.factors) - 1} factors, got {l}"
                )

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    @property
    def dim(self) -> int:
        return sum(self.factors)

    @property
    def base_dim(self) -> int:
        """Dimension of the base of the fibration (not the factor count)."""
        if self.base_factors is None:
            raise FibrationError("space has no fibration marked")
        return sum(self.factors[: self.base_factors])

    @property
    def top(self) -> tuple[int, ...]:
        """Exponent vector of the top monomial h_1^{n_1} ... h_m^{n_m}."""
        return self.factors

    def with_base(self, base_factors: int | None) -> "Space":
        return Space(self.factors, base_factors)

    def base_space(self) -> "Space":
        if self.base_factors is None:
            raise FibrationError("space has no fibration marked")
        return Space(self.factors[: self.base_factors])


def degree_exponents(space: Space, p: int) -> Iterator[tuple[int, ...]]:
    """Iterate the monomial basis exponents of degree p (lexicographic)."""
    if not 0 <= p <= space.dim:
        raise DegreeRangeError(f"degree {p} out of range 0..{space.dim}")
    return (e for e in itertools.product(*(range(n + 1) for n in space.factors))
            if sum(e) == p)


@dataclass(frozen=True)
class CohClass:
    """A pure-degree class, stored as sorted (exponent, coefficient) pairs.

    Use :meth:`make` to construct; it validates exponent bounds, drops zero
    coefficients, and sorts, so equality and hashing are structural.
    """

    space: Space
    degree: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def make(
        cls, space: Space, degree: int, coeffs: Mapping[tuple[int, ...], int]
    ) -> "CohClass":
        if not 0 <= degree <= space.dim:
            raise DegreeRangeError(
                f"degree {degree} out of range 0..{space.dim}"
            )
        cleaned: dict[tuple[int, ...], int] = {}
        for exponents, value in coeffs.items():
            value = int(value)
            if value == 0:
                continue
            e = tuple(int(x) for x in exponents)
            if len(e) != space.num_factors:
                raise ValueError(
                    f"exponent vector {e} has wrong length for {space.num_factors} factors"
                )
            if any(not 0 <= e[i] <= space.factors[i] for i in range(len(e))):
                raise DegreeRangeError(f"exponent vector {e} exceeds factor bounds")
            if sum(e) != degree:
                raise DegreeRangeError(
                    f"exponent vector {e} has degree {sum(e)}, expected {degree}"
                )
            cleaned[e] = cleaned.get(e, 0) + value
        terms = tuple(sorted((e, c) for e, c in cleaned.items() if c != 0))
        return cls(space, degree, terms)

    def coeff(self, exponents: tuple[int, ...]) -> int:
        for e, c in self.terms:
            if e == exponents:
                return c
        return 0

    def __add__(self, other: "CohClass") -> "CohClass":
        if self.space != other.space:
            raise SpaceMismatchError("cannot add classes on different spaces")
        if self.degree != other.degree:
            raise DegreeRangeError("cannot add classes of different degrees")
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return CohClass.make(self.space, self.degree, acc)


def zero_class(space: Space, degree: int) -> CohClass:
    return CohClass.make(space, degree, {})


def unit_class(space: Space) -> CohClass:
    return CohClass.make(space, 0, {(0,) * space.num_factors: 1})


def _hyperplane_sum(space: Space, factors: Iterable[int]) -> CohClass:
    """The sum of the hyperplane classes h_i over the factor indices i."""
    m = space.num_factors
    return CohClass.make(space, 1, {tuple(int(j == i) for j in range(m)): 1 for i in factors})


def kaehler_class(space: Space) -> CohClass:
    """omega_X = h_1 + ... + h_m."""
    return _hyperplane_sum(space, range(space.num_factors))


def mul(c1: CohClass, c2: CohClass) -> CohClass:
    """Truncated product: monomials exceeding any factor bound vanish."""
    if c1.space != c2.space:
        raise SpaceMismatchError("cannot multiply classes on different spaces")
    space = c1.space
    degree = c1.degree + c2.degree
    if degree > space.dim:
        raise DegreeRangeError(
            f"product degree {degree} exceeds dim {space.dim}"
        )
    bounds = space.factors
    acc: dict[tuple[int, ...], int] = {}
    for e1, a in c1.terms:
        for e2, b in c2.terms:
            e = tuple(x + y for x, y in zip(e1, e2))
            if any(e[i] > bounds[i] for i in range(len(e))):
                continue
            acc[e] = acc.get(e, 0) + a * b
    return CohClass.make(space, degree, acc)


@lru_cache(maxsize=None)
def kaehler_power(space: Space, p: int) -> CohClass:
    """omega_X^p, computed by repeated truncated multiplication."""
    if not 0 <= p <= space.dim:
        raise DegreeRangeError(f"power {p} out of range 0..{space.dim}")
    if p == 0:
        return unit_class(space)
    return mul(kaehler_power(space, p - 1), kaehler_class(space))


def pairings(classes: Iterable[CohClass], weight: CohClass) -> list[int]:
    """Intersection number of each class with one complementary-degree weight.

    Only the coefficient pairs on complementary monomials survive:
    h^e . h^{n-e} integrates to 1 and everything else to 0.  The weight's
    coefficients are looked up by complement once for the whole table.
    """
    space = weight.space
    top = space.top
    lookup = {tuple(n - x for n, x in zip(top, e)): b for e, b in weight.terms}
    out = []
    for c in classes:
        if c.space is not space and c.space != space:
            raise SpaceMismatchError("cannot pair classes on different spaces")
        if c.degree + weight.degree != space.dim:
            raise DegreeRangeError(
                f"pairing needs complementary degrees, "
                f"got {c.degree} + {weight.degree} != {space.dim}"
            )
        total = 0
        for e, a in c.terms:
            b = lookup.get(e)
            if b:  # most weights vanish on part of the basis
                total += a * b
        out.append(total)
    return out


def pair(c1: CohClass, c2: CohClass) -> int:
    """Intersection number of complementary-degree classes: pairings of the
    one-class table [c1] against c2.  To pair many classes against one
    weight, call pairings."""
    return pairings([c1], c2)[0]


@lru_cache(maxsize=None)
def base_pullback_power(space: Space, j: int) -> CohClass:
    """(pi^* omega_Y)^j for the marked fibration, as a class upstairs.

    pi^* omega_Y is the sum of the base-factor hyperplane classes, so its
    j-th power is supported on base exponents only.  Powers beyond the base
    dimension are rejected rather than silently returned as zero.
    """
    if not 0 <= j <= space.base_dim:
        raise DegreeRangeError(
            f"base power {j} out of range 0..{space.base_dim}"
        )
    if j == 0:
        return unit_class(space)
    omega_base = _hyperplane_sum(space, range(space.base_factors))
    return mul(base_pullback_power(space, j - 1), omega_base)


def admissible_window(p: int, base: int, fiber: int) -> range:
    """The j with max(0, p - fiber) <= j <= min(p, base), ascending: the
    base cuts a degree-p class admits over a base of dimension base with
    fibers of dimension fiber."""
    return range(max(0, p - fiber), min(p, base) + 1)


@lru_cache(maxsize=None)
def alpha_weight(space: Space, p: int, j: int) -> CohClass:
    """(pi^* omega_Y)^{L-j} . omega_X^{k-L-p+j}: the weight alpha pairs a
    degree-p class against (L the base dimension, k = dim X).

    The admissible window is max(0, p-k+L) <= j <= min(p, L); outside it the
    exponents would be negative or exceed the base, and we raise instead of
    zeroing.
    """
    big_l = space.base_dim
    window = admissible_window(p, big_l, space.dim - big_l)
    if j not in window:
        raise DegreeRangeError(
            f"alpha index {j} outside admissible window {window.start}..{window.stop - 1}"
        )
    return mul(
        base_pullback_power(space, big_l - j),
        kaehler_power(space, space.dim - big_l - p + j),
    )


def mixed_window(space: Space, p: int) -> range:
    """The q of the mixed sequences a_{q,p} on a fibred space: q = p - j
    over alpha's window, which is that window with base and fiber swapped."""
    big_l = space.base_dim
    return admissible_window(p, space.dim - big_l, big_l)


def sequence_pairings(table: Iterable[CohClass], space: Space, p: int, kind: str,
                      q: int | None = None) -> list[int]:
    """Pairs each degree-p class of table, a pullback (f^n)^* omega^p, with
    the one weight of kind: omega^{k-p} for total, the degrees d_p(f^n);
    alpha_weight(., p, 0) for relative, d_p(f^n | pi); alpha_weight(., p,
    p - q) for mixed, a_{q,p} with q in mixed_window; for summed, b_p, the
    sum of the mixed weights, as a pairing is linear in its weight.  The
    last three kinds need a fibred space.  No other code picks these weights.

    The weights serve coordinate-projection fibrations.  The relative
    sequence of a meromorphic fibration pi_B(x) = x^B is not a pairing of
    this table with a fixed class: the cup product with pi_B^* omega_Y^l
    missed on 25 of 60 drawn maps.
    """
    if kind == "total":
        weight = kaehler_power(space, space.dim - p)
    elif kind in ("relative", "mixed"):  # relative is the extreme mixed a_{p,p}
        weight = alpha_weight(space, p, 0 if kind == "relative" else p - q)
    elif kind == "summed":
        weight = sum((alpha_weight(space, p, p - q) for q in mixed_window(space, p)),
                     zero_class(space, space.dim - p))
    else:
        raise ValueError(f"unknown sequence kind {kind!r}")
    return pairings(table, weight)


def alpha(c: CohClass, j: int) -> int:
    """Mixed pairing <c, (pi^* omega_Y)^{L-j} . omega_X^{k-L-p+j}>, with L
    the base dimension and p the degree of c; alpha_weight checks j.

    For effective c these numbers are nondecreasing in j because
    pi^* omega_Y <= omega_X coefficientwise.
    """
    return pair(c, alpha_weight(c.space, c.degree, j))
