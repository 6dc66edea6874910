"""Multihomogeneous rational self-maps of products of projective spaces.

A map is described per factor: component i is a tuple of n_i + 1
multihomogeneous polynomials sharing a common multidegree, with no common
factor (reduced form).  Composition is substitution followed by exact
cancellation of the common factor; the drop between the naive product of
multidegrees and the reduced multidegree is precisely the degree-drop
phenomenon that makes first dynamical degrees of rational maps
non-obvious, so the cancellation step is the heart of this module.

Cancellation is staged: the common *monomial* part and the integer content
are stripped by direct exponent/coefficient arithmetic (this covers the
classical examples, e.g. the Cremona involution), and only tuples with no
monomial entry left go through a general multivariate gcd (sympy, exact
over Z).  Large polynomial products use Kronecker packing into big
integers; everything stays exact.

Coordinates and charts: within factor i the variables are
x_{i,0}, ..., x_{i,n_i}; affine charts set x_{i,0} = 1, so on (P^1)^k the
affine value of coordinate i is component_i[1] / component_i[0].
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Sequence

import sympy
from sympy.polys import Poly

from .cohomology import CohClass, FibrationError, Space, alpha, mass
from .intmat import IntMatrix, freeze, identity

DEFAULT_MAX_TOTAL_DEGREE = 400
DEFAULT_N_MAX = 8

# above this many cross terms, multiplication goes through Kronecker packing
_KRON_THRESHOLD = 60_000


class CompositionCollapseError(ValueError):
    """A whole component tuple became identically zero (indeterminacy collapse)."""


class DominanceWarning(UserWarning):
    """The probabilistic Jacobian test found no full-rank point."""


def variable_layout(space: Space) -> tuple[tuple[int, int], ...]:
    """(start, count) of each factor's homogeneous variable block."""
    layout = []
    start = 0
    for n in space.factors:
        layout.append((start, n + 1))
        start += n + 1
    return tuple(layout)


def num_variables(space: Space) -> int:
    return sum(n + 1 for n in space.factors)


@lru_cache(maxsize=None)
def _sympy_gens(space: Space) -> tuple:
    names = []
    for i, n in enumerate(space.factors):
        names.extend(f"x{i}_{j}" for j in range(n + 1))
    return sympy.symbols(names)


@dataclass(frozen=True)
class MultiHomPoly:
    """A multihomogeneous polynomial with integer coefficients.

    terms maps full exponent vectors (concatenated over the factor blocks)
    to coefficients; within each block the exponent sum is the same for
    every monomial (checked by make).  The zero polynomial has no terms and
    multidegree None.
    """

    space: Space
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def make(cls, space: Space, coeffs) -> "MultiHomPoly":
        nvars = num_variables(space)
        cleaned: dict[tuple[int, ...], int] = {}
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        for exponents, value in items:
            value = int(value)
            if value == 0:
                continue
            e = tuple(int(x) for x in exponents)
            if len(e) != nvars:
                raise ValueError(f"exponent vector needs {nvars} entries, got {len(e)}")
            if any(x < 0 for x in e):
                raise ValueError("exponents must be nonnegative")
            cleaned[e] = cleaned.get(e, 0) + value
        terms = tuple(sorted((e, c) for e, c in cleaned.items() if c != 0))
        poly = cls(space, terms)
        poly.multidegree  # validates block homogeneity
        return poly

    @classmethod
    def zero(cls, space: Space) -> "MultiHomPoly":
        return cls(space, ())

    @classmethod
    def variable(cls, space: Space, factor: int, index: int) -> "MultiHomPoly":
        start, count = variable_layout(space)[factor]
        if not 0 <= index < count:
            raise ValueError(f"variable index {index} out of range for factor {factor}")
        e = [0] * num_variables(space)
        e[start + index] = 1
        return cls.make(space, {tuple(e): 1})

    @classmethod
    def constant(cls, space: Space, value: int) -> "MultiHomPoly":
        if value == 0:
            return cls.zero(space)
        return cls.make(space, {(0,) * num_variables(space): value})

    @cached_property
    def multidegree(self) -> tuple[int, ...] | None:
        if not self.terms:
            return None
        layout = variable_layout(self.space)
        degs = None
        for e, _ in self.terms:
            d = tuple(sum(e[start : start + count]) for start, count in layout)
            if degs is None:
                degs = d
            elif degs != d:
                raise ValueError("polynomial is not multihomogeneous")
        return degs

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    @property
    def total_degree(self) -> int:
        d = self.multidegree
        return 0 if d is None else sum(d)

    def coeff(self, exponents: tuple[int, ...]) -> int:
        return dict(self.terms).get(tuple(exponents), 0)

    def __add__(self, other: "MultiHomPoly") -> "MultiHomPoly":
        if self.space != other.space:
            raise ValueError("cannot add polynomials on different spaces")
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return MultiHomPoly.make(self.space, acc)

    def __neg__(self) -> "MultiHomPoly":
        return self.scale(-1)

    def scale(self, factor: int) -> "MultiHomPoly":
        return MultiHomPoly(self.space, tuple((e, factor * c) for e, c in self.terms)) \
            if factor != 0 else MultiHomPoly.zero(self.space)

    def __mul__(self, other: "MultiHomPoly") -> "MultiHomPoly":
        if self.space != other.space:
            raise ValueError("cannot multiply polynomials on different spaces")
        if self.is_zero or other.is_zero:
            return MultiHomPoly.zero(self.space)
        if len(self.terms) * len(other.terms) <= _KRON_THRESHOLD:
            return _dict_mul(self, other)
        return _kron_mul(self, other)

    def power(self, exponent: int) -> "MultiHomPoly":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = MultiHomPoly.constant(self.space, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def derivative(self, var: int) -> "MultiHomPoly":
        acc: dict[tuple[int, ...], int] = {}
        for e, c in self.terms:
            if e[var] == 0:
                continue
            d = list(e)
            d[var] -= 1
            acc[tuple(d)] = acc.get(tuple(d), 0) + c * e[var]
        return MultiHomPoly(self.space, tuple(sorted(acc.items())))

    def evaluate(self, values: Sequence) -> Fraction | int:
        total = 0
        for e, c in self.terms:
            term = c
            for v, x in zip(e, values):
                if v:
                    term *= x ** v
            total += term
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        layout = variable_layout(self.space)
        names = []
        for i, (start, count) in enumerate(layout):
            names.extend(f"x{i}_{j}" for j in range(count))
        parts = []
        for e, c in self.terms:
            factors = [str(c)] if abs(c) != 1 or not any(e) else (["-"] if c == -1 else [])
            factors = [str(c)] if not any(e) else factors
            for v, exp in enumerate(e):
                if exp == 1:
                    factors.append(names[v])
                elif exp > 1:
                    factors.append(f"{names[v]}^{exp}")
            body = "*".join(f for f in factors if f not in ("", "-"))
            if c == -1 and any(e):
                body = "-" + body
            parts.append(body)
        return " + ".join(parts).replace("+ -", "- ")


def _dict_mul(p1: MultiHomPoly, p2: MultiHomPoly) -> MultiHomPoly:
    acc: dict[tuple[int, ...], int] = {}
    for e1, c1 in p1.terms:
        for e2, c2 in p2.terms:
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return MultiHomPoly(p1.space, tuple(sorted((e, c) for e, c in acc.items() if c != 0)))


def _kron_mul(p1: MultiHomPoly, p2: MultiHomPoly) -> MultiHomPoly:
    """Exact multiplication via Kronecker packing into big integers.

    The last variable of each factor block is left out of the packing --
    multihomogeneity fixes its exponent from the block degree -- so the
    packed size is governed by the product multidegree rather than the
    full exponent box.  Coefficients live in fixed-width slots wide enough
    that no carries cross slot boundaries; positive and negative parts are
    packed separately so slots stay nonnegative.
    """
    space = p1.space
    layout = variable_layout(space)
    prod_deg = [a + b for a, b in zip(p1.multidegree, p2.multidegree)]
    keep = [i for start, count in layout for i in range(start, start + count - 1)]
    max_sum = [0] * len(keep)
    for terms in (p1.terms, p2.terms):
        local = [0] * len(keep)
        for e, _ in terms:
            for j, i in enumerate(keep):
                if e[i] > local[j]:
                    local[j] = e[i]
        for j, m in enumerate(local):
            max_sum[j] += m
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

    def pack(terms, sign):
        buf = bytearray(size)
        for e, c in terms:
            if (c > 0) != sign:
                continue
            idx = sum(e[i] * s for i, s in zip(keep, strides))
            off = idx * slot_bytes
            buf[off : off + slot_bytes] = abs(c).to_bytes(slot_bytes, "little")
        return int.from_bytes(buf, "little")

    a_pos, a_neg = pack(p1.terms, True), pack(p1.terms, False)
    b_pos, b_neg = pack(p2.terms, True), pack(p2.terms, False)
    plus = a_pos * b_pos + a_neg * b_neg
    minus = a_pos * b_neg + a_neg * b_pos
    out_bytes = size + slot_bytes
    raw_plus = plus.to_bytes(out_bytes, "little")
    raw_minus = minus.to_bytes(out_bytes, "little")
    acc_terms: dict[tuple[int, ...], int] = {}
    nvars = num_variables(space)
    for idx in range(slots):
        off = idx * slot_bytes
        c = int.from_bytes(raw_plus[off : off + slot_bytes], "little") - int.from_bytes(
            raw_minus[off : off + slot_bytes], "little"
        )
        if c == 0:
            continue
        e = [0] * nvars
        rem = idx
        for j, i in enumerate(keep):
            e[i], rem = divmod(rem, strides[j])
        for f, (start, count) in enumerate(layout):
            e[start + count - 1] = prod_deg[f] - sum(e[start : start + count - 1])
        acc_terms[tuple(e)] = c
    return MultiHomPoly(space, tuple(sorted(acc_terms.items())))


def _to_sympy(p: MultiHomPoly) -> Poly:
    gens = _sympy_gens(p.space)
    return Poly.from_dict(dict(p.terms), *gens, domain=sympy.ZZ)


def _from_sympy(poly: Poly, space: Space) -> MultiHomPoly:
    return MultiHomPoly.make(space, {tuple(e): int(c) for e, c in poly.as_dict().items()})


def _strip_monomial_and_content(
    polys: Sequence[MultiHomPoly],
) -> tuple[MultiHomPoly, ...]:
    active = [p for p in polys if not p.is_zero]
    nvars = len(active[0].terms[0][0])
    mins = [min(e[v] for p in active for e, _ in p.terms) for v in range(nvars)]
    content = 0
    for p in active:
        for _, c in p.terms:
            content = math.gcd(content, c)
    if all(m == 0 for m in mins) and content == 1:
        return tuple(polys)
    out = []
    for p in polys:
        if p.is_zero:
            out.append(p)
            continue
        terms = tuple(
            (tuple(x - m for x, m in zip(e, mins)), c // content) for e, c in p.terms
        )
        out.append(MultiHomPoly(p.space, terms))
    return tuple(out)


def reduce_tuple(space: Space, polys: Sequence[MultiHomPoly]) -> tuple[MultiHomPoly, ...]:
    """Canonical reduced form of a component tuple.

    Strips the common monomial factor and integer content directly; runs a
    general exact gcd only when at least two nonzero entries remain and
    none of them is a monomial (a monomial entry would force any common
    factor to be a monomial, which is already stripped).  The sign is
    normalized so the first nonzero entry has positive leading coefficient.
    """
    polys = tuple(polys)
    if all(p.is_zero for p in polys):
        raise CompositionCollapseError("component tuple is identically zero")
    polys = _strip_monomial_and_content(polys)
    active = [p for p in polys if not p.is_zero]
    if len(active) == 1:
        # projectively a coordinate point in this factor: divide by itself
        polys = tuple(
            MultiHomPoly.constant(space, 1) if not p.is_zero else p for p in polys
        )
    elif not any(p.is_monomial for p in active):
        gcd_poly = reduce(lambda a, b: a.gcd(b), (_to_sympy(p) for p in active))
        if not gcd_poly.is_ground:
            polys = tuple(
                p if p.is_zero else _from_sympy(_to_sympy(p).exquo(gcd_poly), space)
                for p in polys
            )
            polys = _strip_monomial_and_content(polys)
    first = next(p for p in polys if not p.is_zero)
    if first.terms[-1][1] < 0:
        polys = tuple(p.scale(-1) for p in polys)
    degs = {p.multidegree for p in polys if not p.is_zero}
    if len(degs) != 1:
        raise ValueError("tuple entries have inconsistent multidegrees")
    return polys


@dataclass(frozen=True)
class RationalMapDesc:
    """A rational self-map in reduced multihomogeneous coordinates.

    components[i] is the tuple of n_i + 1 polynomials defining the map to
    the i-th factor; construction reduces each tuple to canonical form.
    fibration_dim = l marks the coordinate projection onto the first l
    factors; the skew-product shape (components 1..l free of fiber
    variables) is *not* forced here -- validate_skew reports it, and the
    operations that need the fibration enforce it.

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
            if not 0 < l < self.space.num_factors:
                raise FibrationError(
                    f"fibration must keep between 1 and {self.space.num_factors - 1} factors"
                )

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


def identity_map(space: Space, fibration_dim: int | None = None) -> RationalMapDesc:
    components = tuple(
        tuple(MultiHomPoly.variable(space, i, j) for j in range(n + 1))
        for i, n in enumerate(space.factors)
    )
    return RationalMapDesc(space, components, fibration_dim)


def _substitute(p: MultiHomPoly, images: Sequence[MultiHomPoly]) -> MultiHomPoly:
    space = images[0].space
    power_cache: dict[tuple[int, int], MultiHomPoly] = {}

    def var_power(v: int, e: int) -> MultiHomPoly:
        key = (v, e)
        if key not in power_cache:
            power_cache[key] = images[v].power(e)
        return power_cache[key]

    total = MultiHomPoly.zero(space)
    for exponents, coefficient in p.terms:
        term = MultiHomPoly.constant(space, coefficient)
        for v, e in enumerate(exponents):
            if e:
                term = term * var_power(v, e)
                if term.is_zero:
                    break
        total = total + term
    return total


def compose(f: RationalMapDesc, g: RationalMapDesc) -> RationalMapDesc:
    """f after g, in reduced form.

    Substitutes g's components into f's and cancels the common factor of
    each resulting tuple.  Raises CompositionCollapseError when a whole
    tuple vanishes (the composition's image meets the indeterminacy locus
    of f along the image of g).
    """
    if f.space.factors != g.space.factors:
        raise ValueError("composition needs self-maps of the same space")
    flat_images = [p for comp in g.components for p in comp]
    new_components = []
    for i, comp in enumerate(f.components):
        images = tuple(_substitute(p, flat_images) for p in comp)
        if all(p.is_zero for p in images):
            raise CompositionCollapseError(
                f"component {i} vanishes identically after composition"
            )
        new_components.append(images)
    return RationalMapDesc(g.space, tuple(new_components), f.fibration_dim)


@dataclass(frozen=True)
class IterateData:
    """Reduced iterate data: multidegrees of f^1..f^N and degree masses.

    lambda1[n] = mass((f^n)^* omega) for n = 0..N (index 0 is the identity
    normalization).  truncated is set when the per-component total-degree
    cap stopped the iteration early; the fields then hold the computed
    prefix.
    """

    multidegrees: tuple[IntMatrix, ...]
    lambda1: tuple[int, ...]
    truncated: bool

    @property
    def n_max(self) -> int:
        return len(self.multidegrees)


def _pullback_class(space: Space, rows: IntMatrix) -> CohClass:
    """(f^n)^* omega from the multidegree matrix of f^n: row i pulls h_i
    back to sum_j rows[i][j] h_j."""
    m = space.num_factors
    return CohClass.make(space, 1, {
        tuple(int(t == j) for t in range(m)): sum(row[j] for row in rows) for j in range(m)
    })


def iterate_multidegrees(
    f: RationalMapDesc,
    n_max: int = DEFAULT_N_MAX,
    max_total_degree: int = DEFAULT_MAX_TOTAL_DEGREE,
) -> IterateData:
    """Compose f with itself up to n_max times, tracking reduced multidegrees.

    Iteration stops early (truncated = True) as soon as any component's
    total degree would exceed max_total_degree; the computed prefix is
    returned.  lambda1[0] is the mass of omega itself.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    space = f.space
    lambda1 = [mass(_pullback_class(space, identity(space.num_factors)))]
    multidegrees: list[IntMatrix] = []
    current = None
    truncated = False
    for n in range(1, n_max + 1):
        current = f if current is None else compose(f, current)
        degs = current.multidegree_matrix
        if any(sum(row) > max_total_degree for row in degs):
            truncated = True
            break
        multidegrees.append(degs)
        lambda1.append(mass(_pullback_class(space, degs)))
    return IterateData(tuple(multidegrees), tuple(lambda1), truncated)


def validate_skew(f: RationalMapDesc) -> bool:
    """True iff the base components only use base-factor variables."""
    if f.fibration_dim is None:
        raise FibrationError("validate_skew needs fibration_dim set")
    l = f.fibration_dim
    layout = variable_layout(f.space)
    fiber_start = layout[l][0]
    for comp in f.components[:l]:
        for p in comp:
            for e, _ in p.terms:
                if any(x != 0 for x in e[fiber_start:]):
                    return False
    return True


def _require_skew(f: RationalMapDesc) -> int:
    if not validate_skew(f):
        raise FibrationError("map does not have skew-product shape for its fibration")
    return f.fibration_dim


def base_map(f: RationalMapDesc) -> RationalMapDesc:
    """The induced self-map of the base (first l factors) of a skew product."""
    l = _require_skew(f)
    base_space = Space(f.space.factors[:l])
    keep = sum(n + 1 for n in f.space.factors[:l])
    components = tuple(
        tuple(
            MultiHomPoly.make(base_space, {e[:keep]: c for e, c in p.terms})
            for p in comp
        )
        for comp in f.components[:l]
    )
    return RationalMapDesc(base_space, components)


def fiber_degree(
    f: RationalMapDesc,
    n: int,
    max_total_degree: int = DEFAULT_MAX_TOTAL_DEGREE,
) -> int:
    """Degree of f^n along the generic fiber of the marked projection.

    The n-th entry of fiber_degree_sequence; raises ValueError when the
    degree cap stops the iteration before f^n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    values = fiber_degree_sequence(f, max(n, 1), max_total_degree)
    if len(values) <= n:
        raise ValueError(
            f"degree cap reached before n = {n} (got {len(values) - 1})"
        )
    return values[n]


def fiber_degree_sequence(
    f: RationalMapDesc,
    n_max: int,
    max_total_degree: int = DEFAULT_MAX_TOTAL_DEGREE,
) -> list[int]:
    """Fiber degrees of f^0..f^N from the reduced multidegree matrices.

    The pullback class of omega is cut by the full base power and paired
    against the complementary omega power, alpha(., 0), which isolates the
    fiber-variable degrees of the fiber components.  The list stops early
    when the degree cap truncates the iteration.
    """
    space = f.space.with_base(_require_skew(f))
    data = iterate_multidegrees(f, n_max, max_total_degree)
    rows = (identity(space.num_factors),) + data.multidegrees
    return [alpha(_pullback_class(space, r), 0) for r in rows]


def _rank(matrix: list[list[Fraction]]) -> int:
    rows = [row[:] for row in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = Fraction(rows[r][col], inv)
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def check_dominance(
    f: RationalMapDesc,
    rng: random.Random | None = None,
    points: int = 3,
    warn: bool = True,
) -> bool:
    """Probabilistic dominance test via exact Jacobian rank at random points.

    Evaluates the differential of the affine chart map at random integer
    points (exact rational arithmetic).  Full rank at any point certifies
    dominance; if no tested point has full rank, a DominanceWarning is
    emitted (never an error -- the test is one-sided).
    """
    rng = rng or random.Random(1729)
    space = f.space
    k = space.dim
    layout = variable_layout(space)
    nvars = num_variables(space)
    affine_vars = [start + j for start, count in layout for j in range(1, count)]
    derivatives = [
        [p.derivative(v) for v in affine_vars] for comp in f.components for p in comp
    ]
    flat_polys = [p for comp in f.components for p in comp]
    comp_offsets = []
    off = 0
    for comp in f.components:
        comp_offsets.append(off)
        off += len(comp)
    for _ in range(points):
        for _attempt in range(40):
            values = [0] * nvars
            for start, count in layout:
                values[start] = 1
                for j in range(1, count):
                    values[start + j] = rng.randint(-9, 9)
            vals = [Fraction(v) for v in values]
            point_values = [p.evaluate(vals) for p in flat_polys]
            pivots = []
            ok = True
            for i, comp in enumerate(f.components):
                offset = comp_offsets[i]
                pivot = None
                best = 0
                for j in range(len(comp)):
                    val = point_values[offset + j]
                    if val != 0 and abs(val) > best:
                        pivot, best = j, abs(val)
                if pivot is None:
                    ok = False
                    break
                pivots.append(pivot)
            if not ok:
                continue
            jac: list[list[Fraction]] = []
            for i, comp in enumerate(f.components):
                offset = comp_offsets[i]
                q_val = point_values[offset + pivots[i]]
                dq = [derivatives[offset + pivots[i]][c].evaluate(vals) for c in range(k)]
                for j in range(len(comp)):
                    if j == pivots[i]:
                        continue
                    p_val = point_values[offset + j]
                    dp = [derivatives[offset + j][c].evaluate(vals) for c in range(k)]
                    jac.append(
                        [
                            Fraction(dp[c] * q_val - p_val * dq[c], q_val * q_val)
                            for c in range(k)
                        ]
                    )
            if _rank(jac) == k:
                return True
            break
    if warn:
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
    prod x_{j,0}^{a_j^-} x_{j,1}^{a_j^+}), one P^1 pair per coordinate.
    """
    mat = freeze(matrix)
    k = len(mat)
    space = Space((1,) * k)
    components = []
    for i in range(k):
        denom = [0] * (2 * k)
        numer = [0] * (2 * k)
        for j, a in enumerate(mat[i]):
            if a >= 0:
                denom[2 * j] += a
                numer[2 * j + 1] += a
            else:
                denom[2 * j + 1] += -a
                numer[2 * j] += -a
        components.append(
            (
                MultiHomPoly.make(space, {tuple(denom): 1}),
                MultiHomPoly.make(space, {tuple(numer): 1}),
            )
        )
    return RationalMapDesc(space, tuple(components), fibration_dim)
