"""Independent reference values for the degree machinery.

Two deliberately separate routes live here:

* eigen_degrees: the spectral route.  The exponent matrix is cut into
  diagonal blocks wherever a corner block is zero (_diagonal_blocks): a
  fibred map's matrix is lower block-triangular, so its base and fiber
  blocks are root-found apart, never its whole charpoly.  One memo keyed
  by block (_block_moduli) holds each block's checked root moduli.  A
  block's characteristic polynomial is computed exactly over the integers
  (Faddeev-LeVerrier, every division asserted exact) and split into
  square-free factors exactly over Z by Yun's algorithm, in pure-Python
  integer arithmetic.  Each square-free factor's roots are first
  approximated by Aberth iteration in complex doubles, then polished to 60
  digits by mpmath's polyroots from that start; if the start is unusable
  or the polish does not converge, polyroots runs once more from its own
  cold start.  mpmath is imported by the first root-finding, not with this
  module, and ``oracle.mp`` names it.  The degree-p reference value is
  the product of the p largest root moduli over all blocks.  Nothing is
  shared with the compound-matrix engine beyond the input matrix.

* ring_expand_oracle: a brute-force expander for products of classes.  It
  multiplies term lists outright with truncation and no intermediate
  collection or caching, providing an independent check of mul /
  kaehler_power / pair on small spaces.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .cohomology import CohClass, Space, unit_class
from .intmat import IntMatrix, freeze, identity, mat_mul, trace
from .monomial import NonDominantError


def __getattr__(name: str):
    """``oracle.mp`` is mpmath, imported on first use (PEP 562).

    The root-finders import it locally, so a job that finds no roots never
    loads it, and a patch on ``oracle.mp.polyroots`` is the one they call.
    """
    if name == "mp":
        import mpmath

        return mpmath
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class RootFindingError(RuntimeError):
    """The simultaneous root iteration did not converge."""


class OracleSizeError(ValueError):
    """The brute-force expansion would exceed its size cap."""


def charpoly(matrix) -> tuple[int, ...]:
    """Exact monic characteristic polynomial coefficients of a square matrix.

    Returns (1, c_1, ..., c_k) with det(tI - A) = t^k + c_1 t^{k-1} + ... + c_k.
    Uses the Faddeev-LeVerrier recursion; the division by the step index is
    exact over the integers and is asserted.
    """
    mat = freeze(matrix)
    k = len(mat)
    if len(mat[0]) != k:
        raise ValueError("characteristic polynomial needs a square matrix")
    coeffs = [1]
    aux = identity(k)
    for step in range(1, k + 1):
        if step > 1:
            aux = tuple(
                tuple(
                    prod[i][j] + (coeffs[-1] if i == j else 0)
                    for j in range(k)
                )
                for i in range(k)
            )
        prod = mat_mul(mat, aux)
        tr = trace(prod)
        if tr % step != 0:
            raise AssertionError("Faddeev-LeVerrier division was not exact")
        coeffs.append(-(tr // step))
    return tuple(coeffs)


_ORACLE_DPS = 60
_ROOT_TOL = 1e-10
_ABERTH_SWEEPS = 100


@dataclass(frozen=True)
class EigenDegrees:
    """Spectral reference data: sorted root moduli and their running products.

    degrees[p] is the product of the p largest moduli (degrees[0] = 1.0).
    The last entry agrees with |det| up to root-finder error, and the whole
    profile is log-concave by construction (moduli sorted descending).
    """

    moduli: tuple[float, ...]
    degrees: tuple[float, ...]


def _aberth_start(coeffs: Sequence[int]) -> list[complex] | None:
    """Double-precision approximations to the roots of a square-free polynomial.

    Aberth-Ehrlich simultaneous iteration (Aberth, Math. Comp. 27, 1973) in
    complex doubles, from points on a circle about the roots' centroid.  It
    stops once every correction is below 1e-15 of its root, or after
    _ABERTH_SWEEPS sweeps.  The result only seeds the 60-digit polish, so it
    carries no accuracy guarantee; None means the iteration broke down (a
    value overflows a double, or two approximations coincide).
    """
    deg = len(coeffs) - 1
    try:
        monic = [c / coeffs[0] for c in coeffs]
        centre = -monic[1] / deg
        radius = max(abs(c) ** (1.0 / i) for i, c in enumerate(monic) if i) or 1.0
        roots = [
            centre + radius * cmath.exp(1j * (2 * math.pi * i / deg + 0.4))
            for i in range(deg)
        ]
        for _ in range(_ABERTH_SWEEPS):
            settled = True
            for i, z in enumerate(roots):
                value, slope = monic[0], 0j
                for c in monic[1:]:
                    slope = slope * z + value
                    value = value * z + c
                pull = sum(1 / (z - w) for j, w in enumerate(roots) if j != i)
                step = value / (slope - value * pull)
                roots[i] = z - step
                settled = settled and abs(step) <= 1e-15 * abs(z)
            if settled:
                break
    except (OverflowError, ZeroDivisionError):
        return None
    return roots


def _factor_roots(coeffs: list[int]) -> list:
    """All roots of a square-free integer polynomial at the working precision.

    mpmath's Durand-Kerner iteration starts from the Aberth approximations
    and needs only a few quadratic steps from there.  If there is no finite
    start, or the warm-started iteration does not converge, the cold start
    runs once before RootFindingError is raised.
    """
    import mpmath as mp

    start = _aberth_start(coeffs)
    if start is not None and all(cmath.isfinite(z) for z in start):
        try:
            return mp.polyroots(coeffs, maxsteps=600, extraprec=200,
                                roots_init=[mp.mpc(z) for z in start])
        except mp.mp.NoConvergence:
            pass
    try:
        return mp.polyroots(coeffs, maxsteps=600, extraprec=200)
    except mp.mp.NoConvergence as exc:
        raise RootFindingError(
            "simultaneous root iteration did not converge"
        ) from exc


def _primitive(coeffs: list[int]) -> list[int]:
    """coeffs divided by their content, signed so the leading one is positive."""
    content = math.gcd(*coeffs)
    if coeffs[0] < 0:
        content = -content
    return [c // content for c in coeffs]


def _trim(coeffs: list[int]) -> list[int]:
    lead = next((i for i, x in enumerate(coeffs) if x), len(coeffs))
    return coeffs[lead:]


def _derivative(coeffs: list[int]) -> list[int]:
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _sub(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    a, b = [0] * (n - len(a)) + a, [0] * (n - len(b)) + b
    return _trim([x - y for x, y in zip(a, b)])


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials where b divides a over Z."""
    rem, quotient = a[:], []
    for i in range(len(a) - len(b) + 1):
        q, r = divmod(rem[i], b[0])
        if r:
            raise AssertionError("polynomial division was not exact")
        quotient.append(q)
        for j in range(1, len(b)):
            rem[i + j] -= q * b[j]
    if any(rem[len(quotient):]):
        raise AssertionError("polynomial division was not exact")
    return quotient


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over Z of two nonzero integer polynomials (primitive PRS)."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        rem = a
        while len(rem) >= len(b):  # pseudo-division by b
            q = rem[0]
            rem = [b[0] * x for x in rem[1:]]
            for j in range(1, len(b)):
                rem[j - 1] -= q * b[j]
            rem = _trim(rem)
        a, b = b, _primitive(rem) if rem else rem
    return a


def _square_free_split(poly: Sequence[int]) -> list[tuple[list[int], int]]:
    """Square-free factors of an integer polynomial, with multiplicity.

    Coefficients run from the highest degree down, the first one nonzero.
    Each factor is primitive with a positive leading coefficient, at most
    one per multiplicity, in increasing multiplicity; the content and
    constant factors are dropped.
    Yun's algorithm (SYMSAC 1976), exactly over Z.  A square-free p costs
    one gcd: gcd(p, p') is 1, so d = p' - p' vanishes at once.
    """
    f = _primitive(list(poly))
    if len(f) < 2:
        return []
    df = _derivative(f)
    g = _gcd(f, df)
    b, c = _exact_quotient(f, g), _exact_quotient(df, g)
    factors = []
    multiplicity = 1
    while True:
        d = _sub(c, _derivative(b))
        if not d:
            factors.append((b, multiplicity))
            return factors
        a = _gcd(b, d)
        if len(a) > 1:
            factors.append((a, multiplicity))
        b, c = _exact_quotient(b, a), _exact_quotient(d, a)
        multiplicity += 1


def _root_moduli(poly: tuple[int, ...]) -> tuple[float, ...]:
    """All complex root moduli of an integer polynomial, with multiplicity.

    Multiple roots break simultaneous iteration, so the polynomial is first
    split into square-free factors exactly over the integers by Yun's
    algorithm (_square_free_split); each factor then has distinct roots.
    Its roots are polished to 60 digits from a double-precision Aberth
    start (_factor_roots), so each modulus is a 60-digit root rounded to a
    float.  Not memoized; its one caller, _block_moduli, is.
    """
    import mpmath as mp

    moduli: list[float] = []
    with mp.workdps(_ORACLE_DPS):
        for factor, multiplicity in _square_free_split(poly):
            for r in _factor_roots(factor):
                moduli.extend([float(abs(r))] * multiplicity)
    return tuple(moduli)


@lru_cache(maxsize=None)
def _block_moduli(block: IntMatrix) -> tuple[float, ...]:
    """One diagonal block's root moduli, memoized by block.

    Raises NonDominantError if the block's determinant, read from its
    charpoly, is 0, and RootFindingError if the moduli miss its |det| by
    more than relative _ROOT_TOL.  Checked per block, a wrong modulus in
    any block trips the guard, even where another block's error offsets
    it in the whole matrix's product.  A fibred map's total, base and
    fiber profiles share blocks, so each charpoly and root-finding is made
    once.
    """
    poly = charpoly(block)
    det = (-1) ** (len(poly) - 1) * poly[-1]
    if det == 0:
        raise NonDominantError("matrix is singular (det = 0)")
    moduli = _root_moduli(poly)
    residual = abs(math.prod(moduli) - abs(det)) / abs(det)
    if residual > _ROOT_TOL:
        raise RootFindingError(
            f"root moduli product misses |det| by relative {residual:.3e}"
        )
    return moduli


def _diagonal_blocks(mat: IntMatrix) -> list[IntMatrix]:
    """The diagonal blocks of a square matrix, top-left to bottom-right.

    The matrix is cut at the first l where its upper-right l x (k - l)
    block or its lower-left (k - l) x l block is zero, and both halves are
    cut again, so the charpoly is the product of the blocks' charpolys.  A
    matrix and its transpose are cut at the same places.
    """
    k = len(mat)
    for l in range(1, k):
        if (not any(x for row in mat[:l] for x in row[l:])
                or not any(x for row in mat[l:] for x in row[:l])):
            return (_diagonal_blocks(tuple(row[:l] for row in mat[:l]))
                    + _diagonal_blocks(tuple(row[l:] for row in mat[l:])))
    return [mat]


def eigen_degrees(matrix) -> EigenDegrees:
    """Root moduli and degree profile of an integer matrix, from its diagonal
    blocks' moduli (_block_moduli); raises NonDominantError if singular."""
    blocks = _diagonal_blocks(freeze(matrix))
    moduli = sorted((m for block in blocks for m in _block_moduli(block)), reverse=True)
    degrees = [1.0]
    for m in moduli:
        degrees.append(degrees[-1] * m)
    return EigenDegrees(tuple(moduli), tuple(degrees))


_TERM_CAP = 2_000_000


def ring_expand_oracle(space: Space, factors: Iterable[CohClass]) -> CohClass:
    """Expand a product of classes term by term, with truncation only.

    Every cross term of the full product is formed explicitly (no pairwise
    collection, no caching); monomials exceeding a factor bound are dropped.
    Intended as an independent check of the ring operations on small spaces
    (total dimension <= 8); raises OracleSizeError beyond its caps.
    """
    if space.dim > 8:
        raise OracleSizeError("brute-force oracle is limited to dim <= 8")
    factors = list(factors)
    if not factors:
        return unit_class(space)
    term_lists = [f.terms for f in factors]
    count = math.prod(len(t) for t in term_lists)
    if count > _TERM_CAP:
        raise OracleSizeError(f"expansion of {count} terms exceeds cap {_TERM_CAP}")
    bounds = space.factors
    acc: dict[tuple[int, ...], int] = {}
    for combo in itertools.product(*term_lists):
        exponent = [0] * space.num_factors
        coefficient = 1
        for e, c in combo:
            for i, x in enumerate(e):
                exponent[i] += x
            coefficient *= c
        if any(exponent[i] > bounds[i] for i in range(len(bounds))):
            continue
        key = tuple(exponent)
        acc[key] = acc.get(key, 0) + coefficient
    return CohClass.make(space, sum(f.degree for f in factors), acc)


def pair_oracle(c1: CohClass, c2: CohClass) -> int:
    """Independent pairing: top-monomial coefficient of the brute-force product."""
    if c1.space != c2.space:
        raise ValueError("pairing oracle needs classes on the same space")
    space = c1.space
    if c1.degree + c2.degree != space.dim:
        raise ValueError("pairing oracle needs complementary degrees")
    expanded = ring_expand_oracle(space, [c1, c2])
    return expanded.coeff(space.top)
