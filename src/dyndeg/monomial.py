"""Exact degree-growth sequences for monomial self-maps of (P^1)^k.

A monomial map is given by an integer k x k matrix A with det A != 0:
coordinate i of the map is the Laurent monomial x^{row_i(A)}.  Composition
multiplies matrices, so iterate data comes from powers of A and of its
compound (minor) matrices.

The model computes the degree-p growth sequence of f^n as

    lambda_p(f, p, n) = mass of sum_T ( sum_S w_S * |(C_p(A)^n)_{S,T}| ) h_T,

where C_p is the p-th compound matrix indexed by lexicographic p-subsets,
w_S are the monomial-basis coefficients of omega^p, and the absolute value
is taken entrywise *after* powering.  This keeps the sequences exact
integers, multiplicative over subsets (Cauchy-Binet), and with n-th roots
converging to the products of the p largest eigenvalue moduli.

Every sequence here reads one table, the classes (f^n)^* omega^p for
n = 0..N from pullback_class_sequence, and cohomology.sequence_pairings
pairs the whole table against its kind's one weight class: the total
sequence takes omega^{k-p}, the relative and mixed sequences take
alpha_weight(., p, j) (relative is j = 0, a_{q,p} is j = p - q), and the
summed sequence b_p the sum of the mixed weights over the window.

The power C_p(A)^n is never formed as a matrix.  Each of its rows is one
signed int with entry T in a fixed-width slot T, wide enough for a sign
bit above sum_S w_S * ||C_p(A)||_inf^n, the bound on any weighted column
sum; an iterate adds small multiples of rows over the nonzero compound
entries.  Rows are read with whole-int operations: the absolute value of
every slot at once (bias, mask and complement), weighted and added into
one accumulator that is split into slots once per iterate.

When a fibration by the first l coordinates is marked, A must be block
lower-triangular for the split {0..l-1} | {l..k-1}; the base block then
drives the base sequences (c_p) and the fiber block the relative ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .cohomology import (
    CohClass,
    DegreeRangeError,
    FibrationError,
    Space,
    kaehler_power,
    mixed_window,
    sequence_pairings,
)
from .intmat import IntMatrix, det, freeze, submatrix


class NonDominantError(ValueError):
    """The exponent matrix (or a block of it) is singular."""


def validate_fibration(matrix, l: int) -> bool:
    """True iff rows 0..l-1 use only columns 0..l-1 (block lower-triangular)."""
    mat = freeze(matrix)
    k = len(mat)
    if not 0 < l < k:
        return False
    return all(mat[i][j] == 0 for i in range(l) for j in range(l, k))


@dataclass(frozen=True)
class MonomialMap:
    """Monomial self-map of (P^1)^k with optional marked fibration.

    matrix: integer exponent matrix, det != 0.
    fibration_dim: number l of leading coordinates defining the invariant
        projection, 0 < l < k; requires the block-triangular shape checked
        by validate_fibration and is enforced at construction.
    """

    matrix: IntMatrix
    fibration_dim: int | None = None

    def __post_init__(self) -> None:
        mat = freeze(self.matrix)
        if len(mat) != len(mat[0]):
            raise ValueError("exponent matrix must be square")
        object.__setattr__(self, "matrix", mat)
        if det(mat) == 0:
            raise NonDominantError("exponent matrix is singular (det = 0)")
        if self.fibration_dim is not None:
            l = int(self.fibration_dim)
            object.__setattr__(self, "fibration_dim", l)
            self.space  # Space checks 0 < l < k
            if not validate_fibration(mat, l):
                raise FibrationError(
                    f"matrix is not block lower-triangular for split at {l}"
                )

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @cached_property
    def space(self) -> Space:
        return Space((1,) * self.dim, self.fibration_dim)

    def base_block(self) -> IntMatrix:
        l = self._require_fibration()
        return submatrix(self.matrix, range(l), range(l))

    def fiber_block(self) -> IntMatrix:
        l = self._require_fibration()
        return submatrix(self.matrix, range(l, self.dim), range(l, self.dim))

    def fiber_map(self) -> "MonomialMap":
        return MonomialMap(self.fiber_block())

    def _require_fibration(self) -> int:
        if self.fibration_dim is None:
            raise FibrationError("map has no fibration marked")
        return self.fibration_dim


def topological_degree(f: MonomialMap) -> int:
    return abs(det(f.matrix))


@dataclass(frozen=True)
class CompoundOperator:
    """The p-th compound matrix of a k x k matrix.

    Rows and columns are indexed by the lexicographically ordered p-element
    subsets of {0..k-1}; entry (S, T) is the minor det A[S, T].  p = 0 gives
    the 1x1 identity, p = 1 the matrix itself, p = k the determinant.
    """

    subsets: tuple[tuple[int, ...], ...]
    matrix: IntMatrix


def compound(matrix, p: int) -> CompoundOperator:
    mat = freeze(matrix)
    k = len(mat)
    if len(mat[0]) != k:
        raise ValueError("compound matrices are defined for square matrices")
    if not 0 <= p <= k:
        raise DegreeRangeError(f"compound order {p} out of range 0..{k}")
    subsets = tuple(itertools.combinations(range(k), p))
    entries = tuple(
        tuple(det(submatrix(mat, rows, cols)) for cols in subsets) for rows in subsets
    )
    return CompoundOperator(subsets, entries)


def _subset_exponent(space: Space, subset: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(1 if i in subset else 0 for i in range(space.num_factors))


def _abs_column_sums(rows: list[int], weights: list[int], width: int) -> list[int]:
    """sum_S w_S |x_{S,T}| for each slot T, where packed row R_S holds entry
    x_{S,T} in slot T of W = width bytes, with w_S the weight of R_S.

    Whole-int operations read every slot of a row at once.  With
    half = 2^(8W-1) and bias holding half in every slot, u = R + bias holds
    x + half in the slot of each entry x (-half <= x < half), so its top bit
    is set exactly where x >= 0; neg has a 1 at the bottom of each slot with
    x < 0; and |R| = (u ^ (bias - neg)) + neg clears the top bit of the
    nonnegative slots and complements the negative ones
    (half - 1 - (x + half) + 1 = -x).  The weighted |R_S| go into one
    accumulator, split into slots once; the slots must hold every sum below
    2^(8W) so that none carries into the next.
    """
    m, bits = len(rows), 8 * width
    bias = int.from_bytes((1 << (bits - 1)).to_bytes(width, "little") * m, "little")
    acc = 0
    for weight, row in zip(weights, rows):
        u = row + bias
        neg = ((u & bias) ^ bias) >> (bits - 1)
        acc += weight * ((u ^ (bias - neg)) + neg)
    image = acc.to_bytes(m * width, "little")
    return [int.from_bytes(image[at : at + width], "little") for at in range(0, m * width, width)]


def pullback_class_sequence(f: MonomialMap, p: int, n_max: int) -> list[CohClass]:
    """Classes of (f^n)^* omega^p for n = 0..n_max, via compound powers.

    Row S of C^n (C = C_p(A)) is kept packed as one signed int holding entry
    T in slot T.  A slot has W bytes, enough for one sign bit above
    sum_S w_S * ||C||_inf^n, which bounds every weighted column sum
    sum_S w_S |(C^n)_{S,T}|: each entry is at most ||C^n||_inf <= ||C||_inf^n,
    the largest absolute row sum being submultiplicative.  So for n <= n_max
    neither an entry nor a column sum overflows its slot.  One iterate is
    R_S <- sum of C[S][J] * R_J over the nonzero entries of C, and
    _abs_column_sums reads the coefficients of its class off the rows.  The
    subset exponents are validated once, as a class, and every iterate's
    class is built from them.
    """
    if not 0 <= p <= f.dim:
        raise DegreeRangeError(f"degree {p} out of range 0..{f.dim}")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    space = f.space
    op = compound(f.matrix, p)
    omega_p = kaehler_power(space, p).coeffs
    exponents = [_subset_exponent(space, s) for s in op.subsets]
    weights = [omega_p[e] for e in exponents]
    CohClass.make(space, p, dict.fromkeys(exponents, 1))  # checks the exponents once
    basis = sorted((e, t) for t, e in enumerate(exponents))  # CohClass term order
    norm = max(sum(abs(x) for x in row) for row in op.matrix)
    width = (sum(weights) * norm**n_max).bit_length() // 8 + 1
    steps = [[(j, c) for j, c in enumerate(row) if c] for row in op.matrix]
    rows = [1 << (8 * width * i) for i in range(len(exponents))]
    out: list[CohClass] = []
    for n in range(n_max + 1):
        sums = _abs_column_sums(rows, weights, width)
        out.append(CohClass(space, p, tuple((e, sums[t]) for e, t in basis if sums[t])))
        if n < n_max:
            rows = [sum(c * rows[j] for j, c in nonzero) for nonzero in steps]
    return out


def lambda_sequence(f: MonomialMap, p: int, n_max: int) -> list[int]:
    """lambda_p(f^n) = mass((f^n)^* omega^p) for n = 0..n_max."""
    return sequence_pairings(pullback_class_sequence(f, p, n_max), f.space, p, "total")


def lambda_relative_sequence(f: MonomialMap, p: int, n_max: int) -> list[int]:
    """Relative degree sequence alpha((f^n)^* omega^p, 0): the pullback class
    cut down by the full base power.  Defined for 0 <= p <= k - l."""
    return sequence_pairings(pullback_class_sequence(f, p, n_max), f.space, p, "relative")


def admissible_q(f: MonomialMap, p: int) -> range:
    """The q of the mixed sequences a_{q,p}: cohomology.mixed_window."""
    return mixed_window(f.space, p)


def a_qp_sequence(f: MonomialMap, q: int, p: int, n_max: int) -> list[int]:
    """Mixed sequence a_{q,p}(n) = alpha((f^n)^* omega^p, p - q).

    Admissible window: max(0, p-l) <= q <= min(p, k-l).  At q = p this is
    lambda_relative_sequence.
    """
    return sequence_pairings(pullback_class_sequence(f, p, n_max), f.space, p, "mixed", q)


def b_p_sequence(f: MonomialMap, p: int, n_max: int) -> list[int]:
    """b_p(n) = sum of a_{q,p}(n) over the admissible q window.

    The n-th roots converge to the same limit as lambda_p's: the q-sum is a
    fixed positive reweighting of the same compound-power column data.
    """
    return sequence_pairings(pullback_class_sequence(f, p, n_max), f.space, p, "summed")


def c_p_sequence(base_block, p: int, n_max: int) -> list[int]:
    """Base degree sequence: lambda_p of the base block as a standalone map."""
    try:
        g = MonomialMap(base_block)
    except NonDominantError:
        raise NonDominantError("base block is singular (det = 0)") from None
    return lambda_sequence(g, p, n_max)
