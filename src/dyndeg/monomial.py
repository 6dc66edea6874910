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
n = 0..N from pullback_class_sequence, and pairs each class against one
fixed weight class: the total sequence takes its mass, the relative and
mixed sequences take alpha(., j) (relative is j = 0, a_{q,p} is j = p - q),
and the summed sequence b_p adds alpha(., j) over the admissible window.

The power C_p(A)^n is never formed as a matrix.  Each of its rows is one
signed int with entry T in a fixed-width slot T, wide enough for a sign
bit above the bound ||C_p(A)||_inf^n; an iterate adds small multiples of
rows over the nonzero compound entries, and a row is read back by adding
half a slot to every slot and splitting its bytes.

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
    admissible_window,
    alpha,
    kaehler_power,
    mass,
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


def pullback_class_sequence(f: MonomialMap, p: int, n_max: int) -> list[CohClass]:
    """Classes of (f^n)^* omega^p for n = 0..n_max, via compound powers.

    Row S of C^n (C = C_p(A)) is kept packed as one signed int holding entry
    T in slot T.  A slot has W bytes, enough for one sign bit above the bound
    |(C^n)_{S,T}| <= ||C||_inf^n, the largest absolute row sum being
    submultiplicative; so no slot overflows for n <= n_max.  One iterate is
    R_S <- sum of C[S][J] * R_J over the nonzero entries of C.  To read row S,
    a bias of half a slot is added to every slot, and each slot of the one
    to_bytes image, less the half, is an entry.
    """
    if not 0 <= p <= f.dim:
        raise DegreeRangeError(f"degree {p} out of range 0..{f.dim}")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    space = f.space
    op = compound(f.matrix, p)
    omega_p = kaehler_power(space, p).coeffs
    weights = [omega_p[_subset_exponent(space, s)] for s in op.subsets]
    exponents = [_subset_exponent(space, s) for s in op.subsets]
    m = len(op.subsets)
    norm = max(sum(abs(x) for x in row) for row in op.matrix)
    width = (norm**n_max).bit_length() // 8 + 1
    bits = 8 * width
    half = 1 << (bits - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * m, "little")
    steps = [[(j, c) for j, c in enumerate(row) if c] for row in op.matrix]
    rows = [1 << (bits * i) for i in range(m)]
    slots = range(0, m * width, width)
    out: list[CohClass] = []
    for n in range(n_max + 1):
        totals = [0] * m
        for weight, row in zip(weights, rows):
            image = (row + bias).to_bytes(m * width, "little")
            for t, at in enumerate(slots):
                totals[t] += weight * abs(int.from_bytes(image[at : at + width], "little") - half)
        out.append(CohClass.make(space, p, dict(zip(exponents, totals))))
        if n < n_max:
            rows = [sum(c * rows[j] for j, c in terms) for terms in steps]
    return out


def lambda_sequence(f: MonomialMap, p: int, n_max: int) -> list[int]:
    """lambda_p(f^n) = mass((f^n)^* omega^p) for n = 0..n_max."""
    return [mass(c) for c in pullback_class_sequence(f, p, n_max)]


def lambda_relative_sequence(f: MonomialMap, p: int, n_max: int) -> list[int]:
    """Relative degree sequence alpha((f^n)^* omega^p, 0): the pullback class
    cut down by the full base power.  Defined for 0 <= p <= k - l."""
    return [alpha(c, 0) for c in pullback_class_sequence(f, p, n_max)]


def admissible_q(f: MonomialMap, p: int) -> range:
    """The q of the mixed sequences a_{q,p}: q = p - j over alpha's window,
    which is that window with base and fiber swapped."""
    if f.fibration_dim is None:
        raise FibrationError("relative sequences need a marked fibration")
    big_l = f.space.base_dim
    return admissible_window(p, f.dim - big_l, big_l)


def a_qp_sequence(f: MonomialMap, q: int, p: int, n_max: int) -> list[int]:
    """Mixed sequence a_{q,p}(n) = alpha((f^n)^* omega^p, p - q).

    Admissible window: max(0, p-l) <= q <= min(p, k-l).  At q = p this is
    lambda_relative_sequence.
    """
    return [alpha(c, p - q) for c in pullback_class_sequence(f, p, n_max)]


def b_p_sequence(f: MonomialMap, p: int, n_max: int) -> list[int]:
    """b_p(n) = sum of a_{q,p}(n) over the admissible q window.

    The n-th roots converge to the same limit as lambda_p's: the q-sum is a
    fixed positive reweighting of the same compound-power column data.
    """
    qs = admissible_q(f, p)
    return [sum(alpha(c, p - q) for q in qs) for c in pullback_class_sequence(f, p, n_max)]


def c_p_sequence(base_block, p: int, n_max: int) -> list[int]:
    """Base degree sequence: lambda_p of the base block as a standalone map."""
    try:
        g = MonomialMap(base_block)
    except NonDominantError:
        raise NonDominantError("base block is singular (det = 0)") from None
    return lambda_sequence(g, p, n_max)
