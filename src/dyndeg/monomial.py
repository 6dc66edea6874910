"""Exact degree-growth sequences for monomial self-maps of (P^1)^k.

A monomial map is given by an integer k x k matrix A with det A != 0:
coordinate i of the map is the Laurent monomial x^{row_i(A)}.  Composition
multiplies matrices, so iterate data comes from powers of A and of its
compound (minor) matrices.

The model computes the degree-p growth sequence of f^n as

    lambda_p(f, p, n) = the pairing with omega^{k-p} of
                        sum_T ( p! * sum_S |(C_p(A)^n)_{S,T}| ) h_T,

where C_p is the p-th compound matrix indexed by lexicographic p-subsets,
p! is the coefficient of every monomial h_S of omega^p = p! sum_{|S|=p} h_S
(h_i^2 = 0 on P^1), and the absolute value is taken entrywise *after*
powering.  This keeps the sequences exact integers, multiplicative over
subsets (Cauchy-Binet), and with n-th roots converging to the products of
the p largest eigenvalue moduli.

Every sequence here reads one table, the classes (f^n)^* omega^p for
n = 0..N from pullback_class_sequence, and cohomology.sequence_pairings
pairs the whole table against its kind's one weight class: the total
sequence takes omega^{k-p}, the relative and mixed sequences take
alpha_weight(., p, j) (relative is j = 0, a_{q,p} is j = p - q), and the
summed sequence b_p the sum of the mixed weights over the window.

The compounds C_0(A), .., C_k(A) come from one sweep per map
(MonomialMap.compounds): each q-minor is the Laplace expansion along its
last row over the (q-1)-minors of the order before, with integer products
and sums only, so the entries are exact whatever their size.

The power C_p(A)^n is never formed as a matrix.  Each of its rows is one
signed int with entry T in slot T; an iterate adds small multiples of rows
over the nonzero compound entries.  The slots grow with what they hold.
The column sums s_T(n) = sum_S |(C^n)_{S,T}| bound every entry and grow
by at most kappa, the largest absolute column sum of C, per iterate, so
when kappa * max_T s_T(n) would not fit under a sign bit, every row is
re-slotted to hold kappa^min(8, n_max - n) * max_T s_T(n).  Rows are read
with whole-int operations: the absolute value of every slot at once (bias,
mask and complement), added into one accumulator that is split into slots
once per iterate.

When a fibration by the first l coordinates is marked, A must be block
lower-triangular for the split {0..l-1} | {l..k-1}; the base block then
drives the base sequences (c_p) and the fiber block the relative ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

from .cohomology import (
    CohClass,
    DegreeRangeError,
    FibrationError,
    Space,
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

    @cached_property
    def compounds(self) -> tuple[CompoundOperator, ...]:
        """The compound matrices of every order, swept once per map."""
        return compounds(self.matrix)

    def base_block(self) -> IntMatrix:
        l = self._require_fibration()
        return submatrix(self.matrix, range(l), range(l))

    def fiber_block(self) -> IntMatrix:
        l = self._require_fibration()
        return submatrix(self.matrix, range(l, self.dim), range(l, self.dim))

    def base_map(self) -> "MonomialMap":
        return MonomialMap(self.base_block())

    def fiber_map(self) -> "MonomialMap":
        return MonomialMap(self.fiber_block())

    def _require_fibration(self) -> int:
        if self.fibration_dim is None:
            raise FibrationError("map has no fibration marked")
        return self.fibration_dim


@dataclass(frozen=True)
class CompoundOperator:
    """The p-th compound matrix of a k x k matrix.

    Rows and columns are indexed by the lexicographically ordered p-element
    subsets of {0..k-1}; entry (S, T) is the minor det A[S, T].  p = 0 gives
    the 1x1 identity (the empty minor is 1), p = 1 the matrix itself, p = k
    the determinant.  compounds builds every order in one Laplace sweep.
    """

    subsets: tuple[tuple[int, ...], ...]
    matrix: IntMatrix


@cache
def _laplace_table(k: int, q: int):
    """The q-subsets of range(k); for each row S, the index of S[:-1] among
    the (q-1)-subsets and S[-1]; for each column T, its terms (T[pos],
    index of T without T[pos]) split by the sign (-1)^(q-1-pos)."""
    index = {s: i for i, s in enumerate(itertools.combinations(range(k), q - 1))}
    subsets = tuple(itertools.combinations(range(k), q))
    rows = tuple((index[s[:-1]], s[-1]) for s in subsets)
    cols = []
    for t in subsets:
        plus, minus = [], []
        for pos, c in enumerate(t):
            (minus if (q - 1 - pos) % 2 else plus).append((c, index[t[:pos] + t[pos + 1:]]))
        cols.append((plus, minus))
    return subsets, rows, cols


def compounds(matrix) -> tuple[CompoundOperator, ...]:
    """C_0(A), ..., C_k(A) of a square matrix A, in one sweep.

    Each q-minor is the Laplace expansion along its last row s = S[-1] over
    the (q-1)-minors of the order before,

        det A[S, T] = sum_pos (-1)^(q-1-pos) A[s][T[pos]] det A[S[:-1], T - T[pos]],

    in integer products and sums only, with no division, so it is exact for
    entries of any size.
    """
    mat = freeze(matrix)
    k = len(mat)
    if len(mat[0]) != k:
        raise ValueError("compound matrices are defined for square matrices")
    ops = [CompoundOperator(((),), ((1,),))]
    for q in range(1, k + 1):
        subsets, rows, cols = _laplace_table(k, q)
        lower = ops[-1].matrix
        entries = tuple(
            tuple(
                sum(a[t] * minors[j] for t, j in plus) - sum(a[t] * minors[j] for t, j in minus)
                for plus, minus in cols
            )
            for minors, a in ((lower[i], mat[s]) for i, s in rows)
        )
        ops.append(CompoundOperator(subsets, entries))
    return tuple(ops)


def compound(matrix, p: int) -> CompoundOperator:
    """C_p(A), 0 <= p <= k: compounds(matrix)[p]."""
    ops = compounds(matrix)
    if not 0 <= p < len(ops):
        raise DegreeRangeError(f"compound order {p} out of range 0..{len(ops) - 1}")
    return ops[p]


def _subset_exponent(space: Space, subset: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(1 if i in subset else 0 for i in range(space.num_factors))


def _slot_width(bound: int) -> int:
    """Bytes W of the narrowest slot that holds bound under a sign bit,
    bound < 2^(8W-1)."""
    return bound.bit_length() // 8 + 1


def _fill(value: int, m: int, width: int) -> int:
    """m slots of width bytes, each holding value (0 <= value < 2^(8 width))."""
    return int.from_bytes(value.to_bytes(width, "little") * m, "little")


def _growth_bound(matrix: IntMatrix) -> int:
    """kappa = max_J sum_S |C_{S,J}|, the largest absolute column sum, so
    that s(x) = sum_S |x_S| of any column x obeys s(C x) <= kappa s(x).

    Proof: s(C x) = sum_S |sum_J C_{S,J} x_J|
    <= sum_J (sum_S |C_{S,J}|) |x_J| <= kappa s(x).
    """
    return max(sum(abs(x) for x in column) for column in zip(*matrix))


def _abs_column_sums(rows: list[int], width: int, bias: int) -> list[int]:
    """s_T = sum_S |x_{S,T}| for each slot T, where packed row R_S holds
    entry x_{S,T} in slot T of W = width bytes, and bias = _fill(half, m, W)
    with half = 2^(8W-1).  These are the sums pullback_class_sequence sizes
    its slots by.

    Whole-int operations read every slot of a row at once.  u = R + bias
    holds x + half in the slot of each entry x (-half <= x < half), so its
    top bit is set exactly where x >= 0; neg has a 1 at the bottom of each
    slot with x < 0; and |R| = (u ^ (bias - neg)) + neg clears the top bit
    of the nonnegative slots and complements the negative ones
    (half - 1 - (x + half) + 1 = -x).  The |R_S| go into one accumulator,
    split into slots once; the slots must hold every sum below 2^(8W) so
    that none carries into the next.
    """
    m, bits = len(rows), 8 * width
    acc = 0
    for row in rows:
        u = row + bias
        neg = ((u & bias) ^ bias) >> (bits - 1)
        acc += (u ^ (bias - neg)) + neg
    image = acc.to_bytes(m * width, "little")
    return [int.from_bytes(image[at : at + width], "little") for at in range(0, m * width, width)]


def _reslot(rows: list[int], width: int, bias: int, wider: int) -> list[int]:
    """The packed rows with every signed slot widened from width to wider
    bytes, where bias = _fill(half, m, width) with half = 2^(8 width - 1).

    R + bias holds x + half >= 0 in each slot, so its bytes split per slot
    with no borrow between them.  Each slot is padded with zero bytes, and
    half in every wider slot is taken off again, which leaves x there,
    negative entries included.
    """
    m = len(rows)
    size, pad = m * width, bytes(wider - width)
    low = _fill(1 << (8 * width - 1), m, wider)
    out = []
    for row in rows:
        image = (row + bias).to_bytes(size, "little")
        slots = pad.join(image[at : at + width] for at in range(0, size, width)) + pad
        out.append(int.from_bytes(slots, "little") - low)
    return out


_LOOKAHEAD = 8  # iterates of growth a re-slot makes room for


def pullback_class_sequence(f: MonomialMap, p: int, n_max: int) -> list[CohClass]:
    """Classes of (f^n)^* omega^p for n = 0..n_max, via compound powers.

    Row S of C^n (C = C_p(A)) is kept packed as one signed int holding entry
    T in slot T.  One iterate is R_S <- sum of C[S][J] * R_J over the nonzero
    entries of C, and _abs_column_sums reads the column sums
    s_T(n) = sum_S |(C^n)_{S,T}| off the rows.  The class has coefficient
    p! * s_T(n) on h_T, since every coefficient of omega^p is p!.  Every
    entry is at most its column's s_T(n), and s_T(n+1) <= kappa s_T(n) with
    kappa = _growth_bound(C), the largest absolute column sum of C.

    So the slots only need to grow with the sums they hold.  Every s_T(0)
    is 1, so they start wide enough for kappa^min(8, n_max) under a sign
    bit.  Before each iterate, if kappa * max_T s_T(n) would not fit under
    the sign bit, every row is re-slotted (_reslot) to the width that holds
    kappa^min(8, n_max - n) * max_T s_T(n).  The slot bias is built once
    per width.  The subset exponents are validated once, as a class, and
    every iterate's class is built from them.
    """
    if not 0 <= p <= f.dim:
        raise DegreeRangeError(f"degree {p} out of range 0..{f.dim}")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    space = f.space
    op = f.compounds[p]
    exponents = [_subset_exponent(space, s) for s in op.subsets]
    CohClass.make(space, p, dict.fromkeys(exponents, 1))  # checks the exponents once
    basis = sorted((e, t) for t, e in enumerate(exponents))  # CohClass term order
    m = len(exponents)
    weight = math.factorial(p)  # every coefficient of omega^p on (P^1)^k
    kappa = _growth_bound(op.matrix)
    width = _slot_width(kappa ** min(_LOOKAHEAD, n_max))
    bias = _fill(1 << (8 * width - 1), m, width)
    steps = [[(j, c) for j, c in enumerate(row) if c] for row in op.matrix]
    rows = [1 << (8 * width * i) for i in range(m)]
    out: list[CohClass] = []
    for n in range(n_max + 1):
        sums = _abs_column_sums(rows, width, bias)
        out.append(CohClass(space, p, tuple((e, weight * sums[t]) for e, t in basis if sums[t])))
        if n < n_max:
            top = max(sums)
            if (kappa * top) >> (8 * width - 1):
                wider = _slot_width(kappa ** min(_LOOKAHEAD, n_max - n) * top)
                rows = _reslot(rows, width, bias, wider)
                width, bias = wider, _fill(1 << (8 * wider - 1), m, wider)
            rows = [sum(c * rows[j] for j, c in nonzero) for nonzero in steps]
    return out


def lambda_sequence(f: MonomialMap, p: int, n_max: int) -> list[int]:
    """lambda_p(f^n), the pairing of (f^n)^* omega^p with omega^{k-p}, n = 0..n_max."""
    return sequence_pairings(pullback_class_sequence(f, p, n_max), f.space, p, "total")


def lambda_relative_sequence(f: MonomialMap, p: int, n_max: int) -> list[int]:
    """Relative degree sequence alpha((f^n)^* omega^p, 0): the pullback class
    cut down by the full base power.  Defined for 0 <= p <= k - l."""
    return sequence_pairings(pullback_class_sequence(f, p, n_max), f.space, p, "relative")


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
