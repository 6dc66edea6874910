"""Arbitrary-precision integer matrices as immutable tuples of tuples.

Everything stays in Python ints: iterate entries grow like sigma^n and
would overflow any fixed-width representation long before the sequence
lengths used by the estimators (n = 60 is routine).
"""

from __future__ import annotations

from typing import Sequence

IntMatrix = tuple[tuple[int, ...], ...]


def freeze(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Copy ``rows`` into the canonical immutable form, checking rectangularity."""
    mat = tuple(tuple(int(x) for x in row) for row in rows)
    if not mat:
        raise ValueError("matrix must have at least one row")
    width = len(mat[0])
    if width == 0 or any(len(row) != width for row in mat):
        raise ValueError("matrix rows must be non-empty and of equal length")
    return mat


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_pow(a: IntMatrix, n: int) -> IntMatrix:
    """Binary-power a square matrix."""
    if n < 0:
        raise ValueError("negative powers are not defined here")
    result = identity(len(a))
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def trace(a: IntMatrix) -> int:
    return sum(a[i][i] for i in range(len(a)))


def submatrix(a: IntMatrix, rows: Sequence[int], cols: Sequence[int]) -> IntMatrix:
    return tuple(tuple(a[r][c] for c in cols) for r in rows)


def det(matrix: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    The intermediate divisions are exact over the integers, so the result
    is exact for arbitrarily large entries.  An empty matrix has det 1
    (the 0x0 minor convention used by compound matrices).
    """
    n = len(matrix)
    if n == 0:
        return 1
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant requires a square matrix")
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            pivot = next((r for r in range(i + 1, n) if a[r][i] != 0), None)
            if pivot is None:
                return 0
            a[i], a[pivot] = a[pivot], a[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[n - 1][n - 1]
