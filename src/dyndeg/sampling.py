"""Seeded random draws of matrices, fibered maps and effective classes.

Every generator takes an explicit random.Random so suites and experiments
are reproducible from a single seed.  Draws that must satisfy an open
condition (nonzero determinant) resample and report how often they did, so
reports can show the rejection rate instead of hiding it.
"""

from __future__ import annotations

import random
from typing import Iterable

from .cohomology import CohClass, Space, degree_exponents
from .intmat import IntMatrix, det, freeze
from .monomial import MonomialMap

ENTRY_BOUND = 5


def random_matrix(rng: random.Random, k: int) -> IntMatrix:
    return freeze(
        [[rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(k)] for _ in range(k)]
    )


def random_block_triangular(rng: random.Random, k: int, l: int) -> tuple[IntMatrix, int]:
    """An invertible exponent matrix preserving the first-l-coordinates projection."""
    if not 0 < l < k:
        raise ValueError("need 0 < l < k")
    resamples = 0
    while True:
        rows = [
            [
                0 if i < l <= j else rng.randint(-ENTRY_BOUND, ENTRY_BOUND)
                for j in range(k)
            ]
            for i in range(k)
        ]
        mat = freeze(rows)
        if det(mat) != 0:
            return mat, resamples
        resamples += 1


def random_fibered_map(rng: random.Random, k: int, l: int) -> tuple[MonomialMap, int]:
    mat, resamples = random_block_triangular(rng, k, l)
    return MonomialMap(mat, l), resamples


def fibration_shapes(k_max: int) -> Iterable[tuple[int, int]]:
    """All (k, l) with 2 <= k <= k_max and 0 < l < k."""
    for k in range(2, k_max + 1):
        for l in range(1, k):
            yield k, l


def random_effective_class(rng: random.Random, space: Space, degree: int) -> CohClass:
    """A nonzero effective class of the given degree: each monomial is kept
    with probability 0.7 and gets a coefficient from 1 to 4."""
    while True:
        coeffs = {
            e: rng.randint(1, 4)
            for e in degree_exponents(space, degree)
            if rng.random() < 0.7
        }
        if coeffs:
            return CohClass.make(space, degree, coeffs)


def random_fibered_space(rng: random.Random) -> Space:
    """Two to four factors of dimension 1 or 2, fibred over a random number
    of leading factors."""
    m = rng.randint(2, 4)
    factors = tuple(rng.randint(1, 2) for _ in range(m))
    return Space(factors, rng.randint(1, m - 1))
