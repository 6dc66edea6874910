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

DEFAULT_ENTRY_BOUND = 5


def random_matrix(
    rng: random.Random, k: int, entry_bound: int = DEFAULT_ENTRY_BOUND
) -> IntMatrix:
    return freeze(
        [[rng.randint(-entry_bound, entry_bound) for _ in range(k)] for _ in range(k)]
    )


def random_block_triangular(
    rng: random.Random, k: int, l: int, entry_bound: int = DEFAULT_ENTRY_BOUND
) -> tuple[IntMatrix, int]:
    """An invertible exponent matrix preserving the first-l-coordinates projection."""
    if not 0 < l < k:
        raise ValueError("need 0 < l < k")
    resamples = 0
    while True:
        rows = [
            [
                0 if i < l <= j else rng.randint(-entry_bound, entry_bound)
                for j in range(k)
            ]
            for i in range(k)
        ]
        mat = freeze(rows)
        if det(mat) != 0:
            return mat, resamples
        resamples += 1


def random_fibered_map(
    rng: random.Random,
    k: int,
    l: int,
    entry_bound: int = DEFAULT_ENTRY_BOUND,
) -> tuple[MonomialMap, int]:
    mat, resamples = random_block_triangular(rng, k, l, entry_bound)
    return MonomialMap(mat, l), resamples


def fibration_shapes(k_max: int, k_min: int = 2) -> Iterable[tuple[int, int]]:
    """All (k, l) with k_min <= k <= k_max and 0 < l < k."""
    for k in range(k_min, k_max + 1):
        for l in range(1, k):
            yield k, l


def random_effective_class(
    rng: random.Random,
    space: Space,
    degree: int,
    max_coeff: int = 4,
    density: float = 0.7,
) -> CohClass:
    """A nonzero effective class of the given degree with small coefficients."""
    while True:
        coeffs = {
            e: rng.randint(1, max_coeff)
            for e in degree_exponents(space, degree)
            if rng.random() < density
        }
        if coeffs:
            return CohClass.make(space, degree, coeffs)


def random_fibered_space(
    rng: random.Random, max_factors: int = 4, max_factor_dim: int = 2
) -> Space:
    m = rng.randint(2, max_factors)
    factors = tuple(rng.randint(1, max_factor_dim) for _ in range(m))
    return Space(factors, rng.randint(1, m - 1))
