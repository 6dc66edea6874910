"""Seeded job generators for the dyndeg benchmark.

The generators use only the standard library and never import dyndeg, so
a change to the program cannot change the benchmark's inputs.  Each
workload fixes the structure of its jobs (matrix sizes, splits, families,
iterate counts); the seed draws only coefficients.  That keeps the cost of
a pass nearly independent of the seed and keeps every job off the measured
gcd cliffs of the rational engine.

Every draw passes structural guards before it is written:

* a monomial matrix has det != 0 and block lower-triangular shape;
* a map of P^1 has a nonzero resultant, so no iterate loses a factor;
* every rational job stays under the CLI's default degree cap at its n,
  by an upper bound that does not run the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEGREE_CAP = 400
MONOMIAL_N = 60
SUITE_N = 40
SUITE_SEED = 0

# Degrees lambda_1(f^n), n = 0..9, of the Lyness-type map
# (XY : YZ + aZ^2 : XZ) for a not in {0, 1} (a QRT map: quadratic growth).
# a = 0 and a = 1 give the periodic Lyness recurrences and are excluded.
# A special value of a can only lower a reduced degree, so this row bounds
# every draw.
LYNESS_DEGREES = (1, 2, 2, 3, 4, 5, 7, 9, 11, 14)
LYNESS_N = 9
CREMONA_N = 12


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``dyndeg <command> --input <id>.json <extra>``.

    ``spec`` is the job file's JSON object (None for ``suite``), and
    ``facts`` holds what the generator knows about the exact answer, used
    to check seeds that have no recorded reference.
    """

    id: str
    command: str
    spec: dict | None
    extra: tuple[str, ...] = ()
    facts: dict = field(default_factory=dict)


def det(matrix) -> int:
    """Exact determinant by fraction-free elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
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
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def resultant(p: list[int], q: list[int]) -> int:
    """Resultant of two binary forms of degree d (coefficients x0^d .. x1^d).

    The Sylvester matrix of the forms; a zero resultant means a common
    projective root, i.e. a common factor.
    """
    d = len(p) - 1
    size = 2 * d
    rows = [[0] * i + p + [0] * (size - d - 1 - i) for i in range(d)]
    rows += [[0] * i + q + [0] * (size - d - 1 - i) for i in range(d)]
    return det(rows)


def _guard(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"generator guard failed: {message}")


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v != 0])


def _form(rng: random.Random, d: int) -> list[int]:
    """A binary form of degree d with every coefficient nonzero in [-3, 3]."""
    return [_nonzero(rng, 3) for _ in range(d + 1)]


def _coprime_pair(rng: random.Random, d: int) -> tuple[list[int], list[int]]:
    while True:
        p, q = _form(rng, d), _form(rng, d)
        if resultant(p, q) != 0:
            return p, q


def _form_terms(coeffs: list[int], start: int, nvars: int) -> dict:
    """JSON polynomial of a binary form in variables start, start + 1."""
    d = len(coeffs) - 1
    terms = []
    for i, c in enumerate(coeffs):
        e = [0] * nvars
        e[start], e[start + 1] = d - i, i
        terms.append([e, c])
    return {"coeffs": terms}


def _poly(*terms) -> dict:
    return {"coeffs": [[list(e), c] for e, c in terms]}


# ------------------------------------------------------------------ monomial


def block_triangular(rng: random.Random, k: int, l: int, bound: int = 5) -> list[list[int]]:
    """Entries in [-bound, bound], zero above the split, det != 0."""
    while True:
        mat = [
            [0 if i < l <= j else rng.randint(-bound, bound) for j in range(k)]
            for i in range(k)
        ]
        if det(mat) != 0:
            return mat


def monomial_jobs(rng: random.Random) -> list[Job]:
    # k = 5 at every split and k = 6 at the middle split, all at N = 60.
    # k = 7 is left out: its `sequence` alone takes about 7 s, one job that
    # long cannot be repeated within a run, and a pass must repeat for its
    # median to hold still on a shared host.
    shapes = [(5, 1), (5, 2), (5, 3), (5, 4), (6, 3)]
    jobs = []
    for k, l in shapes:
        mat = block_triangular(rng, k, l)
        spec = {"type": "monomial", "matrix": mat, "fibration_dim": l, "n_max": MONOMIAL_N}
        facts = {"k": k, "abs_det": abs(det(mat))}
        for command in ("degrees", "verify-product", "sequence"):
            jobs.append(Job(f"mono-k{k}l{l}-{command}", command, spec, (), facts))
    # The suite draws its map shapes from its own seed, and its cost moves
    # from 2.9 s to 4.8 s across suite seeds, so it runs on one fixed seed.
    jobs.append(Job("suite", "suite", None, ("--seed", str(SUITE_SEED), "--n-max", str(SUITE_N))))
    return jobs


# ---------------------------------------------------------------- rational


def _p1_job(p: list[int], q: list[int], n: int) -> dict:
    return {
        "type": "rational",
        "factors": [1],
        "components": [[_form_terms(p, 0, 2), _form_terms(q, 0, 2)]],
        "n_max": n,
    }


def coprime_jobs(rng: random.Random) -> list[Job]:
    # Maps of P^1 with nonzero resultant: no iterate has a common factor, so
    # every reduction runs sympy's gcd and finds nothing; lambda_1 = d^n.
    # The gcd's cost varies from draw to draw (by a factor of two at degree
    # 64, and quadratics at n = 7 took 3 s or 48 s), so the workload is many
    # maps of moderate final degree (32, 27 and 64) rather than a few large
    # ones: a pass then costs nearly the same for every seed.
    jobs = []
    for d, n, count in ((2, 5, 16), (3, 3, 16), (4, 3, 14)):
        for i in range(count):
            p, q = _coprime_pair(rng, d)
            _guard(d**n <= DEGREE_CAP, "P^1 degree cap")
            facts = {"lambda1": [d**m for m in range(n + 1)]}
            spec = _p1_job(p, q, n)
            for command in ("sequence", "degrees"):
                jobs.append(Job(f"p1-d{d}-{i}-{command}", command, spec, (), facts))
    # Products of two coprime quadratics, fibred over the first line, so
    # verify-product runs its three iteration passes through the same gcd.
    d, n = 2, 5
    for i in range(10):
        (p, q), (r, s) = _coprime_pair(rng, d), _coprime_pair(rng, d)
        _guard(2 * d**n <= DEGREE_CAP, "product degree cap")
        spec = {
            "type": "rational",
            "factors": [1, 1],
            "fibration_dim": 1,
            "components": [
                [_form_terms(p, 0, 4), _form_terms(q, 0, 4)],
                [_form_terms(r, 2, 4), _form_terms(s, 2, 4)],
            ],
            "n_max": n,
        }
        jobs.append(Job(f"p1xp1-d{d}-{i}-verify-product", "verify-product", spec))
    return jobs


def skew_degree_bound(e: int, d: int, n: int) -> int:
    """Upper bound on the total degree of f^n for (x^e, y^d + bxy + cx).

    y_n = y_{n-1}^d + b x^{e^{n-1}} y_{n-1} + c x^{e^{n-1}}, so deg_x(y_n) is
    at most the largest x-degree of the three terms, while deg_y(y_n) = d^n
    exactly.  Cancellation can only lower the bound.
    """
    a = 1
    for m in range(2, n + 1):
        a = max(d * a, e ** (m - 1) + a, e ** (m - 1))
    return max(e**n, a + d**n)


def reducing_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    # Lyness-type maps of P^2: the common factors of the iterates are not
    # monomials, so every reduction runs the gcd and divides it out.
    # Iterating one map to n = 9 took 1.16 s to 1.18 s for |a| in {3, 4} and
    # 0.99 s to 1.07 s for |a| <= 2, so a is drawn from the flat part.
    for i in range(2):
        a = rng.choice((-4, -3, 3, 4))
        _guard(max(LYNESS_DEGREES[: LYNESS_N + 1]) <= DEGREE_CAP, "Lyness degree cap")
        spec = {
            "type": "rational",
            "factors": [2],
            "components": [[
                _poly(((1, 1, 0), 1)),
                _poly(((0, 1, 1), 1), ((0, 0, 2), a)),
                _poly(((1, 0, 1), 1)),
            ]],
            "n_max": LYNESS_N,
        }
        facts = {"lambda1": list(LYNESS_DEGREES[: LYNESS_N + 1])}
        for command in ("sequence", "degrees"):
            jobs.append(Job(f"lyness-{i}-{command}", command, spec, (), facts))
    # The Cremona involution with scaled coordinates: monomial common
    # factors only, degrees 2, 1, 2, 1, ...
    a, b, c = (_nonzero(rng, 5) for _ in range(3))
    spec = {
        "type": "rational",
        "factors": [2],
        "components": [[_poly(((0, 1, 1), a)), _poly(((1, 0, 1), b)), _poly(((1, 1, 0), c))]],
        "n_max": CREMONA_N,
    }
    facts = {"lambda1": [1 + m % 2 for m in range(CREMONA_N + 1)]}
    for command in ("sequence", "degrees"):
        jobs.append(Job(f"cremona-{command}", command, spec, (), facts))
    # Polynomial skew products of P^1 x P^1: every tuple has a monomial
    # entry, so only the monomial-strip route of reduce_tuple runs, and the
    # large products go through Kronecker packing.  Packing multiplies the
    # positive and negative parts apart, and its slot width grows with the
    # coefficients.  With |b| + |c| = 6, iterating a map with c > 0 took
    # 0.32 s to 0.34 s for b in {1, 2, 4, 5} (0.27 s at b = 3), and one with
    # c < 0 took 0.89 s to 0.91 s for b in {4, 5} (0.74 s to 0.82 s below);
    # one map of each, drawn from those sets, keeps the cost of a pass the
    # same for every seed.  (At e = 2, d = 3, n = 5 one map took 0.6 s to
    # 2.3 s depending on b and c.)
    e, d, n = 2, 2, 7
    for i, sign in enumerate((1, -1)):
        b = rng.choice((1, 2, 4, 5) if sign > 0 else (4, 5))
        c = sign * (6 - b)
        _guard(skew_degree_bound(e, d, n) <= DEGREE_CAP, "skew degree cap")
        spec = {
            "type": "rational",
            "factors": [1, 1],
            "fibration_dim": 1,
            "components": [
                [_poly(((e, 0, 0, 0), 1)), _poly(((0, e, 0, 0), 1))],
                [
                    _poly(((1, 0, d, 0), 1)),
                    _poly(((1, 0, 0, d), 1), ((0, 1, d - 1, 1), b), ((0, 1, d, 0), c)),
                ],
            ],
            "n_max": n,
        }
        facts = {"base": [e**m for m in range(n + 1)], "relative": [d**m for m in range(n + 1)]}
        for command in ("verify-product", "sequence"):
            jobs.append(Job(f"skew-e{e}d{d}-{i}-{command}", command, spec, (), facts))
    return jobs


WORKLOADS = {
    "monomial": monomial_jobs,
    "rational-coprime": coprime_jobs,
    "rational-reducing": reducing_jobs,
}


def generate(workload: str, seed: int) -> list[Job]:
    """The jobs of one workload for one seed; the same seed gives the same jobs."""
    rng = random.Random(f"dyndeg-bench:{workload}:{seed}")
    return WORKLOADS[workload](rng)
