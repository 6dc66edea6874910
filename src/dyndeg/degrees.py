"""Degree-growth sequences, limit estimators, and structural checks.

A degree sequence is the exact integer record lambda(f^0..f^N) of some
graded pullback norm.  Its limit exponent (the dynamical degree) is
estimated three ways:

* root estimate       lambda(N)^(1/N) -- always defined, converges slowly
                      because constant prefactors decay only like C^(1/N);
* ratio estimate      lambda(N)/lambda(N-1) -- kills constants, but
                      oscillates forever when the dominant eigenvalue is
                      complex or the map is periodic;
* window estimate     (lambda(N)/lambda(N-w))^(1/w) with an *even* stride
                      w, which cancels both constant prefactors and
                      period-two oscillation.

The chosen value is the ratio when its tail is stable, else the window
estimate; each has its own convergence flag so callers can distinguish
"converged", "stably oscillating" and "genuinely undecided".

Two builders emit a map's exact sequences as records (kind, p, q,
values): monomial_sequences and rational_sequences.  One fold,
profile_from_sequences, turns the total, base and relative records into a
degree profile.  Profiles feed the structural checks: log-concavity, the
max-product formula over the admissible window, the one-sided lower bound,
and the distinctness implication from total degrees to factor degrees.
Each compares at its profile's tolerance: DEFAULT_EXACT_TOL for spectral
values, the estimate tolerance for a fold.  Checks return PASS / FAIL /
INCONCLUSIVE verdicts; a row is only allowed to FAIL on converged data,
and undecided data downgrades PASS to INCONCLUSIVE.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from . import monomial, oracle, rational
from .cohomology import (CohClass, FibrationError, admissible_window, mixed_window,
                         sequence_pairings)

DEFAULT_ESTIMATE_TOL = 5e-2
DEFAULT_EXACT_TOL = 1e-9
_TIE_TOL = 1e-9


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def _field_dict(record, **report) -> dict:
    """The report dict of a dataclass record: every field by name, read
    without a copy, then report's entries, which replace or add keys."""
    out = {f.name: getattr(record, f.name) for f in fields(record)}
    out.update(report)
    return out


def window_stride(n_max: int) -> int:
    """Even stride used by the window estimate (capped at n_max - 1)."""
    return min(2 * max(1, n_max // 4), n_max - 1)


@dataclass(frozen=True)
class DegreeEstimate:
    """Limit estimates of a degree sequence plus stability diagnostics.

    Four estimators: the endpoint root lambda(N)^{1/N}, the last consecutive
    ratio, the windowed root over an even stride (immune to period-two
    oscillation), and the trend (least-squares slope of log lambda over the
    back half, which averages out rotating or slowly drifting prefactors).

    converged: the last three consecutive ratios agree to tolerance.
    window_converged: the last three window estimates agree to tolerance.
    trend_converged: the two half-fits of the trend agree to tolerance.
    chosen: the ratio if stable and corroborated by the trend, else the
    window under the same corroboration, else the trend itself.  A lone
    stability flag is not trusted: a slow phase drift can hold three
    consecutive ratios within tolerance while the level is still moving,
    so agreement between two independent estimators is required.
    settled: the chosen estimate passed its corroboration.
    """

    root_estimate: float
    ratio_estimate: float
    window_estimate: float
    trend_estimate: float
    converged: bool
    window_converged: bool
    trend_converged: bool
    chosen: float
    settled: bool
    tolerance: float

    def to_dict(self) -> dict:
        return _field_dict(self)


def _trend_growth(values: Sequence[int], start: int, stop: int) -> float:
    """exp of the least-squares slope of log values[n] over start <= n <= stop."""
    xs = range(start, stop + 1)
    ys = [math.log(values[n]) for n in xs]
    x_bar = (start + stop) / 2.0
    y_bar = sum(ys) / len(ys)
    denom = sum((x - x_bar) ** 2 for x in xs)
    slope = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)) / denom
    return math.exp(slope)


def estimate(values: Sequence[int], tol: float = DEFAULT_ESTIMATE_TOL) -> DegreeEstimate:
    """Estimates of the growth of the exact degrees values[n], n = 0..N."""
    if len(values) < 3:
        raise ValueError("need values for n = 0..N with N >= 2")
    if any(v <= 0 for v in values):
        raise ValueError("degree values must be positive")
    n_max = len(values) - 1
    root = math.exp(math.log(values[n_max]) / n_max)
    ratios = [values[n] / values[n - 1] for n in range(2, n_max + 1)]
    ratio = ratios[-1]
    converged = len(ratios) >= 3 and all(
        _rel_diff(a, b) < tol
        for a in ratios[-3:]
        for b in ratios[-3:]
    )
    w = window_stride(n_max)

    def window_at(m: int) -> float:
        return math.exp((math.log(values[m]) - math.log(values[m - w])) / w)

    window = window_at(n_max)
    window_tail = [window_at(m) for m in range(max(w, n_max - 2), n_max + 1)]
    window_converged = len(window_tail) >= 3 and all(
        _rel_diff(a, b) < tol for a in window_tail for b in window_tail
    )
    half = n_max // 2
    trend = _trend_growth(values, half, n_max)
    mid = (half + n_max) // 2
    trend_converged = mid - half >= 1 and n_max - mid >= 1 and _rel_diff(
        _trend_growth(values, half, mid), _trend_growth(values, mid, n_max)
    ) < tol
    if converged and _rel_diff(ratio, trend) < tol:
        chosen, settled = ratio, True
    elif window_converged and _rel_diff(window, trend) < tol:
        chosen, settled = window, True
    else:
        chosen, settled = trend, trend_converged
    return DegreeEstimate(root, ratio, window, trend, converged,
                          window_converged, trend_converged, chosen, settled, tol)


@dataclass(frozen=True)
class DegreeValue:
    """One dynamical degree, either oracle-exact or a sequence estimate."""

    value: float
    source: str  # "oracle-exact" | "estimated"
    converged: bool
    estimate: DegreeEstimate | None = None

    @classmethod
    def exact(cls, value: float) -> "DegreeValue":
        return cls(float(value), "oracle-exact", True, None)

    @classmethod
    def from_estimate(cls, est: DegreeEstimate) -> "DegreeValue":
        return cls(est.chosen, "estimated", est.settled, est)

    def to_dict(self) -> dict:
        est = None if self.estimate is None else self.estimate.to_dict()
        return _field_dict(self, estimate=est)


def estimated_value(values: Sequence[int], tol: float) -> DegreeValue | None:
    """The estimated degree of an exact sequence that iteration may have cut
    short; None when fewer than three values (n = 0..2) are there to estimate.
    """
    return None if len(values) < 3 else DegreeValue.from_estimate(estimate(values, tol))


@dataclass(frozen=True)
class DegreeProfile:
    """Total, base and relative dynamical degrees of a (possibly fibered) map.

    degrees has one entry per grading p = 0..dim (None where the engine
    cannot produce that grading, e.g. middle degrees of general rational
    maps); base and relative are graded over the base dimension and fiber
    dimension respectively, and are None for unfibered maps.  Every check
    compares at tolerance.  to_dict leaves it out: it sets the checks, not a
    degree, and each estimate reports the tolerance it was made at.
    """

    dim: int
    base_dim: int | None
    degrees: tuple[DegreeValue | None, ...]
    base: tuple[DegreeValue | None, ...] | None = None
    relative: tuple[DegreeValue | None, ...] | None = None
    label: str = ""
    tolerance: float = DEFAULT_EXACT_TOL

    def __post_init__(self) -> None:
        if len(self.degrees) != self.dim + 1:
            raise ValueError("degrees must have dim + 1 entries")
        if (self.base is None) != (self.base_dim is None):
            raise ValueError("base degrees and base_dim must be set together")
        if self.base_dim is not None:
            if not 0 < self.base_dim < self.dim:
                raise FibrationError("base dimension must be strictly intermediate")
            if len(self.base) != self.base_dim + 1:
                raise ValueError("base must have base_dim + 1 entries")
            if self.relative is None or len(self.relative) != self.dim - self.base_dim + 1:
                raise ValueError("relative must have dim - base_dim + 1 entries")

    def to_dict(self) -> dict:
        def row(values):
            if values is None:
                return None
            return [None if v is None else v.to_dict() for v in values]

        out = _field_dict(self, degrees=row(self.degrees), base=row(self.base),
                          relative=row(self.relative))
        del out["tolerance"]
        return out


class VerdictStatus(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one structural check with its per-row evidence."""

    name: str
    status: VerdictStatus
    rows: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return self.status is VerdictStatus.PASS

    def to_dict(self) -> dict:
        return _field_dict(self, status=self.status.value, rows=[dict(r) for r in self.rows])


def combine_rows(name: str, rows: Sequence[dict]) -> Verdict:
    statuses = {r["status"] for r in rows}
    if "FAIL" in statuses:
        status = VerdictStatus.FAIL
    elif "INCONCLUSIVE" in statuses or not rows:
        status = VerdictStatus.INCONCLUSIVE
    else:
        status = VerdictStatus.PASS
    return Verdict(name, status, tuple(rows))


def _decided(*values: DegreeValue | None) -> bool:
    return all(v is not None and v.converged for v in values)


def log_concavity(profile: DegreeProfile) -> Verdict:
    """Checks d_p^2 >= d_{p-1} d_{p+1} (1 - tol) at the profile's tolerance."""
    rows = []
    for p in range(1, profile.dim):
        lo, mid, hi = profile.degrees[p - 1], profile.degrees[p], profile.degrees[p + 1]
        row = {"p": p}
        if not _decided(lo, mid, hi):
            row["status"] = "INCONCLUSIVE"
        else:
            lhs = mid.value * mid.value
            rhs = lo.value * hi.value
            row.update(lhs=lhs, rhs=rhs)
            row["status"] = "PASS" if lhs >= rhs * (1.0 - profile.tolerance) else "FAIL"
        rows.append(row)
    return combine_rows("log-concavity", rows)


def distinct_flags(
    values: Sequence[DegreeValue | None], tol: float
) -> list[bool | None]:
    """flags[p] tells whether d_p differs from d_{p-1} (None = undecidable)."""
    flags: list[bool | None] = []
    for p in range(1, len(values)):
        a, b = values[p - 1], values[p]
        if not _decided(a, b):
            flags.append(None)
        else:
            flags.append(_rel_diff(a.value, b.value) > tol)
    return flags


def distinctness_implication(profile: DegreeProfile) -> Verdict:
    """All consecutive total degrees distinct, at the profile's tolerance,
    must force the same for the factors."""
    if profile.base is None:
        raise FibrationError("distinctness implication needs a fibered profile")
    total = distinct_flags(profile.degrees, profile.tolerance)
    base = distinct_flags(profile.base, profile.tolerance)
    relative = distinct_flags(profile.relative, profile.tolerance)
    row = {
        "total_distinct": total,
        "base_distinct": base,
        "relative_distinct": relative,
    }
    if any(f is None for f in total):
        row["status"] = "INCONCLUSIVE"
    elif not all(total):
        row["status"] = "PASS"
        row["note"] = "hypothesis not satisfied; implication holds vacuously"
    elif any(f is None for f in base + relative):
        row["status"] = "INCONCLUSIVE"
    else:
        row["status"] = "PASS" if all(base) and all(relative) else "FAIL"
    return combine_rows("distinctness-implication", [row])


def _window(profile: DegreeProfile, p: int) -> range:
    return admissible_window(p, profile.base_dim, profile.dim - profile.base_dim)


def _fibred_gradings(
    profile: DegreeProfile, ps: Iterable[int] | None, check: str
) -> Iterable[int]:
    """The gradings a fibred check covers: every one by default, else ps,
    each of which must lie in 0..dim."""
    if profile.base is None:
        raise FibrationError(f"{check} needs a fibered profile")
    if ps is None:
        return range(profile.dim + 1)
    ps = list(ps)
    for p in ps:
        if not 0 <= p <= profile.dim:
            raise ValueError(f"grading {p} out of range")
    return ps


def product_formula(profile: DegreeProfile, ps: Iterable[int] | None = None) -> Verdict:
    """Checks d_p = max_j d_j(base) * d_{p-j}(relative) over the admissible j.

    Reports per p the two sides, the achieving j (all of them, ties at
    relative 1e-9) and the relative error, which passes up to the profile's
    tolerance.  Rows with missing or unconverged participants are
    INCONCLUSIVE rather than failed.
    """
    rows = []
    for p in _fibred_gradings(profile, ps, "product formula"):
        lhs = profile.degrees[p]
        window = _window(profile, p)
        parts = [(j, profile.base[j], profile.relative[p - j]) for j in window]
        row = {"p": p, "window": [j for j, _, _ in parts]}
        if not _decided(lhs, *(b for _, b, _ in parts), *(r for _, _, r in parts)):
            row["status"] = "INCONCLUSIVE"
            rows.append(row)
            continue
        products = {j: b.value * r.value for j, b, r in parts}
        rhs = max(products.values())
        argmax = sorted(j for j, v in products.items() if _rel_diff(v, rhs) <= _TIE_TOL)
        err = _rel_diff(lhs.value, rhs)
        row.update(lhs=lhs.value, rhs=rhs, argmax=argmax, rel_error=err)
        row["status"] = "PASS" if err <= profile.tolerance else "FAIL"
        rows.append(row)
    return combine_rows("product-formula", rows)


def lower_bound_check(profile: DegreeProfile, ps: Iterable[int] | None = None) -> Verdict:
    """One-sided check d_p >= d_j(base) * d_{p-j}(relative) (1 - tol) per admissible j."""
    rows = []
    for p in _fibred_gradings(profile, ps, "lower bound check"):
        lhs = profile.degrees[p]
        for j in _window(profile, p):
            b, r = profile.base[j], profile.relative[p - j]
            row = {"p": p, "j": j}
            if not _decided(lhs, b, r):
                row["status"] = "INCONCLUSIVE"
            else:
                bound = b.value * r.value
                row.update(lhs=lhs.value, bound=bound)
                passed = lhs.value >= bound * (1.0 - profile.tolerance)
                row["status"] = "PASS" if passed else "FAIL"
            rows.append(row)
    return combine_rows("lower-bound", rows)


def monomial_oracle_profile(f: monomial.MonomialMap) -> DegreeProfile:
    """Exact spectral degree profile of a fibered monomial map."""
    totals = oracle.eigen_degrees(f.matrix)
    degrees = tuple(DegreeValue.exact(totals.degree(p)) for p in range(f.dim + 1))
    if f.fibration_dim is None:
        return DegreeProfile(f.dim, None, degrees, label="monomial-oracle")
    base = oracle.eigen_degrees(f.base_block())
    fiber = oracle.eigen_degrees(f.fiber_block())
    return DegreeProfile(
        f.dim,
        f.fibration_dim,
        degrees,
        tuple(DegreeValue.exact(base.degree(j)) for j in range(base.dim + 1)),
        tuple(DegreeValue.exact(fiber.degree(j)) for j in range(fiber.dim + 1)),
        label="monomial-oracle",
    )


def profile_from_sequences(
    records: Iterable[dict],
    dim: int,
    base_dim: int | None,
    tol: float,
    label: str,
) -> DegreeProfile:
    """The degree profile a builder's total, base and relative records estimate at tol.

    Each (kind, p) record gives its estimated_value.  A grading with no
    record has no degree (None), except grading 0, whose degree is exactly
    1 for every map.  base_dim None gives an unfibred profile.
    """
    values = {(r["kind"], r["p"]): r["values"] for r in records}

    def estimates(kind: str, top: int) -> tuple[DegreeValue | None, ...]:
        return tuple(
            estimated_value(values[kind, p], tol) if (kind, p) in values
            else DegreeValue.exact(1.0) if p == 0 else None
            for p in range(top + 1)
        )

    if base_dim is None:
        return DegreeProfile(dim, None, estimates("total", dim), label=label, tolerance=tol)
    return DegreeProfile(dim, base_dim, estimates("total", dim),
                         estimates("base", base_dim),
                         estimates("relative", dim - base_dim), label=label, tolerance=tol)


def _record(kind: str, p: int, values: list[int], q: int | None = None) -> dict:
    return {"kind": kind, "p": p, "q": q, "values": values}


def _paired(tables: dict[int, list[CohClass]], f: monomial.MonomialMap, kind: str, p: int,
            q: int | None = None) -> dict:
    """The record of kind that the pullback table of grading p reads."""
    return _record(kind, p, sequence_pairings(tables[p], f.space, p, kind, q), q)


def _monomial_records(
    f: monomial.MonomialMap, n_max: int, grading: Sequence[int]
) -> tuple[list[dict], dict[int, list[CohClass]]]:
    """The total records of the gradings in grading and, for a fibred f,
    every base and relative record, with the pullback tables they read.

    Total and relative records of grading p pair the same table, each
    against its kind's weight (cohomology.sequence_pairings).
    """
    k, l = f.dim, f.fibration_dim
    needed = set(grading) if l is None else set(grading) | set(range(k - l + 1))
    tables = {p: monomial.pullback_class_sequence(f, p, n_max) for p in sorted(needed)}
    out = [_paired(tables, f, "total", p) for p in grading]
    if l is not None:
        out += [_record("base", j, monomial.c_p_sequence(f.base_block(), j, n_max))
                for j in range(l + 1)]
        out += [_paired(tables, f, "relative", p) for p in range(k - l + 1)]
    return out, tables


def monomial_sequences(
    f: monomial.MonomialMap, n_max: int, grading: Sequence[int]
) -> list[dict]:
    """The exact sequences of a monomial map, the monomial twin of
    rational_sequences.

    Each record has kind, p, q and values: the total sequence of each
    grading in grading and, for a fibred f, every base and relative
    sequence, then the mixed sequences a_{q,p} and their sum b_p for each
    grading in grading.  Every record of grading p pairs the one pullback
    table of p against its kind's weight (cohomology.sequence_pairings).
    """
    out, tables = _monomial_records(f, n_max, grading)
    if f.fibration_dim is not None:
        for p in grading:
            out += [_paired(tables, f, "mixed", p, q) for q in mixed_window(f.space, p)]
            out.append(_paired(tables, f, "summed", p))
    return out


def monomial_engine_profile(
    f: monomial.MonomialMap,
    n_max: int,
    tol: float = DEFAULT_ESTIMATE_TOL,
) -> DegreeProfile:
    """Degree profile of f folded from its exact total, base and relative
    sequences."""
    records, _ = _monomial_records(f, n_max, range(f.dim + 1))
    return profile_from_sequences(records, f.dim, f.fibration_dim, tol, "monomial-engine")


def rational_sequences(
    f: rational.RationalMapDesc,
    n_max: int,
    max_total_degree: int = rational.DEFAULT_MAX_TOTAL_DEGREE,
) -> tuple[list[dict], rational.IterateData]:
    """The grading-1 sequences of a rational map, and f's iterate data.

    Each record has kind, p, q and values: the total sequence of f and, for
    a fibred f, the base map's sequence and the relative (fiber) one.  A
    fibred f is a skew product, which its construction checked.  Each list
    stops where the degree cap stopped its own iteration; the iterate data
    says whether f's did.
    """
    data = rational.iterate_multidegrees(f, n_max, max_total_degree)
    out = [_record("total", 1, list(data.lambda1))]
    if f.fibration_dim is not None:
        base_data = rational.iterate_multidegrees(rational.base_map(f), n_max, max_total_degree)
        out.append(_record("base", 1, list(base_data.lambda1)))
        out.append(_record("relative", 1,
                           rational.fiber_degree_sequence(f, n_max, max_total_degree)))
    return out, data


def rational_engine_profile(
    f: rational.RationalMapDesc,
    n_max: int,
    tol: float = DEFAULT_ESTIMATE_TOL,
    max_total_degree: int = rational.DEFAULT_MAX_TOTAL_DEGREE,
) -> DegreeProfile:
    """Partial degree profile of a rational map (gradings 0 and 1 only),
    folded from the records of rational_sequences.

    Iteration can stop early at the degree cap; the estimates then use the
    computed prefix, and sequences too short to estimate yield None.
    """
    records, _ = rational_sequences(f, n_max, max_total_degree)
    base_dim = None if f.fibration_dim is None else f.fibered_space.base_dim
    return profile_from_sequences(records, f.space.dim, base_dim, tol, "rational-engine")
