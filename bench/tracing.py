"""Spans around the public functions of dyndeg's modules, from outside.

The layers are the package modules: cli, intmat, monomial, cohomology,
degrees, oracle, rational and suite (sampling only draws inputs).  A
Tracer replaces each traced function by a timing wrapper in every dyndeg
namespace that binds it -- modules import ``mat_mul``, ``det``, ``mul`` and
others by name, so each binding is wrapped where it is looked up -- and
restores every binding afterwards.  ``MultiHomPoly.__mul__`` and the
``mpmath.polyroots`` call made by the oracle are wrapped on their owners.

Each wrapper records a span (name, start, end, parent span, job id) and
counts at the same boundary.  Spans stay in memory until the pass ends.
A span's self time is its duration minus the durations of its direct
children; calls are nested on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from time import perf_counter

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("cli.load_job.calls", "count", "lower"),
    ("cli.load_job.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "B", "lower"),
    ("intmat.mat_mul.calls", "count", "lower"),
    ("intmat.mat_mul.s", "s", "lower"),
    ("intmat.mat_mul.mults", "count", "lower"),
    ("intmat.det.calls", "count", "lower"),
    ("intmat.det.s", "s", "lower"),
    ("monomial.compound.calls", "count", "lower"),
    ("monomial.compound.s", "s", "lower"),
    ("monomial.pullback_class_sequence.calls", "count", "lower"),
    ("monomial.pullback_class_sequence.self_s", "s", "lower"),
    ("monomial.sequence.calls", "count", "lower"),
    ("monomial.sequence.self_s", "s", "lower"),
    ("cohomology.mul.calls", "count", "lower"),
    ("cohomology.mul.s", "s", "lower"),
    ("cohomology.pair.calls", "count", "lower"),
    ("cohomology.pair.s", "s", "lower"),
    ("cohomology.kaehler_power.hit_ratio", "ratio", "higher"),
    ("degrees.estimate.calls", "count", "lower"),
    ("degrees.estimate.s", "s", "lower"),
    ("degrees.estimate.settled_ratio", "ratio", "higher"),
    ("degrees.checks.s", "s", "lower"),
    ("oracle.eigen_degrees.calls", "count", "lower"),
    ("oracle.eigen_degrees.s", "s", "lower"),
    ("oracle.eigen_degrees.self_s", "s", "lower"),
    ("oracle.charpoly.s", "s", "lower"),
    ("oracle.polyroots.calls", "count", "lower"),
    ("oracle.polyroots.s", "s", "lower"),
    ("rational.reduce_tuple.calls", "count", "lower"),
    ("rational.reduce_tuple.gcd.calls", "count", "lower"),
    ("rational.reduce_tuple.gcd.s", "s", "lower"),
    ("rational.reduce_tuple.gcd.hit_ratio", "ratio", "higher"),
    ("rational.reduce_tuple.strip.calls", "count", "lower"),
    ("rational.reduce_tuple.strip.s", "s", "lower"),
    ("rational.iterate_multidegrees.calls", "count", "lower"),
    ("rational.compose.calls", "count", "lower"),
    ("rational.compose.self_s", "s", "lower"),
    ("rational.mul.dict.calls", "count", "lower"),
    ("rational.mul.dict.s", "s", "lower"),
    ("rational.mul.kron.calls", "count", "lower"),
    ("rational.mul.kron.s", "s", "lower"),
    ("rational.mul.term_products", "count", "lower"),
    ("rational.iterate.max_terms", "count", "lower"),
    ("rational.iterate.max_coeff_bits", "bits", "lower"),
    ("rational.check_dominance.s", "s", "lower"),
    ("suite.run_suite.s", "s", "lower"),
    ("suite.spectral_product_formula.s", "s", "lower"),
    ("suite.minor_multiplicativity.s", "s", "lower"),
    ("suite.mixed_extreme_identity.s", "s", "lower"),
    ("suite.pairing_monotonicity.s", "s", "lower"),
    ("suite.summed_sequence_convergence.s", "s", "lower"),
    ("suite.distinctness_inheritance.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unaccounted_share", "ratio", "lower"),
    ("trace.restored_bindings", "count", "higher"),
]

# Metrics that count work; they must repeat exactly between traced runs.
EXACT_METRICS = [
    name for name, unit, _ in LAYER_METRICS
    if unit in ("count", "B", "bits") and name != "trace.restored_bindings"
]

_MONOMIAL_SEQUENCES = (
    "lambda_sequence", "lambda_relative_sequence", "a_qp_sequence",
    "b_p_sequence", "c_p_sequence",
)
_CHECKS = ("log_concavity", "product_formula", "lower_bound_check", "distinctness_implication")
_PROFILES = ("monomial_engine_profile", "monomial_oracle_profile", "rational_engine_profile")
_SUITE_PROPERTIES = (
    "spectral_product_formula", "minor_multiplicativity", "mixed_extreme_identity",
    "pairing_monotonicity", "summed_sequence_convergence", "distinctness_inheritance",
)


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, job, nested]
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; ``name`` may be a function of the arguments."""
        span_name = name(args) if callable(name) else name
        nested = self._active[span_name] > 0
        record = [span_name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job, nested]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self._active[span_name] += 1
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._active[span_name] -= 1
            self._stack.pop()

    def _wrapper(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    # ------------------------------------------------------ installation

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, modules, module, attr: str, name, after=None) -> None:
        original = getattr(module, attr)
        wrapper = self._wrapper(name, original, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def install(self) -> None:
        """Wrap every traced function in every dyndeg namespace that binds it."""
        from dyndeg import cli, cohomology, degrees, intmat, monomial, oracle, rational, suite

        modules = [m for key, m in sys.modules.items()
                   if key == "dyndeg" or key.startswith("dyndeg.")]
        fn = functools.partial(self._patch_function, modules)
        fn(cli, "load_job", "cli.load_job")
        fn(intmat, "mat_mul", "intmat.mat_mul", _count_mults)
        fn(intmat, "det", "intmat.det")
        fn(monomial, "compound", "monomial.compound")
        fn(monomial, "pullback_class_sequence", "monomial.pullback_class_sequence")
        for attr in _MONOMIAL_SEQUENCES:
            fn(monomial, attr, "monomial.sequence")
        fn(cohomology, "mul", "cohomology.mul")
        fn(cohomology, "pair", "cohomology.pair")
        fn(degrees, "estimate", "degrees.estimate", _count_settled)
        for attr in _CHECKS:
            fn(degrees, attr, "degrees.checks")
        for attr in _PROFILES:
            fn(degrees, attr, "degrees.profile")
        fn(oracle, "eigen_degrees", "oracle.eigen_degrees")
        fn(oracle, "charpoly", "oracle.charpoly")
        fn(rational, "reduce_tuple", _reduce_route, _count_gcd_hit)
        fn(rational, "iterate_multidegrees", "rational.iterate_multidegrees")
        fn(rational, "compose", "rational.compose", _record_iterate_size)
        fn(rational, "check_dominance", "rational.check_dominance")
        for attr in ("base_map", "fiber_degree_sequence", "validate_skew"):
            fn(rational, attr, f"rational.{attr}")
        fn(suite, "run_suite", "suite.run_suite")
        for prop in _SUITE_PROPERTIES:
            fn(suite, f"{prop}_property", f"suite.{prop}")
        self._patch(rational.MultiHomPoly, "__mul__", self._wrapper(
            functools.partial(_mul_route, rational), rational.MultiHomPoly.__mul__,
            _count_term_products))
        self._patch(oracle.mp, "polyroots", self._wrapper("oracle.polyroots", oracle.mp.polyroots))

    def uninstall(self) -> int:
        """Restore every wrapped binding; returns how many were restored."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        broken = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches
                  if getattr(o, a) is not orig]
        if broken:
            raise RuntimeError(f"bindings not restored: {broken}")
        restored, self._patches = len(self._patches), []
        return restored

    # ----------------------------------------------------------- metrics

    def summary(self, wall: float) -> dict:
        """Per-name calls, outermost time and self time, plus accounting."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job, nested in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        below_cli = 0.0
        for i, (name, start, end, parent, job, nested) in enumerate(self.spans):
            calls[name] += 1
            if not nested:
                total[name] += end - start
            self_s[name] += end - start - child[i]
            if parent >= 0 and self.spans[parent][0] == "cli.main":
                below_cli += end - start
        return {"calls": calls, "s": total, "self_s": self_s,
                "unaccounted_share": (wall - below_cli) / wall}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job, _ in self.spans:
                handle.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")


def _count_mults(tracer: Tracer, args, result) -> None:
    a, b = args[0], args[1]
    tracer.counts["intmat.mat_mul.mults"] += len(a) * len(b) * len(b[0])


def _count_settled(tracer: Tracer, args, result) -> None:
    tracer.counts["degrees.estimate.settled"] += bool(result.settled)


def _reduce_route(args) -> str:
    """The gcd route runs when >= 2 entries are nonzero and none is a monomial."""
    active = [p for p in args[1] if not p.is_zero]
    if len(active) >= 2 and not any(p.is_monomial for p in active):
        return "rational.reduce_tuple.gcd"
    return "rational.reduce_tuple.strip"


def _count_gcd_hit(tracer: Tracer, args, result) -> None:
    if _reduce_route(args) == "rational.reduce_tuple.gcd":
        before = next(p.multidegree for p in args[1] if not p.is_zero)
        after = next(p.multidegree for p in result if not p.is_zero)
        tracer.counts["rational.reduce_tuple.gcd.hits"] += after != before


def _mul_route(rational, args) -> str:
    """Split as MultiHomPoly.__mul__ does, reading the threshold at run time."""
    size = len(args[0].terms) * len(args[1].terms)
    return "rational.mul.dict" if size <= rational._KRON_THRESHOLD else "rational.mul.kron"


def _count_term_products(tracer: Tracer, args, result) -> None:
    tracer.counts["rational.mul.term_products"] += len(args[0].terms) * len(args[1].terms)


def _record_iterate_size(tracer: Tracer, args, result) -> None:
    for comp in result.components:
        for p in comp:
            tracer.maxima["rational.iterate.max_terms"] = max(
                tracer.maxima["rational.iterate.max_terms"], len(p.terms))
            bits = max((abs(c).bit_length() for _, c in p.terms), default=0)
            tracer.maxima["rational.iterate.max_coeff_bits"] = max(
                tracer.maxima["rational.iterate.max_coeff_bits"], bits)


def layer_metrics(traced: list[dict], untraced_walls: list[float], scale: float) -> dict:
    """Per-layer metric values from the traced passes of one run.

    Counts come from the first traced pass (every pass starts from cleared
    caches, so they repeat); times are medians over the traced passes,
    multiplied by the run's speed ``scale``.  The overhead compares scaled
    pass times, traced against ``untraced_walls``.
    """
    first = traced[0]

    def med(fn):
        return statistics.median(fn(p) for p in traced)

    def calls(name):
        return first["calls"].get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "cli.load_job.calls": calls("cli.load_job"),
        "cli.self_s": med(lambda p: p["self_s"].get("cli.main", 0.0)),
        "cli.report_bytes": first["report_bytes"],
        "intmat.mat_mul.mults": first["counts"]["intmat.mat_mul.mults"],
        "monomial.pullback_class_sequence.self_s":
            med(lambda p: p["self_s"].get("monomial.pullback_class_sequence", 0.0)),
        "monomial.sequence.self_s": med(lambda p: p["self_s"].get("monomial.sequence", 0.0)),
        "cohomology.kaehler_power.hit_ratio": first["kaehler_hit_ratio"],
        "degrees.estimate.settled_ratio": ratio(
            first["counts"]["degrees.estimate.settled"], calls("degrees.estimate")),
        "oracle.eigen_degrees.self_s": med(lambda p: p["self_s"].get("oracle.eigen_degrees", 0.0)),
        "rational.reduce_tuple.calls":
            calls("rational.reduce_tuple.gcd") + calls("rational.reduce_tuple.strip"),
        "rational.reduce_tuple.gcd.hit_ratio": ratio(
            first["counts"]["rational.reduce_tuple.gcd.hits"], calls("rational.reduce_tuple.gcd")),
        "rational.compose.self_s": med(lambda p: p["self_s"].get("rational.compose", 0.0)),
        "rational.mul.term_products": first["counts"]["rational.mul.term_products"],
        "rational.iterate.max_terms": first["maxima"]["rational.iterate.max_terms"],
        "rational.iterate.max_coeff_bits": first["maxima"]["rational.iterate.max_coeff_bits"],
        "trace.overhead_ratio": ratio(statistics.median(p["scaled_wall"] for p in traced),
                                      statistics.median(untraced_walls)),
        "trace.unaccounted_share": med(lambda p: p["unaccounted_share"]),
        "trace.restored_bindings": first["restored"],
    }
    for name, unit, _ in LAYER_METRICS:
        if name in values:
            continue
        span, field = name.rsplit(".", 1)
        if field == "calls":
            values[name] = calls(span)
        elif field == "s":
            values[name] = med(lambda p: p["s"].get(span, 0.0))
        else:
            raise KeyError(name)
    return {name: {"value": values[name] * scale if unit == "s" else values[name], "unit": unit}
            for name, unit, _ in LAYER_METRICS}
