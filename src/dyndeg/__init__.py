"""dyndeg: exact degree growth and dynamical-degree estimation.

Self-maps of products of projective spaces pull cohomology classes back;
the growth rate of the pulled-back degrees is the dynamical degree.  This
package computes the exact degree sequences for two families where the
action is fully computable -- monomial maps of products of lines and
multihomogeneous rational maps -- estimates the limits, and checks the
structural laws tying total, base and relative degrees of fibered maps
together (log-concavity, the max-product formula, distinctness
inheritance), with an independent spectral oracle for cross-validation.
"""

from .cohomology import (
    CohClass,
    DegreeRangeError,
    FibrationError,
    Space,
    SpaceMismatchError,
    alpha,
    alpha_weight,
    base_pullback_power,
    kaehler_class,
    kaehler_power,
    mul,
    pair,
    pairings,
    unit_class,
    zero_class,
)
from .degrees import (
    DegreeEstimate,
    DegreeProfile,
    DegreeValue,
    Verdict,
    VerdictStatus,
    distinctness_implication,
    estimate,
    log_concavity,
    lower_bound_check,
    monomial_engine_profile,
    monomial_oracle_profile,
    product_formula,
    rational_engine_profile,
)
from .monomial import (
    CompoundOperator,
    MonomialMap,
    NonDominantError,
    a_qp_sequence,
    b_p_sequence,
    c_p_sequence,
    compound,
    compounds,
    lambda_relative_sequence,
    lambda_sequence,
    pullback_class_sequence,
    validate_fibration,
)
from .oracle import (
    EigenDegrees,
    OracleSizeError,
    RootFindingError,
    charpoly,
    eigen_degrees,
    pair_oracle,
    ring_expand_oracle,
)
from .rational import (
    CompositionCollapseError,
    DominanceWarning,
    IterateData,
    MultiHomPoly,
    RationalMapDesc,
    base_map,
    check_dominance,
    compose,
    fiber_degree_sequence,
    iterate_multidegrees,
    monomial_to_rational,
    validate_skew,
)
from .suite import SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
