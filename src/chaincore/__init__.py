"""chaincore: exact verification of core attainment for capacities on
finite ground sets.

A monotone grounded submodular set function is the pointwise supremum of
the measures it dominates; this package constructs the attaining measure
explicitly, by telescoping the function along a totally ordered generating
class of subsets, and verifies every step of that statement by exhaustive
enumeration, in exact rational arithmetic by default.  The same machinery
covers the mirrored infimum statement for supermodular functions (convex
games), Choquet integration with its level-set chains, and the ternary
embedding that turns any generating family into a single chain.
"""

from .scalar import (
    DEFAULT_EPS,
    EPS_ENV_VAR,
    Scalar,
    ScalarModeError,
    format_scalar,
    parse_scalar,
    resolve_eps,
    scalar_eq,
    scalar_ge,
    scalar_le,
)
from .setfun import GroundSet, SetFunction, dual_transform, iter_submasks, members
from .chains import (
    Chain,
    chain_from_order,
    chain_generates,
    generated_algebra,
    insert_chain,
    maximal_chain,
)
from .measure import (
    AtomicMeasure,
    Claim,
    CoreCheck,
    VerificationReport,
    chain_measure,
    core_check,
    find_sup_counterexample,
    in_lower_core,
    in_upper_core,
    sample_core,
    verify_inf_representation,
    verify_sup_representation,
    verify_uniqueness,
    weights_from_chain_values,
)
from .choquet import (
    PointFunction,
    brute_force_sup,
    choquet_integral,
    integrate,
    level_set_chain,
    verify_choquet_sup,
)
from .embed import (
    GeneratingFamily,
    embed_chain,
    recover_generator,
    sublevel_set,
    ternary_digit,
    ternary_embed,
)
from .generators import (
    GeneratorError,
    PiecewiseLinearDistortion,
    PolynomialDistortion,
    concave_on_grid,
    convex_on_grid,
    coverage_capacity,
    distortion_capacity,
    interval_discretization,
    random_monotone_nonsubmodular,
    random_submodular,
    random_supermodular,
    shapley_example,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "Chain",
    "Claim",
    "CoreCheck",
    "DEFAULT_EPS",
    "EPS_ENV_VAR",
    "GeneratingFamily",
    "GeneratorError",
    "GroundSet",
    "PiecewiseLinearDistortion",
    "PointFunction",
    "PolynomialDistortion",
    "Scalar",
    "ScalarModeError",
    "SetFunction",
    "VerificationReport",
    "brute_force_sup",
    "chain_from_order",
    "chain_generates",
    "chain_measure",
    "choquet_integral",
    "concave_on_grid",
    "convex_on_grid",
    "core_check",
    "coverage_capacity",
    "distortion_capacity",
    "dual_transform",
    "embed_chain",
    "find_sup_counterexample",
    "format_scalar",
    "generated_algebra",
    "in_lower_core",
    "in_upper_core",
    "insert_chain",
    "integrate",
    "interval_discretization",
    "iter_submasks",
    "level_set_chain",
    "maximal_chain",
    "members",
    "parse_scalar",
    "random_monotone_nonsubmodular",
    "random_submodular",
    "random_supermodular",
    "recover_generator",
    "resolve_eps",
    "sample_core",
    "scalar_eq",
    "scalar_ge",
    "scalar_le",
    "shapley_example",
    "sublevel_set",
    "ternary_digit",
    "ternary_embed",
    "verify_choquet_sup",
    "verify_inf_representation",
    "verify_sup_representation",
    "verify_uniqueness",
    "weights_from_chain_values",
]
