"""Weighted conditional operators on finite atomic Orlicz spaces.

A numerical laboratory for operators of the form f -> w * E(u * f), where E
averages over the blocks of a partition: Luxemburg norms, conditional
expectation laws, operator iterates and Cesaro means, ascent/descent and
subspace decompositions, plus a scenario-driven verification harness with a
CLI front end.
"""

__version__ = "0.1.0"

from .claims import CLAIM_REGISTRY, ClaimResult
from .condexp import (
    CondExp,
    check_condexp_laws,
    cond_exp,
    estimate_gch_constant,
    gch_constant_report,
)
from .harness import (
    Scenario,
    ScenarioError,
    ValidationError,
    VerificationReport,
    emit_report,
    generate_random_instance,
    load_scenario,
    run_verification,
    scenario_from_dict,
    scenario_to_dict,
)
from .measure import (
    FiniteMeasureSpace,
    Partition,
    ess_sup,
    support,
)
from .orlicz import (
    OrliczContext,
    luxemburg_norm,
    luxemburg_norms,
    modular,
)
from .subspace import (
    SubspaceBasis,
    ascent_of,
    descent_of,
    null_space,
    range_space,
    subspace_intersection,
    subspace_sum,
    verify_structure_theorems,
)
from .wct import (
    WctOperator,
    apply,
    b_n_operator,
    bound_constant,
    cesaro_mean,
    iterate,
    matrix_of,
    pairing_adjoint,
    power_bounded_report,
)
from .young import (
    YoungFunction,
    capped,
    check_growth_condition,
    complementary,
    deadzone,
    exp_type,
    generalized_inverse,
    power_plain,
    power_scaled,
)

__all__ = [
    "__version__",
    "CLAIM_REGISTRY",
    "ClaimResult",
    "CondExp",
    "FiniteMeasureSpace",
    "OrliczContext",
    "Partition",
    "Scenario",
    "ScenarioError",
    "SubspaceBasis",
    "ValidationError",
    "VerificationReport",
    "WctOperator",
    "YoungFunction",
    "apply",
    "ascent_of",
    "b_n_operator",
    "bound_constant",
    "capped",
    "cesaro_mean",
    "check_condexp_laws",
    "check_growth_condition",
    "complementary",
    "cond_exp",
    "deadzone",
    "descent_of",
    "emit_report",
    "ess_sup",
    "estimate_gch_constant",
    "exp_type",
    "gch_constant_report",
    "generalized_inverse",
    "generate_random_instance",
    "iterate",
    "load_scenario",
    "luxemburg_norm",
    "luxemburg_norms",
    "matrix_of",
    "modular",
    "null_space",
    "pairing_adjoint",
    "power_bounded_report",
    "power_plain",
    "power_scaled",
    "range_space",
    "run_verification",
    "scenario_from_dict",
    "scenario_to_dict",
    "subspace_intersection",
    "subspace_sum",
    "support",
    "verify_structure_theorems",
]
