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
    ascent_of,
    verify_structure_theorems,
)
from .wct import (
    WctOperator,
    apply,
    b_n_operator,
    bound_constant,
    cesaro_mean,
    exact_norm_powers,
    iterate,
    matrix_of,
    power_bounded_report,
)
from .young import (
    YoungFunction,
    capped,
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
    "complementary",
    "cond_exp",
    "deadzone",
    "emit_report",
    "ess_sup",
    "exact_norm_powers",
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
    "power_bounded_report",
    "power_plain",
    "power_scaled",
    "run_verification",
    "scenario_from_dict",
    "scenario_to_dict",
    "support",
    "verify_structure_theorems",
]
