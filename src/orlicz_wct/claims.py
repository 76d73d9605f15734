"""Claim identifiers, anchors, and the result record used by all reports.

Every verifiable statement the suite checks has exactly one claim id and one
anchor string describing what the claim asserts. Reports are lists of
``ClaimResult`` rows; a row whose hypothesis failed is never an error.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = [
    "ClaimResult",
    "CLAIM_REGISTRY",
    "EXPERIMENT_CLAIMS",
    "make_claim",
    "merge_claims",
]


@dataclass
class ClaimResult:
    claim_id: str
    anchor: str
    hypothesis: str  # "none" | "met" | "not_met"
    status: str  # "pass" | "fail" | "not_checked"
    residual: float | None = None
    detail: str | None = None
    fingerprint: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


CLAIM_REGISTRY: dict[str, str] = {
    # operator structure
    "ascent_bound": "ascent of the operator is at most 2",
    "null_chain_stabilization": "kernels of powers stop growing at the square",
    "descent_bound": (
        "descent is at most 2 when the symbol is bounded away from zero on its support"
    ),
    "range_chain_stabilization": "ranges of powers stop shrinking at the square",
    "range_square_null_intersection": (
        "the range of the square meets every power kernel only at zero"
    ),
    "range_plus_null_square": (
        "range of any power plus kernel of the square spans the whole space"
    ),
    "symbol_operator_decomposition": (
        "range plus kernel of the symbol-weighted operator spans the whole space"
    ),
    "one_minus_t_ascent": (
        "I - T has ascent at most 1 under the strict contraction criterion"
    ),
    "one_minus_t_adjoint_ascent": (
        "the pairing adjoint of I - T has ascent at most 1 under the strict "
        "contraction criterion"
    ),
    "square_sum_dense": (
        "range and kernel of the square intersect trivially and together span "
        "the whole space"
    ),
    "one_minus_t_direct_sum": (
        "the space splits as the direct sum of range and kernel of I - T"
    ),
    "ergodic_invertibility": (
        "I - T is invertible exactly when its range is the whole space"
    ),
    "ergodic_bn_convergence": (
        "the remainder operators converge to the inverse of I - T"
    ),
    "ergodic_cesaro_limit": (
        "Cesaro means applied to any vector converge to an invariant limit"
    ),
    # conditional expectation laws
    "condexp_product_pullout": (
        "averaging pulls block-measurable factors out of the expectation"
    ),
    "condexp_jensen": (
        "the gauge of an average never exceeds the average of the gauge"
    ),
    "condexp_positivity": "averaging preserves nonnegativity",
    "condexp_support_monotone": (
        "the support of a nonnegative function is contained in the support of "
        "its average"
    ),
    "condexp_support_transfer": (
        "averages of a nonnegative function and of its gauge share the same support"
    ),
    "condexp_norm_contraction": "averaging does not increase the Luxemburg norm",
    # power boundedness
    "power_bounded_criterion": (
        "power boundedness matches the strict contraction criterion for the symbol"
    ),
    "symbol_power_sequence": (
        "sup norms of symbol powers stay bounded exactly when the symbol sup "
        "norm is at most 1"
    ),
    # iterates
    "iterate_closed_form": (
        "the n-th operator power is the (n-1)-th symbol power times the operator"
    ),
    # Cesaro identities
    "cesaro_closed_form": "the Cesaro mean equals its one-step closed form",
    "remainder_closed_form": "the remainder operator equals its one-step closed form",
    "power_over_n_identity": (
        "the scaled n-th power telescopes through consecutive Cesaro means"
    ),
    "telescoping_identity": (
        "(I - T) times the Cesaro mean telescopes to (I - T^n)/n"
    ),
    "remainder_factorization_identity": (
        "I minus the Cesaro mean factors through I - T and the remainder operator"
    ),
    # boundedness
    "operator_norm_bound": (
        "sampled norm ratios stay below the empirical pairing constant times "
        "the weight bound"
    ),
}


EXPERIMENT_CLAIMS: dict[str, tuple[str, ...]] = {
    "structure": (
        "ascent_bound",
        "null_chain_stabilization",
        "descent_bound",
        "range_chain_stabilization",
        "range_square_null_intersection",
        "range_plus_null_square",
        "symbol_operator_decomposition",
        "one_minus_t_ascent",
        "one_minus_t_adjoint_ascent",
        "square_sum_dense",
        "one_minus_t_direct_sum",
        "ergodic_invertibility",
        "ergodic_bn_convergence",
        "ergodic_cesaro_limit",
    ),
    "condexp_laws": (
        "condexp_product_pullout",
        "condexp_jensen",
        "condexp_positivity",
        "condexp_support_monotone",
        "condexp_support_transfer",
        "condexp_norm_contraction",
    ),
    "power_bounded": (
        "power_bounded_criterion",
        "symbol_power_sequence",
    ),
    "iterate_formula": ("iterate_closed_form",),
    "cesaro_identities": (
        "cesaro_closed_form",
        "remainder_closed_form",
        "power_over_n_identity",
        "telescoping_identity",
        "remainder_factorization_identity",
    ),
    "boundedness": ("operator_norm_bound",),
}


def make_claim(claim_id, hypothesis, status, residual=None, detail=None, fp=None):
    """One report row for a registered claim id, anchored from the registry."""
    return ClaimResult(
        claim_id=claim_id,
        anchor=CLAIM_REGISTRY[claim_id],
        hypothesis=hypothesis,
        status=status,
        residual=residual,
        detail=detail,
        fingerprint=fp or {},
    )


def merge_claims(rows: list[ClaimResult]) -> ClaimResult:
    """Aggregate per-instance results for one claim id into a single row.

    The merged row fails when any contributing row with a met hypothesis
    failed; its fingerprint points at the first failing instance, and its
    residual is the worst one seen.
    """
    if not rows:
        raise ValueError("cannot merge an empty claim list")
    first = rows[0]
    if any(r.claim_id != first.claim_id for r in rows):
        raise ValueError("merge_claims requires a single claim id")
    checked = [r for r in rows if r.status != "not_checked"]
    failed = [r for r in rows if r.status == "fail"]
    residuals = [r.residual for r in checked if r.residual is not None]
    if failed:
        status, fingerprint = "fail", failed[0].fingerprint
        detail = failed[0].detail
    elif checked:
        status, fingerprint = "pass", first.fingerprint
        detail = checked[0].detail if len(rows) == 1 else None
    else:
        status, fingerprint = "not_checked", first.fingerprint
        detail = first.detail if len(rows) == 1 else None
    hypothesis = first.hypothesis
    if hypothesis != "none":
        hypothesis = "met" if checked else "not_met"
    n_checked = len(checked)
    note = f"checked on {n_checked} of {len(rows)} instances"
    return ClaimResult(
        claim_id=first.claim_id,
        anchor=first.anchor,
        hypothesis=hypothesis,
        status=status,
        residual=max(residuals) if residuals else None,
        detail=detail if detail else note,
        fingerprint=fingerprint,
    )
