"""Claim identifiers, anchors, and the result record used by all reports.

Every verifiable statement the suite checks has exactly one claim id and one
anchor string describing what the claim asserts. Both live once, in the
nested table ``_CLAIM_TABLE`` ({experiment group: {claim id: anchor}}), from
which ``CLAIM_REGISTRY`` and ``EXPERIMENT_CLAIMS`` are derived. Reports are lists of
``ClaimResult`` rows; a row whose hypothesis failed is never an error.
A row is built by ``make_claim``, with an empty fingerprint, or read from a
``ClaimColumn``, which holds one claim's rows on every instance of a batch
as arrays; ``fold_claims`` folds a claim's rows on all the instances of a
run into its report row, stamped with the fingerprint of the instance it
names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ClaimColumn",
    "ClaimResult",
    "CLAIM_REGISTRY",
    "EXPERIMENT_CLAIMS",
    "fold_claims",
    "fold_row",
    "make_claim",
    "overflow_claim",
]

STATUSES = ("pass", "fail", "not_checked")
HYPOTHESES = ("none", "met", "not_met")
OVERFLOW_DETAIL = "not checked: a power overflowed, so a residual is not finite"


@dataclass
class ClaimResult:
    claim_id: str
    anchor: str
    hypothesis: str  # "none" | "met" | "not_met"
    status: str  # "pass" | "fail" | "not_checked"
    residual: float | None = None
    detail: str | None = None
    fingerprint: dict = field(default_factory=dict)


_CLAIM_TABLE: dict[str, dict[str, str]] = {
    "structure": {
        "ascent_bound": "ascent of the operator is at most 2",
        "null_chain_stabilization": "kernels of powers stop growing at the square",
        "descent_bound": (
            "descent is at most 2 when the symbol is bounded away from zero on "
            "its support"
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
    },
    "condexp_laws": {
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
    },
    "power_bounded": {
        "power_bounded_criterion": (
            "power boundedness matches the strict contraction criterion for the symbol"
        ),
        "symbol_power_sequence": (
            "sup norms of symbol powers stay bounded exactly when the symbol sup "
            "norm is at most 1"
        ),
    },
    "iterate_formula": {
        "iterate_closed_form": (
            "the n-th operator power is the (n-1)-th symbol power times the operator"
        ),
    },
    "cesaro_identities": {
        "cesaro_closed_form": "the Cesaro mean equals its one-step closed form",
        "remainder_closed_form": (
            "the remainder operator equals its one-step closed form"
        ),
        "power_over_n_identity": (
            "the scaled n-th power telescopes through consecutive Cesaro means"
        ),
        "telescoping_identity": (
            "(I - T) times the Cesaro mean telescopes to (I - T^n)/n"
        ),
        "remainder_factorization_identity": (
            "I minus the Cesaro mean factors through I - T and the remainder operator"
        ),
    },
    "boundedness": {
        "operator_norm_bound": (
            "the operator norm is at most the pairing constant times the weight "
            "bound: exactly ||T|| <= 1 * M for power-law gauges, sampled norm "
            "ratios against the empirical constant otherwise"
        ),
    },
}

CLAIM_REGISTRY: dict[str, str] = {
    cid: anchor for group in _CLAIM_TABLE.values() for cid, anchor in group.items()
}

EXPERIMENT_CLAIMS: dict[str, tuple[str, ...]] = {
    name: tuple(group) for name, group in _CLAIM_TABLE.items()
}


def make_claim(claim_id, hypothesis, ok, residual=None, detail=None):
    """One report row for a registered claim id, anchored from the registry;
    ok True, False or None (hypothesis not met) sets the status to "pass",
    "fail" or "not_checked"."""
    return ClaimResult(
        claim_id=claim_id,
        anchor=CLAIM_REGISTRY[claim_id],
        hypothesis=hypothesis,
        status="not_checked" if ok is None else "pass" if ok else "fail",
        residual=residual,
        detail=detail,
    )


def overflow_claim(claim_id, hypothesis="none"):
    """The not_checked row, with no residual, of a claim that reads a value
    which is not finite because a power overflowed: no bound holds on inf,
    and a NaN decides nothing."""
    return make_claim(claim_id, hypothesis, None, detail=OVERFLOW_DETAIL)


class ClaimColumn:
    """One claim's rows on every operator of a batch, as arrays: per row a
    status and a hypothesis (indices into ``STATUSES`` and ``HYPOTHESES``)
    and a residual (NaN where there is none, as ``has_residual`` says).
    Built as ``make_claim`` builds a row, from arrays of ok and residuals
    and one detail, a string, None, or a function of the row index, called
    only for a row whose detail is read; ``unchecked`` then makes some rows
    not_checked with a detail of their own. ``row`` gives one row."""

    def __init__(self, claim_id, hypothesis, ok, residual=None, detail=None):
        ok = np.asarray(ok, dtype=bool)
        self.claim_id = claim_id
        self.status = (~ok).view(np.int8)
        if isinstance(hypothesis, str):
            code, hypothesis = HYPOTHESES.index(hypothesis), np.zeros(ok.shape, np.int8)
            hypothesis[:] = code
        self.hypothesis = hypothesis
        if residual is None:
            self.has_residual, residual = np.zeros(ok.shape, bool), np.empty(ok.shape)
            residual.fill(np.nan)
        else:
            self.has_residual = np.ones(ok.shape, bool)
        self.residual = np.asarray(residual, dtype=float)
        self._detail, self._fixed = detail, []

    def unchecked(self, rows, detail=None) -> ClaimColumn:
        """Makes the rows (a mask) not_checked with no residual and this detail."""
        rows = np.asarray(rows, dtype=bool)
        if not rows.any():
            return self
        self.status[rows] = 2
        self.has_residual[rows] = False
        self._fixed.append((rows, detail))
        return self

    def detail(self, k: int):
        for rows, detail in reversed(self._fixed):
            if rows[k]:
                return detail
        return self._detail(k) if callable(self._detail) else self._detail

    def row(self, k: int) -> ClaimResult:
        return ClaimResult(
            claim_id=self.claim_id,
            anchor=CLAIM_REGISTRY[self.claim_id],
            hypothesis=HYPOTHESES[self.hypothesis[k]],
            status=STATUSES[self.status[k]],
            residual=float(self.residual[k]) if self.has_residual[k] else None,
            detail=self.detail(k),
        )


def fold_claims(parts, fingerprint) -> ClaimResult:
    """The report row of one claim from its (instance indices,
    ``ClaimColumn``) parts; ``fingerprint(i)`` is that of instance i. It
    fails when some row failed, with the first failing instance's
    fingerprint and detail; else it has the first instance's fingerprint,
    and its detail when that is the only one. Its residual is the worst of
    the checked rows, in instance order as Python's ``max`` takes them (a
    first NaN stays, a later one is passed over); its hypothesis is met when
    some row was checked or met it, unless the rows carry none; the detail
    falls back to a count of the checked rows."""
    if len(parts) == 1 and parts[0][1].status.size == 1:
        (index, column), = parts
        return fold_row(column.row(0), fingerprint(int(index[0])))
    index = np.concatenate([runs for runs, _ in parts])
    order = np.argsort(index, kind="stable")
    index = index[order]
    sizes = [col.status.size for _, col in parts]
    where = np.repeat(np.arange(len(parts)), sizes)[order]
    local = np.concatenate([np.arange(size) for size in sizes])[order]

    def stacked(name):
        return np.concatenate([getattr(col, name) for _, col in parts])[order]

    def detail(i):
        return parts[where[i]][1].detail(local[i])

    status, hypothesis = stacked("status"), stacked("hypothesis")
    residual = stacked("residual")[(status != 2) & stacked("has_residual")]
    checked = status != 2
    failed = np.flatnonzero(status == 1)
    first = failed[0] if failed.size else 0
    text = detail(first) if failed.size or status.size == 1 else None
    top = int(hypothesis[0])
    if top:
        top = 1 if checked.any() or (hypothesis == 1).any() else 2
    worst = None
    if residual.size:
        if not np.isnan(residual[0]):
            residual = residual[~np.isnan(residual)]
        worst = float(residual[np.argmax(residual)])
    claim_id = parts[0][1].claim_id
    return ClaimResult(
        claim_id=claim_id,
        anchor=CLAIM_REGISTRY[claim_id],
        hypothesis=HYPOTHESES[top],
        status="fail" if failed.size else "pass" if checked.any() else "not_checked",
        residual=worst,
        detail=text or f"checked on {int(checked.sum())} of {status.size} instances",
        fingerprint=fingerprint(int(index[first])),
    )


def fold_row(row: ClaimResult, fingerprint: dict) -> ClaimResult:
    """``fold_claims`` of a claim's one row, on one instance: the row itself,
    with its hypothesis met when it was checked, no residual when it was
    not, and the instance's fingerprint."""
    checked = row.status != "not_checked"
    if row.hypothesis == "not_met" and checked:
        row.hypothesis = "met"
    if not checked:
        row.residual = None
    row.detail = row.detail or f"checked on {int(checked)} of 1 instances"
    row.fingerprint = fingerprint
    return row
