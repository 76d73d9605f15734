"""A verify call's batch groups run on one operator table per instance size
and return their rows as arrays, which ``fold_claims`` folds into the
report. Here each instance's rows from a per-size table are checked against
its rows alone, bit for bit, and the fold against ``merge_claims`` of
tests/oracles.py, which folds one row object at a time."""

import contextlib
import dataclasses
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_wct import claims, cli, harness, wct
from orlicz_wct.claims import CLAIM_REGISTRY, HYPOTHESES, ClaimColumn, ClaimResult
from orlicz_wct.harness import PROFILES, generate_random_instance
from orlicz_wct.subspace import verify_structure_theorems

from conftest import table_rows
from oracles import merge_claims

R3 = Path(__file__).resolve().parents[1] / "scenarios" / "r3_contracting.json"


def _with_block(s, mu, u, w):
    """s with one more block, of one atom (mu, u, w)."""
    data = harness.scenario_to_dict(s)
    data["blocks"].append([len(data["atoms"])])
    for key, value in (("atoms", mu), ("u", u), ("w", w)):
        data[key].append(value)
    return dataclasses.replace(harness.scenario_from_dict(data), phi=s.phi)


@st.composite
def _instance_sets(draw):
    """Instances of 1 to 12 atoms over the five profiles, under the gauges
    of the random rotation shared as in a verify call, some with a one-atom
    block of h_B = 1; one contracting instance whose w is scaled by 1e100,
    so that its powers overflow; and one with a one-atom block of h_B = -100
    outside the criterion support, whose remainder sums overflow. The order
    is shuffled; sizes repeat, so that tables hold several rows. Returns
    the instances, a sampling seed for each, and where the last two went."""
    seeds = st.integers(0, 2**31 - 1)
    gauges = {}

    def instance(n, profile):
        blocks = draw(st.integers(1, n))
        return generate_random_instance(draw(seeds), n, blocks, profile, gauges)

    batch = []
    for n in draw(st.lists(st.integers(1, 12), min_size=6, max_size=14)):
        s = instance(n, draw(st.sampled_from(PROFILES)))
        if n < 12 and draw(st.booleans()):
            s = _with_block(s, 1.3, 1.0, 1.0)
        batch.append(s)
    grown = instance(batch[0].space.n_atoms, "contracting_h")
    batch.append(dataclasses.replace(grown, w=grown.w * 1e100))
    outside = instance(draw(st.integers(2, 11)), "contracting_h")
    batch.append(_with_block(outside, 0.9, 1e-12, -1e14))
    order = draw(st.permutations(range(len(batch))))
    seeds_of = [draw(seeds) for _ in batch]
    where = order.index(len(batch) - 2), order.index(len(batch) - 1)
    return [batch[i] for i in order], [seeds_of[i] for i in order], where


def _bits(rows):
    """Each row's fields, with the residual as its bytes."""
    return [
        (r.claim_id, r.anchor, r.hypothesis, r.status, r.detail, r.fingerprint,
         None if r.residual is None else np.float64(r.residual).tobytes())
        for r in rows
    ]


class TestSuiteTables:
    """Every batch group on one table per instance size, as a verify call
    runs them, against each instance alone: through the one-operator entry
    points where the group has one, and through a table of one row."""

    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(_instance_sets())
    def test_each_instance_reads_as_if_alone(self, drawn):
        batch, seeds, where = drawn
        tolerances = harness.DEFAULT_TOLERANCES
        by_size = {}
        for i, s in enumerate(batch):
            by_size.setdefault(s.space.n_atoms, []).append(i)
        rows = [[] for _ in batch]
        with np.errstate(all="ignore"):
            for index in by_size.values():
                tab = wct.OperatorTable.of(
                    [batch[i].operator() for i in index], [batch[i].phi for i in index]
                )
                sampling = np.array([seeds[i] for i in index])
                for group in harness._BATCH_GROUPS.values():
                    for column in group(tab, sampling, tolerances):
                        for k, i in enumerate(index):
                            rows[i].append(column.row(k))
            for s, seed, got in zip(batch, seeds, rows):
                t, phi = s.operator(), s.phi
                alone = [
                    row for group in harness._BATCH_GROUPS
                    for row in table_rows(group, [t], [phi], [seed], tolerances)[0]
                ]
                assert _bits(got) == _bits(alone), s.fingerprint()
                # the one-operator entry points
                structure = verify_structure_theorems(t, phi, 1e-8, seed)
                assert _bits(got[2:16]) == _bits(structure)
                rep = wct.power_bounded_report(t, phi, 20, 32, seed)
                criterion, sequence = got[:2]
                assert sequence.status == "not_checked" or (
                    np.float64(sequence.residual).tobytes()
                    == np.float64(rep.h_sup).tobytes()
                )
                if criterion.status != "not_checked":
                    assert criterion.residual == rep.sup_norm_estimate
        # the overflowing instance leaves its chain and walk rows not
        # checked; the block outside the support fails the remainder row with
        # a NaN residual; its neighbours, in the same tables, keep finite ones
        grown = {r.claim_id: r for r in rows[where[0]]}
        for cid in ("ascent_bound", "iterate_closed_form", "cesaro_closed_form"):
            assert grown[cid].status == "not_checked" and grown[cid].residual is None
        outside = {r.claim_id: r for r in rows[where[1]]}
        assert outside["ergodic_bn_convergence"].status == "fail"
        assert np.isnan(outside["ergodic_bn_convergence"].residual)
        for i, got in enumerate(rows):
            if i not in where:
                residuals = [r.residual for r in got if r.residual is not None]
                assert np.isfinite(residuals).all(), i

    def test_suite_builds_no_per_instance_row_object(self, monkeypatch):
        # a verify call builds ClaimResult objects only for the report's
        # rows and for the scenario's own groups: as many at 200 random
        # instances as at 20
        made = []
        init = ClaimResult.__init__

        def spy(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ClaimResult, "__init__", spy)
        counts = []
        for instances in (20, 200):
            made.clear()
            argv = ["verify", "--scenario", str(R3), "--instances", str(instances),
                    "--seed", "1"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            counts.append(len(made))
        assert counts[0] == counts[1] <= 2 * len(CLAIM_REGISTRY)


_RESIDUALS = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 1.0, 0.5, np.inf, -np.inf, np.nan, 1e-300]),
    st.floats(allow_nan=False, width=64),
)


@st.composite
def _claim_rows(draw):
    """Rows of one claim on 1 to 9 instances, in instance order: any
    status, hypothesis, residual (None, NaN, signed zeros, infinities) and
    detail (None, empty or text), each with its instance's fingerprint."""
    rows = []
    for i in range(draw(st.integers(1, 9))):
        rows.append(ClaimResult(
            claim_id="ascent_bound",
            anchor=CLAIM_REGISTRY["ascent_bound"],
            hypothesis=draw(st.sampled_from(HYPOTHESES)),
            status=draw(st.sampled_from(claims.STATUSES)),
            residual=draw(_RESIDUALS),
            detail=draw(st.sampled_from([None, "", "why", "because"])),
            fingerprint={"instance": i},
        ))
    return rows


def _column(rows):
    """The column of the rows, as a batch group builds one: arrays of ok,
    hypothesis and residual, details read from the rows, and each
    not_checked row made so with its own detail."""
    column = ClaimColumn(
        rows[0].claim_id,
        np.array([HYPOTHESES.index(r.hypothesis) for r in rows], dtype=np.int8),
        [r.status == "pass" for r in rows],
        residual=[np.nan if r.residual is None else r.residual for r in rows],
        detail=lambda k: rows[k].detail,
    )
    column.has_residual = np.array([r.residual is not None for r in rows])
    for k, r in enumerate(rows):
        if r.status == "not_checked":
            column.unchecked(np.arange(len(rows)) == k, r.detail)
    return column


def _fold(rows, order, cuts):
    """fold_claims of the rows (in instance order), given as parts of the
    permutation ``order`` of the instances cut at ``cuts``."""
    parts = []
    for a, b in zip([0, *cuts], [*cuts, len(rows)]):
        index = np.array(order[a:b], dtype=int)
        parts.append((index, _column([rows[i] for i in index])))
    return claims.fold_claims(parts, lambda i: rows[i].fingerprint)


def _same(a, b):
    """Whether two rows are equal, their residuals bit for bit."""
    bits = [None if r.residual is None else np.float64(r.residual).tobytes()
            for r in (a, b)]
    plain = [dataclasses.replace(r, residual=None) for r in (a, b)]
    return plain[0] == plain[1] and bits[0] == bits[1]


class TestFold:
    """``fold_claims`` against ``merge_claims`` over the same rows."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(_claim_rows(), st.data())
    def test_fold_equals_merge(self, rows, data):
        order = data.draw(st.permutations(range(len(rows))))
        cuts = sorted(data.draw(st.sets(st.integers(1, max(1, len(rows) - 1)))))
        cuts = [c for c in cuts if c < len(rows)]
        assert _same(_fold(rows, order, cuts), merge_claims(list(rows)))

    def _rows(self, spec):
        return [
            ClaimResult("ascent_bound", CLAIM_REGISTRY["ascent_bound"], hyp, status,
                        residual, detail, {"instance": i})
            for i, (hyp, status, residual, detail) in enumerate(spec)
        ]

    @pytest.mark.parametrize(
        "spec",
        [
            # None residuals only
            [("none", "pass", None, None), ("none", "fail", None, "why")],
            # every row not checked
            [("met", "not_checked", None, "x"), ("not_met", "not_checked", 1.0, None)],
            # one instance, each status
            [("met", "pass", 0.25, None)],
            [("not_met", "fail", 2.0, "why")],
            [("not_met", "not_checked", None, None)],
            # a NaN residual that is not first: Python's max passes it over,
            # where np.max would keep it
            [("none", "pass", 1.0, None), ("none", "pass", np.nan, None),
             ("none", "pass", 0.5, None)],
            # a NaN residual first: it stays
            [("none", "pass", np.nan, None), ("none", "pass", 3.0, None)],
            # signed zeros: the first of equal values stays
            [("none", "pass", -0.0, None), ("none", "pass", 0.0, None)],
        ],
        ids=["none_residuals", "all_not_checked", "one_pass", "one_fail",
             "one_not_checked", "nan_not_first", "nan_first", "signed_zeros"],
    )
    def test_named_cases(self, spec):
        rows = self._rows(spec)
        n = len(rows)
        for order in (list(range(n)), list(reversed(range(n)))):
            for cuts in ([], list(range(1, n))):
                assert _same(_fold(rows, order, cuts), merge_claims(list(rows)))

    def test_a_later_nan_residual_is_passed_over(self):
        rows = self._rows([("none", "pass", 1.0, None), ("none", "pass", np.nan, None)])
        assert np.isnan(np.max([r.residual for r in rows]))
        assert _fold(rows, [0, 1], []).residual == 1.0
