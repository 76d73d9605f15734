import contextlib
import dataclasses
import functools
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_wct import (
    CLAIM_REGISTRY,
    ScenarioError,
    ValidationError,
    VerificationReport,
    ClaimResult,
    cond_exp,
    CondExp,
    FiniteMeasureSpace,
    Partition,
    emit_report,
    ess_sup,
    exp_type,
    generate_random_instance,
    load_scenario,
    power_scaled,
    run_verification,
    scenario_from_dict,
    scenario_to_dict,
    support,
    verify_structure_theorems,
)
from orlicz_wct import claims, cli, harness, subspace, wct
from orlicz_wct.claims import EXPERIMENT_CLAIMS, make_claim
from orlicz_wct.harness import DEFAULT_EXPERIMENTS, PROFILES, Scenario

from conftest import batch_rows, table_rows
from oracles import merge_claims, power_bounded_loop, well_conditioned_draw_loop


class TestLoadScenario:
    def test_round_trip(self, tmp_path, r1_scenario_dict):
        path = tmp_path / "r1.json"
        path.write_text(json.dumps(r1_scenario_dict))
        s = load_scenario(path)
        assert s.space.n_atoms == 2
        assert s.partition.n_blocks == 1
        assert scenario_to_dict(s)["u"] == [1.0, 1.0]
        # a second trip through JSON is stable
        again = scenario_from_dict(scenario_to_dict(s))
        assert scenario_to_dict(again) == scenario_to_dict(s)

    def test_zero_weight_rejected(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, atoms=[1.0, 0.0])
        with pytest.raises(ValidationError, match="atom weight must be > 0"):
            scenario_from_dict(bad)

    def test_overlapping_blocks_rejected(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, blocks=[[1], [1, 2]])
        with pytest.raises(ValidationError, match="blocks must be disjoint"):
            scenario_from_dict(bad)

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"atoms": [1.0,]}')
        with pytest.raises(ScenarioError, match=r"line 1 column"):
            load_scenario(path)

    def test_unknown_young_kind(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, young={"kind": "mystery"})
        with pytest.raises(ValidationError, match="unknown young function kind"):
            scenario_from_dict(bad)

    def test_missing_field(self, r1_scenario_dict):
        bad = {k: v for k, v in r1_scenario_dict.items() if k != "w"}
        with pytest.raises(ValidationError, match="missing required field: 'w'"):
            scenario_from_dict(bad)

    def test_wrong_value_length(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, u=[1.0])
        with pytest.raises(ValidationError, match="u must have one value per atom"):
            scenario_from_dict(bad)

    def test_unknown_experiment(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, experiments=["stricture"])
        with pytest.raises(ValidationError, match="unknown experiment"):
            scenario_from_dict(bad)

    def test_bad_tolerance(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, tolerances={"rank": -1.0})
        with pytest.raises(ValidationError, match="must be > 0"):
            scenario_from_dict(bad)

    @pytest.mark.parametrize("value", [1, 1.0, 3.5])
    def test_rank_tolerance_of_one_or_more_rejected(self, r1_scenario_dict, value):
        bad = dict(r1_scenario_dict, tolerances={"rank": value})
        with pytest.raises(ValidationError, match="tolerance 'rank' must be < 1"):
            scenario_from_dict(bad)

    def test_comparison_tolerance_is_not_capped_at_one(self, r1_scenario_dict):
        s = scenario_from_dict(dict(r1_scenario_dict, tolerances={"comparison": 2.0}))
        assert s.tolerances == {"rank": 1e-8, "comparison": 2.0}

    def test_nan_tolerance_rejected(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, tolerances={"rank": float("nan")})
        with pytest.raises(ValidationError, match="'rank' must be a finite number"):
            scenario_from_dict(bad)

    def test_infinite_tolerance_rejected(self, tmp_path, r1_scenario_dict):
        # JSON's Infinity would let every comparison pass
        path = tmp_path / "inf.json"
        path.write_text(
            json.dumps(dict(r1_scenario_dict, tolerances={"comparison": 1.0}))
            .replace('"comparison": 1.0', '"comparison": Infinity')
        )
        with pytest.raises(ValidationError, match="'comparison' must be a finite"):
            load_scenario(path)

    def test_non_numeric_tolerance_rejected(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, tolerances={"comparison": "tight"})
        with pytest.raises(ValidationError, match="'comparison' must hold numbers"):
            scenario_from_dict(bad)

    def test_tolerances_must_be_an_object(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, tolerances=[1e-8])
        with pytest.raises(ValidationError, match="tolerances must be an object"):
            scenario_from_dict(bad)

    def test_retired_norm_bisection_tolerance_rejected(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, tolerances={"norm_bisection": 1e-10})
        with pytest.raises(
            ValidationError, match="unknown tolerance name: 'norm_bisection'"
        ):
            scenario_from_dict(bad)

    def test_fractional_block_index_rejected(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, blocks=[[0, 1.7]])
        with pytest.raises(ValidationError, match="block index must be an integer"):
            scenario_from_dict(bad)

    def test_string_block_index_rejected(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, blocks=[["0", 1]])
        with pytest.raises(ValidationError, match="block index must be an integer"):
            scenario_from_dict(bad)

    def test_non_numeric_atoms_rejected(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, atoms=[1.0, "heavy"])
        with pytest.raises(ValidationError, match="atoms must hold numbers"):
            scenario_from_dict(bad)

    def test_nested_atoms_rejected(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, atoms=[[1.0], [3.0]])
        with pytest.raises(ValidationError, match="atoms must be a flat list"):
            scenario_from_dict(bad)

    @pytest.mark.parametrize("field", ["u", "w"])
    def test_non_numeric_values_rejected(self, r1_scenario_dict, field):
        bad = dict(r1_scenario_dict, **{field: [1.0, {"x": 1}]})
        with pytest.raises(ValidationError, match=f"{field} must hold numbers"):
            scenario_from_dict(bad)

    def test_experiments_not_a_list_rejected(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, experiments=5)
        with pytest.raises(ValidationError, match="experiments must be a list"):
            scenario_from_dict(bad)

    def test_repeated_experiment_name_rejected(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, experiments=["iterate_formula", "iterate_formula"])
        with pytest.raises(
            ValidationError, match="repeated experiment name: 'iterate_formula'"
        ):
            scenario_from_dict(bad)

    def test_nested_experiment_name_rejected(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, experiments=[["x"]])
        with pytest.raises(ValidationError, match="experiments must be a list"):
            scenario_from_dict(bad)

    def test_list_young_kind_rejected(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, young={"kind": ["x"]})
        with pytest.raises(ValidationError, match="unknown young function kind"):
            scenario_from_dict(bad)

    def test_scalar_young_params_rejected(self, r1_scenario_dict):
        bad = dict(r1_scenario_dict, young={"kind": "power_scaled", "params": 3})
        with pytest.raises(ValidationError, match="young params must be a list"):
            scenario_from_dict(bad)

    def test_young_params_list_form(self, r1_scenario_dict):
        spec = dict(r1_scenario_dict, young={"kind": "power_scaled", "params": [3]})
        s = scenario_from_dict(spec)
        assert s.phi.params == (3.0,)


class TestGenerator:
    def test_determinism(self):
        a = generate_random_instance(7, 12, 4, "generic")
        b = generate_random_instance(7, 12, 4, "generic")
        assert scenario_to_dict(a) == scenario_to_dict(b)

    def test_contracting_postcondition(self):
        for seed in range(20):
            s = generate_random_instance(seed, 10, 3, "contracting_h")
            h = cond_exp(CondExp(s.space, s.partition), s.u * s.w)
            assert ess_sup(h) <= 0.9 + 1e-12

    def test_expanding_postcondition(self):
        for seed in range(20):
            s = generate_random_instance(seed, 10, 3, "expanding_h")
            h = cond_exp(CondExp(s.space, s.partition), s.u * s.w)
            assert float(np.min(h)) >= 1.1 - 1e-12

    def test_nilpotent_postcondition(self):
        for seed in range(20):
            s = generate_random_instance(seed, 9, 4, "nilpotent_h")
            h = cond_exp(CondExp(s.space, s.partition), s.u * s.w)
            assert ess_sup(h) <= 1e-10

    def test_sparse_support_postcondition(self):
        for seed in range(20):
            s = generate_random_instance(seed, 12, 3, "sparse_support")
            assert len(support(s.w, 0.0)) <= max(1, 12 // 4)

    def test_profile_bounds_are_checked_under_python_O(self):
        # the bounds on h that each profile promises are checked by a raise,
        # so they hold with asserts stripped: draws whose check reads
        # sup|h| = 1 are refused
        code = (
            "import orlicz_wct.harness as h\n"
            "h.ess_sup = lambda f: 1.0\n"
            "for profile in ('contracting_h', 'nilpotent_h'):\n"
            "    try:\n"
            "        h.generate_random_instance(1, 4, 2, profile)\n"
            "    except RuntimeError as exc:\n"
            "        print(exc)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        assert out == [
            "the contracting_h draw of seed 1 breaks its bound on h",
            "the nilpotent_h draw of seed 1 breaks its bound on h",
        ]

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            generate_random_instance(0, 65, 1, "generic")
        with pytest.raises(ValueError):
            generate_random_instance(0, 4, 5, "generic")
        with pytest.raises(ValueError, match="unknown profile"):
            generate_random_instance(0, 4, 2, "chaotic")


class TestDrawRounds:
    """A suite's draws come in rounds of array draws with one stacked filter
    per round; ``oracles.well_conditioned_draw_loop`` draws each instance
    alone, object by object, and filters each draw alone with the rule taken
    one power at a time. They accept the same draws, bit for bit."""

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(
        seed=st.integers(0, 10**6),
        instances=st.integers(1, 30),
        tol=st.sampled_from([1e-8, 1e-3, 0.25]),
    )
    def test_rounds_accept_what_the_loop_accepts(self, seed, instances, tol):
        # at tol 0.25 the top value of every power lies within the band of
        # its own threshold, so every draw is flagged: those examples
        # compare the exhaustion error
        path = Path(__file__).resolve().parents[1] / "scenarios" / "r3_contracting.json"
        s = load_scenario(path)
        s = dataclasses.replace(s, tolerances={**s.tolerances, "rank": tol})
        want = []
        try:
            for i in range(instances):
                child = seed * 100003 + i
                sizes = np.random.default_rng(child)
                n_atoms = int(sizes.integers(2, 13))
                n_blocks = int(sizes.integers(1, n_atoms + 1))
                profile = PROFILES[i % len(PROFILES)]
                want.append(
                    well_conditioned_draw_loop(child, n_atoms, n_blocks, profile, tol)
                )
        except ScenarioError as exc:
            with pytest.raises(ScenarioError) as info:
                list(harness._tables(s, seed, instances, []))
            assert str(info.value) == str(exc)
            return
        fingerprints, got = [None], {}
        for index, tab, seeds in harness._tables(s, seed, instances, fingerprints):
            assert tab.record.sizes.size == tab.blocks.sum()
            for k, i in enumerate(index.tolist()):
                got[i] = tab, k, int(seeds[k])
        assert sorted(got) == list(range(instances + 1))
        for i, (seed_j, u, w, t_loop, phi) in enumerate(want, 1):
            tab, k, sampling_seed = got[i]
            assert sampling_seed == fingerprints[i]["seed"] == seed_j
            # the table's row, and the operator built from it, hold the
            # loop's arrays, and the table's record, formed once over all its
            # rows, holds the loop's record on the row's blocks
            t, row = tab.operator(k), tab.take([k])
            for a, b in (
                (t.u, u), (t.w, w), (t.h, t_loop.h), (row.u, u), (row.w, w),
                (row.h, t_loop.h), (row.weights, t_loop.space.weights),
                (row.masses, t_loop.e._block_masses),
                (t.e._block_masses, t_loop.e._block_masses),
            ):
                assert a.tobytes() == b.tobytes()
            assert t.e.partition == t_loop.e.partition
            assert harness.young_to_spec(tab.phis[k]) == harness.young_to_spec(phi)
            for name, value in vars(t_loop.block_record).items():
                assert getattr(row.record, name).tobytes() == value.tobytes(), name

    def test_exhausted_instance_raises_the_same_error(self):
        # with 31 blocks some block almost always lands in the band of its
        # power's threshold, so every draw from this seed is flagged
        with pytest.raises(ScenarioError) as info:
            harness.generate_well_conditioned_instance(310, 52, 31, "generic")
        assert str(info.value) == (
            "no well-conditioned instance within 120 draws from seed 310 at "
            "rank tolerance 1e-08"
        )

    def test_lowest_exhausted_instance_is_reported(self, monkeypatch):
        # of four instances, 1 and 3 are flagged in every round, where they
        # are the first two pending draws after the first round: the rounds
        # run to the last attempt and raise for instance 1
        rounds, decide = [], harness.records_well_conditioned

        def flag(rec, starts, k_max, tol):
            rounds.append(starts.size)
            ok = decide(rec, starts, k_max, tol)
            ok[[1, 3] if starts.size == 4 else [0, 1]] = False
            return ok

        monkeypatch.setattr(harness, "records_well_conditioned", flag)
        specs = [(10 + i, 4, 2, "generic") for i in range(4)]
        with pytest.raises(ScenarioError, match="from seed 11 at rank"):
            harness._well_conditioned_draws(specs, 1e-8)
        assert rounds == [4] + [2] * 119


class TestRunVerification:
    def test_r1_full_suite_passes(self, r1_scenario_dict):
        s = scenario_from_dict(r1_scenario_dict)
        report = run_verification(s, seed=1)
        assert report.exit_status == 0
        assert all(r.status in ("pass", "not_checked") for r in report.entries)

    def test_r4_reports_growth_without_failing(self, r1_scenario_dict):
        s = scenario_from_dict(dict(r1_scenario_dict, w=[2.0, 2.0]))
        report = run_verification(s, seed=1)
        assert report.exit_status == 0
        by_id = {r.claim_id: r for r in report.entries}
        assert "growth confirmed" in by_id["power_bounded_criterion"].detail
        assert by_id["one_minus_t_ascent"].status == "not_checked"

    def test_registry_completeness(self, r1_scenario_dict):
        s = scenario_from_dict(r1_scenario_dict)
        report = run_verification(s, seed=0)
        assert {r.claim_id for r in report.entries} == set(CLAIM_REGISTRY)
        flattened = {cid for ids in EXPERIMENT_CLAIMS.values() for cid in ids}
        assert flattened == set(CLAIM_REGISTRY)

    def test_each_claim_appears_once(self, r1_scenario_dict):
        s = scenario_from_dict(r1_scenario_dict)
        report = run_verification(s, seed=0, instances=5)
        ids = [r.claim_id for r in report.entries]
        assert len(ids) == len(set(ids))

    def test_overflowing_symbol_leaves_power_bounded_not_checked(self):
        # r3 with u and w scaled by 1e200: h is inf, so sup|h| is not
        # finite; the report is standard JSON, exits 0 and leaves both
        # power_bounded rows not checked, as the other groups do
        path = Path(__file__).resolve().parents[1] / "scenarios" / "r3_contracting.json"
        s = load_scenario(path)
        s = dataclasses.replace(s, u=s.u * 1e200, w=s.w * 1e200)
        with np.errstate(all="ignore"):
            report = run_verification(s, seed=1)
        assert report.exit_status == 0
        json.loads(emit_report(report), parse_constant=pytest.fail)
        by_id = {r.claim_id: r for r in report.entries}
        for cid in ("power_bounded_criterion", "symbol_power_sequence"):
            assert by_id[cid].status == "not_checked"
            assert by_id[cid].residual is None

    @pytest.mark.parametrize(
        "young",
        [{"kind": "exp_type"}, {"kind": "power_scaled", "p": 2}],
        ids=["exp_type", "power_scaled_2"],
    )
    def test_overflowing_entries_leave_their_rows_not_checked(self, young):
        # one block of two unit atoms with u = (1e200, 1e-200) and w =
        # (0.5e-200, 0.5e200): h = 0.5, so the contraction criterion holds,
        # but the entry w_2 u_1 of T is inf. Every row that reads T or
        # I - T is not checked: the sampled norms of exp_type and the six
        # rows under the criterion, the Cesaro limit among them; the report
        # is standard JSON and verify exits 0
        data = {
            "atoms": [1.0, 1.0], "blocks": [[0, 1]], "u": [1e200, 1e-200],
            "w": [0.5e-200, 0.5e200], "young": young,
        }
        with np.errstate(all="ignore"):
            report = run_verification(scenario_from_dict(data), seed=1)
        assert report.exit_status == 0
        json.loads(emit_report(report), parse_constant=pytest.fail)
        by_id = {r.claim_id: r for r in report.entries}
        overflowed = ["power_bounded_criterion", *subspace._CRITERION_CLAIMS]
        for cid in overflowed:
            assert by_id[cid].status == "not_checked", cid
            assert by_id[cid].residual is None and "overflow" in by_id[cid].detail
        for cid in subspace._CRITERION_CLAIMS:
            assert by_id[cid].hypothesis == "met", cid
        assert by_id["symbol_power_sequence"].status == "pass"
        assert by_id["symbol_power_sequence"].residual == 0.5

    @pytest.mark.parametrize(
        "young",
        [{"kind": "exp_type"}, {"kind": "power_scaled", "p": 2}],
        ids=["exp_type", "power_scaled_2"],
    )
    def test_overflowing_entries_warn_nothing(self, tmp_path, young):
        # the overflows of the overflowing-entries scenario are expected and
        # read as not_checked rows; each site that meets one scopes it, so
        # verify raises no RuntimeWarning, with no np.errstate around the
        # call, and exits 0
        data = {
            "atoms": [1.0, 1.0], "blocks": [[0, 1]], "u": [1e200, 1e-200],
            "w": [0.5e-200, 0.5e200], "young": young,
        }
        path = tmp_path / "overflow_entries.json"
        path.write_text(json.dumps(data))
        argv = ["verify", "--scenario", str(path), "--format", "json"]
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(argv) == 0

    def test_criterion_and_conjugate_built_once_per_instance(self, monkeypatch):
        # r3 plus 20 instances, 148 atoms, cut into tables of at most 40
        # atoms. Each table decides the contraction criterion of all its
        # rows in one pass, which the power_bounded and structure passes both
        # read; every orlicz_wct binding of complementary is wrapped, so a
        # call through any module counts
        passes, counts = [], {"complementary": 0}
        decide = wct.OperatorTable.criterion.func

        def spy_decide(tab):
            passes.append(tab)
            return decide(tab)

        monkeypatch.setattr(
            wct.OperatorTable, "criterion", functools.cached_property(spy_decide)
        )
        wct.OperatorTable.criterion.__set_name__(wct.OperatorTable, "criterion")
        modules = [m for k, m in sys.modules.items() if k.startswith("orlicz_wct")]
        for module in modules:
            if hasattr(module, "complementary"):
                original = module.complementary

                def spy(*args, _original=original, **kwargs):
                    counts["complementary"] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, "complementary", spy)
        monkeypatch.setattr(harness, "_TABLE_ATOMS", 40)
        path = Path(__file__).resolve().parents[1] / "scenarios" / "r3_contracting.json"
        argv = ["verify", "--scenario", str(path), "--instances", "20", "--seed", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        # one pass per table, over every row of every table once, in the
        # order of atom counts
        assert len(passes) == 4 and all(tab.n.sum() <= 40 for tab in passes)
        sizes = np.concatenate([tab.n for tab in passes])
        assert sizes.size == 21 and sizes.sum() == 148 and np.all(np.diff(sizes) >= 0)
        # r3's gauge and the four of the random rotation, which the draws of
        # one call share across its tables: one conjugate each
        assert len({id(phi) for tab in passes for phi in tab.phis}) == 5
        assert counts["complementary"] == 5

    def test_random_instances_build_no_operator(self, monkeypatch):
        # the primary scenario builds one operator and one conditional
        # expectation; a random instance builds neither, accepted or not:
        # draws are arrays, and the suite's tables read them
        counts = {"operators": 0, "expectations": 0, "draws": 0}
        post_init = wct.WctOperator.__post_init__
        condexp_init = CondExp.__post_init__
        draw = harness._draw

        def spy_operator(t):
            counts["operators"] += 1
            post_init(t)

        def spy_condexp(e):
            counts["expectations"] += 1
            condexp_init(e)

        def spy_draw(*args, **kwargs):
            counts["draws"] += 1
            return draw(*args, **kwargs)

        monkeypatch.setattr(wct.WctOperator, "__post_init__", spy_operator)
        monkeypatch.setattr(CondExp, "__post_init__", spy_condexp)
        monkeypatch.setattr(harness, "_draw", spy_draw)
        path = Path(__file__).resolve().parents[1] / "scenarios" / "r3_contracting.json"
        argv = ["verify", "--scenario", str(path), "--instances", "20", "--seed", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert counts["draws"] > 20  # some draws were rejected
        assert counts["operators"] == counts["expectations"] == 1

    def test_one_block_frame_per_round(self, monkeypatch):
        # r3 with 200 instances at seed 1 takes 307 draws in 18 rounds. Each
        # round takes one (w, u mu) frame over a table of its draws, which
        # its one filter reads. The suite, 1,437 atoms, is one table, which
        # takes one frame over its rows, and its criterion pass one (u, w mu)
        # frame of the adjoint over the u of the rows that meet the
        # criterion, 130 in all. No operator but r3's is built, and r3's own
        # record is never formed
        operators, frames, adjoint, rounds, met = [], [], [], [], []
        tables, walked = {}, []
        post_init, frame = wct.WctOperator.__post_init__, wct._block_frame
        facts = subspace._criterion_facts
        decide = harness.records_well_conditioned
        layout_init, walk_init = wct.BlockLayout.__init__, wct.BlockWalk.__init__

        def spy_post_init(t):
            post_init(t)
            operators.append(t)

        def spy(record):
            def spy_frame(*args):
                record.append(args[-2])  # x of the pieces x_B y_B^T / mu(B)
                return frame(*args)

            return spy_frame

        def spy_decide(rec, starts, k_max, tol):
            rounds.append((starts.size, rec))
            return decide(rec, starts, k_max, tol)

        def spy_facts(tab, tol, seeds):
            met.append(tab)
            return facts(tab, tol, seeds)

        def spy_layout(self, tab):
            tables[id(self)] = tab
            layout_init(self, tab)

        def spy_walk(self, layout, *args):
            walked.append(tables[id(layout)])
            walk_init(self, layout, *args)

        monkeypatch.setattr(wct.WctOperator, "__post_init__", spy_post_init)
        monkeypatch.setattr(wct, "_block_frame", spy(frames))
        monkeypatch.setattr(subspace, "_block_frame", spy(adjoint))
        monkeypatch.setattr(harness, "records_well_conditioned", spy_decide)
        monkeypatch.setattr(subspace, "_criterion_facts", spy_facts)
        monkeypatch.setattr(wct.BlockLayout, "__init__", spy_layout)
        monkeypatch.setattr(wct.BlockWalk, "__init__", spy_walk)
        path = Path(__file__).resolve().parents[1] / "scenarios" / "r3_contracting.json"
        report = run_verification(load_scenario(path), seed=1, instances=200)
        assert report.exit_status == 0
        assert len(rounds) == 18
        assert sum(size for size, _ in rounds) == 307 and rounds[0][0] == 200
        # the rounds' frames come first: the atoms of the 200 first draws,
        # then of the 21 second ones
        round_frames, frames = frames[:18], frames[18:]
        assert [x.size for x in round_frames[:2]] == [1435, 189]
        assert [rec.e1.size for _, rec in rounds] == [x.size for x in round_frames]
        assert len(operators) == 1 and "block_record" not in vars(operators[0])
        # the iterate and Cesaro walks read the layout of the one table,
        # whose rows are r3 and every instance, by atom count
        assert len(walked) == 2 and walked[0] is walked[1]
        tab = walked[0]
        assert tab.n.size == 201 and tab.n.sum() == 1437
        assert np.all(np.diff(tab.n) >= 0)
        # one frame for the table, and one adjoint frame for its criterion
        # pass
        assert [x.size for x in frames] == [tab.w.size]
        assert len(met) == len(adjoint) == 1 and met[0].n.size == 130
        assert adjoint[0] is met[0].u

    def test_suite_without_batch_groups_still_draws(self, r1_scenario_dict):
        # the random instances are drawn whichever groups run: at rank
        # tolerance 1e-3 instance 25 of seed 3 has no well-conditioned draw,
        # so a suite that asks only for the law group still fails to draw
        data = dict(r1_scenario_dict, experiments=["condexp_laws"],
                    tolerances={"rank": 1e-3})
        with pytest.raises(ScenarioError, match="from seed 300034"):
            run_verification(scenario_from_dict(data), seed=3, instances=50)

    def test_experiment_subset(self, r1_scenario_dict):
        s = scenario_from_dict(
            dict(r1_scenario_dict, experiments=["iterate_formula"])
        )
        report = run_verification(s, seed=0)
        assert [r.claim_id for r in report.entries] == ["iterate_closed_form"]

    def test_comparison_tolerance_reaches_condexp_laws(self, r1_scenario_dict):
        # block averaging rounds differently on the two sides of the pull-out
        # law, leaving residuals near 1e-16: inside the default tolerance,
        # outside a declared 1e-30
        def pullout(tolerances):
            data = dict(
                r1_scenario_dict, experiments=["condexp_laws"], tolerances=tolerances
            )
            report = run_verification(scenario_from_dict(data), seed=0)
            by_id = {r.claim_id: r for r in report.entries}
            return by_id["condexp_product_pullout"]

        assert pullout({}).status == "pass"
        tight = pullout({"comparison": 1e-30})
        assert tight.status == "fail"
        assert 0.0 < tight.residual <= 1e-9

    def test_comparison_tolerance_reaches_the_iterate_and_cesaro_groups(
        self, monkeypatch
    ):
        # on the primary64 seed-1 scenario the closed forms and the identities
        # leave rounding residuals of 7e-17 to 3e-16: inside the default
        # tolerance, outside a declared 1e-18, which every row compares with
        monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "benchmarks")
        import workloads

        groups = ["iterate_formula", "cesaro_identities"]

        def rows(tolerances):
            data = dict(
                workloads.primary_scenario_dict(1),
                experiments=groups,
                tolerances=tolerances,
            )
            return run_verification(scenario_from_dict(data), seed=1).entries

        assert {r.status for r in rows({})} == {"pass"}
        tight = rows({"comparison": 1e-18})
        assert len(tight) == 6
        assert all(r.status == "fail" and 1e-18 < r.residual < 1e-9 for r in tight)

    def test_failing_fingerprint_rebuilds_a_redrawn_instance(
        self, r1_scenario_dict, monkeypatch
    ):
        # at seed 2 the first random instance (seed 200006) is ill
        # conditioned and redrawn; fail the iterate claim on every random
        # instance so the report points at that one
        tables = []

        def failing_iterate_columns(tab, seeds, tolerances):
            tables.append((tab, seeds))
            # the scenario samples with the call's seed, 2, and a random
            # instance with its own draw's seed
            return [claims.ClaimColumn("iterate_closed_form", "none", seeds == 2)]

        monkeypatch.setitem(harness._BATCH_GROUPS, "iterate_formula", failing_iterate_columns)
        data = dict(r1_scenario_dict, experiments=["iterate_formula"])
        report = run_verification(scenario_from_dict(data), seed=2, instances=1)
        (row,) = report.entries
        assert row.status == "fail"
        fp = row.fingerprint
        assert fp["seed"] == 215844 != 2 * 100003
        # the redrawn instance's claims sample with the seed that rebuilds it
        assert sorted(seed for _, seeds in tables for seed in seeds.tolist()) == [2, fp["seed"]]
        (tab, k), = [(tab, k) for tab, seeds in tables
                     for k, seed in enumerate(seeds.tolist()) if seed == fp["seed"]]
        rebuilt = generate_random_instance(
            fp["seed"], fp["n_atoms"], fp["n_blocks"], fp["profile"]
        ).operator()
        ran = tab.operator(k)
        np.testing.assert_array_equal(rebuilt.u, ran.u)
        np.testing.assert_array_equal(rebuilt.w, ran.w)
        np.testing.assert_array_equal(rebuilt.space.weights, ran.space.weights)
        assert rebuilt.e.partition == ran.e.partition

    @pytest.mark.parametrize(
        "n_atoms, n_blocks, scale, young, groups",
        [
            (64, 8, 1e160, None, DEFAULT_EXPERIMENTS),
            (8, 2, 1e306, {"kind": "exp_type"}, ("boundedness",)),
        ],
        ids=["exact_norm", "sampled_norm"],
    )
    def test_an_overflowing_weight_leaves_the_norm_bound_not_checked(
        self, n_atoms, n_blocks, scale, young, groups
    ):
        # u * scale and w / scale leave the operator as it was, but psi(|u|)
        # overflows, and so the weight in the bound constant: the constant
        # is inf, the bound row is not checked and verify still reports.
        # The 64-atom draw is the scenario of ``orlicz-wct random --seed 1
        # --n-atoms 64 --n-blocks 8 --profile contracting_h``; exp_type
        # takes the sampled route, whose conjugate overflows later
        s = generate_random_instance(1, n_atoms, n_blocks, "contracting_h")
        phi = s.phi if young is None else harness.young_from_spec(young)
        s = dataclasses.replace(
            s, u=s.u * scale, w=s.w / scale, phi=phi, experiments=groups
        )
        assert wct.bound_constant(s.operator(), s.phi, 1.0) == np.inf
        report = run_verification(s, seed=0)
        assert report.exit_status == 0
        (row,) = [r for r in report.entries if r.claim_id == "operator_norm_bound"]
        assert row.status == "not_checked" and row.residual is None
        assert "overflow" in row.detail

    def test_anchor_strings_from_registry(self, r1_scenario_dict):
        s = scenario_from_dict(r1_scenario_dict)
        report = run_verification(s, seed=0)
        for row in report.entries:
            assert row.anchor == CLAIM_REGISTRY[row.claim_id]

    def test_generic_instances_keep_ascent_bounded(self):
        # one hundred generic draws, every ascent at most two
        from orlicz_wct import matrix_of
        from orlicz_wct.harness import generate_well_conditioned_instance

        from oracles import dense_ascent

        for i in range(100):
            sizes = np.random.default_rng(900 + i)
            n_atoms = int(sizes.integers(2, 13))
            s = generate_well_conditioned_instance(
                900 + i, n_atoms, int(sizes.integers(1, n_atoms + 1)), "generic"
            )
            a = dense_ascent(matrix_of(s.operator()))
            assert a is not None and a <= 2, s.fingerprint()


def _report_json(scenario, seed, instances):
    report = run_verification(scenario, seed=seed, instances=instances)
    report.generated_at = ""
    return emit_report(report, format="json")


class TestTableCuts:
    """A verify call orders its instances by atom count, then by instance,
    and cuts them into consecutive tables of at most ``_TABLE_ATOMS``
    atoms, unless one row has more; the reports do not depend on the cut."""

    @pytest.mark.parametrize("name, seed", [("r3_contracting", 1), ("r4_expanding", 2)])
    def test_reports_are_byte_identical_at_any_budget(self, monkeypatch, name, seed):
        s = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.json")
        want = _report_json(s, seed, 40)
        # one row per table, tables of at most 64 atoms
        for budget in (1, 64):
            monkeypatch.setattr(harness, "_TABLE_ATOMS", budget)
            assert _report_json(s, seed, 40) == want, budget

    def test_no_table_exceeds_the_budget_unless_one_row_does(self, monkeypatch):
        cuts = []
        tables = harness._tables

        def spy(*args):
            for index, tab, seeds in tables(*args):
                cuts.append((index, tab.n))
                yield index, tab, seeds

        monkeypatch.setattr(harness, "_tables", spy)
        monkeypatch.setattr(harness, "_TABLE_ATOMS", 50)
        # wide256's 256 atoms are a row over the budget
        s = dataclasses.replace(
            _wide256(monkeypatch), experiments=("power_bounded", "iterate_formula")
        )
        run_verification(s, seed=1, instances=60)
        index = np.concatenate([i for i, _ in cuts])
        n = np.concatenate([n for _, n in cuts])
        assert sorted(index.tolist()) == list(range(61))
        # by atom count, then by instance
        order = np.lexsort((index, n))
        assert np.array_equal(order, np.arange(n.size))
        for k, (_, sizes) in enumerate(cuts):
            assert sizes.sum() <= 50 or sizes.tolist() == [256]
            # a table ends only where its next row would pass the budget
            if k + 1 < len(cuts):
                assert sizes.sum() + cuts[k + 1][1][0] > 50
        assert cuts[-1][1].tolist() == [256] and len(cuts) > 5


class _MatmulSpy(np.ndarray):
    """An array that records the operand shapes of every matmul it takes part
    in, by ``@`` or ``np.matmul``, and passes itself on to ufunc results."""

    shapes: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _MatmulSpy.shapes.append(tuple(np.shape(x) for x in inputs))

        def plain(arrays):
            return tuple(
                a.view(np.ndarray) if isinstance(a, _MatmulSpy) else a for a in arrays
            )

        if "out" in kwargs:
            kwargs["out"] = plain(kwargs["out"])
        result = getattr(ufunc, method)(*plain(inputs), **kwargs)
        if "out" not in kwargs and isinstance(result, np.ndarray):
            return result.view(_MatmulSpy)
        return result


def _wide256(monkeypatch, seed=1):
    monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "benchmarks")
    import workloads

    return scenario_from_dict(workloads.wide_scenario_dict(seed))


def _walk_rows(scenarios):
    """The iterate and Cesaro rows of each scenario, from one table of all
    of them."""
    groups = ("iterate_formula", "cesaro_identities")
    with np.errstate(over="ignore", invalid="ignore"):
        both = [batch_rows(group, scenarios) for group in groups]
    return [a + b for a, b in zip(*both)]


def _group_products(s):
    """Operand shapes of every matmul the iterate and Cesaro groups take on
    a matrix derived from M, as the table's layout packs it."""
    tab = wct.OperatorTable.of([s.operator()], [s.phi])
    tab.layout.m = tab.layout.m.view(_MatmulSpy)
    _MatmulSpy.shapes = []
    seeds = np.zeros(1, dtype=int)
    columns = harness._iterate_columns(tab, seeds, s.tolerances)
    columns += harness._cesaro_columns(tab, seeds, s.tolerances)
    assert all(column.row(0).status == "pass" for column in columns)
    return _MatmulSpy.shapes


class TestIterateAndCesaroGroups:
    """Each group walks once per table, over the direct sum of its
    operators held on their diagonal blocks, and makes no n x n product
    from 32 atoms on."""

    def test_wide256_groups_make_no_dense_product(self, monkeypatch):
        s = _wide256(monkeypatch)
        n = s.space.n_atoms
        shapes = _group_products(s)
        sizes = sorted(len(b) for b in s.partition.blocks)
        # 6 products of the iterate walk, 20 of the Cesaro walk and 12
        # identity products, each one stack per distinct block size; the
        # largest block is 33 atoms
        assert len(shapes) == 38 * len(set(sizes))
        assert max(shape[-1] for pair in shapes for shape in pair) == sizes[-1]
        assert all(pair[0][-2:] != (n, n) for pair in shapes)
        # the spy does see dense products: the same groups below the size rule
        monkeypatch.setattr(wct, "_CORE_MIN_ATOMS", n + 1)
        dense = _group_products(_wide256(monkeypatch))
        assert len(dense) == 38
        assert all(pair == ((1, n, n), (1, n, n)) for pair in dense)

    def test_one_walk_per_table(self, monkeypatch):
        # each group walks once per table, over its one packed layout, which
        # the structure pass reads too where every row meets the criterion;
        # no operator's own layout is built, and a rejected draw builds none
        walked, built = [], {}
        init, layout_init = wct.BlockWalk.__init__, wct.BlockLayout.__init__

        def spy(self, layout, *args):
            walked.append(layout)
            init(self, layout, *args)

        def spy_layout(self, tab):
            built[id(self)] = tab
            layout_init(self, tab)

        def no_own_layout(t):
            raise AssertionError("an operator's own layout was built")

        monkeypatch.setattr(wct.BlockWalk, "__init__", spy)
        monkeypatch.setattr(wct.BlockLayout, "__init__", spy_layout)
        monkeypatch.setattr(wct.WctOperator, "block_layout", property(no_own_layout))
        s = _wide256(monkeypatch)
        run_verification(s, seed=1)
        # one layout of the one-row table, shared by the criterion pass and
        # both walks
        assert len(built) == 1 and len(walked) == 2
        assert walked[0] is walked[1] and id(walked[0]) in built
        (tab,) = built.values()
        assert tab.n.tolist() == [256]
        # r3 and 20 random instances, 148 atoms of 8 sizes: one table, and
        # one walk of each group over its layout; cut at 40 atoms, four
        # tables and two walks over each
        path = Path(__file__).resolve().parents[1] / "scenarios" / "r3_contracting.json"
        for budget, count in ((harness._TABLE_ATOMS, 1), (40, 4)):
            walked.clear()
            built.clear()
            monkeypatch.setattr(harness, "_TABLE_ATOMS", budget)
            run_verification(load_scenario(path), seed=1, instances=20)
            assert len(walked) == 2 * count and walked[::2] == walked[1::2]
            tabs = [built[id(layout)] for layout in walked[::2]]
            sizes = np.concatenate([tab.n for tab in tabs])
            assert sizes.size == 21 and len(set(sizes.tolist())) == 8
            assert np.all(np.diff(sizes) >= 0)

    def test_iterate_powers_are_the_first_products_of_the_cesaro_walk(
        self, monkeypatch
    ):
        # the iterate group walks to T^6 and the Cesaro group to T^20, both
        # by the products P_(k+1) = P_k @ M, so the powers they share have
        # the same bits; each walk hands on its horizons in order, the
        # iterate walk with no sums
        walks = []
        walk = wct.BlockWalk.__iter__

        def spy(self):
            steps = []
            walks.append(steps)
            for step in walk(self):
                steps.append(step)
                yield step

        monkeypatch.setattr(wct.BlockWalk, "__iter__", spy)
        s = generate_random_instance(3, 40, 5, "contracting_h")
        s = dataclasses.replace(s, experiments=("iterate_formula", "cesaro_identities"))
        run_verification(s, seed=0)
        powers, cesaro = walks
        assert [step.n for step in powers] == [1, 2, 3, 4, 5, 6]
        assert all(step.a is step.a_next is step.b is None for step in powers)
        assert [step.n for step in cesaro] == [2, 3, 5, 8, 13, 20]
        assert all(x is not None for step in cesaro for x in step)
        # A_(n+1) of the horizon 2 is A_n of the horizon 3, handed on again
        assert cesaro[0].a_next is cesaro[1].a
        by_n = {step.n: step.t for step in powers}
        shared = [step for step in cesaro if step.n in by_n]
        assert [step.n for step in shared] == [2, 3, 5]
        for step in shared:
            assert np.array_equal(by_n[step.n], step.t)

    def test_overflowing_powers_are_not_checked(self):
        # a 40-atom contracting draw with w scaled by 1e100: T^4 is inf
        # already and its gaps NaN, so no row may pass on a folded maximum
        # that dropped them
        s = generate_random_instance(3, 40, 5, "contracting_h")
        s = dataclasses.replace(s, w=s.w * 1e100)
        (rows,) = _walk_rows([s])
        assert len(rows) == 6
        for row in rows:
            assert row.status == "not_checked" and row.residual is None, row
            assert "overflow" in row.detail


@st.composite
def _stacked_batches(draw):
    """Scenarios of 1 to 12 atoms over the five profiles, one of 40 atoms
    and several blocks, and one whose w is scaled by 1e100, so that its
    powers overflow, with the atom count of another instance: it shares
    that instance's stacked walk. The order is shuffled."""
    seeds = st.integers(0, 2**31 - 1)
    sizes = draw(st.lists(st.integers(1, 12), min_size=6, max_size=14))
    batch = []
    for n in sizes:
        profile = draw(st.sampled_from(PROFILES))
        blocks = draw(st.integers(1, n))
        batch.append(generate_random_instance(draw(seeds), n, blocks, profile))
    blocks = draw(st.integers(3, 8))
    batch.append(generate_random_instance(draw(seeds), 40, blocks, "generic"))
    grown = generate_random_instance(draw(seeds), sizes[0], 1, "contracting_h")
    batch.append(dataclasses.replace(grown, w=grown.w * 1e100))
    order = draw(st.permutations(range(len(batch))))
    return [batch[i] for i in order], order.index(len(batch) - 1)


def _rows(batch):
    """(claim id, status, residual, detail) of the iterate and Cesaro rows
    of each scenario of the batch, from one table of all of them."""
    return [
        [(r.claim_id, r.status, r.residual, r.detail) for r in rows]
        for rows in _walk_rows(batch)
    ]


class TestStackedWalkGroups:
    """The iterate and Cesaro groups over a batch of instances in one
    table, against each instance run alone."""

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(_stacked_batches())
    def test_each_instance_reads_as_if_alone(self, drawn):
        batch, grown = drawn
        stacked = _rows(batch)
        for s, rows in zip(batch, stacked):
            # equal floats, and the residuals are never -0.0: bit for bit
            assert rows == _rows([s])[0], s.fingerprint()
        # the overflowing instance is not checked; its neighbours, one of
        # them in the same walk, keep finite residuals: no NaN crosses
        assert {status for _, status, _, _ in stacked[grown]} == {"not_checked"}
        for i, rows in enumerate(stacked):
            if i != grown:
                assert all(np.isfinite(res) for _, _, res, _ in rows), i

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(_stacked_batches())
    def test_one_walk_over_every_size_reads_as_if_alone(self, drawn):
        # the whole batch in one layout: blocks of many sizes and owners
        # interleave, and an owner's entries span several runs
        batch, grown = drawn
        ts = [s.operator() for s in batch]
        ns, horizons = (2, 3, 5), (1, 2, 3, 4, 5)

        def gaps(walk):
            out = {}
            for step in walk:
                n, closed = step.n, wct.iterate(walk, step.n)
                out[n] = {"iterate": harness._relative_gap(walk, step.t - closed, step.t)}
                if n in ns:
                    out[n].update(harness.identity_residuals(walk, step))
                    out[n]["cesaro"] = harness._relative_gap(
                        walk, step.a - wct.cesaro_mean(walk, n), step.a
                    )
                    out[n]["remainder"] = harness._relative_gap(
                        walk, step.b - wct.b_n_operator(walk, n), step.b
                    )
            return out

        with np.errstate(over="ignore", invalid="ignore"):
            layout = wct.OperatorTable.of(ts).layout
            together = gaps(wct.BlockWalk(layout, horizons))
            for k, t in enumerate(ts):
                alone = gaps(wct.BlockWalk(t.block_layout, horizons))
                for n, residuals in alone.items():
                    for cid, res in residuals.items():
                        got = together[n][cid][k]
                        assert np.array_equal(got, res[0], equal_nan=True), (k, n, cid)
                        if k != grown:
                            assert np.isfinite(got), (k, n, cid)


class TestEmitReport:
    def test_json_round_trip(self, r1_scenario_dict):
        s = scenario_from_dict(r1_scenario_dict)
        report = run_verification(s, seed=2)
        text = emit_report(report, format="json")
        parsed = json.loads(text)
        assert parsed == report.to_dict()
        keys = set(parsed["entries"][0])
        assert keys == {
            "claim_id",
            "anchor",
            "hypothesis",
            "status",
            "residual",
            "detail",
            "fingerprint",
        }

    def test_json_equals_the_dict_view(self):
        # emit_report reads the dataclasses through their attributes, with
        # no deep copy: its bytes must equal those of the asdict view, for
        # failing rows with counterexample details, rows with residual null
        # and a 200-instance suite
        path = Path(__file__).resolve().parents[1] / "scenarios" / "r3_contracting.json"
        r3 = load_scenario(path)
        failing = dataclasses.replace(
            r3, tolerances=dict(r3.tolerances, comparison=-1.0)
        )
        unchecked = dataclasses.replace(r3, u=r3.u * 1e200, w=r3.w * 1e200)
        with np.errstate(all="ignore"):
            reports = [
                run_verification(failing, seed=1),
                run_verification(unchecked, seed=1),
                run_verification(r3, seed=1, instances=200),
            ]
        rows = [r for rep in reports[:2] for r in rep.entries]
        assert any(r.status == "fail" and r.detail.startswith('{"f": [') for r in rows)
        assert any(r.residual is None for r in rows)
        assert reports[2].fingerprint["instances"] == 200
        for report in reports:
            want = json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2)
            assert emit_report(report) == want

    @pytest.mark.parametrize("instances", [0, 20])
    def test_determinism_apart_from_timestamp(self, r1_scenario_dict, instances):
        s = scenario_from_dict(r1_scenario_dict)
        texts = []
        for _ in range(2):
            report = run_verification(s, seed=5, instances=instances)
            parsed = json.loads(emit_report(report, format="json"))
            parsed.pop("generated_at")
            texts.append(json.dumps(parsed, sort_keys=True))
        assert texts[0] == texts[1]

    def test_text_table(self, r1_scenario_dict):
        s = scenario_from_dict(r1_scenario_dict)
        text = emit_report(run_verification(s, seed=0), format="text")
        assert "claim" in text.splitlines()[0]
        assert "ascent_bound" in text

    def test_text_contains_fingerprint_on_failure(self):
        failing = ClaimResult(
            claim_id="ascent_bound",
            anchor=CLAIM_REGISTRY["ascent_bound"],
            hypothesis="none",
            status="fail",
            residual=1.0,
            fingerprint={"seed": 99, "n_atoms": 4},
        )
        report = VerificationReport(
            entries=[failing], fingerprint={}, version="x", generated_at="now"
        )
        text = emit_report(report, format="text")
        assert "counterexample fingerprint" in text
        assert "'seed': 99" in text
        assert report.exit_status == 1

    def test_header_only_when_no_entries(self):
        report = VerificationReport(
            entries=[], fingerprint={}, version="x", generated_at="now"
        )
        text = emit_report(report, format="text")
        assert "claim" in text.splitlines()[0]

    def test_writes_file(self, tmp_path, r1_scenario_dict):
        s = scenario_from_dict(dict(r1_scenario_dict, experiments=["iterate_formula"]))
        out = tmp_path / "report.json"
        emit_report(run_verification(s, seed=0), format="json", path=out)
        assert json.loads(out.read_text())["version"]

    def test_unknown_format(self):
        report = VerificationReport(
            entries=[], fingerprint={}, version="x", generated_at="now"
        )
        with pytest.raises(ValueError, match="format"):
            emit_report(report, format="yaml")


class TestMergeClaims:
    def _row(self, status, hypothesis="none", residual=None, fp=None):
        return ClaimResult(
            claim_id="ascent_bound",
            anchor=CLAIM_REGISTRY["ascent_bound"],
            hypothesis=hypothesis,
            status=status,
            residual=residual,
            fingerprint=fp or {},
        )

    def test_failure_wins_and_keeps_fingerprint(self):
        merged = merge_claims(
            [self._row("pass"), self._row("fail", fp={"seed": 13})]
        )
        assert merged.status == "fail"
        assert merged.fingerprint == {"seed": 13}

    def test_hypothesis_isolation(self):
        merged = merge_claims(
            [
                self._row("not_checked", hypothesis="not_met"),
                self._row("not_checked", hypothesis="not_met"),
            ]
        )
        assert merged.status == "not_checked"
        assert merged.hypothesis == "not_met"

    def test_mixed_hypothesis_counts(self):
        merged = merge_claims(
            [
                self._row("pass", hypothesis="met", residual=0.25),
                self._row("not_checked", hypothesis="not_met"),
            ]
        )
        assert merged.status == "pass"
        assert merged.residual == 0.25
        assert "1 of 2" in merged.detail

    def test_met_hypothesis_of_an_unchecked_row_stays_met(self):
        # an overflow leaves a row not_checked although its hypothesis held
        for rows in (
            [self._row("not_checked", hypothesis="met")],
            [
                self._row("not_checked", hypothesis="not_met"),
                self._row("not_checked", hypothesis="met"),
            ],
        ):
            merged = merge_claims(rows)
            assert (merged.status, merged.hypothesis) == ("not_checked", "met")

    def test_overflowing_run_keeps_the_descent_hypothesis(self):
        # r3 with w scaled by 1e100: the symbol (5e99) is bounded away from
        # zero, but a power overflows, so the descent rows are not checked
        path = Path(__file__).resolve().parents[1] / "scenarios" / "r3_contracting.json"
        data = json.loads(path.read_text())
        data["w"] = [x * 1e100 for x in data["w"]]
        report = run_verification(scenario_from_dict(data), seed=0)
        rows = {r.claim_id: r for r in report.entries}
        for cid in (
            "descent_bound",
            "range_chain_stabilization",
            "range_plus_null_square",
        ):
            assert (rows[cid].status, rows[cid].hypothesis) == ("not_checked", "met")

    def test_id_mismatch_rejected(self):
        other = ClaimResult(
            claim_id="descent_bound",
            anchor=CLAIM_REGISTRY["descent_bound"],
            hypothesis="none",
            status="pass",
        )
        with pytest.raises(ValueError):
            merge_claims([self._row("pass"), other])


class TestClaimRows:
    """Every row is built by make_claim; only the harness stamps fingerprints."""

    @pytest.mark.parametrize(
        "ok, status",
        [
            (True, "pass"),
            (False, "fail"),
            (None, "not_checked"),
            (np.True_, "pass"),
            (np.False_, "fail"),
        ],
    )
    def test_make_claim_sets_status_from_ok(self, ok, status):
        row = make_claim("descent_bound", "met", ok, residual=0.5, detail="why")
        assert row.status == status
        assert row.anchor == CLAIM_REGISTRY["descent_bound"]
        assert (row.hypothesis, row.residual, row.detail) == ("met", 0.5, "why")
        assert row.fingerprint == {}

    def test_scenario_claims_stamps_every_row(self, r1_scenario_dict):
        s = scenario_from_dict(r1_scenario_dict)
        assert s.experiments == tuple(EXPERIMENT_CLAIMS)
        report = run_verification(s, seed=5)
        fp = {"n_atoms": 2, "n_blocks": 1, "seed": 5, "instances": 0}
        assert report.fingerprint == fp
        assert sorted(r.claim_id for r in report.entries) == sorted(CLAIM_REGISTRY)
        assert all(r.fingerprint == fp for r in report.entries)

    def test_group_table_covers_every_experiment(self):
        groups = {**harness._GROUPS, **harness._BATCH_GROUPS}
        assert not harness._GROUPS.keys() & harness._BATCH_GROUPS.keys()
        assert groups.keys() == EXPERIMENT_CLAIMS.keys()

    @pytest.mark.parametrize("group", list(EXPERIMENT_CLAIMS))
    @pytest.mark.parametrize(
        "w",
        [[1.0, -1.0], [0.5, 0.5], [2.0, 2.0]],
        ids=["nilpotent", "contracting", "expanding"],
    )
    def test_each_group_yields_exactly_its_claim_ids(
        self, r1_scenario_dict, group, w
    ):
        # nilpotent, contracting and expanding symbols reach both the met and
        # the not-met branches of the hypothesis-gated rows
        s = scenario_from_dict(dict(r1_scenario_dict, w=w))
        if group in harness._BATCH_GROUPS:
            (rows,) = batch_rows(group, [s])
        else:
            rows = harness._GROUPS[group](s, s.operator(), 0)
        assert [r.claim_id for r in rows] == list(EXPERIMENT_CLAIMS[group])
        assert all(r.fingerprint == {} for r in rows)

    def test_standalone_structure_pass_leaves_fingerprints_empty(self, r3, r4):
        for t in (r3, r4):
            rows = verify_structure_theorems(t, power_scaled(2))
            assert [r.claim_id for r in rows] == list(EXPERIMENT_CLAIMS["structure"])
            assert all(r.fingerprint == {} for r in rows)


def _with_one_atom_blocks(s, extra):
    """s with one more one-atom block per (mu, u, w) of extra."""
    n = s.space.n_atoms
    mu, u, w = (
        np.concatenate([base, [block[i] for block in extra]])
        for i, base in enumerate((s.space.weights, s.u, s.w))
    )
    blocks = s.partition.blocks + tuple((n + i,) for i in range(len(extra)))
    space = FiniteMeasureSpace.from_weights(mu)
    return Scenario(space, Partition(blocks, n + len(extra)), u, w, s.phi)


# one-atom blocks (mu, u, w): h_B = 1 and h_B = -1 inside the criterion
# support; h_B = 1 outside it (u_B below its 1e-10 cut), so I - T is
# singular while the criterion can hold; h_B = -100 outside it, whose
# remainder sums overflow, so its dense row of B_n holds inf * 0 = NaN
_ONE_ATOM_BLOCKS = {
    "plus_one": (1.3, 1.0, 1.0),
    "minus_one": (0.7, 1.0, -1.0),
    "singular": (1.1, 2.0**-40, 2.0**40),
    "outside": (0.9, 1e-12, -1e14),
}
_RANK_TOLS = (1e-8, 1e-3, 0.25)


@st.composite
def _structure_batches(draw):
    """Runs of ``verify_structure_theorems`` of 1 to 12 atoms over the five
    profiles, each with its own rank tolerance and seed, some with all
    blocks of one atom and some with a block of ``_ONE_ATOM_BLOCKS``; a
    40-atom instance; a contracting one whose w is scaled by 1e100, so that
    its powers overflow; and a contracting one with the "outside" block. The
    order is shuffled; returns the runs and where the last two went."""
    seeds = st.integers(0, 2**31 - 1)

    def run(s):
        return s.operator(), s.phi, draw(st.sampled_from(_RANK_TOLS)), draw(seeds), None

    batch = []
    for n in draw(st.lists(st.integers(1, 12), min_size=6, max_size=12)):
        blocks = n if draw(st.booleans()) else draw(st.integers(1, n))
        profile = draw(st.sampled_from(PROFILES))
        s = generate_random_instance(draw(seeds), n, blocks, profile)
        kind = draw(st.sampled_from([None, *_ONE_ATOM_BLOCKS]))
        if kind is not None:
            s = _with_one_atom_blocks(s, [_ONE_ATOM_BLOCKS[kind]])
        batch.append(run(s))
    n40 = generate_random_instance(draw(seeds), 40, draw(st.integers(3, 8)), "generic")
    batch.append(run(n40))
    grown = generate_random_instance(
        draw(seeds), draw(st.integers(1, 12)), 1, "contracting_h"
    )
    batch.append(run(dataclasses.replace(grown, w=grown.w * 1e100)))
    outside = generate_random_instance(
        draw(seeds), draw(st.integers(2, 11)), 2, "contracting_h"
    )
    batch.append(run(_with_one_atom_blocks(outside, [_ONE_ATOM_BLOCKS["outside"]])))
    order = draw(st.permutations(range(len(batch))))
    where = order.index(len(batch) - 2), order.index(len(batch) - 1)
    return [batch[i] for i in order], *where


def _structure_rows(runs):
    """The structure rows of each run (operator, gauge, rank tolerance,
    sampling seed, None) from one table of all of them, whose criterion
    pass decides every row's criterion."""
    ts, phis, tols, seeds, _ = zip(*runs)
    tab = wct.OperatorTable.of(ts, phis)
    columns = verify_structure_theorems(tab, None, tols, seeds)
    return [[column.row(k) for column in columns] for k in range(len(ts))]


def _row_bits(rows):
    """Each row's fields, with the residual as its bytes: NaN equals NaN
    and -0.0 differs from 0.0."""
    return [
        (r.claim_id, r.anchor, r.hypothesis, r.status, r.detail, r.fingerprint,
         None if r.residual is None else np.float64(r.residual).tobytes())
        for r in rows
    ]


class TestStackedStructurePass:
    """The table form of ``verify_structure_theorems`` (one pass over the
    block record of a table of every operator) against each operator alone,
    bit for bit: a max, min or count of one operator's segment that reads
    another's, or all of them, moves some operator's rows. The instances
    that overflow or hold a NaN read it as they do alone, so those runs
    ignore floating-point warnings."""

    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(_structure_batches())
    def test_each_instance_reads_as_if_alone(self, drawn):
        runs, grown, outside = drawn
        with np.errstate(all="ignore"):
            stacked = _structure_rows(runs)
            for run, rows in zip(runs, stacked):
                assert _row_bits(rows) == _row_bits(verify_structure_theorems(*run))
        # w * 1e100: the chains read powers past the overflow
        rows = {r.claim_id: r for r in stacked[grown]}
        for cid in ("ascent_bound", "null_chain_stabilization", "descent_bound"):
            assert rows[cid].status == "not_checked" and rows[cid].residual is None
            assert "overflow" in rows[cid].detail
        # the block outside the criterion support: B_n holds NaN on its row,
        # and no reduction may drop it
        rows = {r.claim_id: r for r in stacked[outside]}
        assert rows["ergodic_bn_convergence"].status == "fail"
        assert np.isnan(rows["ergodic_bn_convergence"].residual)

    def test_near_one_symbol_fails_alike_in_a_batch(self):
        # the 64-atom contracting draw with h_B = 1 - 1e-6 on its first
        # block: its horizon stops at 1e5, ten times below the mixing time,
        # so its two convergence rows fail, and fail alike among instances
        # of the same and other sizes whose criterion holds
        s = generate_random_instance(1, 64, 8, "contracting_h")
        b = np.asarray(s.partition.blocks[0])
        w = s.w.copy()
        w[b] *= (1 - 1e-6) / s.operator().h[b[0]]
        near = dataclasses.replace(s, w=w)
        others = [
            generate_random_instance(seed, n, 8, "contracting_h")
            for seed, n in ((2, 64), (3, 64), (4, 40), (5, 8))
        ]
        batch = [others[0], near, *others[1:]]
        runs = [(x.operator(), x.phi, 1e-8, i, None) for i, x in enumerate(batch)]
        stacked = _structure_rows(runs)
        for run, rows in zip(runs, stacked):
            assert _row_bits(rows) == _row_bits(verify_structure_theorems(*run))
        rows = {r.claim_id: r for r in stacked[1]}
        assert rows["ergodic_invertibility"].status == "pass"
        assert rows["ergodic_bn_convergence"].status == "fail"
        assert rows["ergodic_bn_convergence"].residual > 1e5
        assert rows["ergodic_cesaro_limit"].status == "fail"
        for rows in stacked[:1] + stacked[2:]:
            assert {r.status for r in rows[-4:]} == {"pass"}


# a one-atom block (mu, u, w) under phi = |x|^3 / 3: |w|^3 overflows, so
# the piece's norm is inf, while its symbol 1e-101 underflows to 0 from the
# fourth power on, so its norms of T^5 and beyond are 0 * inf = NaN
_NAN_NORM_BLOCK = (1.0, 1e-205, 1e104)
# a gauge without closed forms, shared by every batch, so its numeric
# conjugate is built once
_EXP_TYPE = exp_type()


@st.composite
def _power_bounded_batches(draw):
    """Runs (operator, gauge, sampling seed) of the power_bounded group:
    1 to 12 atoms over the five profiles, under the four gauges of the
    random rotation shared as in a verify call, some with a block of
    ``_ONE_ATOM_BLOCKS``; two expanding_h instances, which fail the
    criterion; a contracting one with w scaled by 1e100, whose norms
    overflow; one with ``_NAN_NORM_BLOCK``; and one under exp_type, whose
    norms are sampled. The order is shuffled; returns the runs and where
    the last five went."""
    seeds = st.integers(0, 2**31 - 1)
    gauges = {}

    def draw_instance(n, profile):
        blocks = draw(st.integers(1, n))
        return generate_random_instance(draw(seeds), n, blocks, profile, gauges)

    batch = []
    for n in draw(st.lists(st.integers(1, 12), min_size=6, max_size=12)):
        s = draw_instance(n, draw(st.sampled_from(PROFILES)))
        kind = draw(st.sampled_from([None, *_ONE_ATOM_BLOCKS]))
        if kind is not None:
            s = _with_one_atom_blocks(s, [_ONE_ATOM_BLOCKS[kind]])
        batch.append(s)
    batch += [draw_instance(draw(st.integers(1, 12)), "expanding_h") for _ in "ab"]
    grown = draw_instance(draw(st.integers(1, 12)), "contracting_h")
    batch.append(dataclasses.replace(grown, w=grown.w * 1e100))
    cubic = gauges.setdefault(("power_scaled", 3.0), power_scaled(3.0))
    nan = draw_instance(draw(st.integers(1, 11)), "generic")
    nan = dataclasses.replace(nan, phi=cubic)
    batch.append(_with_one_atom_blocks(nan, [_NAN_NORM_BLOCK]))
    sampled = draw_instance(draw(st.integers(1, 12)), "generic")
    batch.append(dataclasses.replace(sampled, phi=_EXP_TYPE))
    order = draw(st.permutations(range(len(batch))))
    runs = [(batch[i].operator(), batch[i].phi, draw(seeds)) for i in order]
    return runs, [order.index(i) for i in range(len(batch) - 5, len(batch))]


def _float_bits(values):
    """The bytes of the values, every NaN as one NaN: the sign numpy gives
    a NaN out of a max depends on the length of the array reduced."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values).tobytes()


class TestStackedPowerBounded:
    """The table form of ``power_bounded_report`` (one pass over a table of
    the operators, gauge by gauge) against each operator alone, row by row, and against the per-instance loop of
    tests/oracles.py, bit for bit: a reduction of one operator's segment
    that reads another's, or all of them, moves some operator's rows, and
    one that drops a NaN moves the NaN norms. The overflowing instances
    read alike alone, so the runs ignore floating-point warnings."""

    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(_power_bounded_batches())
    def test_each_instance_reads_as_if_alone(self, drawn):
        runs, (up, up2, grown, nan, sampled) = drawn
        ts, phis, seeds = zip(*runs)
        with np.errstate(all="ignore"):
            stacked = table_rows("power_bounded", ts, phis, seeds)
            for run, rows in zip(runs, stacked):
                alone = table_rows("power_bounded", *([x] for x in run))[0]
                assert _row_bits(rows) == _row_bits(alone)
            tab = wct.OperatorTable.of(ts, phis)
            facts = wct.power_bounded_report(tab, None, 20, 32, np.array(seeds))
            tab_holds, tab_support, tab_h_sup, tab_norms, tab_exact, _ = facts
            reports = []
            for k, (t, phi, seed) in enumerate(runs):
                support, holds, h_sup, norms = power_bounded_loop(t, phi, 20)
                rep = wct.power_bounded_report(t, phi, 20, 32, seed)
                reports.append(rep)
                atoms = slice(tab.atom_starts[k], tab.atom_starts[k] + tab.n[k])
                assert np.flatnonzero(tab_support[atoms]).tolist() == support
                assert rep.criterion_support == support
                assert rep.criterion_holds is holds is bool(tab_holds[k])
                assert wct.contraction_criterion(t, phi) == (support, holds)
                for got in (rep.h_sup, tab_h_sup[k]):
                    assert np.float64(got).tobytes() == np.float64(h_sup).tobytes()
                assert rep.exact is (norms is not None) is bool(tab_exact[k])
                assert _float_bits(rep.norm_estimates) == _float_bits(tab_norms[k])
                if norms is not None:
                    assert _float_bits(rep.norm_estimates) == _float_bits(norms)
        for i in (up, up2):
            row = stacked[i][0]
            assert row.status == "pass"
            assert row.detail == "criterion false, growth confirmed"
        for i in (grown, nan):
            row = stacked[i][0]
            assert row.status == "not_checked" and row.residual is None
            assert "overflow" in row.detail
        assert np.isnan(reports[nan].norm_estimates[4:]).all()
        assert not reports[sampled].exact

    def test_a_non_finite_symbol_is_not_checked_alike_in_a_batch(self):
        # u w overflows to +inf and -inf on the two atoms of a block, whose
        # symbol is then NaN, beside a block with h = 0.5; and r3 with u and
        # w scaled by 1e200, whose symbol is inf. sup|h| is not finite, so
        # both rows are not checked, alone or in a batch, under a power law
        # (exact norms) and under exp_type (sampled norms), and the other
        # instances read as if alone
        s = generate_random_instance(4, 5, 2, "contracting_h")
        r3 = load_scenario(
            Path(__file__).resolve().parents[1] / "scenarios" / "r3_contracting.json"
        )
        nan = Scenario(
            FiniteMeasureSpace.from_weights([1.0, 1.0, 1.0]),
            Partition(((0, 1), (2,)), 3),
            np.array([1e200, 1e200, 1.0]),
            np.array([1e200, -1e200, 0.5]),
            s.phi,
        )
        inf = dataclasses.replace(r3, u=r3.u * 1e200, w=r3.w * 1e200)
        for phi in (s.phi, _EXP_TYPE):
            batch = [dataclasses.replace(x, phi=phi) for x in (s, nan, s, inf, r3)]
            with np.errstate(all="ignore"):
                runs = [(x.operator(), x.phi, 0) for x in batch]
                assert np.isnan(runs[1][0].h).tolist() == [True, True, False]
                assert np.isinf(runs[3][0].h).all()
                stacked = table_rows("power_bounded", *zip(*runs))
                for run, rows in zip(runs, stacked):
                    alone = table_rows("power_bounded", *([x] for x in run))[0]
                    assert _row_bits(rows) == _row_bits(alone)
            for i in (1, 3):
                assert [r.claim_id for r in stacked[i]] == [
                    "power_bounded_criterion", "symbol_power_sequence"
                ]
                for row in stacked[i]:
                    assert row.status == "not_checked" and row.residual is None
                    assert "overflow" in row.detail
            for i in (0, 2, 4):
                assert {r.status for r in stacked[i]} == {"pass"}
