import contextlib
import dataclasses
import io
import json
import sys
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
    generate_random_instance,
    load_scenario,
    power_scaled,
    run_verification,
    scenario_from_dict,
    scenario_to_dict,
    support,
    verify_structure_theorems,
)
from orlicz_wct import cli, harness, subspace, wct
from orlicz_wct.claims import EXPERIMENT_CLAIMS, make_claim, merge_claims
from orlicz_wct.harness import DEFAULT_EXPERIMENTS, PROFILES, Scenario


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

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            generate_random_instance(0, 65, 1, "generic")
        with pytest.raises(ValueError):
            generate_random_instance(0, 4, 5, "generic")
        with pytest.raises(ValueError, match="unknown profile"):
            generate_random_instance(0, 4, 2, "chaotic")


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

    def test_criterion_and_conjugate_built_once_per_instance(self, monkeypatch):
        # every orlicz_wct binding of the two functions is wrapped, so a call
        # through any module counts; r3 plus 20 instances is 21 instances
        counts = {"contraction_criterion": 0, "complementary": 0}
        modules = [m for k, m in sys.modules.items() if k.startswith("orlicz_wct")]
        for name in counts:
            for module in modules:
                if hasattr(module, name):
                    original = getattr(module, name)

                    def spy(*args, _name=name, _original=original, **kwargs):
                        counts[_name] += 1
                        return _original(*args, **kwargs)

                    monkeypatch.setattr(module, name, spy)
        path = Path(__file__).resolve().parents[1] / "scenarios" / "r3_contracting.json"
        argv = ["verify", "--scenario", str(path), "--instances", "20", "--seed", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert counts["contraction_criterion"] == 21
        # one conjugate per gauge: r3's, and one for each of the four gauges
        # of the random rotation, which the draws of one call share
        assert counts["complementary"] == 5

    def test_each_accepted_draw_builds_its_operator_once(self, monkeypatch):
        # the primary scenario and every random draw build one operator and
        # one conditional expectation each: a draw hands the operator it
        # built to its scenario, and the accepted draw's copy with the
        # suite's settings reuses it
        counts = {"operators": 0, "expectations": 0, "draws": 0}
        post_init = wct.WctOperator.__post_init__
        condexp_init = CondExp.__post_init__
        draw = harness.generate_random_instance

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
        monkeypatch.setattr(harness, "generate_random_instance", spy_draw)
        path = Path(__file__).resolve().parents[1] / "scenarios" / "r3_contracting.json"
        argv = ["verify", "--scenario", str(path), "--instances", "20", "--seed", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert counts["draws"] >= 20
        assert counts["operators"] == counts["draws"] + 1
        assert counts["expectations"] == counts["draws"] + 1

    def test_one_block_frame_per_operator(self, monkeypatch):
        # r3 with 200 instances at seed 1 builds 308 operators: r3 and 307
        # draws. Each gets one (w, u mu) frame, its block record, which the
        # draw filter and the accepted draw's structure pass both read; the
        # adjoint's (u, w mu) frame is taken once per stacked pass that meets
        # the contraction criterion, over the u of the 130 operators that
        # meet it, one after another
        operators, frames, batches = [], [], []
        post_init, frame = wct.WctOperator.__post_init__, wct._block_frame
        batch = subspace._structure_batch

        def spy_post_init(t):
            post_init(t)
            operators.append(t)

        def spy_frame(*args):
            frames.append(args[-2])  # x of the pieces x_B y_B^T / mu(B)
            return frame(*args)

        def spy_batch(runs):
            batches.append([t for t, _, _, met in runs if met])
            return batch(runs)

        monkeypatch.setattr(wct.WctOperator, "__post_init__", spy_post_init)
        for module in (wct, subspace):
            monkeypatch.setattr(module, "_block_frame", spy_frame)
        monkeypatch.setattr(subspace, "_structure_batch", spy_batch)
        path = Path(__file__).resolve().parents[1] / "scenarios" / "r3_contracting.json"
        report = run_verification(load_scenario(path), seed=1, instances=200)
        assert report.exit_status == 0
        forward = [sum(x is t.w for x in frames) for t in operators]
        assert len(operators) == 308 and set(forward) == {1}
        adjoint = [x for x in frames if not any(x is t.w for t in operators)]
        met = [ts for ts in batches if ts]
        assert sum(len(ts) for ts in met) == 130
        assert len(adjoint) == len(met) and len(frames) == 308 + len(met)
        for x, ts in zip(adjoint, met):
            assert np.array_equal(x, np.concatenate([t.u for t in ts]))

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
        ran, walked, sampling_seeds = [], [], []

        def failing_iterate_claims(runs):
            walked.extend(layout for layout, _ in runs)
            ok = [True] + [False] * (len(runs) - 1)
            return [[harness.make_claim("iterate_closed_form", "none", x)] for x in ok]

        suite_claims = harness._suite_claims

        def recording_suite_claims(runs):
            def recorded():
                for s, seed, fp in runs:
                    ran.append(s.operator())
                    sampling_seeds.append(seed)
                    yield s, seed, fp

            return suite_claims(recorded())

        monkeypatch.setitem(
            harness._BATCH_GROUPS,
            "iterate_formula",
            (harness._walk_run, failing_iterate_claims),
        )
        monkeypatch.setattr(harness, "_suite_claims", recording_suite_claims)
        data = dict(r1_scenario_dict, experiments=["iterate_formula"])
        report = run_verification(scenario_from_dict(data), seed=2, instances=1)
        (row,) = report.entries
        assert row.status == "fail"
        fp = row.fingerprint
        assert fp["seed"] == 215844 != 2 * 100003
        # the redrawn instance's claims sample with the seed that rebuilds it
        assert sampling_seeds == [2, fp["seed"]]
        rebuilt = generate_random_instance(
            fp["seed"], fp["n_atoms"], fp["n_blocks"], fp["profile"]
        ).operator()
        child = ran[1]
        assert walked[1] is child.block_layout
        np.testing.assert_array_equal(rebuilt.u, child.u)
        np.testing.assert_array_equal(rebuilt.w, child.w)
        np.testing.assert_array_equal(rebuilt.space.weights, child.space.weights)
        assert rebuilt.e.partition == child.e.partition

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


def _walk_run(s):
    """The (block layout, comparison tolerance) run of s that the walk
    groups take."""
    return s.operator().block_layout, s.tolerances["comparison"]


def _group_products(s):
    """Operand shapes of every matmul the iterate and Cesaro groups take on
    a matrix derived from M, as the operator's block layout packs it."""
    layout = s.operator().block_layout
    layout.m = layout.m.view(_MatmulSpy)
    _MatmulSpy.shapes = []
    runs = [_walk_run(s)]
    rows = harness._iterate_claims(runs)[0] + harness._cesaro_claims(runs)[0]
    assert all(r.status == "pass" for r in rows)
    return _MatmulSpy.shapes


class TestIterateAndCesaroGroups:
    """Each group walks once per instance size, over the direct sum of the
    operators of that size held on their diagonal blocks, and makes no
    n x n product from 32 atoms on."""

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

    def test_one_walk_per_instance_size(self, monkeypatch):
        # each group walks once per instance size, over the direct sum of
        # the layouts of that size; every verified operator builds its own
        # layout once, which its structure pass and its walks share, and a
        # rejected draw builds none
        walked, own, sums, accepted = [], [], [], []
        init, layout_init = wct.BlockWalk.__init__, wct.BlockLayout.__init__
        direct_sum = wct.BlockLayout.direct_sum
        draw = harness.generate_well_conditioned_instance

        def spy(self, layout, *args):
            walked.append(layout)
            init(self, layout, *args)

        def spy_layout(self, t):
            own.append((self, t))
            layout_init(self, t)

        def spy_sum(cls, layouts):
            layouts = list(layouts)
            sums.append((direct_sum(layouts), layouts))
            return sums[-1][0]

        def spy_draw(*args, **kwargs):
            accepted.append(draw(*args, **kwargs))
            return accepted[-1]

        monkeypatch.setattr(wct.BlockWalk, "__init__", spy)
        monkeypatch.setattr(wct.BlockLayout, "__init__", spy_layout)
        monkeypatch.setattr(wct.BlockLayout, "direct_sum", classmethod(spy_sum))
        monkeypatch.setattr(harness, "generate_well_conditioned_instance", spy_draw)
        s = _wide256(monkeypatch)
        run_verification(s, seed=1)
        t = s.operator()
        assert [x for _, x in own] == [t]
        assert len(walked) == 2 and all(w is t.block_layout for w in walked)
        # r3 and 20 random instances, of 8 sizes: 16 walks, two per size
        walked.clear()
        own.clear()
        sums.clear()
        path = Path(__file__).resolve().parents[1] / "scenarios" / "r3_contracting.json"
        r3 = load_scenario(path)
        run_verification(r3, seed=1, instances=20)
        ops = [r3.operator()] + [child.operator() for child in accepted]
        assert [id(x) for _, x in own] == [id(op) for op in ops]
        owner = {id(layout): [id(x)] for layout, x in own}
        for layout, parts in sums:
            owner[id(layout)] = [i for part in parts for i in owner[id(part)]]
        by_size = {}
        for op in ops:
            by_size.setdefault(op.space.n_atoms, []).append(id(op))
        assert len(walked) == 2 * len(by_size) == 16
        assert [owner[id(w)] for w in walked] == 2 * list(by_size.values())

    def test_iterate_powers_are_the_first_products_of_the_cesaro_walk(
        self, monkeypatch
    ):
        # the iterate group walks to T^6 and the Cesaro group to T^20, both
        # by the products P_(k+1) = P_k @ M, so the powers they share have
        # the same bits
        walks = []
        init = wct.BlockWalk.__init__

        def spy(self, *args):
            init(self, *args)
            walks.append(self)

        monkeypatch.setattr(wct.BlockWalk, "__init__", spy)
        s = generate_random_instance(3, 40, 5, "contracting_h")
        s = dataclasses.replace(s, experiments=("iterate_formula", "cesaro_identities"))
        run_verification(s, seed=0)
        powers, cesaro = walks
        assert sorted(powers.t) == [1, 2, 3, 4, 5, 6]
        assert not powers.a and not powers.b
        assert sorted(cesaro.t) == [2, 3, 5, 8, 13, 20]
        assert sorted(cesaro.b) == [2, 3, 5, 8, 13, 20]
        assert sorted(cesaro.a) == [2, 3, 4, 5, 6, 8, 9, 13, 14, 20, 21]
        for n in (2, 3, 5):
            assert np.array_equal(powers.t[n], cesaro.t[n])

    def test_overflowing_powers_are_not_checked(self):
        # a 40-atom contracting draw with w scaled by 1e100: T^4 is inf
        # already and its gaps NaN, so no row may pass on a folded maximum
        # that dropped them
        s = generate_random_instance(3, 40, 5, "contracting_h")
        s = dataclasses.replace(s, w=s.w * 1e100)
        runs = [_walk_run(s)]
        with np.errstate(over="ignore", invalid="ignore"):
            rows = harness._iterate_claims(runs)[0] + harness._cesaro_claims(runs)[0]
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
    of each scenario of the batch, walked together."""
    runs = [_walk_run(s) for s in batch]
    with np.errstate(over="ignore", invalid="ignore"):
        both = zip(harness._iterate_claims(runs), harness._cesaro_claims(runs))
    return [
        [(r.claim_id, r.status, r.residual, r.detail) for r in a + b] for a, b in both
    ]


class TestStackedWalkGroups:
    """The iterate and Cesaro groups over a batch of instances, stacked by
    instance size, against each instance run alone."""

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
        ns = (2, 3, 5)
        a_ns, t_ns = ns + tuple(n + 1 for n in ns), (1, 4) + ns

        def gaps(walk):
            out = harness.identity_residuals(walk, ns)
            for n in t_ns:
                closed = wct.iterate(walk, n)
                gap = harness._relative_gap(walk, walk.t[n] - closed, walk.t[n])
                out[-n] = {"iterate": gap}
            for n in ns:
                out[n]["cesaro"] = harness._relative_gap(
                    walk, walk.a[n] - wct.cesaro_mean(walk, n), walk.a[n]
                )
                out[n]["remainder"] = harness._relative_gap(
                    walk, walk.b[n] - wct.b_n_operator(walk, n), walk.b[n]
                )
            return out

        with np.errstate(over="ignore", invalid="ignore"):
            layout = wct.BlockLayout.direct_sum(t.block_layout for t in ts)
            together = gaps(wct.BlockWalk(layout, a_ns, ns, t_ns))
            for k, t in enumerate(ts):
                alone = gaps(wct.BlockWalk(t.block_layout, a_ns, ns, t_ns))
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
        fp = {"n_atoms": 2, "n_blocks": 1, "seed": 5, "instances": 0}
        rows = harness._suite_claims([(s, 5, fp)])
        assert sorted(r.claim_id for r in rows) == sorted(CLAIM_REGISTRY)
        assert all(r.fingerprint is fp for r in rows)

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
            keep, batch = harness._BATCH_GROUPS[group]
            (rows,) = batch([keep(s, s.operator(), 0)])
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


def _row_bits(rows):
    """Each row's fields, with the residual as its bytes: NaN equals NaN
    and -0.0 differs from 0.0."""
    return [
        (r.claim_id, r.anchor, r.hypothesis, r.status, r.detail, r.fingerprint,
         None if r.residual is None else np.float64(r.residual).tobytes())
        for r in rows
    ]


class TestStackedStructurePass:
    """The batch form of ``verify_structure_theorems`` (one pass over the
    stacked block records of every operator) against each operator alone,
    bit for bit: a max, min or count of one operator's segment that reads
    another's, or all of them, moves some operator's rows. The instances
    that overflow or hold a NaN read it as they do alone, so those runs
    ignore floating-point warnings."""

    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(_structure_batches())
    def test_each_instance_reads_as_if_alone(self, drawn):
        runs, grown, outside = drawn
        with np.errstate(all="ignore"):
            stacked = verify_structure_theorems(*zip(*runs))
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
        stacked = verify_structure_theorems(*zip(*runs))
        for run, rows in zip(runs, stacked):
            assert _row_bits(rows) == _row_bits(verify_structure_theorems(*run))
        rows = {r.claim_id: r for r in stacked[1]}
        assert rows["ergodic_invertibility"].status == "pass"
        assert rows["ergodic_bn_convergence"].status == "fail"
        assert rows["ergodic_bn_convergence"].residual > 1e5
        assert rows["ergodic_cesaro_limit"].status == "fail"
        for rows in stacked[:1] + stacked[2:]:
            assert {r.status for r in rows[-4:]} == {"pass"}
