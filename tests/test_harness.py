import json

import numpy as np
import pytest

from orlicz_wct import (
    CLAIM_REGISTRY,
    ScenarioError,
    ValidationError,
    VerificationReport,
    ClaimResult,
    cond_exp,
    CondExp,
    emit_report,
    ess_sup,
    generate_random_instance,
    load_scenario,
    run_verification,
    scenario_from_dict,
    scenario_to_dict,
    support,
)
from orlicz_wct.claims import EXPERIMENT_CLAIMS, merge_claims


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

    def test_failing_fingerprint_rebuilds_a_redrawn_instance(
        self, r1_scenario_dict, monkeypatch
    ):
        # at seed 2 the first random instance (seed 200006) is ill
        # conditioned and redrawn; fail the iterate claim on every random
        # instance so the report points at that one
        import orlicz_wct.harness as harness

        ran = []

        def failing_iterate_claims(t, comparison_tol, fp):
            ran.append(t)
            status = "pass" if "instances" in fp else "fail"
            return [harness.make_claim("iterate_closed_form", "none", status, fp=fp)]

        sampling_seeds = []
        scenario_claims = harness._scenario_claims

        def recording_scenario_claims(s, seed, fp, *args, **kwargs):
            sampling_seeds.append(seed)
            return scenario_claims(s, seed, fp, *args, **kwargs)

        monkeypatch.setattr(harness, "_iterate_claims", failing_iterate_claims)
        monkeypatch.setattr(harness, "_scenario_claims", recording_scenario_claims)
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
        np.testing.assert_array_equal(rebuilt.u, child.u)
        np.testing.assert_array_equal(rebuilt.w, child.w)
        np.testing.assert_array_equal(rebuilt.space.weights, child.space.weights)
        assert rebuilt.e.partition == child.e.partition

    def test_anchor_strings_from_registry(self, r1_scenario_dict):
        s = scenario_from_dict(r1_scenario_dict)
        report = run_verification(s, seed=0)
        for row in report.entries:
            assert row.anchor == CLAIM_REGISTRY[row.claim_id]

    def test_generic_instances_keep_ascent_bounded(self):
        # one hundred generic draws, every ascent at most two
        from orlicz_wct import ascent_of, matrix_of
        from orlicz_wct.harness import generate_well_conditioned_instance

        for i in range(100):
            sizes = np.random.default_rng(900 + i)
            n_atoms = int(sizes.integers(2, 13))
            s = generate_well_conditioned_instance(
                900 + i, n_atoms, int(sizes.integers(1, n_atoms + 1)), "generic"
            )
            a = ascent_of(matrix_of(s.operator()))
            assert a is not None and a <= 2, s.fingerprint()


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

    def test_id_mismatch_rejected(self):
        other = ClaimResult(
            claim_id="descent_bound",
            anchor=CLAIM_REGISTRY["descent_bound"],
            hypothesis="none",
            status="pass",
        )
        with pytest.raises(ValueError):
            merge_claims([self._row("pass"), other])
