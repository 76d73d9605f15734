import json

import pytest

from orlicz_wct.cli import main


@pytest.fixture
def scenario_path(tmp_path, r1_scenario_dict):
    path = tmp_path / "r1.json"
    path.write_text(json.dumps(r1_scenario_dict))
    return str(path)


@pytest.fixture
def r3_path(tmp_path, r1_scenario_dict):
    spec = dict(r1_scenario_dict, w=[0.5, 0.5])
    path = tmp_path / "r3.json"
    path.write_text(json.dumps(spec))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNorm:
    def test_literal_function(self, capsys, scenario_path):
        code, out, _ = run_cli(
            capsys, "norm", "--scenario", scenario_path, "--function", "[3, 4]"
        )
        assert code == 0
        # the scaled square gives the euclidean norm over sqrt(2)
        assert "3.5355339" in out
        assert "modular_at_norm" in out

    def test_scenario_field(self, capsys, scenario_path):
        code, out, _ = run_cli(
            capsys,
            "norm",
            "--scenario",
            scenario_path,
            "--function",
            "w",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["modular_at_norm"] <= 1.0 + 1e-8


class TestGch:
    def test_prints_constant_and_worst_pair(self, capsys, scenario_path):
        code, out, _ = run_cli(
            capsys, "gch", "--scenario", scenario_path, "--samples", "40"
        )
        assert code == 0
        assert "empirical_constant" in out
        assert "worst_f" in out


class TestAscent:
    def test_json_payload(self, capsys, scenario_path):
        code, out, _ = run_cli(
            capsys, "ascent", "--scenario", scenario_path, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ascent"] == 2
        assert payload["descent"] == 2
        assert payload["claims"] == {"ascent_bound": "pass"}


class TestCesaro:
    def test_residuals_tiny(self, capsys, r3_path):
        code, out, _ = run_cli(
            capsys,
            "cesaro",
            "--scenario",
            r3_path,
            "--n",
            "5",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["residuals"]) == {
            "power_over_n_identity",
            "telescoping_identity",
            "remainder_factorization_identity",
        }
        assert all(v <= 1e-12 for v in payload["residuals"].values())
        assert "a_n_direct" in payload and "b_n_closed_form" in payload


class TestVerify:
    def test_exit_zero_and_report_written(self, capsys, tmp_path, scenario_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--scenario",
            scenario_path,
            "--format",
            "json",
            "--output",
            str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert {r["status"] for r in payload["entries"]} <= {"pass", "not_checked"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_capped_gauge_runs_without_warnings(
        self, capsys, tmp_path, r1_scenario_dict
    ):
        # the capped gauge is infinite past its cap, so the Jensen gap meets
        # inf - inf and the Hoelder ratios 0 * inf; both are filtered out and
        # neither may warn
        spec = dict(r1_scenario_dict, w=[0.5, 0.5], young={"kind": "capped"})
        path = tmp_path / "r3_capped.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(
            capsys, "verify", "--scenario", str(path), "--instances", "0",
            "--seed", "2", "--format", "json",
        )
        assert code == 0
        statuses = {r["status"] for r in json.loads(out)["entries"]}
        assert statuses <= {"pass", "not_checked"}

    def test_malformed_scenario_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run_cli(capsys, "verify", "--scenario", str(bad))
        assert code == 2
        assert "malformed JSON" in err

    def test_malformed_function_exits_2(self, capsys, scenario_path):
        code, _, err = run_cli(
            capsys, "norm", "--scenario", scenario_path, "--function", "[3,"
        )
        assert code == 2
        assert "--function" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("atoms", [1.0, "heavy"]),
            ("blocks", [[0, 1.7]]),
            ("tolerances", {"rank": float("nan")}),
        ],
    )
    def test_invalid_scenario_value_exits_2(
        self, capsys, tmp_path, r1_scenario_dict, field, value
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(r1_scenario_dict, **{field: value})))
        code, out, err = run_cli(capsys, "verify", "--scenario", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_wrong_length_function_exits_2(self, capsys, scenario_path):
        code, _, err = run_cli(
            capsys, "norm", "--scenario", scenario_path, "--function", "[1, 2, 3]"
        )
        assert code == 2
        assert "shape" in err


class TestRandom:
    def test_writes_valid_scenario(self, capsys, tmp_path):
        out_path = tmp_path / "scenario.json"
        code, out, _ = run_cli(
            capsys,
            "random",
            "--seed",
            "9",
            "--n-atoms",
            "6",
            "--n-blocks",
            "2",
            "--profile",
            "contracting_h",
            "--output",
            str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["atoms"]) == 6
        assert payload["profile"] == "contracting_h"

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ORLICZ_WCT_SEED", "123")
        _, out_a, _ = run_cli(capsys, "random", "--seed", "5", "--n-atoms", "4")
        monkeypatch.delenv("ORLICZ_WCT_SEED")
        _, out_b, _ = run_cli(capsys, "random", "--seed", "123", "--n-atoms", "4")
        assert out_a == out_b

    def test_non_integer_env_seed_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("ORLICZ_WCT_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "random", "--seed", "5", "--n-atoms", "4")
        assert code == 0
        assert "ignoring" in err


class TestFlags:
    def test_tol_overrides_accepted(self, capsys, scenario_path):
        code, _, _ = run_cli(
            capsys,
            "norm",
            "--scenario",
            scenario_path,
            "--function",
            "[1, 1]",
            "--tol-rank",
            "1e-9",
        )
        assert code == 0

    def test_retired_tol_norm_flag_rejected(self, capsys, scenario_path):
        argv = ["norm", "--scenario", scenario_path, "--function", "[1, 1]"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol-norm", "1e-12"])
        assert exc.value.code == 2
        assert "--tol-norm" in capsys.readouterr().err
