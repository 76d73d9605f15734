import json
from pathlib import Path

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

    @pytest.mark.parametrize("tol", ["1e-8", "0.25"])
    def test_agrees_with_the_verify_row(self, capsys, tmp_path, monkeypatch, tol):
        # ascent and verify's ascent_bound read one per-block rank chain: on
        # r1, r3, r4 and the 256-atom wide256 seed-1 scenario they print the
        # same ascent and status
        root = Path(__file__).resolve().parents[1]
        monkeypatch.syspath_prepend(root / "benchmarks")
        import workloads

        wide = tmp_path / "wide256.json"
        wide.write_text(json.dumps(workloads.wide_scenario_dict(1)))
        names = ("r1_nilpotent", "r3_contracting", "r4_expanding")
        ascents = []
        for path in [root / "scenarios" / f"{name}.json" for name in names] + [wide]:
            argv = ("--scenario", str(path), "--tol-rank", tol, "--format", "json")
            _, out, _ = run_cli(capsys, "ascent", *argv)
            payload = json.loads(out)
            _, out, _ = run_cli(capsys, "verify", *argv)
            row = next(
                e for e in json.loads(out)["entries"] if e["claim_id"] == "ascent_bound"
            )
            ascent = payload["ascent"] if isinstance(payload["ascent"], int) else None
            assert row["detail"].startswith(f"ascent={ascent},"), (path, tol)
            assert row["status"] == payload["claims"]["ascent_bound"]
            ascents.append(ascent)
        assert ascents == ([2, 1, 1, 1] if tol == "1e-8" else [2, 1, 1, 5])

    @pytest.mark.parametrize("scale", [1e100, 1e160])
    def test_overflowing_powers_leave_the_bound_not_checked(
        self, capsys, tmp_path, scale
    ):
        # r3 with w scaled: a power that the chain reads (1 to k_max + 1)
        # overflows, so ascent_bound is not checked, as in verify's row; at
        # 1e160 the inf spectrum of T^2 must not read as a vanishing power
        root = Path(__file__).resolve().parents[1]
        data = json.loads((root / "scenarios" / "r3_contracting.json").read_text())
        data["w"] = [x * scale for x in data["w"]]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(data))
        argv = ("--scenario", str(path), "--format", "json")
        code, out, err = run_cli(capsys, "ascent", *argv)
        assert (code, err) == (0, "")
        detail = TestOverflowingWeights.OVERFLOW
        assert json.loads(out, parse_constant=_reject_constant) == {
            "ascent": None,
            "descent": None,
            "claims": {"ascent_bound": "not_checked"},
            "not_checked": {"ascent_bound": detail},
        }
        _, out, _ = run_cli(capsys, "verify", *argv)
        rows = {e["claim_id"]: e for e in json.loads(out)["entries"]}
        assert (rows["ascent_bound"]["status"], rows["ascent_bound"]["detail"]) == (
            "not_checked",
            detail,
        )
        code, out, _ = run_cli(capsys, "ascent", "--scenario", str(path))
        assert code == 0 and "{'ascent_bound': 'not_checked'}" in out


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

    def test_residuals_are_relative_like_verify(self, capsys, tmp_path):
        # an expanding random symbol: absolute gaps reach 1e-7 at n = 20
        path = str(tmp_path / "rand.json")
        run_cli(capsys, "random", "--seed", "2", "--n-atoms", "12",
                "--n-blocks", "3", "--output", path)
        code, out, _ = run_cli(
            capsys, "cesaro", "--scenario", path, "--n", "20", "--format", "json"
        )
        assert code == 0
        residuals = json.loads(out)["residuals"]
        assert len(residuals) == 3
        assert all(v <= 1e-10 for v in residuals.values()), residuals
        # verify takes the worst over horizons that include n = 20
        code, out, _ = run_cli(capsys, "verify", "--scenario", path, "--format", "json")
        by_id = {e["claim_id"]: e for e in json.loads(out)["entries"]}
        for cid, value in residuals.items():
            assert value <= by_id[cid]["residual"], cid


    def test_overflowing_powers_give_strict_json(self, capsys, tmp_path):
        # r3 with w scaled by 1e100: A_5 overflows to inf and every identity
        # residual is NaN; they print as null and the residuals are not checked
        root = Path(__file__).resolve().parents[1]
        data = json.loads((root / "scenarios" / "r3_contracting.json").read_text())
        data["w"] = [x * 1e100 for x in data["w"]]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(
            capsys, "cesaro", "--scenario", str(path), "--n", "5", "--format", "json"
        )
        assert (code, err) == (0, "")
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["a_n_direct"] == [[None, None], [None, None]]
        assert set(payload["residuals"].values()) == {None}
        detail = TestOverflowingWeights.OVERFLOW
        assert payload["not_checked"] == dict.fromkeys(payload["residuals"], detail)
        code, out, _ = run_cli(capsys, "cesaro", "--scenario", str(path), "--n", "5")
        assert code == 0 and f"telescoping_identity: {detail}" in out


def _reject_constant(name):
    """json.loads hook: NaN and Infinity are not standard JSON."""
    raise ValueError(f"non-standard JSON constant {name}")


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

    @pytest.mark.parametrize(
        "content", [None, b"\xff\xfe{}"], ids=["missing", "not-utf8"]
    )
    def test_unreadable_scenario_exits_2(self, capsys, tmp_path, content):
        path = tmp_path / "scenario.json"
        if content is not None:
            path.write_bytes(content)
        code, out, err = run_cli(capsys, "verify", "--scenario", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read scenario file")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify", "random"])
    @pytest.mark.parametrize(
        "target", ["missing_dir/out.json", "."], ids=["no-dir", "is-dir"]
    )
    def test_unwritable_output_exits_2(
        self, capsys, tmp_path, scenario_path, command, target
    ):
        argv = [command, "--output", str(tmp_path / target)]
        if command == "verify":
            argv += ["--scenario", scenario_path]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(tmp_path) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_undrawable_random_suite_exits_2(self, capsys):
        # at rank tolerance 1e-3 instance 25 of this suite finds no
        # well-conditioned draw; that is an input the suite cannot serve,
        # not a failed claim
        path = Path(__file__).resolve().parents[1] / "scenarios" / "r3_contracting.json"
        code, out, err = run_cli(
            capsys, "verify", "--scenario", str(path), "--instances", "50",
            "--seed", "3", "--tol-rank", "1e-3",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: no well-conditioned instance within 120 draws from seed "
            "300034 at rank tolerance 0.001\n"
        )

    def test_wrong_length_function_exits_2(self, capsys, scenario_path):
        code, _, err = run_cli(
            capsys, "norm", "--scenario", scenario_path, "--function", "[1, 2, 3]"
        )
        assert code == 2
        assert "shape" in err



class TestOverflowingWeights:
    # w scaled far beyond the range of its powers, on r3 and on the wide256
    # benchmark instance of seed 1: T^4 overflows at 1e100, and |w|^2 in the
    # exact norm at 1e160. A row that reads an overflowed power, threshold
    # or norm is not_checked with no residual, and the report is written
    OVERFLOW = "not checked: a power overflowed, so a residual is not finite"

    @pytest.mark.parametrize("scale", [1e100, 1e160])
    @pytest.mark.parametrize("name", ["r3", "wide256"])
    def test_exit_zero_with_a_json_report(
        self, capsys, tmp_path, monkeypatch, name, scale
    ):
        root = Path(__file__).resolve().parents[1]
        if name == "r3":
            data = json.loads((root / "scenarios" / "r3_contracting.json").read_text())
        else:
            monkeypatch.syspath_prepend(str(root / "benchmarks"))
            import workloads

            data = workloads.wide_scenario_dict(1)
        data["w"] = [x * scale for x in data["w"]]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(
            capsys, "verify", "--scenario", str(path), "--format", "json"
        )
        assert (code, err) == (0, "")
        rows = {r["claim_id"]: r for r in json.loads(out)["entries"]}
        overflowed = {c for c, r in rows.items() if r["detail"] == self.OVERFLOW}
        want = {"ascent_bound", "power_bounded_criterion", "iterate_closed_form"}
        assert want <= overflowed
        for cid in overflowed:
            assert rows[cid]["status"] == "not_checked", cid
            assert rows[cid]["residual"] is None, cid
        assert "fail" not in {r["status"] for r in rows.values()}
        if name == "r3" and scale == 1e100:
            # these two rows read only T and T^2, which stay finite
            for cid in ("symbol_operator_decomposition", "square_sum_dense"):
                assert rows[cid]["status"] == "pass", cid
        if name == "r3" and scale == 1e160:
            assert "operator_norm_bound" in overflowed


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

    def test_seed_is_not_overridden_by_the_environment(self, capsys, monkeypatch):
        # --seed alone picks the draw; no environment variable replaces it
        argv = ("random", "--seed", "5", "--n-atoms", "4")
        _, expected, _ = run_cli(capsys, *argv)
        monkeypatch.setenv("ORLICZ_WCT_SEED", "123")
        assert run_cli(capsys, *argv) == (0, expected, "")


class TestFlags:
    def test_tol_overrides_accepted(self, capsys, scenario_path):
        code, _, _ = run_cli(
            capsys, "ascent", "--scenario", scenario_path, "--tol-rank", "1e-9"
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv, flag",
        [
            pytest.param(["norm", "--function", "[1, 1]"], "--tol-rank", id="norm-tol"),
            pytest.param(["gch", "--samples", "5"], "--tol-rank", id="gch-tol"),
            pytest.param(["cesaro", "--n", "2"], "--tol-rank", id="cesaro-tol"),
            pytest.param(["norm", "--function", "[1, 1]"], "--seed", id="norm-seed"),
            pytest.param(["ascent"], "--seed", id="ascent-seed"),
            pytest.param(["cesaro", "--n", "2"], "--seed", id="cesaro-seed"),
            pytest.param(["random", "--n-atoms", "3"], "--format", id="random-format"),
        ],
    )
    def test_flag_outside_its_subcommands_rejected(
        self, capsys, scenario_path, argv, flag
    ):
        value = {"--tol-rank": "1e-9", "--format": "json"}.get(flag, "3")
        if argv[0] != "random":
            argv = argv[:1] + ["--scenario", scenario_path] + argv[1:]
        argv = argv + [flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_env_seed_leaves_unseeded_subcommands_alone(
        self, capsys, monkeypatch, scenario_path
    ):
        argv = ["norm", "--scenario", scenario_path, "--function", "[1, 1]"]
        _, expected, _ = run_cli(capsys, *argv)
        monkeypatch.setenv("ORLICZ_WCT_SEED", "123")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, expected, "")

    def test_retired_tol_norm_flag_rejected(self, capsys, scenario_path):
        argv = ["norm", "--scenario", scenario_path, "--function", "[1, 1]"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol-norm", "1e-12"])
        assert exc.value.code == 2
        assert "--tol-norm" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            pytest.param(["cesaro", "--n", "0"], "--n", id="cesaro-n"),
            pytest.param(["ascent", "--k-max", "0"], "--k-max", id="ascent-k-max"),
            pytest.param(["gch", "--samples", "0"], "--samples", id="gch-samples"),
            pytest.param(
                ["verify", "--instances", "-1"], "--instances", id="verify-instances"
            ),
            pytest.param(["random", "--n-atoms", "0"], "--n-atoms", id="n-atoms-0"),
            pytest.param(["random", "--n-atoms", "65"], "--n-atoms", id="n-atoms-65"),
            pytest.param(["random", "--n-blocks", "0"], "--n-blocks", id="n-blocks-0"),
            pytest.param(
                ["random", "--n-atoms", "3", "--n-blocks", "4"],
                "--n-blocks",
                id="n-blocks-above-n-atoms",
            ),
        ],
    )
    def test_out_of_range_integer_rejected(self, capsys, scenario_path, argv, flag):
        if argv[0] != "random":
            argv = argv[:1] + ["--scenario", scenario_path] + argv[1:]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "ascent"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_tol_rank_must_be_finite_and_positive(
        self, capsys, scenario_path, command, value
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", scenario_path, "--tol-rank", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --tol-rank: must be a finite number > 0, got {value}" in err

    # a relative cut of 1 or more reads every subspace sum as 0-dimensional,
    # so r3 failed 7 structure rows and verify exited 1, the failed-claim code
    @pytest.mark.parametrize("command", ["verify", "ascent"])
    @pytest.mark.parametrize("value", ["1", "1.0", "2.5", "1e300"])
    def test_tol_rank_must_be_below_one(self, capsys, scenario_path, command, value):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", scenario_path, "--tol-rank", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --tol-rank: must be < 1, got {value}" in err
        assert err.count("error:") == 1

    def test_tol_rank_just_below_one_accepted(self, capsys, r3_path):
        code, _, err = run_cli(capsys, "verify", "--scenario", r3_path,
                               "--tol-rank", "0.99")
        assert code in (0, 1) and err == ""

    def test_rank_tolerance_field_of_one_exits_2(
        self, capsys, tmp_path, r1_scenario_dict
    ):
        path = tmp_path / "rank1.json"
        path.write_text(json.dumps(dict(r1_scenario_dict, tolerances={"rank": 1})))
        for command in ("verify", "ascent"):
            code, out, err = run_cli(capsys, command, "--scenario", str(path))
            assert code == 2 and out == ""
            assert err == "error: tolerance 'rank' must be < 1\n"
