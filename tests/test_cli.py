"""Command-line interface: schemas, commands, exit codes, and reports."""

import csv
import io
import json

import numpy as np
import pytest

import qfc
from qfc.cli import SchemaError, build_state, main, parse_state_spec


def write_spec(tmp_path, doc, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseStateSpec:
    def test_max_entangled_roundtrip(self):
        spec = parse_state_spec('{"kind": "max_entangled", "dims": [2, 2]}')
        assert spec.kind == "max_entangled"
        state = build_state(spec)
        np.testing.assert_allclose(state.rho, qfc.max_entangled(2).rho, atol=1e-14)

    def test_pure_schmidt_valid(self):
        spec = parse_state_spec('{"kind": "pure_schmidt", "coeffs": [0.8, 0.2], "dims": [2, 2]}')
        state = build_state(spec)
        assert abs(state.purity() - 1.0) <= 1e-12

    def test_pure_schmidt_bad_sum_fails_at_build(self):
        spec = parse_state_spec('{"kind": "pure_schmidt", "coeffs": [0.8, 0.3], "dims": [2, 2]}')
        with pytest.raises(qfc.NormalizationError):
            build_state(spec)

    def test_unknown_field_rejected_with_path(self):
        with pytest.raises(SchemaError, match="pure_schmidt.phase"):
            parse_state_spec(
                '{"kind": "pure_schmidt", "coeffs": [1.0], "dims": [2, 2], "phase": 0.1}'
            )

    def test_missing_field_rejected_with_path(self):
        with pytest.raises(SchemaError, match="pure_schmidt.coeffs"):
            parse_state_spec('{"kind": "pure_schmidt", "dims": [2, 2]}')

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError, match="unknown kind"):
            parse_state_spec('{"kind": "ghz"}')

    def test_malformed_json_rejected(self):
        with pytest.raises(SchemaError, match="invalid JSON"):
            parse_state_spec("{kind:")

    def test_bad_dims_rejected(self):
        with pytest.raises(SchemaError, match="dims"):
            parse_state_spec('{"kind": "max_entangled", "dims": [2]}')

    def test_raw_matrix_with_complex_entries(self):
        doc = {
            "kind": "raw_matrix",
            "dims": [2, 2],
            "matrix": [
                [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
            ],
        }
        state = build_state(parse_state_spec(json.dumps(doc)))
        np.testing.assert_allclose(state.rho, qfc.max_entangled(2).rho, atol=1e-14)

    def test_random_kind_deterministic(self):
        spec = parse_state_spec('{"kind": "random", "dims": [2, 3], "seed": 5}')
        a = build_state(spec)
        b = build_state(spec)
        np.testing.assert_array_equal(a.rho, b.rho)

    @pytest.mark.parametrize("seed", [-3, 1.5, True])
    def test_random_kind_rejects_a_seed_that_is_no_nonnegative_integer(self, seed):
        spec = parse_state_spec(json.dumps({"kind": "random", "dims": [2, 2], "seed": seed}))
        with pytest.raises(SchemaError, match="random.seed"):
            build_state(spec)

    def test_dimension_guard(self):
        spec = parse_state_spec('{"kind": "random", "dims": [6, 7], "seed": 0}')
        with pytest.raises(qfc.DimensionGuardError):
            build_state(spec)
        build_state(spec, allow_large=True)

    def test_werner_and_example1_kinds(self):
        assert build_state(parse_state_spec('{"kind": "werner", "w": 0.3}')).dims == (2, 2)
        state = build_state(parse_state_spec('{"kind": "example1", "dims": [3, 2]}'))
        np.testing.assert_allclose(state.rho, qfc.make_witness_state().rho, atol=1e-14)

    def test_cq_and_cc_kinds(self):
        proj0 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        half = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        doc = {"kind": "cq", "dims": [2, 2], "probs": [0.5, 0.5], "sigmas": [proj0, half]}
        build_state(parse_state_spec(json.dumps(doc)))
        doc = {"kind": "cc", "dims": [2, 2], "probs": [0.5, 0.5]}
        build_state(parse_state_spec(json.dumps(doc)))


class TestCommands:
    def test_qah_on_bell(self, capsys, tmp_path):
        # the qubit-a closed form on the Bell state, the search one dimension up
        for m, method in ((2, "closed-form"), (3, "optimized")):
            path = write_spec(tmp_path, {"kind": "max_entangled", "dims": [m, m]})
            code, out, _ = run_cli(
                capsys, "qah", "--state", path, "--restarts", "6", "--format", "json"
            )
            assert code == 0
            report = json.loads(out)
            assert abs(report["values"]["qah"] - (1.0 - 1.0 / m)) <= 1e-4
            assert report["spec"] == {"kind": "max_entangled", "dims": [m, m]}
            assert report["method"] == method
            assert ("optimizer" in report) is (method == "optimized")
        assert report["optimizer"]["converged"] is True

    def test_table_output_names_the_method(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "max_entangled", "dims": [2, 2]})
        code, out, _ = run_cli(capsys, "qah", "--state", path)
        assert code == 0
        assert "method: closed-form" in out.splitlines()
        assert not any(line.startswith("optimizer") for line in out.splitlines())

    def test_qapi_on_cc_state_is_zero(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "cc", "dims": [2, 2], "probs": [0.5, 0.5]})
        code, out, _ = run_cli(
            capsys, "qapi", "--state", path, "--restarts", "6", "--format", "json"
        )
        assert code == 0
        assert abs(json.loads(out)["values"]["qapi"]) <= 1e-6

    def test_qfi_command_reports_f_v_residual(self, capsys, tmp_path):
        state_path = write_spec(tmp_path, {"kind": "max_entangled", "dims": [2, 2]})
        obs_path = write_spec(
            tmp_path,
            {"party": "b", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]},
            name="obs.json",
        )
        code, out, _ = run_cli(
            capsys, "qfi", "--state", state_path, "--observable", obs_path, "--format", "json"
        )
        assert code == 0
        values = json.loads(out)["values"]
        assert abs(values["qfi"] - 1.0) <= 1e-10  # pure state: QFI = variance = 1
        assert abs(values["variance"] - 1.0) <= 1e-10
        assert values["sld_residual"] <= 1e-9

    def test_discord_command(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "max_entangled", "dims": [2, 2]})
        code, out, _ = run_cli(
            capsys, "discord", "--state", path, "--restarts", "6", "--format", "json"
        )
        assert code == 0
        values = json.loads(out)["values"]
        assert abs(values["entropic_discord"] - np.log(2)) <= 1e-4
        assert abs(values["geometric_discord"] - 0.5) <= 1e-6

    def test_discord_reports_geometric_method(self, capsys, tmp_path):
        mixed = write_spec(tmp_path, {"kind": "random", "dims": [3, 2], "seed": 1, "rank": 6})
        code, out, _ = run_cli(
            capsys, "discord", "--state", mixed, "--restarts", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["geometric_method"] == "optimized"
        assert doc["optimizer_dg"]["restarts"] == 3
        assert type(doc["optimizer_dg"]["evaluations"]) is int
        assert doc["optimizer_dg"]["evaluations"] > 0
        pure = write_spec(tmp_path, {"kind": "max_entangled", "dims": [2, 2]}, "pure.json")
        code, out, _ = run_cli(capsys, "discord", "--state", pure, "--format", "json")
        doc = json.loads(out)
        assert doc["geometric_method"] == "closed-form"
        assert "optimizer_dg" not in doc

    def test_discord_log_base_two(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "max_entangled", "dims": [2, 2]})
        code, out, _ = run_cli(
            capsys,
            "discord", "--state", path, "--restarts", "6", "--format", "json", "--log-base", "2",
        )
        assert code == 0
        assert abs(json.loads(out)["values"]["entropic_discord"] - 1.0) <= 1e-4

    def test_sweep_matches_closed_form(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "pure_schmidt", "coeffs": [0.5, 0.5], "dims": [2, 2]})
        code, out, _ = run_cli(
            capsys,
            "sweep", "--state", path, "--param", "s",
            "--start", "0.5", "--stop", "1.0", "--step", "0.1",
            "--quantities", "qah", "--restarts", "6",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["s", "qah"]
        assert len(rows) == 7
        for row in rows[1:]:
            s = float(row[0])
            expected = 1.0 - s**2 - (1.0 - s) ** 2
            assert abs(float(row[1]) - expected) <= 1e-4

    def test_sweep_runs_every_solver(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "werner", "w": 0.5})
        argv = ["sweep", "--state", path, "--param", "w", "--start", "0.0", "--stop", "1.0",
                "--step", "1.0", "--quantities", "qah,qapi,dq,dg", "--restarts", "4"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["w", "qah", "qapi", "dq", "dg"]
        # w = 1 is the singlet: 1/2 for qah, qapi and dg, ln 2 for dq
        singlet = [float(v) for v in rows[2][1:]]
        np.testing.assert_allclose(singlet, [0.5, 0.5, np.log(2), 0.5], atol=1e-4)
        code, out, _ = run_cli(capsys, *argv, "--log-base", "2")
        assert code == 0
        assert abs(float(list(csv.reader(io.StringIO(out)))[2][3]) - 1.0) <= 1e-4

    def test_reproducible_output(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "random", "dims": [3, 2], "seed": 3, "rank": 6})
        argv = ["qah", "--state", path, "--restarts", "4", "--seed", "9", "--format", "json"]
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == 0
        a, b = json.loads(out_a), json.loads(out_b)
        assert a["values"] == b["values"]
        assert a["optimizer"] == b["optimizer"]

    def test_report_spec_echo_reparses_identically(self, capsys, tmp_path):
        doc = {"kind": "pure_schmidt", "coeffs": [0.7, 0.3], "dims": [3, 2]}
        path = write_spec(tmp_path, doc)
        code, out, _ = run_cli(
            capsys, "qah", "--state", path, "--restarts", "4", "--format", "json"
        )
        assert code == 0
        echoed = json.loads(out)["spec"]
        assert parse_state_spec(json.dumps(echoed)) == parse_state_spec(json.dumps(doc))


class TestExitCodes:
    def test_schema_violation_exits_two(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "pure_schmidt", "coefs": [1.0], "dims": [2, 2]})
        code, _, err = run_cli(capsys, "qah", "--state", path)
        assert code == 2
        assert "pure_schmidt.coeffs" in err  # the missing required field is named

    def test_physics_violation_exits_one(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "pure_schmidt", "coeffs": [0.8, 0.3], "dims": [2, 2]})
        code, _, err = run_cli(capsys, "qah", "--state", path)
        assert code == 1
        assert "sum" in err

    def test_non_finite_coefficient_exits_one(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "pure_schmidt", "coeffs": [float("nan"), 1.0],
                                     "dims": [2, 2]})
        code, _, err = run_cli(capsys, "qah", "--state", path)
        assert code == 1
        assert "probabilities must be finite" in err

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"kind": "pure_schmidt", "dims": [2, 2], "coeffs": "ab"}, "pure_schmidt.coeffs"),
            ({"kind": "pure_schmidt", "dims": [2, 2], "coeffs": 0.5}, "pure_schmidt.coeffs"),
            ({"kind": "cq", "dims": [2, 2], "probs": {"a": 1},
              "sigmas": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}, "cq.probs"),
            ({"kind": "cq", "dims": [2, 2], "probs": [1.0], "sigmas": 5}, "cq.sigmas"),
            ({"kind": "cc", "dims": [2, 2], "probs": [True, False]}, "cc.probs"),
            ({"kind": "example1", "dims": [3, 2], "probs": ["1/3", 0.5, 0.5]}, "example1.probs"),
            ({"kind": "random", "dims": [True, 2], "seed": 0}, "random.dims"),
        ],
        ids=["coeffs-string", "coeffs-scalar", "cq-probs-object", "cq-sigmas-number",
             "cc-probs-bools", "example1-probs-string", "dims-bool"],
    )
    def test_untyped_list_field_exits_two(self, capsys, tmp_path, doc, field):
        path = write_spec(tmp_path, doc)
        code, _, err = run_cli(capsys, "qah", "--state", path)
        assert code == 2
        assert field in err

    def test_cq_sigma_larger_than_dims_exits_two(self, capsys, tmp_path):
        # a 1x1 spec whose 40x40 sigma would build a 1x40 state past the guard
        sigma = [[[1.0 / 40 if i == j else 0.0, 0.0] for j in range(40)] for i in range(40)]
        path = write_spec(tmp_path, {"kind": "cq", "dims": [1, 1], "probs": [1.0],
                                     "sigmas": [sigma]})
        code, _, err = run_cli(capsys, "qah", "--state", path)
        assert code == 2
        assert "cq.sigmas[0]" in err

    def test_cq_sigma_smaller_than_dims_exits_two(self, capsys, tmp_path):
        half = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        path = write_spec(tmp_path, {"kind": "cq", "dims": [2, 3], "probs": [0.5, 0.5],
                                     "sigmas": [half, half]})
        code, _, err = run_cli(capsys, "qah", "--state", path)
        assert code == 2
        assert "cq.sigmas[0] must be 3x3" in err

    def test_dimension_guard_exits_two(self, capsys, tmp_path):
        # a usage error: --allow-large lifts it
        path = write_spec(tmp_path, {"kind": "random", "dims": [6, 7], "seed": 0})
        code, _, err = run_cli(capsys, "qah", "--state", path)
        assert code == 2
        assert "allow-large" in err

    def test_discord_is_refused_above_the_total_dimension_guard(self, capsys, tmp_path):
        # entropic discord has no guard on dim_a; the total-dimension guard still holds
        path = write_spec(tmp_path, {"kind": "random", "dims": [5, 8], "seed": 0})
        code, out, err = run_cli(capsys, "discord", "--state", path)
        assert code == 2 and not out
        assert "exceeds 36" in err and "allow-large" in err

    def test_missing_state_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "qah", "--state", "/nonexistent/state.json")
        assert code == 2

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["qah"])  # missing --state
        assert exc.value.code == 2

    def test_unknown_sweep_param_exits_two(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "max_entangled", "dims": [2, 2]})
        code, _, err = run_cli(
            capsys,
            "sweep", "--state", path, "--param", "s",
            "--start", "0", "--stop", "1", "--step", "0.5",
        )
        assert code == 2

    @pytest.mark.parametrize("value", ["0", "-2", "1.5", "many"])
    def test_bad_restarts_exit_two(self, capsys, tmp_path, value):
        path = write_spec(tmp_path, {"kind": "max_entangled", "dims": [2, 2]})
        with pytest.raises(SystemExit) as exc:
            main(["qah", "--state", path, "--restarts", value])
        assert exc.value.code == 2
        assert "--restarts" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-0.5", "nan", "inf", "tight"])
    def test_bad_tolerance_exits_two(self, capsys, tmp_path, value):
        path = write_spec(tmp_path, {"kind": "max_entangled", "dims": [2, 2]})
        with pytest.raises(SystemExit) as exc:
            main(["qah", "--state", path, "--tol", value])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-5", "-1", "2.5", "some"])
    def test_bad_seed_exits_two(self, capsys, tmp_path, value):
        # restart k draws from np.random.default_rng(seed + k), which rejects a negative seed
        path = write_spec(tmp_path, {"kind": "max_entangled", "dims": [2, 2]})
        with pytest.raises(SystemExit) as exc:
            main(["qah", "--state", path, "--seed", value, "--restarts", "3"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_negative_random_state_seed_exits_two(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "random", "dims": [2, 2], "seed": -3})
        code, _, err = run_cli(capsys, "qah", "--state", path, "--restarts", "2")
        assert code == 2
        assert "random.seed" in err
