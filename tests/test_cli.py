"""Command-line interface: schemas, commands, exit codes, and reports."""

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qfc
from qfc import cli, verify
from qfc.cli import SchemaError, build_state, main, parse_state_spec
from qfc.correlations import QuantifierResult
from qfc.optimize import multistart


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
        assert spec["kind"] == "max_entangled"
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

    def test_example1_with_every_optional_field(self):
        doc = {"kind": "example1", "dims": [3, 2], "a": [0.6, [0.0, 0.8]], "b": [[0.0, 1.0], 0.0],
               "probs": [0.5, 0.25, 0.25]}
        state = build_state(parse_state_spec(json.dumps(doc)))
        expected = qfc.make_witness_state(a=(0.6, 0.8j), b=(1j, 0.0), probs=(0.5, 0.25, 0.25))
        np.testing.assert_array_equal(state.rho, expected.rho)

    def test_cq_and_cc_kinds(self):
        proj0 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        half = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        doc = {"kind": "cq", "dims": [2, 2], "probs": [0.5, 0.5], "sigmas": [proj0, half]}
        build_state(parse_state_spec(json.dumps(doc)))
        doc = {"kind": "cc", "dims": [2, 2], "probs": [0.5, 0.5]}
        build_state(parse_state_spec(json.dumps(doc)))


class TestCommands:
    def test_qah_on_bell(self, capsys, tmp_path):
        # the pure-state closed form on the Bell states; the search on a mixed
        # 3x3 state, where it must give the library's value for the same config
        mixed = {"kind": "random", "dims": [3, 3], "seed": 3, "rank": 9}
        searched = qfc.observable_correlation(
            build_state(parse_state_spec(json.dumps(mixed))), qfc.OptimizerConfig(restarts=6)
        ).value
        for spec, value, method in (
            ({"kind": "max_entangled", "dims": [2, 2]}, 0.5, "closed-form"),
            ({"kind": "max_entangled", "dims": [3, 3]}, 2.0 / 3.0, "closed-form"),
            (mixed, searched, "optimized"),
        ):
            path = write_spec(tmp_path, spec)
            code, out, _ = run_cli(
                capsys, "qah", "--state", path, "--restarts", "6", "--format", "json"
            )
            assert code == 0
            report = json.loads(out)
            assert abs(report["values"]["qah"] - value) <= 1e-12
            assert report["spec"] == spec
            assert report["method"] == method
            assert ("optimizer" in report) is (method == "optimized")
        assert report["optimizer"]["converged"] is True

    def test_table_output_names_the_method(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "max_entangled", "dims": [2, 2]})
        code, out, _ = run_cli(capsys, "qah", "--state", path)
        assert code == 0
        assert "method: closed-form" in out.splitlines()
        assert not any(line.startswith("optimizer") for line in out.splitlines())

    def test_table_output_has_the_optimizer_line_of_a_search(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "random", "dims": [3, 2], "seed": 3, "rank": 6})
        code, out, _ = run_cli(capsys, "qah", "--state", path, "--restarts", "2")
        assert code == 0
        lines = out.splitlines()
        assert "method: optimized" in lines
        [line] = [line for line in lines if line.startswith("optimizer:")]
        assert line.startswith("optimizer: restarts=2, best=")
        assert "converged=True" in line and "evaluations=" in line and "iterations=" in line

    def test_csv_output(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "max_entangled", "dims": [2, 2]})
        code, out, _ = run_cli(capsys, "qah", "--state", path, "--format", "csv")
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert header == ["qah"]
        assert abs(float(row[0]) - 0.5) <= 1e-10

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

    def test_qfi_of_an_observable_of_party_a(self, capsys, tmp_path):
        state_path = write_spec(tmp_path, {"kind": "max_entangled", "dims": [2, 2]})
        sigma_x = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        obs_path = write_spec(tmp_path, {"party": "a", "matrix": sigma_x}, name="obs.json")
        code, out, _ = run_cli(
            capsys, "qfi", "--state", state_path, "--observable", obs_path, "--format", "json"
        )
        assert code == 0
        values = json.loads(out)["values"]
        assert abs(values["qfi"] - 1.0) <= 1e-10  # pure state: QFI = variance = 1
        assert abs(values["variance"] - 1.0) <= 1e-10

    def test_discord_command(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "max_entangled", "dims": [2, 2]})
        code, out, _ = run_cli(
            capsys, "discord", "--state", path, "--restarts", "6", "--format", "json"
        )
        assert code == 0
        values = json.loads(out)["values"]
        assert abs(values["entropic_discord"] - np.log(2)) <= 1e-4
        assert abs(values["geometric_discord"] - 0.5) <= 1e-6

    def test_discord_of_a_product_state_prints_zero_not_minus_zero(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "pure_schmidt", "coeffs": [1.0], "dims": [2, 2]})
        code, out, _ = run_cli(capsys, "discord", "--state", path)
        assert code == 0
        assert "entropic_discord: 0\n" in out and "-0" not in out

    def test_qubit_closed_forms_of_a_classical_spec_are_not_negative(self, capsys, tmp_path):
        # criterion 3's CQ state 0 as a raw matrix: each value a sum of nonnegative terms
        rho = verify._random_cq((2, 2), verify.state_seed(0, 3, 0)).rho
        matrix = [[[z.real, z.imag] for z in row] for row in rho.tolist()]
        path = write_spec(tmp_path, {"kind": "raw_matrix", "dims": [2, 2], "matrix": matrix})
        code, out, _ = run_cli(capsys, "qah", "--state", path)
        assert code == 0 and out.startswith("qah: ") and "qah: -" not in out
        code, out, _ = run_cli(capsys, "discord", "--state", path)
        assert code == 0 and "geometric_discord: " in out and "geometric_discord: -" not in out

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

    @pytest.mark.parametrize("command", ["qah", "qapi", "discord"])
    def test_certified_zero_on_a_qutrit_cq_spec(self, capsys, tmp_path, command):
        # d_a = 3, so no qubit-a closed form applies: every solve is certified
        diag = [[[0.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.0]]]
        flip = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
        path = write_spec(tmp_path, {"kind": "cq", "dims": [3, 2], "probs": [0.5, 0.5],
                                     "sigmas": [diag, flip]})

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        code, out, _ = run_cli(capsys, command, "--state", path, "--format", "json")
        assert code == 0
        doc = json.loads(out, parse_constant=refuse)
        methods = [doc[k] for k in ("method", "entropic_method", "geometric_method") if k in doc]
        assert methods and set(methods) == {"certified-zero"}
        assert not [key for key in doc if key.startswith("optimizer")]
        assert all(abs(v) <= 1e-6 for v in doc["values"].values())
        code, out, _ = run_cli(capsys, command, "--state", path)
        assert code == 0
        assert out.count(": certified-zero\n") == len(methods)

    def test_discord_log_base_two(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "max_entangled", "dims": [2, 2]})
        code, out, _ = run_cli(
            capsys,
            "discord", "--state", path, "--restarts", "6", "--format", "json", "--log-base", "2",
        )
        assert code == 0
        assert abs(json.loads(out)["values"]["entropic_discord"] - 1.0) <= 1e-4

    def test_discord_log_base_two_scales_the_optimizer_section(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "random", "dims": [2, 3], "seed": 4, "rank": 6})
        argv = ["discord", "--state", path, "--restarts", "4", "--format", "json"]
        reports = {}
        for base in ("e", "2"):
            code, out, _ = run_cli(capsys, *argv, "--log-base", base)
            assert code == 0
            reports[base] = json.loads(out)
        for report in reports.values():
            assert report["entropic_method"] == "optimized"  # the state is searched
            assert report["optimizer_dq"]["best"] == report["values"]["entropic_discord"]
        e, bits = reports["e"]["optimizer_dq"], reports["2"]["optimizer_dq"]
        assert bits["best"] == e["best"] / np.log(2.0)
        assert bits["second_best"] == e["second_best"] / np.log(2.0)

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

    def test_json_with_one_restart_is_strict_json(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "werner", "w": 0.5})
        code, out, _ = run_cli(
            capsys, "qapi", "--state", path, "--restarts", "1", "--format", "json"
        )
        assert code == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads(out, parse_constant=refuse)
        assert report["optimizer"]["second_best"] is None

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


def mask(text):
    """``text`` with every number replaced by ``#``."""
    return re.sub(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?", "#", text)


OPTIMIZER_LINE = "restarts=#, best=#, second_best=#, converged=True, evaluations=#, iterations=#"
OPTIMIZER_KEYS = ["restarts", "best", "second_best", "converged", "evaluations", "iterations"]


class TestOutputLayout:
    """Key order and line format of each report, numbers masked."""

    SPECS = {
        "closed-form": {"kind": "max_entangled", "dims": [2, 2]},
        # d_a = 3, so no qubit-a closed form applies: every solve is certified
        "certified-zero": {"kind": "cq", "dims": [3, 2], "probs": [0.5, 0.5], "sigmas": [
            [[[0.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.0]]],
            [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]]},
        "optimized": {"kind": "random", "dims": [3, 2], "seed": 3, "rank": 6},
    }

    @pytest.mark.parametrize(
        "command, case, lines",
        [
            ("qah", "closed-form", ["qah: #", "method: closed-form"]),
            ("qah", "certified-zero", ["qah: #", "method: certified-zero"]),
            ("qah", "optimized", ["qah: #", "method: optimized", f"optimizer: {OPTIMIZER_LINE}"]),
            ("qapi", "closed-form", ["qapi: #", "method: closed-form"]),
            ("qapi", "certified-zero", ["qapi: #", "method: certified-zero"]),
            ("qapi", "optimized",
             ["qapi: #", "method: optimized", f"optimizer: {OPTIMIZER_LINE}"]),
            ("discord", "closed-form",
             ["entropic_discord: #", "geometric_discord: #", "entropic_method: closed-form",
              "geometric_method: closed-form"]),
            ("discord", "certified-zero",
             ["entropic_discord: #", "geometric_discord: #", "entropic_method: certified-zero",
              "geometric_method: certified-zero"]),
            ("discord", "optimized",
             ["entropic_discord: #", "geometric_discord: #", "entropic_method: optimized",
              "geometric_method: optimized", f"optimizer_dq: {OPTIMIZER_LINE}",
              f"optimizer_dg: {OPTIMIZER_LINE}"]),
        ],
    )
    def test_table_json_and_csv_layout(self, capsys, tmp_path, command, case, lines):
        argv = [command, "--state", write_spec(tmp_path, self.SPECS[case]), "--restarts", "2"]
        # table: the values, the methods, the optimizer sections, then wall_time_s
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        *body, wall = out.splitlines()
        assert [mask(line) for line in body] == lines
        assert re.fullmatch(r"wall_time_s: \d+\.\d{3}", wall)
        # json: the run's settings and spec, then the table's keys in the table's order
        names = [line.split(": ")[0] for line in lines]
        n_values = sum(line.endswith(": #") for line in lines)
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        head = ["command", "version", "seed", "restarts", "tolerance", "spec"]
        head += ["log_base"] if command == "discord" else []
        assert list(doc) == head + ["values"] + names[n_values:] + ["wall_time_s"]
        assert list(doc["values"]) == names[:n_values]
        for section in (name for name in names if name.startswith("optimizer")):
            assert list(doc[section]) == OPTIMIZER_KEYS
        # csv: a header of the value names and one row
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert mask(out).splitlines() == [",".join(names[:n_values]), ",".join(["#"] * n_values)]

    def test_sweep_layout(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "werner", "w": 0.5})
        code, out, _ = run_cli(
            capsys,
            "sweep", "--state", path, "--param", "w", "--start", "0.5", "--stop", "1.0",
            "--step", "0.5", "--quantities", "dg,dq,qapi,qah", "--restarts", "2",
        )
        assert code == 0
        assert mask(out).splitlines() == ["w,dg,dq,qapi,qah", "#,#,#,#,#", "#,#,#,#,#"]


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

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"kind": "raw_matrix", "dims": [1, 1], "matrix": [[[1.0, 0.0, 0.0]]]},
             "raw_matrix.matrix[0][0] must be a number or an [re, im] pair"),
            ({"kind": "raw_matrix", "dims": [2, 1], "matrix": [[0.5, 0.0], [0.5]]},
             "raw_matrix.matrix[1] has length 1, expected 2"),
            ([{"kind": "werner", "w": 0.5}], "state spec must be a JSON object"),
            ({"w": 0.5}, "missing field 'kind'"),
            ({"kind": "max_entangled", "dims": [2, 3]}, "max_entangled.dims must be [M, M]"),
            ({"kind": "werner", "w": 0.5, "dims": [3, 3]}, "werner.dims must be [2, 2]"),
            ({"kind": "werner", "w": "half"}, "werner.w must be a number"),
            ({"kind": "example1", "dims": [3, 2], "a": [1.0]},
             "example1.a must hold two amplitudes"),
            ({"kind": "raw_matrix", "dims": [1, 1], "matrix": []},
             "raw_matrix.matrix must be a nested list of [re, im] pairs"),
            ({"kind": "raw_matrix", "dims": [1, 1], "matrix": 5},
             "raw_matrix.matrix must be a nested list of [re, im] pairs"),
            ({"kind": "raw_matrix", "dims": [1, 2], "matrix": [1, 2]},
             "raw_matrix.matrix must be a nested list of [re, im] pairs"),
            ({"kind": "raw_matrix", "dims": [2, 2],
              "matrix": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0]]},
             "raw_matrix.matrix must be 4x4 (raw_matrix.dims), got (3, 3)"),
            ({"kind": "raw_matrix", "dims": [1, 2], "matrix": [[0.5, 0, 0], [0, 0.5, 0]]},
             "raw_matrix.matrix must be 2x2 (raw_matrix.dims), got (2, 3)"),
        ],
        ids=["entry-not-re-im", "ragged-matrix", "not-an-object", "no-kind",
             "max-entangled-not-square", "werner-dims", "werner-w-string", "example1-a-length",
             "matrix-empty", "matrix-number", "matrix-flat", "matrix-not-dims",
             "matrix-not-square"],
    )
    def test_malformed_spec_exits_two(self, capsys, tmp_path, doc, message):
        path = write_spec(tmp_path, doc)
        code, out, err = run_cli(capsys, "qah", "--state", path)
        assert code == 2 and not out
        assert message in err

    @pytest.mark.parametrize(
        "text, message",
        [("{\"party\": \"a\",", "invalid JSON"),
         ('{"party": "c", "matrix": [[1.0, 0.0], [0.0, 1.0]]}',
          "observable.party must be 'a', 'b', or 'ab'")],
        ids=["invalid-json", "bad-party"],
    )
    def test_malformed_observable_exits_two(self, capsys, tmp_path, text, message):
        state = write_spec(tmp_path, {"kind": "werner", "w": 0.5})
        observable = tmp_path / "observable.json"
        observable.write_text(text)
        code, out, err = run_cli(capsys, "qfi", "--state", state, "--observable", str(observable))
        assert code == 2 and not out
        assert message in err

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

    def test_unknown_sweep_quantity_exits_two(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "werner", "w": 0.5})
        code, out, err = run_cli(
            capsys,
            "sweep", "--state", path, "--param", "w",
            "--start", "0", "--stop", "1", "--step", "0.5", "--quantities", "qah,qfi",
        )
        assert code == 2 and not out
        assert "unknown quantity 'qfi'" in err

    @pytest.mark.parametrize("quantities", [",", "", " , "])
    def test_empty_sweep_quantity_list_exits_two(self, capsys, tmp_path, quantities):
        path = write_spec(tmp_path, {"kind": "werner", "w": 0.5})
        code, out, err = run_cli(
            capsys,
            "sweep", "--state", path, "--param", "w",
            "--start", "0.1", "--stop", "0.3", "--step", "0.1", f"--quantities={quantities}",
        )
        assert code == 2 and not out
        assert "no quantity to sweep" in err and "'qah', 'qapi', 'dq', 'dg'" in err

    def test_sweep_grid_without_a_point_exits_two(self, capsys, tmp_path):
        # start above stop: the grid is empty, which printed only the header and exited 0
        path = write_spec(tmp_path, {"kind": "werner", "w": 0.5})
        code, out, err = run_cli(
            capsys,
            "sweep", "--state", path, "--param", "w",
            "--start", "0.5", "--stop", "0.1", "--step", "0.1",
        )
        assert code == 2 and not out
        assert "sweep grid is empty" in err

    def test_sweep_of_one_point_is_not_empty(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "werner", "w": 0.5})
        code, out, _ = run_cli(
            capsys,
            "sweep", "--state", path, "--param", "w",
            "--start", "0.3", "--stop", "0.3", "--step", "0.1", "--quantities", "dg",
        )
        assert code == 0
        assert [row[0] for row in csv.reader(io.StringIO(out))] == ["w", "0.3"]

    def test_unknown_sweep_param_exits_two(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "max_entangled", "dims": [2, 2]})
        code, _, err = run_cli(
            capsys,
            "sweep", "--state", path, "--param", "s",
            "--start", "0", "--stop", "1", "--step", "0.5",
        )
        assert code == 2

    @pytest.mark.parametrize("start, stop", [("nan", "0.5"), ("0.1", "nan"), ("-inf", "0.5"),
                                             ("0.1", "inf")])
    def test_non_finite_sweep_bounds_exit_two(self, capsys, tmp_path, start, stop):
        path = write_spec(tmp_path, {"kind": "werner", "w": 0.5})
        code, out, err = run_cli(
            capsys,
            "sweep", "--state", path, "--param", "w",
            f"--start={start}", f"--stop={stop}", "--step", "0.1",
        )
        assert code == 2 and not out
        assert err.startswith("error:") and "finite" in err

    def test_sweep_exits_one_after_every_row_when_a_solve_is_unconverged(
        self, capsys, tmp_path, monkeypatch
    ):
        # No sweepable spec gives an unconverged search for sure: pure states
        # take the closed form, and on Werner states whether a search meets
        # the stop rule at tolerance 1e-300 depends on roundoff. So a solver
        # whose first search is reported unconverged stands in for qah.
        calls = []

        def unconverged_first(state, cfg):
            calls.append(state)
            report = multistart([(np.eye(state.dim_a), 0.5, 1, 0, len(calls) > 1)])
            return QuantifierResult(0.5, report.best_unitary, "optimized", report)

        stand_in = cli.SOLVERS["qah"]._replace(solve=unconverged_first)
        monkeypatch.setitem(cli.SOLVERS, "qah", stand_in)
        path = write_spec(tmp_path, {"kind": "pure_schmidt", "coeffs": [0.3, 0.7], "dims": [3, 3]})
        code, out, _ = run_cli(
            capsys,
            "sweep", "--state", path, "--param", "s",
            "--start", "0.3", "--stop", "0.4", "--step", "0.1", "--quantities", "qah",
        )
        assert code == 1
        rows = list(csv.reader(io.StringIO(out)))
        assert [row[0] for row in rows] == ["s", "0.3", "0.4"]
        assert len(calls) == 2

    def test_sweep_step_below_the_grid_resolution_exits_two(self, tmp_path):
        # 0.5 + 1e-17 == 0.5: a grid built by repeated addition never advances.
        # Run apart, under a 2 GiB address-space cap and a timeout, so such a
        # loop fails this test instead of running without bound.
        path = write_spec(tmp_path, {"kind": "werner", "w": 0.5})
        capped_cli = ("import resource, runpy; "
                      "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
                      "runpy.run_module('qfc.cli', run_name='__main__')")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", capped_cli, "sweep", "--state", path, "--param", "w",
             "--start", "0.5", "--stop", "0.5", "--step", "1e-17"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2 and not proc.stdout
        assert "sweep step" in proc.stderr

    def test_observable_without_matrix_exits_two(self, capsys, tmp_path):
        state = write_spec(tmp_path, {"kind": "werner", "w": 0.5})
        observable = write_spec(tmp_path, {"party": "a"}, "observable.json")
        code, out, err = run_cli(capsys, "qfi", "--state", state, "--observable", observable)
        assert code == 2 and not out
        assert err.startswith("error:") and "matrix" in err

    def test_observable_of_the_wrong_size_exits_two(self, capsys, tmp_path):
        state = write_spec(tmp_path, {"kind": "werner", "w": 0.5})
        three = [[[1.0 if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]
        observable = write_spec(tmp_path, {"party": "a", "matrix": three}, "observable.json")
        code, out, err = run_cli(capsys, "qfi", "--state", state, "--observable", observable)
        assert code == 2 and not out
        assert "observable.matrix must be 2x2" in err

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
        # the random starts are drawn from np.random.default_rng(seed), which rejects a negative seed
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

    @pytest.mark.parametrize(
        "command, flag",
        [("qfi", ["--log-base", "2"]), ("qah", ["--log-base", "2"]),
         ("qapi", ["--log-base", "2"]), ("sweep", ["--format", "json"]),
         ("verify", ["--format", "json"]), ("verify", ["--log-base", "2"]),
         ("verify", ["--allow-large"]), ("verify", ["--state", "state.json"])],
        ids=lambda x: x if isinstance(x, str) else x[0],
    )
    def test_a_flag_the_command_does_not_read_exits_two(self, capsys, tmp_path, command, flag):
        state = write_spec(tmp_path, {"kind": "werner", "w": 0.5})
        observable = write_spec(tmp_path, {"party": "a", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                                "observable.json")
        required = {
            "qfi": ["--state", state, "--observable", observable],
            "qah": ["--state", state],
            "qapi": ["--state", state],
            "sweep": ["--state", state, "--param", "w", "--start", "0", "--stop", "1",
                      "--step", "0.5"],
            "verify": [],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *required, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestDispatch:
    def test_every_subcommand_resolves_to_a_handler(self):
        parser = cli._build_parser()
        [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(commands.choices) == {"qfi", "qah", "qapi", "discord", "sweep", "verify"}
        for name, sub in commands.choices.items():
            assert callable(sub.get_default("run")), name
            solves = sub.get_default("solves")
            # a solving command reports only quantities of the solver table
            assert (sub.get_default("run") is cli._cmd_solve) is (solves is not None), name
            assert set(solves or ()) <= set(cli.SOLVERS), name


def synthetic_criterion(number, value, seen):
    """A criterion that records its config and reports one margin ``value <= 1e-2``."""

    def check(cfg):
        seen.append(cfg)
        return verify.CriterionResult(number, f"synthetic {number}",
                                      (("gap", value, "<=", 1e-2),), 0.0)

    return check


class TestVerifyCommand:
    def test_prints_each_margin_and_exits_one_on_a_failure(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(verify, "ALL_CRITERIA", (synthetic_criterion(1, 1e-3, seen),
                                                     synthetic_criterion(2, 0.5, seen)))
        code, out, _ = run_cli(capsys, "verify", "--seed", "3", "--restarts", "2")
        assert code == 1
        assert out.splitlines() == [
            "PASS  1. synthetic 1: gap 1.00e-03 (<= 1e-02) [0.0s]",
            "FAIL  2. synthetic 2: gap 5.00e-01 (<= 1e-02) [0.0s]",
            "1/2 criteria passed in 0.0s",
        ]
        assert [(cfg.seed, cfg.restarts) for cfg in seen] == [(3, 2), (3, 2)]

    def test_the_runner_times_every_criterion(self, monkeypatch):
        def slow(cfg):
            time.sleep(0.05)
            # the check's own seconds, 0.0, are not what the runner reports
            return verify.CriterionResult(1, "slow", (("gap", 0.0, "<=", 1e-2),), 0.0)

        monkeypatch.setattr(verify, "ALL_CRITERIA", (slow,))
        [result] = verify.run_verification()
        assert result.seconds >= 0.05

    def test_exits_zero_when_every_criterion_passes(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(verify, "ALL_CRITERIA", (synthetic_criterion(1, 1e-3, seen),
                                                     synthetic_criterion(2, 0.0, seen)))
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == ["PASS", "PASS", "2/2"]
