"""Unitary parameterization and the multistart Nelder-Mead search."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qfc
from qfc import (
    OptimizationError,
    OptimizerConfig,
    ShapeError,
    dag,
    nelder_mead,
    optimize_basis,
    unitary_from_params,
)
from qfc.states import haar_unitary


class TestUnitaryFromParams:
    def test_zero_parameters_give_identity(self):
        np.testing.assert_allclose(unitary_from_params(np.zeros(4), 2), np.eye(2), atol=1e-14)

    def test_diagonal_phase_generator(self):
        # generator diag(pi, 0) in the canonical ordering (diagonal entries first)
        u = unitary_from_params(np.array([np.pi, 0.0, 0.0, 0.0]), 2)
        np.testing.assert_allclose(u, np.diag([-1.0, 1.0]), atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_random_parameters_give_unitary(self, dim):
        rng = np.random.default_rng(dim)
        u = unitary_from_params(rng.normal(0, 2, dim * dim), dim)
        assert np.linalg.norm(dag(u) @ u - np.eye(dim)) <= 1e-10

    def test_rejects_wrong_length(self):
        with pytest.raises(ShapeError):
            unitary_from_params(np.zeros(3), 2)


class TestNelderMead:
    def test_minimizes_shifted_quadratic(self):
        target = np.array([1.0, -2.0, 0.5])
        f = lambda x: float(np.sum((x - target) ** 2))
        x, fx, nfev, nit, converged = nelder_mead(
            f, np.zeros(3), step=0.5, tolerance=1e-10, max_iterations=2000
        )
        assert converged
        assert fx <= 1e-8
        np.testing.assert_allclose(x, target, atol=1e-4)
        assert nfev > nit > 0

    def test_iteration_cap_reports_unconverged(self):
        f = lambda x: float(np.sum(x**2))
        _, _, _, nit, converged = nelder_mead(
            f, np.ones(4), step=0.1, tolerance=1e-15, max_iterations=3, diameter_tol=0.0
        )
        assert nit == 3
        assert not converged


class TestOptimizeBasis:
    def test_constant_objective_converges_immediately(self):
        report = optimize_basis(lambda u: 4.25, 2, "min", OptimizerConfig(restarts=2))
        assert report.converged
        assert report.best_value == 4.25
        assert np.all(report.restart_values == 4.25)

    def test_column_alignment_objective_reaches_zero(self):
        eye = np.eye(2)

        def deviation(u):
            return float(np.sum(np.abs(u - eye) ** 2))

        report = optimize_basis(deviation, 2, "min", OptimizerConfig(restarts=16, seed=1))
        assert report.best_value <= 1e-6

    def test_direction_max(self):
        # largest |<e_0|u e_0>|^2 over unitaries is 1
        objective = lambda u: float(abs(u[0, 0]) ** 2)
        report = optimize_basis(objective, 2, "max", OptimizerConfig(restarts=8, seed=3))
        assert abs(report.best_value - 1.0) <= 1e-6
        assert report.best_value == max(report.restart_values)

    def test_deterministic_for_fixed_seed(self):
        objective = lambda u: float(np.real(np.trace(u)))
        cfg = OptimizerConfig(restarts=4, seed=11)
        a = optimize_basis(objective, 2, "min", cfg)
        b = optimize_basis(objective, 2, "min", cfg)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_unitary, b.best_unitary)
        assert np.array_equal(a.restart_values, b.restart_values)
        assert a.n_evaluations == b.n_evaluations

    def test_monotone_under_nested_restarts(self):
        objective = lambda u: float(np.real(np.trace(u)))
        values = []
        for restarts in (1, 2, 4, 8):
            cfg = OptimizerConfig(restarts=restarts, seed=5)
            values.append(optimize_basis(objective, 3, "min", cfg).best_value)
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_restart_values_prefix_stable(self):
        objective = lambda u: float(np.real(np.trace(u)))
        small = optimize_basis(objective, 2, "min", OptimizerConfig(restarts=3, seed=2))
        large = optimize_basis(objective, 2, "min", OptimizerConfig(restarts=6, seed=2))
        np.testing.assert_array_equal(large.restart_values[:3], small.restart_values)

    def test_non_finite_objective_aborts(self):
        with pytest.raises(OptimizationError):
            optimize_basis(lambda u: float("nan"), 2, "min", OptimizerConfig(restarts=1))

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            optimize_basis(lambda u: 0.0, 2, "best")

    def test_second_best_value(self):
        objective = lambda u: float(np.real(np.trace(u)))
        report = optimize_basis(objective, 2, "min", OptimizerConfig(restarts=4, seed=0))
        ordered = np.sort(report.restart_values)
        assert report.second_best_value == ordered[1]


class TestWarmStart:
    OBJECTIVE = staticmethod(lambda u: float(np.real(np.trace(u))))
    CFG = OptimizerConfig(restarts=4, seed=7)

    def test_first_call_of_restart_zero_receives_start(self):
        start = haar_unitary(3, 1)
        seen = []

        def objective(u):
            seen.append(u.copy())
            return self.OBJECTIVE(u)

        optimize_basis(objective, 3, "min", self.CFG, start=start)
        assert np.array_equal(seen[0], start)

    def test_other_restarts_keep_their_streams(self):
        cold = optimize_basis(self.OBJECTIVE, 3, "min", self.CFG)
        warm = optimize_basis(self.OBJECTIVE, 3, "min", self.CFG, start=haar_unitary(3, 1))
        np.testing.assert_array_equal(warm.restart_values[1:], cold.restart_values[1:])

    def test_best_unitary_attains_best_value(self):
        report = optimize_basis(self.OBJECTIVE, 3, "min", self.CFG, start=haar_unitary(3, 1))
        assert self.OBJECTIVE(report.best_unitary) == report.best_value

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (2,)])
    def test_rejects_start_of_wrong_shape(self, shape):
        start = np.eye(*shape) if len(shape) == 2 else np.ones(shape)
        with pytest.raises(ShapeError):
            optimize_basis(self.OBJECTIVE, 2, "min", self.CFG, start=start)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
def test_cli_values_do_not_depend_on_blas_threads(tmp_path, dims):
    spec = tmp_path / "state.json"
    d = dims[0] * dims[1]
    spec.write_text(json.dumps({"kind": "random", "dims": list(dims), "seed": 4, "rank": d}))
    src = str(Path(qfc.__file__).resolve().parents[1])
    values = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qfc.cli", "qah", "--state", str(spec),
             "--restarts", "4", "--format", "json"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        values.append((doc["values"], doc["optimizer"]))
    assert values[0] == values[1]


class TestOptimizerConfig:
    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            OptimizerConfig(tolerance=0.0)
