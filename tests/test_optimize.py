"""Unitary parameterization and the multistart gradient search on U(d).

Objectives take a ``(..., d, d)`` stack of unitaries and return ``(values,
G)`` of shapes ``(...)`` and ``(..., d, d)``, with ``df = Re tr(G^dag du)``
for each unitary, and are invariant under ``u -> u diag(e^{i phi})``, like
every objective of the library.
"""

import ast
import dataclasses
import gc
import inspect
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import qfc
from qfc import (
    BipartiteState,
    OptimizationError,
    OptimizerConfig,
    ShapeError,
    dag,
    optimize_basis,
    unitary_from_params,
)
from qfc import (
    correlations,
    entropic_discord,
    geometric_discord,
    measurement_correlation,
    observable_correlation,
    optimize,
    verify,
)
from qfc.optimize import multistart
from qfc.states import haar_unitary, random_density, random_hermitian

from oracles import off_diagonal_mass_and_gradient, random_params, random_start
from test_measured_blocks import captured_objective


def misalignment(u):
    """``d - sum_n |u_nn|^2``: zero exactly when every column is a phase times e_n."""
    d = u.shape[-1]
    diagonal = np.diagonal(u, axis1=-2, axis2=-1)
    return d - np.sum(np.abs(diagonal) ** 2, axis=-1), -2.0 * diagonal[..., None] * np.eye(d)


def overlap(u):
    """``|u_00|^2``, largest (1) when the first column is e_0 up to a phase."""
    grad = np.zeros_like(u)
    grad[..., 0, 0] = 2.0 * u[..., 0, 0]
    return np.abs(u[..., 0, 0]) ** 2, grad


def constant(value, grad=None):
    """An objective of the given value everywhere; its gradient ``grad(u)`` defaults to 0."""
    return lambda u: (np.full(u.shape[:-2], value), np.zeros_like(u) if grad is None else grad(u))


def qapi_gap(state):
    """The qapi objective: the local QFI on b less the measured information."""
    return captured_objective(measurement_correlation, state)


def stack_objective(dim):
    """Off-diagonal mass of three fixed Hermitian matrices, a landscape with local minima."""
    stack = np.array([random_hermitian(dim, 40 + 3 * dim + k) for k in range(3)])
    return lambda u: off_diagonal_mass_and_gradient(stack, u)


def recording_rounds(rounds):
    """Patch ``optimize._lockstep`` to append each round to ``rounds``.

    A round is ``(restarts, tolerance, before, after)``: the restarts it
    searches, its tolerance and their runs before and after it.
    """
    lockstep = optimize._lockstep

    def recording(objective, restarts, tolerance):
        before = [restart.run for restart in restarts]
        lockstep(objective, restarts, tolerance)
        rounds.append((restarts, tolerance, before, [restart.run for restart in restarts]))

    return mock.patch.object(optimize, "_lockstep", recording)


def assert_same_runs(runs, others):
    """Runs equal bit for bit: unitary, value, evaluations, iterations and flag."""
    assert len(runs) == len(others)
    for (u, *rest), (v, *other_rest) in zip(runs, others):
        assert np.array_equal(u, v) and rest == other_rest


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

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_trial_points_equal_the_padded_chart_bit_for_bit(self, dim):
        # The lockstep charts the off-diagonal step coordinates alone; its
        # trial points u exp(i A(0, step)) must be the zero-padded chart's.
        rng = np.random.default_rng(100 + dim)
        for size in range(1, 6):
            bases = np.array([haar_unitary(dim, 10 * dim + size + k) for k in range(size)])
            steps = rng.standard_normal((size, dim * dim - dim))
            norms = np.linalg.norm(steps, axis=-1, keepdims=True)
            lengths = rng.uniform(0.0, np.pi, (size, 1))
            lengths[0] = np.pi  # the step cap
            steps = np.divide(steps * lengths, norms, out=np.zeros_like(steps), where=norms > 0)
            padded = np.concatenate([np.zeros((size, dim)), steps], axis=1)
            assert np.array_equal(bases @ optimize._step_chart(steps, dim),
                                  bases @ unitary_from_params(padded, dim))


class TestGradientSearch:
    def test_diagonalizes_a_hermitian_matrix(self):
        h = random_hermitian(4, 9)
        objective = lambda u: off_diagonal_mass_and_gradient(h[None], u)
        report = optimize_basis(
            objective, random_start(4, 0), config=OptimizerConfig(restarts=2, tolerance=1e-12)
        )
        assert report.converged and report.restart_converged.all()
        assert report.best_value <= 1e-12
        rotated = dag(report.best_unitary) @ h @ report.best_unitary
        np.testing.assert_allclose(np.sort(np.diag(rotated).real), np.linalg.eigvalsh(h), atol=1e-6)

    def test_converged_restarts_end_at_a_small_gradient(self):
        objective = stack_objective(3)
        tolerance = 1e-8
        cfg = OptimizerConfig(restarts=4, tolerance=tolerance)
        report = optimize_basis(objective, random_start(3, 0), config=cfg)
        assert report.converged
        u = report.best_unitary
        _, grad = objective(u)
        # the coordinates of the off-diagonal generators: d/dt f(u exp(i t Y_k))
        g = -(optimize._tangent_rows(3) @ (dag(grad) @ u).ravel()).imag
        assert g @ g <= tolerance

    def test_iteration_cap_reports_unconverged(self):
        # The cap counts a restart's iterations over the screen and the polish:
        # with a cap above every screen run, the winner stops at the cap in
        # total, not after a fresh allowance in its polish.
        objective, start, cfg = stack_objective(3), random_start(3, 0), OptimizerConfig(restarts=2)
        rounds = []
        with recording_rounds(rounds):
            free = optimize_basis(objective, start, config=cfg)
        cap = max(run[3] for run in rounds[0][3]) + 1
        best = int(np.argmin(free.restart_values))
        assert free.converged and free.restart_iterations[best] > cap
        with mock.patch.object(optimize, "MAX_ITERATIONS", cap):
            report = optimize_basis(objective, start, config=cfg)
        assert report.restart_iterations[best] == cap
        assert report.best_value == report.restart_values[best]
        assert not report.converged

    def test_failed_line_search_with_a_large_gradient_is_unconverged(self):
        # a constant value with a nonzero gradient: no step passes the Armijo test
        grad = np.diag([1.0, -1.0]).astype(complex) @ np.array([[0, 1], [1, 0]])
        objective = constant(1.0, lambda u: u @ grad)
        report = optimize_basis(objective, random_start(2, 0), config=OptimizerConfig(restarts=2))
        assert not report.converged and not report.restart_converged.any()
        # one line search per restart in the screen; the unconverged winner
        # takes no second one in the polish
        np.testing.assert_array_equal(report.restart_evaluations, [1 + optimize.MAX_HALVINGS] * 2)
        assert report.n_iterations == 0

    def test_non_finite_gradient_aborts(self):
        objective = constant(0.0, lambda u: np.full(u.shape, np.nan))
        with pytest.raises(OptimizationError):
            optimize_basis(objective, np.eye(2), config=OptimizerConfig(restarts=1))


class TestStepRule:
    """Step memory and the trial-step cap of the steepest-descent steps, and
    the stop on the predicted decrease."""

    STATE = verify._noisy_entangled((3, 3), 30103)

    def test_no_trial_step_is_longer_than_pi(self):
        # beyond chart length pi the generator's eigenvalues wrap
        lengths = []
        chart = optimize._step_chart

        def recording(steps, dim):
            lengths.extend(np.linalg.norm(steps, axis=-1))
            return chart(steps, dim)

        objective = qapi_gap(self.STATE)
        with mock.patch.object(optimize, "_step_chart", recording):
            ((*_, converged),) = optimize._bfgs(objective, haar_unitary(3, 1)[None], 1e-6)
        assert converged
        assert max(lengths) <= np.pi * (1 + 1e-12)
        assert max(lengths) >= np.pi * (1 - 1e-12)  # this search reaches the cap

    def test_scaled_objective_converges(self):
        # Scaling f by eps scales |g|^2 by eps^2. Without step memory every
        # steepest-descent step stays a unit step, eps times too short: the
        # same search hit the iteration cap on 3 of 4 restarts, with 7,875
        # evaluations and restarts 2.8e-2 short of the best value.
        eps = 1e-2
        objective = qapi_gap(self.STATE)
        scaled = lambda u: tuple(eps * part for part in objective(u))
        start = random_start(3, 5)
        plain = optimize_basis(objective, start, config=OptimizerConfig(restarts=4, seed=5))
        cfg = OptimizerConfig(restarts=4, seed=5, tolerance=1e-6 * eps**2)
        report = optimize_basis(scaled, start, config=cfg)
        assert report.restart_converged.all()
        assert abs(report.best_value / eps - plain.best_value) <= 1e-6
        assert report.n_evaluations <= 0.1 * cfg.restarts * optimize.MAX_ITERATIONS

    @pytest.mark.parametrize("index, dims", [(1, (2, 3)), (16, (2, 2))])
    def test_no_line_search_is_spent_at_roundoff(self, index, dims):
        # Criterion-3 classical states whose qapi search, once converged to
        # roundoff, used to run a last line search through every halving.
        seed = verify.state_seed(0, 3, index)
        build = verify._random_cq if index % 2 == 0 else verify._random_cc
        runs = []
        bfgs = optimize._bfgs

        def recording(*args):
            runs.extend(bfgs(*args))
            return runs[-len(args[1]):]

        with mock.patch.object(optimize, "_bfgs", recording):
            measurement_correlation(
                build(dims, seed), OptimizerConfig(restarts=4, tolerance=1e-8, seed=4 * seed)
            )
        for _, _, evaluations, iterations, converged in runs:
            assert converged
            # the evaluations beyond one per accepted step are backtracks
            assert evaluations - 1 - iterations < optimize.MAX_HALVINGS


def test_noisy_qapi_and_entropic_discord_evaluation_budget():
    """Evaluations of the qapi and entropic-discord solves of criterion 3's 20
    noisy entangled states (seed 0, 4 restarts, optimizer seed 4 x state seed).

    Deterministic: 5,569 with unit steepest-descent steps, 1,822 with step
    memory. The bound is half of the former.
    """
    dims = verify._MIXED_DIMS
    total = 0
    for i in range(20):
        seed = verify.state_seed(0, 3, 100 + i)
        state = verify._noisy_entangled(dims[i % len(dims)], seed)
        cfg = OptimizerConfig(restarts=4, seed=4 * seed)
        for solver in (measurement_correlation, entropic_discord):
            total += solver(state, cfg).report.n_evaluations
    assert total <= 2_800


SOLVERS = pytest.mark.parametrize(
    "solver",
    [observable_correlation, measurement_correlation, entropic_discord, geometric_discord],
    ids=["qah", "qapi", "dq", "dg"],
)
PER_RESTART = ("restart_values", "restart_converged", "restart_evaluations", "restart_iterations")


class TestLockstep:
    """The restarts of a search share each objective call but nothing else."""

    # criterion 3's noisy 3x3 state
    STATE = verify._noisy_entangled((3, 3), verify.state_seed(0, 3, 103))

    @SOLVERS
    def test_restarts_do_not_couple(self, solver):
        # the screen round of 2 restarts is the screen round of the first 2 of 5
        screens = []
        for restarts in (2, 5):
            rounds = []
            with recording_rounds(rounds):
                solver(self.STATE, OptimizerConfig(restarts=restarts, seed=9))
            screens.append(rounds[0][3])
        assert_same_runs(screens[1][:2], screens[0])

    @SOLVERS
    def test_a_restart_runs_alone_as_in_the_stack(self, solver):
        # Each restart ends exactly where it ends searched alone to the
        # tolerance of the last round it ran in; the winner, polished, where
        # a one-restart search from its start ends.
        objective = captured_objective(solver, self.STATE)
        cfg = OptimizerConfig(restarts=5, seed=9)
        rounds = []
        with recording_rounds(rounds):
            report = optimize_basis(objective, random_start(3, 1), config=cfg)
        restarts, _, starts, _ = rounds[0]
        last = {id(restart): tolerance for stack, tolerance, *_ in rounds for restart in stack}
        for restart, start in zip(restarts, starts):
            values, grads = optimize._evaluate(objective, start[0][None])
            alone = optimize._Restart(start[0], values[0], grads[0])
            optimize._lockstep(objective, [alone], last[id(restart)])
            assert_same_runs([alone.run], [restart.run])
        best = int(np.argmin(report.restart_values))
        single = optimize_basis(objective, starts[best][0],
                                config=dataclasses.replace(cfg, restarts=1))
        assert np.array_equal(single.best_unitary, report.best_unitary)
        assert single.best_value == report.best_value
        assert single.n_evaluations == report.restart_evaluations[best]
        assert single.n_iterations == report.restart_iterations[best]

    @SOLVERS
    def test_repeated_runs_are_bit_identical(self, solver):
        cfg = OptimizerConfig(restarts=5, seed=9)
        a, b = solver(self.STATE, cfg).report, solver(self.STATE, cfg).report
        for field in PER_RESTART + ("best_unitary",):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.best_value == b.best_value

    @SOLVERS
    def test_a_search_leaves_nothing_for_the_cyclic_gc(self, solver):
        # Reference counting alone frees every restart and its search once the
        # search returns: a search generator that held its restart would keep
        # both alive in a reference cycle until the cyclic GC ran.
        def leftovers():
            return [obj for obj in gc.get_objects()
                    if isinstance(obj, optimize._Restart)
                    or (inspect.isgenerator(obj) and obj.gi_frame is not None
                        and obj.gi_code.co_filename == optimize.__file__)]

        gc.collect()
        assert leftovers() == []
        gc.disable()
        try:
            result = solver(self.STATE, OptimizerConfig(restarts=4, seed=9), method="optimized")
            left = leftovers()
        finally:
            gc.enable()
        assert result.report.restart_values.size == 4
        assert left == []


@SOLVERS
def test_one_dimensional_party_a_searches_to_zero(solver):
    # every state with d_a = 1 is a product state
    state = BipartiteState(random_density(3, 3, 5), 1, 3)
    result = solver(state, OptimizerConfig(restarts=2), method="optimized")
    assert result.method == "optimized" and result.converged
    assert abs(result.value) <= 1e-12


def test_one_objective_call_per_round():
    """Objective calls of criterion 3's 20 noisy states at 4 restarts (optimizer
    seed 4 x state seed), all four solvers.

    Deterministic. One call per evaluation would give a ratio of 1; with the
    restarts in lockstep a call serves every restart still searching.
    """
    calls = evaluations = 0

    def counting(optimize_basis):
        def wrapped(objective, *args, **kwargs):
            def counted(u):
                nonlocal calls
                calls += 1
                return objective(u)

            return optimize_basis(counted, *args, **kwargs)

        return wrapped

    dims = verify._MIXED_DIMS
    with mock.patch.object(correlations, "optimize_basis", counting(optimize_basis)):
        for i in range(20):
            seed = verify.state_seed(0, 3, 100 + i)
            state = verify._noisy_entangled(dims[i % len(dims)], seed)
            cfg = OptimizerConfig(restarts=4, seed=4 * seed)
            # qah and geometric discord search on a qubit party a only on request
            for solver in (partial(observable_correlation, method="optimized"),
                           measurement_correlation, entropic_discord,
                           partial(geometric_discord, method="optimized")):
                evaluations += solver(state, cfg).report.n_evaluations
    assert calls <= 0.6 * evaluations


def test_every_solver_enters_the_search_in_one_place():
    # restart 0, the certificate's report and the QuantifierResult of every
    # search are set in one function
    callers = {"optimize_basis": [], "multistart": []}
    for path in sorted(Path(qfc.__file__).parent.glob("*.py")):
        if path.name == "optimize.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        name = ast.unparse(node.func).split(".")[-1]
                        if name in callers:
                            callers[name].append((path.name, fn.name))
    assert callers == {"optimize_basis": [("correlations.py", "_solve")],
                       "multistart": [("correlations.py", "_solve")]}


class TestMultistart:
    @staticmethod
    def runs_over(values, flags=None):
        """Runs where restart k ends at ``values[k]`` after k + 1 evaluations."""
        return [
            (np.full((2, 2), k), value, k + 1, 2 * k, True if flags is None else flags[k])
            for k, value in enumerate(values)
        ]

    def test_ties_resolve_to_the_lowest_index(self):
        values = [3.0, 1.0, 3.0, 1.0]
        report = multistart(self.runs_over(values))
        assert report.best_value == values[1]
        assert np.array_equal(report.best_unitary, np.full((2, 2), 1))

    def test_ties_with_restart_0_resolve_to_it(self):
        # restart 0 starts at the caller's basis; an equal value elsewhere,
        # a signed zero included, does not displace it
        for values in ([1.0, 1.0, 2.0], [2.0, 2.0, 2.0], [0.0, -0.0, 1.0], [-0.0, 0.0]):
            report = multistart(self.runs_over(values))
            assert report.best_value.hex() == values[0].hex()
            assert np.array_equal(report.best_unitary, np.full((2, 2), 0))

    def test_one_run_report_keeps_its_types(self):
        # the certified report of correlations._solve: one run, one evaluation
        u = np.eye(3, dtype=complex)
        report = multistart([(u, 1e-17, 1, 0, True)])
        assert report.best_unitary is u
        assert type(report.best_value) is float and report.best_value == 1e-17
        assert type(report.converged) is bool and report.converged
        assert type(report.n_evaluations) is int and report.n_evaluations == 1
        assert type(report.n_iterations) is int and report.n_iterations == 0
        for field, dtype, value in (("restart_values", np.float64, 1e-17),
                                    ("restart_evaluations", np.int_, 1),
                                    ("restart_iterations", np.int_, 0),
                                    ("restart_converged", np.bool_, True)):
            array = getattr(report, field)
            assert array.dtype == dtype and array.shape == (1,), field
            assert array[0] == value, field

    def test_counts_are_summed_over_restarts(self):
        report = multistart(self.runs_over([2.0, 1.0, 4.0]))
        assert report.n_evaluations == 1 + 2 + 3
        assert report.n_iterations == 0 + 2 + 4
        assert type(report.n_evaluations) is int and type(report.n_iterations) is int
        np.testing.assert_array_equal(report.restart_values, [2.0, 1.0, 4.0])
        np.testing.assert_array_equal(report.restart_evaluations, [1, 2, 3])
        np.testing.assert_array_equal(report.restart_iterations, [0, 2, 4])
        assert report.restart_evaluations.dtype.kind == report.restart_iterations.dtype.kind == "i"

    def test_converged_flags_are_per_restart(self):
        flags = [True, False, True]
        report = multistart(self.runs_over([2.0, 1.0, 4.0], flags))
        np.testing.assert_array_equal(report.restart_converged, flags)
        assert report.restart_converged.dtype == bool
        assert not report.converged  # the best restart, index 1, did not converge
        report = multistart(self.runs_over([2.0, 4.0, 1.0], flags))
        assert report.converged

    def test_runs_each_restart_once_in_order(self):
        # The screen takes every start: restart 0 at the given start, restart
        # k at row k - 1 of the seed's draw. The polish takes only the winner.
        # The first search draws the starts; the second reuses that draw.
        start, cfg = haar_unitary(2, 1), OptimizerConfig(restarts=5, seed=3)
        optimize._random_starts.cache_clear()
        for _ in ("cold", "warm"):
            rounds = []
            with recording_rounds(rounds):
                report = optimize_basis(stack_objective(2), start, config=cfg)
            restarts, tolerance, starts, _ = rounds[0]
            assert len(restarts) == 5 and tolerance == optimize.SCREEN_TOLERANCE
            assert np.array_equal(starts[0][0], start)
            for k, params in enumerate(random_params(2, 3, 4), 1):
                assert np.array_equal(starts[k][0], unitary_from_params(params, 2))
            assert all(run[2] == 1 for run in starts)  # no restart has searched yet
            (winner,), tolerance, _, _ = rounds[-1]
            assert tolerance == min(cfg.tolerance, optimize.POLISH_TOLERANCE)
            assert winner is restarts[int(np.argmin(report.restart_values))]
            assert report.restart_values.size == 5
        assert optimize._random_starts.cache_info().hits == 1


class TestStartDraw:
    """The random starts of one (seed, restarts, d) are drawn once and shared read-only."""

    def test_cold_and_warm_searches_report_the_same(self):
        start, cfg = haar_unitary(3, 2), OptimizerConfig(restarts=5, seed=7)
        optimize._random_starts.cache_clear()
        cold = optimize_basis(stack_objective(3), start, config=cfg)
        warm = optimize_basis(stack_objective(3), start, config=cfg)
        assert optimize._random_starts.cache_info().hits == 1
        for name in ("restart_values", "restart_evaluations", "restart_iterations",
                     "restart_converged"):
            assert np.array_equal(getattr(cold, name), getattr(warm, name))
        assert cold.best_unitary.tobytes() == warm.best_unitary.tobytes()

    def test_cached_stack_is_read_only_and_equals_a_fresh_draw(self):
        optimize._random_starts.cache_clear()
        stack = optimize._random_starts(3, 4, 2)
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 0.0
        assert np.array_equal(stack, unitary_from_params(random_params(2, 3, 4), 2))
        assert optimize._random_starts(3, 4, 2) is stack

    def test_one_restart_draws_nothing(self):
        assert optimize._random_starts(5, 0, 3).shape == (0, 3, 3)
        start = haar_unitary(3, 1)
        report = optimize_basis(stack_objective(3), start, config=OptimizerConfig(restarts=1, seed=5))
        assert report.restart_values.size == 1 and report.restart_evaluations[0] >= 1


class TestTwoPhases:
    """The screen runs every restart loosely; the polish continues only the winner."""

    def test_polish_continues_the_lowest_screened_value(self):
        rounds = []
        with recording_rounds(rounds):
            optimize_basis(stack_objective(3), random_start(3, 4),
                           config=OptimizerConfig(restarts=6, seed=4))
        for (stack, _, _, after), (kept, *_) in zip(rounds, rounds[1:]):
            # each round keeps the better half of the last, by value then index
            order = sorted(range(len(stack)), key=lambda k: (after[k][1], k))
            assert kept == [stack[k] for k in order[: (len(stack) + 1) // 2]]
        assert [len(stack) for stack, *_ in rounds] == [6, 3, 2, 1]

    def test_ties_go_to_the_lowest_index(self):
        # a flat landscape where every restart but restart 0 screens at 1.0
        start = np.eye(3)
        flat = lambda u: (np.where(np.all(u == start, axis=(-2, -1)), 2.0, 1.0), np.zeros_like(u))
        rounds = []
        with recording_rounds(rounds):
            report = optimize_basis(flat, start, config=OptimizerConfig(restarts=4))
        restarts = rounds[0][0]
        assert [stack for stack, *_ in rounds[1:]] == [restarts[1:3], restarts[1:2]]
        assert report.best_value == 1.0
        assert np.array_equal(report.best_unitary, rounds[0][2][1][0])

    @pytest.mark.parametrize("tolerance", [1e-6, 1e-14])
    def test_the_screen_does_not_use_the_config_tolerance(self, tolerance):
        rounds = []
        with recording_rounds(rounds):
            optimize_basis(stack_objective(3), random_start(3, 0),
                           config=OptimizerConfig(restarts=4, tolerance=tolerance))
        screen = optimize.SCREEN_TOLERANCE
        polish = min(tolerance, optimize.POLISH_TOLERANCE)
        assert [t for _, t, *_ in rounds] == [screen, screen**2, polish]
        # the restarts that ran only in the screen stopped converged at its
        # tolerance, one of them well short of the config tolerance
        squared_gradients = []
        for restart, run in zip(rounds[0][0], rounds[0][3]):
            if restart not in rounds[1][0]:
                u, _, _, _, converged = run
                _, grad = stack_objective(3)(u)
                g = -(optimize._tangent_rows(3) @ (dag(grad) @ u).ravel()).imag
                assert converged
                squared_gradients.append(g @ g)
        assert max(squared_gradients) <= screen
        assert max(squared_gradients) > 1e-6

    def test_an_unconverged_winner_is_not_polished(self):
        rounds = []
        with mock.patch.object(optimize, "MAX_ITERATIONS", 1), recording_rounds(rounds):
            report = optimize_basis(stack_objective(3), random_start(3, 0),
                                    config=OptimizerConfig(restarts=2))
        assert not report.restart_converged.any()
        (winner,), _, before, after = rounds[-1]
        assert_same_runs(after, before)  # the polish round took no step
        assert winner.run[3] == 1 and not report.converged


class TestOptimizeBasis:
    def test_constant_objective_converges_immediately(self):
        # one evaluation per start: the polish does not evaluate the winner again
        report = optimize_basis(constant(4.25), np.eye(2), config=OptimizerConfig(restarts=2))
        assert report.converged
        assert report.best_value == 4.25
        assert np.all(report.restart_values == 4.25)
        assert report.n_evaluations == 2 and report.n_iterations == 0
        np.testing.assert_array_equal(report.restart_evaluations, [1, 1])

    def test_one_dimensional_basis_has_nothing_to_search(self):
        # U(1) has no off-diagonal generator: each restart stops at its start
        report = optimize_basis(constant(4.25), np.eye(1), config=OptimizerConfig(restarts=3))
        assert report.converged and report.best_value == 4.25
        assert report.best_unitary.shape == (1, 1) and report.n_iterations == 0

    def test_column_alignment_objective_reaches_zero(self):
        cfg = OptimizerConfig(restarts=16, seed=1)
        report = optimize_basis(misalignment, random_start(2, 1), config=cfg)
        assert report.best_value <= 1e-6

    def test_maximum_as_minimum_of_the_negation(self):
        negated = lambda u: tuple(-part for part in overlap(u))
        cfg = OptimizerConfig(restarts=8, seed=3)
        report = optimize_basis(negated, random_start(2, 3), config=cfg)
        assert abs(report.best_value + 1.0) <= 1e-6
        assert report.best_value == min(report.restart_values)

    def test_deterministic_for_fixed_seed(self):
        objective = stack_objective(2)
        cfg = OptimizerConfig(restarts=4, seed=11)
        a = optimize_basis(objective, random_start(2, 11), config=cfg)
        b = optimize_basis(objective, random_start(2, 11), config=cfg)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_unitary, b.best_unitary)
        assert np.array_equal(a.restart_values, b.restart_values)
        assert a.n_evaluations == b.n_evaluations

    def test_monotone_under_nested_restarts(self):
        objective = stack_objective(3)
        values = []
        for restarts in (1, 2, 4, 8):
            cfg = OptimizerConfig(restarts=restarts, seed=5)
            values.append(optimize_basis(objective, random_start(3, 5), config=cfg).best_value)
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_restart_values_prefix_stable(self):
        # the screened runs of the first 3 restarts do not depend on the restart count
        objective = stack_objective(2)
        start = random_start(2, 2)
        screens = []
        for restarts in (3, 6):
            rounds = []
            with recording_rounds(rounds):
                optimize_basis(objective, start, config=OptimizerConfig(restarts=restarts, seed=2))
            screens.append(rounds[0][3])
        assert_same_runs(screens[1][:3], screens[0])

    def test_non_finite_objective_aborts(self):
        with pytest.raises(OptimizationError):
            optimize_basis(constant(float("nan")), np.eye(2), config=OptimizerConfig(restarts=1))

    def test_objective_must_return_one_value_per_unitary(self):
        objective = lambda u: (1.0, np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            optimize_basis(objective, np.eye(2), config=OptimizerConfig(restarts=2))

    def test_second_best_value(self):
        objective = stack_objective(2)
        report = optimize_basis(objective, random_start(2, 0), config=OptimizerConfig(restarts=4))
        ordered = np.sort(report.restart_values)
        assert report.second_best_value == ordered[1]

    def test_second_best_value_is_nan_for_one_restart(self):
        report = optimize_basis(stack_objective(2), random_start(2, 0),
                                config=OptimizerConfig(restarts=1))
        assert np.isnan(report.second_best_value)


class TestWarmStart:
    OBJECTIVE = staticmethod(stack_objective(3))
    CFG = OptimizerConfig(restarts=4, seed=7)

    def test_first_call_of_restart_zero_receives_start(self):
        start = haar_unitary(3, 1)
        seen = []

        def objective(u):
            seen.append(u.copy())
            return self.OBJECTIVE(u)

        optimize_basis(objective, start, config=self.CFG)
        assert np.array_equal(seen[0][0], start)

    def test_other_restarts_keep_their_streams(self):
        # the starts and screened runs of restarts 1.. do not depend on restart 0's start
        screens = []
        for start in (random_start(3, 7), haar_unitary(3, 1)):
            rounds = []
            with recording_rounds(rounds):
                optimize_basis(self.OBJECTIVE, start, config=self.CFG)
            screens.append(rounds[0][2][1:] + rounds[0][3][1:])
        assert_same_runs(*screens)

    def test_best_unitary_attains_best_value(self):
        report = optimize_basis(self.OBJECTIVE, haar_unitary(3, 1), config=self.CFG)
        assert self.OBJECTIVE(report.best_unitary)[0] == report.best_value

    @pytest.mark.parametrize("shape", [(2, 3), (2,), (), (0, 0)])
    def test_rejects_start_of_wrong_shape(self, shape):
        start = np.eye(*shape) if len(shape) == 2 else np.ones(shape)
        with pytest.raises(ShapeError):
            optimize_basis(self.OBJECTIVE, start, config=self.CFG)


@pytest.mark.parametrize("dims", [(3, 2), (3, 3)])
def test_cli_values_do_not_depend_on_blas_threads(tmp_path, dims):
    # a qutrit party a, where qah searches
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

    @pytest.mark.parametrize("tolerance", [-1e-6, float("nan"), float("inf"), float("-inf")])
    def test_rejects_negative_or_non_finite_tolerance(self, tolerance):
        with pytest.raises(ValueError):
            OptimizerConfig(tolerance=tolerance)

    @pytest.mark.parametrize("seed", [-1, -5])
    def test_rejects_negative_seed(self, seed):
        # the random starts are drawn from np.random.default_rng(seed), which needs seed >= 0
        with pytest.raises(ValueError, match="seed"):
            OptimizerConfig(seed=seed)

    @pytest.mark.parametrize(
        "field, value",
        [("restarts", 1.5), ("restarts", 2.0), ("restarts", True), ("restarts", "4"),
         ("seed", 0.5), ("seed", 1.0), ("seed", False), ("seed", np.float64(3.0))],
    )
    def test_rejects_non_integer_counts(self, field, value):
        # a float or bool would fail later inside the search, or run one restart
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, False, "1e-6", None, 1e-6 + 0j, np.bool_(True)])
    def test_rejects_non_real_tolerance(self, value):
        # a bool would count as 1.0 or 0.0, and a string cannot be compared
        with pytest.raises(ValueError, match="tolerance"):
            OptimizerConfig(tolerance=value)

    @pytest.mark.parametrize("real", [np.float64, np.float32, int])
    def test_accepts_real_tolerance(self, real):
        assert OptimizerConfig(tolerance=real(1)).tolerance == 1.0

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
    def test_accepts_numpy_integers(self, integer):
        cfg = OptimizerConfig(restarts=integer(2), seed=integer(3))
        report = optimize_basis(constant(1.0), np.eye(2), config=cfg)
        assert report.restart_values.size == 2

    def test_has_three_settings(self):
        cfg = OptimizerConfig()
        assert (cfg.restarts, cfg.tolerance, cfg.seed) == (16, 1e-6, 0)
        assert len(dataclasses.fields(cfg)) == 3
