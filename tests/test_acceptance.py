"""Acceptance suite: every criterion from qfc.verify at its stated tolerance.

Each test prints the criterion's pass/fail line with the measured margins so
a plain ``pytest -s tests/test_acceptance.py`` doubles as the verification
report. ``qfc verify`` runs the same checks from the command line.
"""

import functools
import math

import numpy as np
import pytest

from qfc import verify
from qfc.correlations import QuantifierResult
from qfc.optimize import OptimizerConfig
from qfc.verify import ALL_CRITERIA, CriterionResult

CONFIG = OptimizerConfig(seed=0, restarts=16, tolerance=1e-6)


@functools.cache
def run(check):
    return verify.run_criterion(check, CONFIG)


@pytest.mark.parametrize("check", ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(check):
    result = run(check)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.number:2d}. {result.name}: {result.detail} [{result.seconds:.1f}s]")
    assert result.passed, f"{result.name}: {result.detail}"


@pytest.mark.parametrize("check", ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_margins_decide_and_render_the_result(check):
    result = run(check)
    assert len(result.margins) >= 1
    holds = []
    for label, value, sense, bound in result.margins:
        assert sense in {"<=", ">="}
        assert math.isfinite(bound)
        holds.append(value <= bound if sense == "<=" else value >= bound)
        assert f"{label} {value:.2e} ({sense} {bound:.0e})" in result.detail
    assert result.passed == all(holds)


@pytest.mark.parametrize(
    "margin",
    [("ceiling", 2e-4, "<=", 1e-4), ("floor", 1e-4, ">=", 1e-3),
     ("nan ceiling", float("nan"), "<=", 1e-4), ("nan floor", float("nan"), ">=", 1e-3)],
    ids=["ceiling", "floor", "nan-ceiling", "nan-floor"],
)
def test_one_failing_margin_fails_the_criterion(margin):
    holding = ("holding", 0.0, "<=", 1e-4)
    result = CriterionResult(0, "synthetic", (holding, margin), 0.0)
    assert not result.passed
    assert CriterionResult(0, "synthetic", (holding,), 0.0).passed


def nan_result(state):
    return QuantifierResult(float("nan"), np.eye(state.dim_a), "optimized")


def test_one_nan_among_the_pure_states_fails_criterion_1(monkeypatch):
    # Python's max drops a NaN unless it comes first
    solve, calls = verify.observable_correlation, []

    def patched(state, cfg, **kwargs):
        calls.append(state)
        return nan_result(state) if len(calls) == 5 else solve(state, cfg, **kwargs)

    monkeypatch.setattr(verify, "observable_correlation", patched)
    result = verify.check_pure_coincidence(CONFIG)
    assert len(calls) == len(verify._PURE_DIMS)
    assert not result.passed
    assert "nan" in result.detail


def test_nan_on_every_noisy_state_fails_criterion_3(monkeypatch):
    # a minimum started at inf would stay inf and pass the floor
    build, noisy = verify._noisy_entangled, []
    monkeypatch.setattr(verify, "_noisy_entangled", lambda *a: noisy.append(build(*a)) or noisy[-1])
    for name in ("observable_correlation", "measurement_correlation"):
        solve = getattr(verify, name)

        def patched(state, cfg, solve=solve, **kwargs):
            if any(state is s for s in noisy):
                return nan_result(state)
            return solve(state, cfg, **kwargs)

        monkeypatch.setattr(verify, name, patched)
    result = verify.check_zero_discord_detection(CONFIG)
    assert len(noisy) == 20
    assert not result.passed
    assert "min value nan" in result.detail
