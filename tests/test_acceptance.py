"""Acceptance suite: every criterion from qfc.verify at its stated tolerance.

Each test prints the criterion's pass/fail line with the measured margins so
a plain ``pytest -s tests/test_acceptance.py`` doubles as the verification
report. ``qfc verify`` runs the same checks from the command line.
"""

import pytest

from qfc.optimize import OptimizerConfig
from qfc.verify import ALL_CRITERIA

CONFIG = OptimizerConfig(seed=0, restarts=16, tolerance=1e-6)


@pytest.mark.parametrize("check", ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(check):
    result = check(CONFIG)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.number:2d}. {result.name}: {result.detail} [{result.seconds:.1f}s]")
    assert result.passed, f"{result.name}: {result.detail}"
