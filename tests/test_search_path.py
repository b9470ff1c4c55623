"""Frozen search paths: the method and counts of every solve of three state sets.

A change that is meant to leave the search alone (a cheaper chart call, a
check taken out of the solve path) must keep each solve's method, objective
evaluations and accepted steps exactly, and its value to 1e-12.
``oracles.SEARCH_PATHS`` holds them, at the benchmark's recipe: 4 restarts
at optimizer seed 4 x the state seed, tolerance 1e-6 on the noisy states and
1e-8 on the classical ones. The sets are acceptance criterion 3's, at seed 0:

* ``noisy``: its 20 noisy entangled states, under all four solvers;
* ``classical``: its 20 CQ/CC states under qah and qapi, by default (so
  mostly closed forms and certified zeros);
* ``classical-optimized``: the same solves with ``method="optimized"``, as
  the criterion runs them, so that the search itself is held on zeros.

A closed form records 0 evaluations and 0 iterations. Regenerate the table
(only on purpose, for a change that moves the search) with
``PYTHONPATH=src python tests/test_search_path.py``.
"""

import pytest

from qfc import (
    OptimizerConfig,
    entropic_discord,
    geometric_discord,
    measurement_correlation,
    observable_correlation,
    verify,
)

from oracles import SEARCH_PATHS

SOLVERS = {
    "qah": observable_correlation,
    "qapi": measurement_correlation,
    "dq": entropic_discord,
    "dg": geometric_discord,
}
VALUE_TOL = 1e-12


def _solves(name):
    """``(solver name, solve)`` of each set, in table order; ``solve()`` returns the result."""
    for i in range(20):
        dims = verify._MIXED_DIMS[i % len(verify._MIXED_DIMS)]
        if name == "noisy":
            seed = verify.state_seed(0, 3, 100 + i)
            state, kinds, tol = verify._noisy_entangled(dims, seed), SOLVERS, 1e-6
        else:
            seed = verify.state_seed(0, 3, i)
            build = verify._random_cq if i % 2 == 0 else verify._random_cc
            state, kinds, tol = build(dims, seed), ("qah", "qapi"), 1e-8
        config = OptimizerConfig(restarts=4, tolerance=tol, seed=4 * seed)
        method = "optimized" if name == "classical-optimized" else "auto"
        for kind in kinds:
            yield kind, lambda s=SOLVERS[kind], st=state, c=config, m=method: s(st, c, method=m)


def path(result):
    """``(method, evaluations, iterations, value)`` of one result."""
    report = result.report
    if report is None:
        return result.method, 0, 0, result.value
    return result.method, report.n_evaluations, report.n_iterations, result.value


@pytest.mark.parametrize("name", list(SEARCH_PATHS))
def test_every_solve_keeps_its_frozen_path(name):
    frozen = SEARCH_PATHS[name]
    solves = list(_solves(name))
    assert len(solves) == len(frozen)
    for (kind, solve), (method, evaluations, iterations, value) in zip(solves, frozen):
        got = path(solve())
        assert got[:3] == (method, evaluations, iterations), kind
        assert abs(got[3] - value) <= VALUE_TOL, kind


if __name__ == "__main__":
    # Print the literal of oracles.SEARCH_PATHS.
    print("SEARCH_PATHS = {")
    for name in ("noisy", "classical", "classical-optimized"):
        print(f'    "{name}": (')
        for kind, solve in _solves(name):
            print(f"        {path(solve())!r},  # {kind}")
        print("    ),")
    print("}")
