"""Global reach of the default search where party a has local optima (d_a = 3 or 4).

qah, qapi and both discords are minimizations or maximizations over the
bases of party a. Once d_a >= 3 the qapi and entropic-discord landscapes
have local optima, so a change of starts, restart count or stop rule can
lose the global optimum without failing any closed-form check. The states
and seeds below were fixed before the first run.
"""

import pytest

from qfc import (
    BipartiteState,
    OptimizerConfig,
    entropic_discord,
    geometric_discord,
    measurement_correlation,
    observable_correlation,
)
from qfc.states import random_density

from oracles import jacobi_basis

REACH_DIMS = [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]
#: The reference search: three times the default restarts, on other streams.
REFERENCE_CFG = OptimizerConfig(restarts=48, seed=1000)
REACH_TOL = 1e-6


def reach_states():
    """20 states, dimensions cycled, full rank at even and rank 2 at odd indices."""
    for i in range(20):
        dims = REACH_DIMS[i % len(REACH_DIMS)]
        d = dims[0] * dims[1]
        yield BipartiteState(random_density(d, d if i % 2 == 0 else 2, 1100 + i), *dims)


@pytest.mark.parametrize(
    "solver",
    [observable_correlation, measurement_correlation, entropic_discord, geometric_discord],
    ids=["qah", "qapi", "dq", "dg"],
)
def test_default_search_matches_a_longer_one(solver):
    for state in reach_states():
        default = solver(state).value
        reference = solver(state, REFERENCE_CFG).value
        assert abs(default - reference) <= REACH_TOL


def test_geometric_discord_matches_the_jacobi_oracle():
    for state in reach_states():
        _, oracle = jacobi_basis(state, 8)
        assert abs(geometric_discord(state).value - oracle) <= REACH_TOL
