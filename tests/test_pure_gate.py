"""The pure-state gate: every solver takes its closed form on pure input.

On a pure state qah, qapi and geometric discord equal ``1 - tr rho_a^2``
and entropic discord equals ``S(rho_a)``, in the eigenbasis of rho_a (a
Schmidt basis). Under ``method="auto"`` each solver returns that closed
form without a search; ``method="optimized"`` still searches, and must
meet it.
"""

import math

import numpy as np
import pytest

from qfc import (
    BipartiteState,
    OptimizerConfig,
    entropic_discord,
    geometric_discord,
    max_entangled,
    measured_state,
    measurement_correlation,
    mutual_information,
    observable_correlation,
    pure_state,
    pure_state_correlation,
    random_pure,
    total_local_qfi_b,
    total_mfi,
)
from qfc.states import PURITY_TOL, haar_unitary

from oracles import basis_qfi_sum, schmidt, state_vector
from test_measured_blocks import explicit_distance

SOLVERS = {
    "qah": observable_correlation,
    "qapi": measurement_correlation,
    "dq": entropic_discord,
    "dg": geometric_discord,
}

#: Each solver's value in a basis u, by its definition and not by its objective.
DEFINITIONS = {
    "qah": basis_qfi_sum,
    "qapi": lambda state, u: total_local_qfi_b(state) - total_mfi(state, u),
    "dq": lambda state, u: mutual_information(state) - mutual_information(measured_state(state, u)),
    "dg": explicit_distance,
}

PURE_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]


def oracle(name, state):
    """The closed form from the Schmidt coefficients c_i of an SVD."""
    c = schmidt(state_vector(state), state.dims).coefficients
    if name == "dq":
        return float(-np.sum(c * np.log(c)))
    return float(1.0 - np.sum(c**2))


def near_pure(dims, seed, eps):
    """``(1 - eps) |psi><psi| + eps 1/d`` for a seeded random pure psi."""
    pure = random_pure(dims, seed)
    d = pure.dim
    return BipartiteState((1.0 - eps) * pure.rho + eps * np.eye(d) / d, *dims)


@pytest.mark.parametrize("name", list(SOLVERS))
@pytest.mark.parametrize("dims", PURE_DIMS)
def test_pure_input_takes_the_closed_form(name, dims):
    for seed in range(2):
        state = random_pure(dims, 3100 + 10 * dims[0] + dims[1] + seed)
        result = SOLVERS[name](state)
        assert result.method == "closed-form"
        assert result.report is None and result.converged
        searched = SOLVERS[name](state, method="optimized")
        assert searched.method == "optimized"
        expected = oracle(name, state)
        assert abs(result.value - expected) <= 1e-12
        if name != "dq":
            # one implementation: the gate cannot drift from the public closed form
            assert result.value == pure_state_correlation(state)
        assert abs(searched.value - result.value) <= 1e-12
        # the basis returned attains the value
        assert abs(DEFINITIONS[name](state, result.argopt) - result.value) <= 1e-12


@pytest.mark.parametrize("name", list(SOLVERS))
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_the_closed_form_of_a_product_state_is_never_negative(name, dims):
    # the exact value is 0; roundoff in rho_a's eigenvalues would put it
    # slightly on either side of 0, and the gate clips it at +0.0
    m, n = dims
    for seed in range(300):
        psi = np.kron(haar_unitary(m, 2 * seed)[:, 0], haar_unitary(n, 2 * seed + 1)[:, 0])
        state = pure_state(psi, dims)
        result = SOLVERS[name](state)
        assert result.method == "closed-form"
        assert 0.0 <= result.value <= 1e-14 and math.copysign(1.0, result.value) == 1.0
        if name == "qah":
            closed = pure_state_correlation(state)
            assert closed >= 0.0 and math.copysign(1.0, closed) == 1.0


@pytest.mark.parametrize("name", list(SOLVERS))
@pytest.mark.parametrize("m", [2, 3, 4])
def test_the_search_reaches_the_closed_form_on_maximally_entangled_input(name, m):
    # rho_a = 1/m: its eigenbasis, the search's first start, is arbitrary
    state = max_entangled(m)
    expected = float(np.log(m)) if name == "dq" else 1.0 - 1.0 / m
    result = SOLVERS[name](state)
    assert result.method == "closed-form"
    assert abs(result.value - expected) <= 1e-12
    searched = SOLVERS[name](state, method="optimized")
    assert searched.method == "optimized" and searched.converged
    assert abs(searched.value - expected) <= 1e-10
    assert abs(DEFINITIONS[name](state, searched.argopt) - searched.value) <= 1e-10


@pytest.mark.parametrize("name", list(SOLVERS))
@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 3)])
def test_nearly_pure_input_is_within_the_tolerance_of_the_search(name, dims):
    # eps = 4e-9 leaves the purity 1 - 2 eps (1 - 1/d), within PURITY_TOL of 1;
    # the closed form is then off by O(eps), or O(eps ln(1/eps)) for dq
    state = near_pure(dims, 3200 + dims[0], 4e-9)
    assert 1.0 - PURITY_TOL <= state.purity() < 1.0 - 1e-9
    result = SOLVERS[name](state)
    assert result.method == "closed-form"
    searched = SOLVERS[name](state, method="optimized")
    assert abs(result.value - searched.value) <= OptimizerConfig().tolerance


@pytest.mark.parametrize("name", list(SOLVERS))
def test_a_state_just_past_the_purity_tolerance_is_not_gated(name):
    state = near_pure((3, 3), 3203, 1e-8)
    assert state.purity() < 1.0 - PURITY_TOL
    assert SOLVERS[name](state).method != "closed-form"


@pytest.mark.parametrize("name", list(SOLVERS))
def test_a_tight_tolerance_narrows_the_gate(name):
    # The gate admits 1 - purity up to min(PURITY_TOL, tolerance / 100). At
    # tolerance 1e-10 the 1 - purity of 7e-9 above is searched: entropic
    # discord's closed form is off by about 4e-8 there, far outside it.
    tight = OptimizerConfig(tolerance=1e-10)
    state = near_pure((3, 3), 3203, 4e-9)
    result = SOLVERS[name](state, tight)
    assert result.method == "optimized"
    searched = SOLVERS[name](state, tight, method="optimized")
    assert abs(result.value - searched.value) <= tight.tolerance


@pytest.mark.parametrize("name", list(SOLVERS))
def test_the_gate_at_a_tight_tolerance_stays_within_it(name):
    # 1 - purity about 4e-13, under tolerance / 100 for tolerance 1e-10
    tight = OptimizerConfig(tolerance=1e-10)
    state = near_pure((3, 3), 3203, 2.5e-13)
    assert 0.0 < 1.0 - state.purity() <= tight.tolerance / 100
    result = SOLVERS[name](state, tight)
    assert result.method == "closed-form"
    searched = SOLVERS[name](state, tight, method="optimized")
    assert abs(result.value - searched.value) <= tight.tolerance
