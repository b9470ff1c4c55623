"""Analytic gradients of the optimizer objectives against finite differences.

Every objective returns ``(value, G)`` with ``df = Re tr(G^dag du)``. The
search only uses G along the tangent directions ``u -> u exp(h X)`` with X
anti-Hermitian and off-diagonal, so that is where it is checked: a sign or
factor error in G would otherwise only slow the search down, not fail it.
"""

import numpy as np
import pytest

from qfc import BipartiteState, correlations, discord, linalg, random_pure
from qfc.optimize import _generator_basis
from qfc.states import haar_unitary, random_density

from test_measured_blocks import captured_objective, dark_outcome_state

STEP = 1e-5
DIRECTIONS = 5


def qah_objective(state):
    return correlations._basis_qfi_objective(state)


def qapi_objective(state):
    return correlations._mfi_objective(state)


def entropic_objective(state):
    return captured_objective(discord.entropic_discord, state)


def geometric_objective(state):
    stack = correlations._a_components(state.rho, state.dims)
    return lambda u: linalg.off_diagonal_mass_and_gradient(stack, u)


OBJECTIVES = {
    "qah": qah_objective,
    "qapi": qapi_objective,
    "dq": entropic_objective,
    "dg": geometric_objective,
}


def cases():
    out = []
    for k, dims in enumerate([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (4, 4)]):
        d = dims[0] * dims[1]
        u = haar_unitary(dims[0], 80 + k)
        for rank in (d, 2):
            state = BipartiteState(random_density(d, rank, 90 + 10 * k + rank), *dims)
            out.append(pytest.param(state, u, id=f"rank{rank}-{dims[0]}x{dims[1]}"))
    for dims in ((2, 3), (3, 3)):
        out.append(pytest.param(random_pure(dims, 5), haar_unitary(dims[0], 6),
                                id=f"pure-{dims[0]}x{dims[1]}"))
    for dims in ((3, 2), (4, 4)):
        # measuring in the computational basis leaves a dark outcome
        out.append(pytest.param(dark_outcome_state(dims, 7), np.eye(dims[0], dtype=complex),
                                id=f"dark-{dims[0]}x{dims[1]}"))
    return out


@pytest.mark.parametrize("state, u", cases())
@pytest.mark.parametrize("name", list(OBJECTIVES))
def test_tangent_gradient_matches_central_difference(name, state, u):
    objective = OBJECTIVES[name](state)
    _, grad = objective(u)
    m = state.dim_a
    generators = _generator_basis(m)[m:]
    rng = np.random.default_rng(m * 100 + state.dim_b)
    for _ in range(DIRECTIONS):
        a = np.einsum("k,kij->ij", rng.normal(size=len(generators)), generators)
        vals, vecs = np.linalg.eigh(a)

        def along(h):
            return objective(u @ (vecs * np.exp(1j * h * vals)) @ vecs.conj().T)[0]

        central = (along(STEP) - along(-STEP)) / (2 * STEP)
        analytic = float(np.real(np.trace(grad.conj().T @ u @ (1j * a))))
        assert abs(central - analytic) <= 1e-6 * max(abs(analytic), 1e-3), (central, analytic)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 4)], ids=lambda d: f"{d[0]}x{d[1]}")
@pytest.mark.parametrize("rank", ["full", 2])
@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("name", list(OBJECTIVES))
def test_stack_matches_single_calls(name, count, rank, dims):
    # the search evaluates its restarts as one (R, d_a, d_a) stack
    m, n = dims
    d = m * n
    state = BipartiteState(random_density(d, d if rank == "full" else 2, 200 + d), m, n)
    stack = np.array([haar_unitary(m, 300 + k) for k in range(count)])
    objective = OBJECTIVES[name](state)
    values, grads = objective(stack)
    assert values.shape == (count,) and grads.shape == (count, m, m)
    for u, value, grad in zip(stack, values, grads):
        single_value, single_grad = objective(u)
        assert np.ndim(single_value) == 0 and single_grad.shape == (m, m)
        assert abs(value - single_value) <= 1e-13 * abs(single_value)
        assert np.max(np.abs(grad - single_grad)) <= 1e-13 * np.max(np.abs(single_grad))
