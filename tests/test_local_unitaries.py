"""Local unitaries on both parties, ``rho -> (U_a (x) U_b) rho (U_a (x) U_b)^dag``.

Every quantifier is a minimum over the bases u of party a of a function of
the state seen in that basis, so each search objective is covariant,
``f_{rho'}(U_a u) = f_rho(u)``, and each closed form is invariant. Two
more properties of the objectives are held here: each is >= 0 up to
roundoff, and 0 at the classical basis of a CQ state built on any basis of
a. Geometric discord gets no contractivity test: it can grow under a
channel on b (Piani, PRA 86, 034101, 2012).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfc import BipartiteState, geometric_discord, make_cq, observable_correlation
from qfc.states import haar_unitary, random_density

from test_gradients import OBJECTIVES
from test_measured_blocks import mixed_state

PROPERTY = settings(max_examples=50, derandomize=True, deadline=None)
STATES = dict(
    m=st.integers(2, 4), n=st.integers(2, 4), rank=st.integers(1, 16),
    seed=st.integers(0, 2**31 - 1),
)


def rotated(state, seed):
    """``(U_a, rho')``: the state under Haar unitaries on both parties."""
    u_a, u_b = haar_unitary(state.dim_a, seed), haar_unitary(state.dim_b, seed + 1)
    w = np.kron(u_a, u_b)
    return u_a, BipartiteState(w @ state.rho @ w.conj().T, *state.dims)


@pytest.mark.parametrize("name", list(OBJECTIVES))
@PROPERTY
@given(**STATES)
def test_search_objectives_are_covariant(name, m, n, rank, seed):
    state = mixed_state((m, n), seed, min(rank, m * n))
    u_a, moved = rotated(state, seed + 2)
    u = haar_unitary(m, seed + 4)
    value, grad = OBJECTIVES[name](state)(u)
    moved_value, moved_grad = OBJECTIVES[name](moved)(u_a @ u)
    assert abs(moved_value - value) <= 1e-12
    # f_{rho'}(v) = f_rho(U_a^dag v), so G_{rho'}(U_a u) = U_a G_rho(u)
    assert np.max(np.abs(moved_grad - u_a @ grad)) <= 1e-10 * max(np.max(np.abs(grad)), 1.0)


@pytest.mark.parametrize("solver", [observable_correlation, geometric_discord],
                         ids=["qah", "dg"])
@PROPERTY
@given(n=st.integers(2, 4), rank=st.integers(1, 8), seed=st.integers(0, 2**31 - 1))
def test_qubit_closed_forms_are_invariant(solver, n, rank, seed):
    state = mixed_state((2, n), seed, min(rank, 2 * n))
    result = solver(state)
    moved = solver(rotated(state, seed + 2)[1])
    assert result.method == moved.method == "closed-form"
    assert abs(moved.value - result.value) <= 1e-12


@pytest.mark.parametrize("name", ["qah", "qapi", "dq"])
@PROPERTY
@given(**STATES)
def test_other_objectives_are_nonnegative_at_haar_bases(name, m, n, rank, seed):
    # qapi (a local QFI less its measured part) and dq (a sum of entropies
    # with signs) are differences whose terms cancel where the value is 0,
    # so roundoff leaves them a little below it: -8.9e-16 for qapi on the
    # criterion-3 CQ/CC states, and see the test below. The allowance 1e-12
    # covers that roundoff and nothing more; qah, a sum of QFI weights times
    # squared moduli, is held to the same bound.
    state = mixed_state((m, n), seed, min(rank, m * n))
    values, _ = OBJECTIVES[name](state)(np.array([haar_unitary(m, seed + k) for k in range(4)]))
    assert np.all(values >= -1e-12)


@pytest.mark.parametrize("name", list(OBJECTIVES))
@PROPERTY
@given(m=st.integers(2, 4), n=st.integers(2, 4), pure=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_objectives_vanish_at_the_basis_of_a_cq_state(name, m, n, pure, seed):
    # a CQ state on a Haar basis of a, each conditional state pure or full
    # rank; qapi and dq reach about -5e-15 here, and geometric discord, a
    # sum of squares, stays >= 0
    basis = haar_unitary(m, seed)
    probs = np.random.default_rng(seed + 1).dirichlet(np.ones(m))
    sigmas = [random_density(n, 1 if pure else n, seed + 2 + k) for k in range(m)]
    value, _ = OBJECTIVES[name](make_cq(probs, basis, sigmas))(basis)
    assert abs(value) <= 1e-12


@PROPERTY
@given(**STATES)
def test_geometric_objective_is_nonnegative_at_haar_bases(m, n, rank, seed):
    state = mixed_state((m, n), seed, min(rank, m * n))
    values, _ = OBJECTIVES["dg"](state)(np.array([haar_unitary(m, seed + k) for k in range(4)]))
    assert np.all(values >= 0.0)
