"""Measured blocks on party a and the batched objectives built on them.

Each optimizer objective that depends on a measurement of party a is a
function of rho's blocks in the basis of that measurement. These tests hold
each one to its explicit definition: the per-observable MFI sum, the loss of
mutual information under the measurement, and the distance to the measured
state.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfc import (
    BipartiteState,
    ShapeError,
    hermitian_basis,
    make_cq,
    measure_a,
    measured_state,
    mutual_information,
    total_mfi,
)
from qfc import correlations, discord
from qfc.states import haar_unitary, random_density

from oracles import mfi

DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (4, 4)]


class _Captured(Exception):
    pass


def captured_objective(solver, state):
    """The objective ``solver`` hands to the optimizer for ``state``.

    It returns ``(value, G)``; the gradient is checked in ``test_gradients.py``.
    """
    holder = []

    def grab(objective, *args, **kwargs):
        holder.append(objective)
        raise _Captured

    with mock.patch.object(correlations, "optimize_basis", grab):
        with pytest.raises(_Captured):
            solver(state)
    return holder[0]


def entropic_objective(state):
    objective = captured_objective(
        lambda s: discord.entropic_discord(s, method="optimized"), state
    )
    return lambda u: objective(u)[0]


def geometric_objective(state):
    objective = captured_objective(
        lambda s: discord.geometric_discord(s, method="optimized"), state
    )
    return lambda u: objective(u)[0]


def mixed_state(dims, seed, rank):
    d = dims[0] * dims[1]
    return BipartiteState(random_density(d, rank, seed), *dims)


def dark_outcome_state(dims, seed):
    """A full-rank state on the first two vectors of party a, embedded in
    ``dims``: measuring a in the computational basis has dark outcomes."""
    m, n = dims
    rho = np.zeros((m * n, m * n), dtype=complex)
    rho[: 2 * n, : 2 * n] = random_density(2 * n, 2 * n, seed)
    return BipartiteState(rho, m, n)


def cases():
    out = []
    for k, dims in enumerate(DIMS):
        d = dims[0] * dims[1]
        u = haar_unitary(dims[0], 50 + k)
        out.append(pytest.param(mixed_state(dims, k, d), u, id=f"full-{dims[0]}x{dims[1]}"))
        out.append(pytest.param(mixed_state(dims, 20 + k, 2), u, id=f"rank2-{dims[0]}x{dims[1]}"))
    for dims in ((3, 2), (4, 4)):
        state = dark_outcome_state(dims, 7)
        out.append(pytest.param(state, np.eye(dims[0]), id=f"dark-{dims[0]}x{dims[1]}"))
    return out


def explicit_total_mfi(state, u):
    return sum(mfi(state, u, h) for h in hermitian_basis(state.dim_b))


def explicit_distance(state, u):
    diff = state.rho - measured_state(state, u).rho
    return float(np.sum(np.abs(diff) ** 2))


class TestMeasureA:
    @pytest.mark.parametrize("dims", DIMS)
    def test_blocks_match_sandwiched_state(self, dims):
        m, n = dims
        state = mixed_state(dims, 3, m * n)
        u = haar_unitary(m, 4)
        blocks = measure_a(state, u)
        assert blocks.shape == (m, n, n)
        for k in range(m):
            bra = np.kron(u[:, k].conj()[None, :], np.eye(n))
            np.testing.assert_allclose(blocks[k], bra @ state.rho @ bra.conj().T, atol=1e-14)
        np.testing.assert_allclose(blocks.sum(axis=0), state.marginal("b"), atol=1e-14)

    def test_directions_must_live_on_party_a(self):
        state = mixed_state((2, 3), 3, 6)
        with pytest.raises(ShapeError):
            measure_a(state, np.eye(3))

    def test_dark_outcome_gives_zero_block(self):
        state = dark_outcome_state((3, 2), 7)
        blocks = measure_a(state, np.eye(3))
        assert np.max(np.abs(blocks[2])) <= 1e-15


class TestBatchedObjectives:
    @pytest.mark.parametrize("state, u", cases())
    def test_total_mfi_matches_per_observable_sum(self, state, u):
        assert abs(total_mfi(state, u) - explicit_total_mfi(state, u)) <= 1e-12

    @pytest.mark.parametrize("state, u", cases())
    def test_entropic_objective_is_the_information_loss(self, state, u):
        expected = mutual_information(state) - mutual_information(measured_state(state, u))
        assert abs(entropic_objective(state)(u) - expected) <= 1e-12

    @pytest.mark.parametrize("state, u", cases())
    def test_geometric_objective_is_distance_to_measured_state(self, state, u):
        assert abs(geometric_objective(state)(u) - explicit_distance(state, u)) <= 1e-12

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("seed", range(4))
    def test_geometric_objective_nonnegative_at_classical_basis(self, dims, seed):
        # ||rho||^2 - sum_n ||B_n||^2 would cancel to about -1e-16 on many of these
        m, n = dims
        basis = haar_unitary(m, 60 + seed)
        probs = np.random.default_rng(61 + seed).dirichlet(np.ones(m))
        sigmas = [random_density(n, n, 62 + 7 * seed + k) for k in range(m)]
        state = make_cq(probs, basis, sigmas)
        value = geometric_objective(state)(basis)
        assert 0.0 <= value <= 1e-12

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        m=st.integers(2, 4),
        n=st.integers(2, 4),
        rank=st.integers(1, 16),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_identities_hold_on_random_states(self, m, n, rank, seed):
        state = mixed_state((m, n), seed, min(rank, m * n))
        u = haar_unitary(m, seed + 1)
        assert abs(total_mfi(state, u) - explicit_total_mfi(state, u)) <= 1e-12
        expected = mutual_information(state) - mutual_information(measured_state(state, u))
        assert abs(entropic_objective(state)(u) - expected) <= 1e-12
        assert abs(geometric_objective(state)(u) - explicit_distance(state, u)) <= 1e-12
