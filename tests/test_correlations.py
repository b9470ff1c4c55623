"""Local observables, conditional ensembles, MFI, and the two quantifiers."""

import numpy as np
import pytest

from qfc import (
    BipartiteState,
    OptimizerConfig,
    OrthonormalityError,
    PurityError,
    ShapeError,
    dag,
    entropic_discord,
    hermitian_basis,
    lift_a,
    lift_b,
    make_cc,
    make_cq,
    make_witness_state,
    max_entangled,
    measured_state,
    measurement_correlation,
    measurement_projectors,
    mutual_information,
    observable_correlation,
    pure_from_schmidt,
    pure_state_correlation,
    qfi,
    qfi_weight_matrix,
    random_pure,
    total_local_qfi_b,
    total_mfi,
    unitary_from_params,
    variance,
    werner,
)
from qfc.linalg import eigh, partial_trace
from qfc.states import haar_unitary, random_density, random_hermitian
from qfc.verify import _random_cc, _random_cq

from oracles import (
    basis_qfi_sum,
    bloch_measurement,
    conditional_states,
    mfi,
    schmidt,
    state_vector,
)
from test_gradients import qah_objective

SZ = np.diag([1.0, -1.0]).astype(complex)

CFG = OptimizerConfig(restarts=8, seed=0)


def random_mixed(dims, seed, rank=None):
    d = dims[0] * dims[1]
    return BipartiteState(random_density(d, rank or d, seed), *dims)


def rotated_bases(dim, seed, count):
    """The canonical observable basis of C^dim and ``count`` orthogonal mixings of it."""
    canonical = hermitian_basis(dim)
    rng = np.random.default_rng(seed)
    bases = [canonical]
    for _ in range(count):
        mix, _ = np.linalg.qr(rng.standard_normal((dim * dim, dim * dim)))
        bases.append(np.einsum("vu,uij->vij", mix, canonical))
    return bases


def _pure_local_qfi_b(state, h_b):
    """Closed-form local QFI on party b of a pure state, from its Schmidt data.

    ``sum_i s_i <b_i|H^2|b_i> - (sum_i s_i <b_i|H|b_i>)^2``.
    """
    sd = schmidt(state_vector(state), state.dims)
    bh = dag(sd.b_vectors) @ h_b @ sd.b_vectors
    bh2 = dag(sd.b_vectors) @ (h_b @ h_b) @ sd.b_vectors
    s = sd.coefficients
    return float(np.real(np.sum(s * np.diagonal(bh2))) - np.real(np.sum(s * np.diagonal(bh))) ** 2)


def _pure_mfi_b(state, u, h_b):
    """Closed-form measurement-induced Fisher information of a pure state.

    Every conditional state is pure, so the value is ``sum_i s_i <b_i|H^2|b_i>
    - sum_n A_n^2 / p(n)`` with ``A_n = sum_ij sqrt(s_i s_j) <a_j|n><n|a_i>
    <b_j|H|b_i>``; outcomes below probability 1e-12 are dropped.
    """
    sd = schmidt(state_vector(state), state.dims)
    bh = dag(sd.b_vectors) @ h_b @ sd.b_vectors
    bh2 = dag(sd.b_vectors) @ (h_b @ h_b) @ sd.b_vectors
    s = sd.coefficients
    second = float(np.real(np.sum(s * np.diagonal(bh2))))
    weighted = (dag(u) @ sd.a_vectors) * np.sqrt(s)[None, :]  # <n|a_i> sqrt(s_i)
    probs = np.sum(np.abs(weighted) ** 2, axis=1)
    reduction = 0.0
    for n in range(u.shape[1]):
        if probs[n] > 1e-12:
            amp = float(np.real(weighted[n].conj() @ bh @ weighted[n]))
            reduction += amp**2 / probs[n]
    return second - reduction


class TestLifts:
    def test_lift_a_definition(self):
        np.testing.assert_array_equal(lift_a(SZ, 2), np.kron(SZ, np.eye(2)))

    def test_lift_b_identity(self):
        np.testing.assert_array_equal(lift_b(np.eye(3), 2), np.eye(6))

    @pytest.mark.parametrize("lift, name", [(lift_a, "dim_b"), (lift_b, "dim_a")])
    @pytest.mark.parametrize("dim", [0, -1, 1.5, True])
    def test_lifts_check_the_other_dimension(self, lift, name, dim):
        with pytest.raises(ShapeError, match=f"{name} must be an integer >= 1"):
            lift(SZ, dim)

    @pytest.mark.parametrize("seed", range(3))
    def test_lifted_b_qfi_invariant_under_unitary_on_a(self, seed):
        state = random_mixed((2, 3), seed)
        h = random_hermitian(3, 40 + seed)
        u = np.kron(haar_unitary(2, seed), np.eye(3))
        rotated = BipartiteState(u @ state.rho @ dag(u), 2, 3)
        before = qfi(state.rho, lift_b(h, 2))
        after = qfi(rotated.rho, lift_b(h, 2))
        assert abs(before - after) <= 1e-9


class TestMeasurementProjectors:
    def test_rejects_a_vector(self):
        with pytest.raises(ShapeError, match="measurement"):
            measurement_projectors(np.ones(2))

    def test_rejects_non_orthonormal_columns(self):
        with pytest.raises(OrthonormalityError, match="measurement"):
            measurement_projectors(np.ones((2, 2)))


class TestTotalLocalQfiB:
    def test_maximally_mixed_gives_zero(self):
        state = BipartiteState(np.eye(6) / 6, 2, 3)
        assert total_local_qfi_b(state) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_invariant_under_orthogonal_basis_mixing(self, seed):
        state = random_mixed((2, 3), seed)
        basis_free = total_local_qfi_b(state)
        for basis in rotated_bases(3, seed, 2):
            explicit = sum(qfi(state.rho, lift_b(h, 2)) for h in basis)
            assert abs(explicit - basis_free) <= 1e-9

    @pytest.mark.parametrize("dims", [(1, 3), (3, 1), (2, 3), (3, 3), (3, 4)])
    @pytest.mark.parametrize("kind", ["full rank", "rank 2", "cq", "cc"])
    def test_matches_the_explicit_basis_sum(self, dims, kind):
        # one QFI per element of the canonical basis of b, on states with
        # kernels and on classical states, where many weights vanish
        seed = 10 * dims[0] + dims[1]
        state = {
            "full rank": lambda: random_mixed(dims, seed),
            "rank 2": lambda: random_mixed(dims, seed, rank=2),
            "cq": lambda: _random_cq(dims, seed),
            "cc": lambda: _random_cc(dims, seed),
        }[kind]()
        explicit = sum(qfi(state.rho, lift_b(h, dims[0])) for h in hermitian_basis(dims[1]))
        assert abs(total_local_qfi_b(state) - explicit) <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_spectral_oracle(self, seed):
        # independent identity: sum_mu QFI = sum_ij w_ij || tr_a |psi_j><psi_i| ||^2
        state = random_mixed((2, 3), 100 + seed)
        spectrum = eigh(state.rho)
        w = qfi_weight_matrix(spectrum.values)
        k = state.dim
        oracle = 0.0
        for i in range(k):
            for j in range(k):
                cross = np.outer(spectrum.vectors[:, j], spectrum.vectors[:, i].conj())
                reduced = partial_trace(cross, state.dims, "b")
                oracle += w[i, j] * float(np.sum(np.abs(reduced) ** 2))
        assert abs(total_local_qfi_b(state) - oracle) <= 1e-9


class TestConditionalStates:
    def test_cq_blocks_are_the_constructed_sigmas(self):
        sigmas = [random_density(2, 2, j) for j in range(2)]
        state = make_cq([0.4, 0.6], np.eye(2), sigmas)
        ensemble = conditional_states(state, np.eye(2))
        np.testing.assert_allclose(ensemble.probs, [0.4, 0.6], atol=1e-12)
        np.testing.assert_allclose(ensemble.states[0], sigmas[0], atol=1e-12)
        np.testing.assert_allclose(ensemble.states[1], sigmas[1], atol=1e-12)

    def test_bell_conditionals_follow_the_outcome(self):
        ensemble = conditional_states(max_entangled(2), np.eye(2))
        np.testing.assert_allclose(ensemble.probs, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(ensemble.states[0], np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(ensemble.states[1], np.diag([0.0, 1.0]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_marginal_consistency(self, seed):
        state = random_mixed((3, 2), seed)
        u = haar_unitary(3, seed)
        ensemble = conditional_states(state, u)
        assert abs(ensemble.probs.sum() + ensemble.dropped_mass - 1.0) <= 1e-10
        recombined = sum(p * s for p, s in zip(ensemble.probs, ensemble.states))
        np.testing.assert_allclose(recombined, state.marginal("b"), atol=1e-10)
        for sigma in ensemble.states:
            assert np.linalg.eigvalsh(sigma)[0] >= -1e-12
            assert abs(np.trace(sigma) - 1.0) <= 1e-10

    def test_dark_outcome_dropped_with_mass_reported(self):
        # state supported on |0>_a only: outcome |1>_a never fires
        state = make_cq([1.0], np.eye(2)[:, :1], [np.eye(2) / 2])
        ensemble = conditional_states(state, np.eye(2))
        assert ensemble.probs.size == 1
        assert ensemble.dropped_mass <= 1e-12


class TestMfi:
    def test_cq_state_equals_local_qfi_at_classical_basis(self):
        sigmas = [random_density(3, 3, j) for j in range(2)]
        state = make_cq([0.3, 0.7], np.eye(2), sigmas)
        h = random_hermitian(3, 77)
        assert abs(mfi(state, np.eye(2), h) - qfi(state.rho, lift_b(h, 2))) <= 1e-8

    def test_pure_product_state_gives_b_variance(self):
        state = pure_from_schmidt([1.0], (2, 2))
        h = random_hermitian(2, 3)
        sigma_b = state.marginal("b")
        assert abs(mfi(state, np.eye(2), h) - variance(sigma_b, h)) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_never_exceeds_local_qfi(self, seed):
        state = random_mixed((2, 3), seed)
        u = haar_unitary(2, seed)
        h = random_hermitian(3, 200 + seed)
        assert mfi(state, u, h) <= qfi(state.rho, lift_b(h, 2)) + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_qfi_of_dephased_state(self, seed):
        state = random_mixed((2, 2), 50 + seed)
        u = haar_unitary(2, 10 + seed)
        h = random_hermitian(2, 300 + seed)
        dephased = measured_state(state, u)
        assert abs(mfi(state, u, h) - qfi(dephased.rho, lift_b(h, 2))) <= 1e-8


class TestTotalMfi:
    def test_maximally_mixed_gives_zero(self):
        state = BipartiteState(np.eye(4) / 4, 2, 2)
        assert total_mfi(state, np.eye(2)) <= 1e-12

    def test_cq_equality_at_classical_basis(self):
        basis = haar_unitary(3, 4)
        sigmas = [random_density(2, 2, j) for j in range(3)]
        state = make_cq([0.2, 0.5, 0.3], basis, sigmas)
        assert abs(total_mfi(state, basis) - total_local_qfi_b(state)) <= 1e-8

    def test_matches_per_observable_sum(self):
        state = random_mixed((2, 3), 9)
        u = haar_unitary(2, 9)
        basis_free = total_mfi(state, u)
        for basis in rotated_bases(3, 9, 2):
            explicit = sum(mfi(state, u, h) for h in basis)
            assert abs(basis_free - explicit) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_pure_states_measurement_independent(self, seed):
        state = random_pure((2, 3), seed)
        values = [total_mfi(state, haar_unitary(2, 20 + seed * 10 + k)) for k in range(4)]
        assert max(values) - min(values) <= 1e-8


class TestPureClosedForms:
    def test_product_state_both_equal_b_variance(self):
        state = pure_from_schmidt([1.0], (2, 3))
        h = random_hermitian(3, 1)
        v = variance(state.marginal("b"), h)
        assert abs(_pure_local_qfi_b(state, h) - v) <= 1e-10
        assert abs(_pure_mfi_b(state, np.eye(2), h) - v) <= 1e-10

    def test_bell_with_sz_frozen_values(self):
        state = max_entangled(2)
        # local QFI 1 (variance of sz in I/2); conditionals are sz eigenstates
        assert abs(_pure_local_qfi_b(state, SZ) - 1.0) <= 1e-12
        assert abs(_pure_mfi_b(state, np.eye(2), SZ)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_closed_forms_match_generic_paths(self, seed):
        state = random_pure((3, 3), 400 + seed)
        h = random_hermitian(3, 500 + seed)
        u = haar_unitary(3, 600 + seed)
        assert abs(_pure_local_qfi_b(state, h) - qfi(state.rho, lift_b(h, 3))) <= 1e-8
        assert abs(_pure_mfi_b(state, u, h) - mfi(state, u, h)) <= 1e-8

    def test_mixed_input_rejected(self):
        mixed = BipartiteState(np.eye(4) / 4, 2, 2)
        with pytest.raises(PurityError):
            _pure_local_qfi_b(mixed, SZ)
        with pytest.raises(PurityError):
            pure_state_correlation(mixed)


class TestPureStateCorrelation:
    def test_product_state_gives_zero(self):
        assert pure_state_correlation(pure_from_schmidt([1.0], (2, 3))) <= 1e-12

    def test_bell_gives_half(self):
        assert abs(pure_state_correlation(max_entangled(2)) - 0.5) <= 1e-12

    def test_uniform_three_gives_two_thirds(self):
        assert abs(pure_state_correlation(max_entangled(3)) - 2 / 3) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 2)])
    def test_matches_the_schmidt_oracle(self, dims):
        # 1 - tr rho_a^2 of the reduced state against 1 - sum c_i^2 from an SVD
        for seed in range(6):
            state = random_pure(dims, 50 + seed)
            coefficients = schmidt(state_vector(state), dims).coefficients
            assert abs(pure_state_correlation(state) - (1.0 - np.sum(coefficients**2))) <= 1e-14


class TestBasisQfiSum:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_literal_per_projector_qfi(self, seed):
        state = random_mixed((2, 3), 700 + seed)
        u = haar_unitary(2, 800 + seed)
        assert abs(qah_objective(state)(u)[0] - basis_qfi_sum(state, u)) <= 1e-10

    def test_gauge_invariance_under_phases_and_permutations(self):
        state = random_mixed((3, 2), 31)
        u = haar_unitary(3, 32)
        rng = np.random.default_rng(33)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        permuted = (u * phases)[:, rng.permutation(3)]
        objective = qah_objective(state)
        assert abs(objective(u)[0] - objective(permuted)[0]) <= 1e-12

    def test_landscape_is_locally_smooth(self):
        state = random_mixed((2, 2), 77)
        rng = np.random.default_rng(78)
        p0 = rng.normal(0, 1, 4)
        direction = rng.normal(0, 1, 4)
        direction /= np.linalg.norm(direction)
        objective = qah_objective(state)
        f0 = objective(unitary_from_params(p0, 2))[0]
        ratios = []
        for eps in (1e-3, 1e-4):
            f1 = objective(unitary_from_params(p0 + eps * direction, 2))[0]
            ratios.append((f1 - f0) / eps)
        # directional difference quotients agree across scales and stay bounded
        assert abs(ratios[0] - ratios[1]) <= 0.05 * max(1.0, abs(ratios[0]))
        assert all(abs(r) < 50 for r in ratios)


class TestObservableCorrelation:
    def test_bell_reaches_one_half(self):
        result = observable_correlation(max_entangled(2), CFG)
        assert abs(result.value - 0.5) <= 1e-4
        assert result.converged

    def test_pure_schmidt_08_02(self):
        result = observable_correlation(pure_from_schmidt([0.8, 0.2], (2, 2)), CFG)
        assert abs(result.value - 0.32) <= 1e-4

    def test_cq_state_vanishes(self):
        state = make_cq(
            [0.3, 0.7], haar_unitary(2, 1), [random_density(2, 2, j) for j in range(2)]
        )
        assert abs(observable_correlation(state, CFG).value) <= 1e-6

    def test_argopt_is_an_orthonormal_basis(self):
        result = observable_correlation(max_entangled(2), CFG)
        u = result.argopt
        assert np.linalg.norm(dag(u) @ u - np.eye(2)) <= 1e-10
        assert abs(basis_qfi_sum(max_entangled(2), u) - result.value) <= 1e-10


PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def qubit_a_closed_form(state):
    """``qah = lambda_min(K) / 2`` for a qubit party a, with no search.

    The projectors of a qubit basis are ``(1 +- n.sigma)/2``; their QFIs are
    each ``n^T K n / 4`` for ``K_kl = sum_ij w_ij Re(<psi_i|s_k|psi_j>
    <psi_j|s_l|psi_i>)``, ``s_k = sigma_k (x) 1``, so the minimum over unit n
    is half the least eigenvalue of K.
    """
    spectrum = eigh(state.rho)
    w = qfi_weight_matrix(spectrum.values)
    v = spectrum.vectors
    s = np.array([dag(v) @ np.kron(p, np.eye(state.dim_b)) @ v for p in PAULIS])
    k = np.einsum("ij,kij,lij->kl", w, s, s.conj()).real
    return 0.5 * float(np.linalg.eigvalsh(k)[0])


#: Mixed qubit-a states (dims, seed, rank): 2 x n, full rank and rank 2, four seeds each.
QUBIT_A_STATES = [
    ((2, n), 300 + 10 * n + k, rank) for n in (2, 3, 4) for rank in (2 * n, 2) for k in range(4)
]


class TestQubitClosedForm:
    """The library's qubit-a closed form and the search against the Kronecker oracle."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("full_rank", [True, False], ids=["full", "rank2"])
    def test_search_matches_closed_form(self, n, full_rank):
        for k in range(4):
            rank = 2 * n if full_rank else 2
            state = random_mixed((2, n), 300 + 10 * n + k, rank)
            cfg = OptimizerConfig(restarts=4, tolerance=1e-10, seed=k)
            result = observable_correlation(state, cfg, method="optimized")
            assert result.method == "optimized" and result.report is not None
            assert result.converged
            assert abs(result.value - qubit_a_closed_form(state)) <= 1e-9

    def test_closed_form_on_pure_states(self):
        for dims in ((2, 2), (2, 3)):
            state = random_pure(dims, 11)
            assert abs(qubit_a_closed_form(state) - pure_state_correlation(state)) <= 1e-12

    @pytest.mark.parametrize("dims, seed, rank", QUBIT_A_STATES)
    def test_library_closed_form_matches_the_oracle_and_its_basis(self, dims, seed, rank):
        state = random_mixed(dims, seed, rank)
        result = observable_correlation(state)
        assert result.method == "closed-form" and result.report is None
        assert abs(result.value - qubit_a_closed_form(state)) <= 1e-12
        assert abs(basis_qfi_sum(state, result.argopt) - result.value) <= 1e-12

    @pytest.mark.parametrize(
        "state",
        [BipartiteState(np.eye(4) / 4, 2, 2), BipartiteState(np.eye(6) / 6, 2, 3),
         werner(0.3), werner(0.7)],
        ids=["I/4", "I/6", "werner-0.3", "werner-0.7"],
    )
    def test_degenerate_k(self, state):
        # K = 0 for the maximally mixed states and a multiple of the identity
        # for Werner states: every basis is optimal
        result = observable_correlation(state)
        assert abs(result.value - qubit_a_closed_form(state)) <= 1e-12
        assert abs(basis_qfi_sum(state, result.argopt) - result.value) <= 1e-12
        for seed in range(3):
            assert abs(basis_qfi_sum(state, haar_unitary(2, seed)) - result.value) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4)])
    def test_pure_states_equal_the_pure_closed_form(self, dims):
        for seed in range(3):
            state = random_pure(dims, 40 + seed)
            result = observable_correlation(state)
            assert result.method == "closed-form"
            assert abs(result.value - pure_state_correlation(state)) <= 1e-12
        state = pure_from_schmidt([1.0], dims)
        assert abs(observable_correlation(state).value) <= 1e-12

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            observable_correlation(max_entangled(2), CFG, method="closed-form")


class TestMeasurementCorrelation:
    def test_bell_reaches_one_half(self):
        # the search: the default takes the closed form on a pure state
        result = measurement_correlation(max_entangled(2), CFG, method="optimized")
        assert abs(result.value - 0.5) <= 1e-4

    def test_cc_state_vanishes(self):
        state = make_cc([0.6, 0.4], (2, 3), haar_unitary(2, 5), haar_unitary(3, 6)[:, :2])
        assert abs(measurement_correlation(state, CFG).value) <= 1e-6

    def test_singlet_werner_limit(self):
        from qfc import werner

        result = measurement_correlation(werner(1.0), CFG)
        assert abs(result.value - 0.5) <= 1e-4

    def test_mixed_werner_matches_measurement_grid(self):
        from qfc import werner

        state = werner(0.5)
        result = measurement_correlation(state, CFG)
        best = -np.inf
        for theta in np.linspace(0, np.pi, 25):
            for phi in np.linspace(0, 2 * np.pi, 49, endpoint=False):
                best = max(best, total_mfi(state, bloch_measurement(theta, phi)))
        grid_value = total_local_qfi_b(state) - best
        assert abs(result.value - grid_value) <= 1e-3

    def test_value_never_negative_beyond_tolerance(self):
        state = random_mixed((2, 2), 91)
        assert measurement_correlation(state, CFG).value >= -1e-6


class TestQuantifierProperties:
    @pytest.mark.parametrize("seed", range(2))
    def test_local_unitary_invariance(self, seed):
        state = random_mixed((2, 2), 900 + seed)
        u = np.kron(haar_unitary(2, seed), haar_unitary(2, 70 + seed))
        rotated = BipartiteState(u @ state.rho @ dag(u), 2, 2)
        for quantifier in (observable_correlation, measurement_correlation):
            a = quantifier(state, CFG).value
            b = quantifier(rotated, CFG).value
            assert abs(a - b) <= 2e-6

    def test_two_by_n_commuting_projector_implies_zero(self):
        # classical on a with a commuting rank-1 projector: quantifier vanishes
        state = make_cq(
            [0.5, 0.5], haar_unitary(2, 8), [random_density(3, 3, j) for j in range(2)]
        )
        proj = np.outer(haar_unitary(2, 8)[:, 0], haar_unitary(2, 8)[:, 0].conj())
        assert qfi(state.rho, lift_a(proj, 3)) <= 1e-10
        assert abs(observable_correlation(state, CFG).value) <= 1e-6

    def test_witness_state_has_zero_projector_but_positive_value(self):
        state = make_witness_state()
        proj = np.zeros((3, 3))
        proj[0, 0] = 1.0
        assert qfi(state.rho, lift_a(proj, 2)) <= 1e-12
        assert observable_correlation(state, CFG).value >= 1e-3

    def test_hierarchy_total_mfi_below_total_local_qfi(self):
        for seed in range(5):
            state = random_mixed((2, 3), 1000 + seed)
            u = haar_unitary(2, 1100 + seed)
            assert total_mfi(state, u) <= total_local_qfi_b(state) + 1e-9


SEARCH_ONCE = OptimizerConfig(restarts=1, seed=0)


def _cc_3x3():
    return make_cc([0.5, 0.3, 0.2], (3, 3), haar_unitary(3, 1), haar_unitary(3, 2))


@pytest.mark.parametrize("build, solve, method", [
    (_cc_3x3, observable_correlation, "certified-zero"),
    (lambda: random_mixed((3, 3), 4), lambda s: observable_correlation(s, SEARCH_ONCE), "optimized"),
    (lambda: random_mixed((2, 3), 4), observable_correlation, "closed-form"),
    (lambda: random_mixed((3, 3), 4), lambda s: measurement_correlation(s, SEARCH_ONCE), "optimized"),
    (lambda: random_mixed((3, 3), 4), lambda s: entropic_discord(s, SEARCH_ONCE), "optimized"),
    (lambda: random_mixed((3, 3), 4), total_local_qfi_b, None),
    (lambda: random_mixed((3, 3), 4), mutual_information, None),
], ids=["qah-certified-3x3", "qah-searched-3x3", "qah-qubit-2x3", "qapi", "entropic_discord",
        "total_local_qfi_b", "mutual_information"])
def test_rho_is_decomposed_once_at_construction(build, solve, method, monkeypatch):
    # every eigh/eigvalsh input, in order: building the state decomposes rho
    # once, and the solve reads the spectrum the state kept
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, f=original, **k: calls.append(a) or f(a, **k))
    state = build()
    built = len(calls)
    result = solve(state)
    if method is not None:
        assert result.method == method
    rho = [a.shape == state.rho.shape and np.allclose(a, state.rho) for a in calls]
    assert rho[:built].count(True) == 1
    assert not any(rho[built:])
