"""State constructors, validation, random ensembles, and Kraus channels."""

import numpy as np
import pytest

from qfc import (
    BipartiteState,
    HermiticityError,
    KrausChannel,
    NormalizationError,
    OrthonormalityError,
    PositivityError,
    PurityError,
    ShapeError,
    TraceError,
    ValidationError,
    apply_channel_b,
    dag,
    make_cc,
    make_cq,
    make_witness_state,
    max_entangled,
    haar_unitary,
    pure_from_schmidt,
    pure_state,
    random_density,
    random_kraus_channel,
    random_pure,
    validate_density,
    werner,
)

from oracles import schmidt, state_vector


# Each constructor with one invalid input, and the typed error it raises.
INVALID_INPUTS = {
    "probs-count": (lambda: make_cq([0.5, 0.5], np.eye(2)[:, :1], [np.eye(2) / 2]), ShapeError),
    "probs-negative": (lambda: pure_from_schmidt([1.2, -0.2], (2, 2)), ValidationError),
    "cq-sigma-count": (lambda: make_cq([0.5, 0.5], np.eye(2), [np.eye(2) / 2]), ShapeError),
    "cq-sigma-shapes": (
        lambda: make_cq([0.5, 0.5], np.eye(2), [np.eye(2) / 2, np.eye(3) / 3]), ShapeError),
    "cc-too-many-terms": (lambda: make_cc([0.5, 0.3, 0.2], (2, 3)), ShapeError),
    "witness-small-party-b": (lambda: make_witness_state(dims=(3, 1)), ValidationError),
    "witness-amplitude-count": (lambda: make_witness_state(a=(1.0,)), ShapeError),
    "kraus-empty": (lambda: KrausChannel(()), ShapeError),
    "kraus-mixed-shapes": (lambda: KrausChannel((np.eye(2), np.eye(3))), ShapeError),
    "random-kraus-no-operator": (lambda: random_kraus_channel(2, 0, 0), ValidationError),
    # the checks of linalg.require_state_vector
    "pure-state-unnormalized": (
        lambda: pure_state(np.array([1.0, 1.0, 0.0, 0.0]), (2, 2)), NormalizationError),
    "pure-state-length": (lambda: pure_state(np.array([1.0, 0.0, 0.0]), (2, 2)), ShapeError),
}


@pytest.mark.parametrize("case", INVALID_INPUTS)
def test_invalid_input_raises_its_typed_error(case):
    build, error = INVALID_INPUTS[case]
    with pytest.raises(error):
        build()


class TestValidateDensity:
    def test_maximally_mixed_is_valid(self):
        validate_density(np.eye(2) / 2)

    def test_trace_violation(self):
        with pytest.raises(TraceError):
            validate_density(np.diag([0.6, 0.5]))

    def test_positivity_violation(self):
        with pytest.raises(PositivityError):
            validate_density(np.diag([1.2, -0.2]))

    def test_hermiticity_violation(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(HermiticityError):
            validate_density(m)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            validate_density(np.ones((2, 3)))


class TestBipartiteState:
    def test_dims_must_factor_the_matrix(self):
        with pytest.raises(ShapeError):
            BipartiteState(np.eye(4) / 4, 2, 3)

    @pytest.mark.parametrize("dims", [(-2, -2), (2.0, 2.0), (True, 4)], ids=["negative", "float", "bool"])
    def test_dims_must_be_positive_integers(self, dims):
        # each product matches rho's size, so only the type and sign check refuses them
        with pytest.raises(ShapeError, match="must be an integer >= 1"):
            BipartiteState(np.eye(4) / 4, *dims)

    def test_numpy_integer_dims_are_stored_as_int(self):
        state = BipartiteState(np.eye(4) / 4, np.int64(2), np.int32(2))
        assert state.dims == (2, 2) and all(type(d) is int for d in state.dims)

    @pytest.mark.parametrize(
        "rho, error",
        [
            (2 * max_entangled(2).rho, TraceError),
            (np.diag([1.5, -0.5, 0.0, 0.0]), PositivityError),
            (np.eye(4) / 4 + 0.1 * np.eye(4, k=1), HermiticityError),
        ],
        ids=["trace", "positivity", "hermiticity"],
    )
    def test_constructor_refuses_an_invalid_density(self, rho, error):
        with pytest.raises(error):
            BipartiteState(rho, 2, 2)

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    def test_constructor_refuses_a_non_finite_entry(self, entry):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = rho[1, 0] = entry
        with pytest.raises(ValidationError, match="non-finite"):
            BipartiteState(rho, 2, 2)

    def test_marginals_and_purity(self):
        state = max_entangled(2)
        np.testing.assert_allclose(state.marginal("b"), np.eye(2) / 2, atol=1e-14)
        assert abs(state.purity() - 1.0) < 1e-12


class TestPureFromSchmidt:
    def test_bell_state(self):
        state = pure_from_schmidt([0.5, 0.5], (2, 2))
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / np.sqrt(2)
        np.testing.assert_allclose(state.rho, np.outer(expected, expected.conj()), atol=1e-14)

    def test_single_coefficient_is_product(self):
        state = pure_from_schmidt([1.0], (2, 3))
        assert abs(state.purity() - 1.0) < 1e-12
        sd = schmidt(state_vector(state), (2, 3))
        assert sd.coefficients.size == 1

    def test_purity_one_by_construction(self):
        state = pure_from_schmidt([0.8, 0.2], (2, 2))
        assert abs(state.purity() - 1.0) < 1e-12

    def test_roundtrips_through_schmidt(self):
        coeffs = np.array([0.6, 0.3, 0.1])
        state = pure_from_schmidt(coeffs, (3, 4))
        sd = schmidt(state_vector(state), (3, 4))
        np.testing.assert_allclose(sd.coefficients, coeffs, atol=1e-10)

    def test_rejects_bad_sum(self):
        with pytest.raises(NormalizationError):
            pure_from_schmidt([0.8, 0.3], (2, 2))

    def test_rejects_too_many_coefficients(self):
        with pytest.raises(ShapeError):
            pure_from_schmidt([0.4, 0.3, 0.3], (2, 3))


class TestClassicalConstructions:
    def test_single_term_is_product(self):
        state = make_cq([1.0], np.eye(2)[:, :1], [np.eye(2) / 2])
        expected = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
        np.testing.assert_allclose(state.rho, expected, atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_commutes_with_its_classical_projectors(self, seed):
        rng = np.random.default_rng(seed)
        basis = haar_unitary(3, seed)
        probs = rng.dirichlet(np.ones(3))
        sigmas = [random_density(2, 2, 10 * seed + j) for j in range(3)]
        state = make_cq(probs, basis, sigmas)
        proj = np.outer(basis[:, 0], basis[:, 0].conj())
        lifted = np.kron(proj, np.eye(2))
        assert np.linalg.norm(state.rho @ lifted - lifted @ state.rho) <= 1e-12

    def test_rejects_non_orthogonal_a_vectors(self):
        tilted = np.array([[1.0, 1.0], [0.0, 1e-3]])
        with pytest.raises(OrthonormalityError):
            make_cq([0.5, 0.5], tilted, [np.eye(2) / 2, np.eye(2) / 2])

    def test_cc_state_is_diagonal_mixture(self):
        state = make_cc([0.7, 0.3], (2, 2))
        np.testing.assert_allclose(state.rho, np.diag([0.7, 0.0, 0.0, 0.3]), atol=1e-14)


class TestWitnessState:
    def test_degenerates_to_product_for_single_weight(self):
        state = make_witness_state(probs=(1.0, 0.0, 0.0))
        expected = np.zeros(6, dtype=complex)
        expected[0] = 1.0
        np.testing.assert_allclose(state.rho, np.outer(expected, expected.conj()), atol=1e-14)

    def test_commutes_with_first_projector(self):
        state = make_witness_state()
        proj = np.zeros((3, 3))
        proj[0, 0] = 1.0
        lifted = np.kron(proj, np.eye(2))
        assert np.linalg.norm(state.rho @ lifted - lifted @ state.rho) <= 1e-12

    def test_rejects_orthogonal_components(self):
        inv = 2**-0.5
        with pytest.raises(ValidationError):
            make_witness_state(a=(inv, inv), b=(inv, -inv))

    def test_rejects_small_party_a(self):
        with pytest.raises(ValidationError):
            make_witness_state(dims=(2, 2))


class TestMaxEntangled:
    def test_bell_reduced_state(self):
        state = max_entangled(2)
        np.testing.assert_allclose(state.marginal("a"), np.eye(2) / 2, atol=1e-14)

    def test_qutrit_coefficients(self):
        sd = schmidt(state_vector(max_entangled(3)), (3, 3))
        np.testing.assert_allclose(sd.coefficients, np.full(3, 1 / 3), atol=1e-12)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValidationError):
            max_entangled(1)


class TestWerner:
    def test_fully_mixed_at_zero(self):
        np.testing.assert_allclose(werner(0.0).rho, np.eye(4) / 4, atol=1e-14)

    def test_singlet_at_one(self):
        assert abs(werner(1.0).purity() - 1.0) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            werner(1.5)


class TestRandomEnsembles:
    def test_random_density_invariants(self):
        rho = random_density(4, 4, 42)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12
        validate_density(rho)

    def test_random_density_rank(self):
        rho = random_density(4, 2, 42)
        assert np.sum(np.linalg.eigvalsh(rho) > 1e-10) == 2

    def test_random_density_rejects_bad_rank(self):
        with pytest.raises(ValidationError):
            random_density(3, 4, 0)

    def test_deterministic_for_fixed_seed(self):
        assert np.array_equal(random_density(3, 3, 9), random_density(3, 3, 9))
        assert np.array_equal(haar_unitary(3, 9), haar_unitary(3, 9))

    def test_haar_unitarity(self):
        u = haar_unitary(3, 5)
        assert np.linalg.norm(dag(u) @ u - np.eye(3)) <= 1e-10

    def test_random_pure_purity(self):
        state = random_pure((2, 3), 8)
        assert abs(state.purity() - 1.0) < 1e-12

    def test_state_vector_requires_purity(self):
        with pytest.raises(PurityError):
            state_vector(werner(0.5))


class TestChannels:
    def test_rejects_incomplete_kraus_set(self):
        with pytest.raises(ValidationError):
            KrausChannel((np.diag([0.5, 0.5]),))

    def test_identity_channel_is_identity(self):
        channel = KrausChannel((np.eye(2),))
        state = random_pure((2, 2), 3)
        np.testing.assert_allclose(apply_channel_b(state, channel).rho, state.rho, atol=1e-14)

    def test_depolarizing_channel_on_bell(self):
        d = 2
        ops = tuple(
            np.outer(np.eye(d)[:, i], np.eye(d)[:, j]) / np.sqrt(d)
            for i in range(d)
            for j in range(d)
        )
        out = apply_channel_b(max_entangled(2), KrausChannel(ops))
        np.testing.assert_allclose(out.rho, np.eye(4) / 4, atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_channel_preserves_validity(self, seed):
        channel = random_kraus_channel(3, 2, seed)
        state = random_pure((2, 3), 100 + seed)
        out = apply_channel_b(state, channel)
        validate_density(out.rho)
        assert abs(np.trace(out.rho) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        channel = random_kraus_channel(3, 2, 0)
        with pytest.raises(ShapeError):
            apply_channel_b(random_pure((2, 2), 0), channel)
