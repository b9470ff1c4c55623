"""QFI, SLD, variance, and classical Fisher information of measurements."""

import numpy as np
import pytest

from qfc import (
    DegeneratePointError,
    HermiticityError,
    PositivityError,
    ShapeError,
    TraceError,
    ValidationError,
    classical_fi,
    dag,
    evolve,
    eigh,
    qfi,
    qfi_weight_matrix,
    sld,
    validate_density,
    validate_povm,
    variance,
    von_neumann_entropy,
)
from qfc.correlations import measurement_projectors
from qfc.linalg import SUPPORT_CUTOFF
from qfc.states import haar_unitary, random_density, random_hermitian

import oracles

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)  # |+><+|


FISHER = {
    "qfi": qfi,
    "variance": variance,
    "sld": sld,
    "evolve": lambda rho, h: evolve(rho, h, 0.3),
    "classical_fi": lambda rho, h: classical_fi(rho, h, [np.eye(2)]),
}


@pytest.mark.parametrize("name", FISHER)
class TestOperands:
    """The checks of every function of a state and an observable, in their order."""

    def test_shape_mismatch(self, name):
        with pytest.raises(ShapeError, match="does not match observable"):
            FISHER[name](np.eye(2) / 2, np.eye(3))

    def test_observable_is_checked_before_the_state(self, name):
        with pytest.raises(HermiticityError, match="observable"):
            FISHER[name](np.full((2, 2), np.nan), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_state_is_checked_before_the_shapes(self, name):
        with pytest.raises(HermiticityError, match="state"):
            FISHER[name](np.array([[0.5, 1.0], [0.0, 0.5]]), np.eye(3))

    def test_state_trace_and_positivity_are_checked_before_the_shapes(self, name):
        # a wrongly sized rho with a second defect raises that defect's error
        with pytest.raises(TraceError, match="state"):
            FISHER[name](np.eye(2), np.eye(3))
        with pytest.raises(PositivityError, match="state"):
            FISHER[name](np.diag([1.25, -0.25]), np.eye(3))


class TestEvolve:
    def test_zero_angle_is_identity(self):
        rho = random_density(3, 3, 1)
        np.testing.assert_allclose(evolve(rho, random_hermitian(3, 2), 0.0), rho, atol=1e-14)

    def test_commuting_generator_leaves_state_fixed(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        np.testing.assert_allclose(evolve(rho, SZ, 0.83), rho, atol=1e-12)

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_angle(self, theta):
        with pytest.raises(ValidationError, match="theta"):
            evolve(np.eye(2) / 2, SX, theta)

    def test_spectrum_preserved_under_rotation(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        rotated = evolve(rho, SX, np.pi / 4)
        before = np.sort(np.linalg.eigvalsh(rho))
        after = np.sort(np.linalg.eigvalsh(rotated))
        np.testing.assert_allclose(before, after, atol=1e-10)
        assert np.linalg.norm(rotated - rho) > 0.1


class TestSld:
    def test_commuting_pair_gives_zero(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert np.linalg.norm(sld(rho, SZ)) <= 1e-12

    def test_pure_state_equals_twice_commutator(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        expected = 2j * (rho @ SX - SX @ rho)
        assert np.linalg.norm(sld(rho, SX) - expected) <= 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_defining_equation_residual(self, seed):
        rho = random_density(4, 4, seed)
        h = random_hermitian(4, 1000 + seed)
        l = sld(rho, h)
        commutator = 1j * (rho @ h - h @ rho)
        assert np.linalg.norm(commutator - (l @ rho + rho @ l) / 2) <= 1e-9
        assert np.linalg.norm(l - dag(l)) <= 1e-10

    def test_equals_the_masked_division_oracle_byte_for_byte(self):
        # random full-rank and rank-deficient pairs at d = 2 to 5, and
        # diagonal states with pairs outside the support that sum to exactly
        # 0: the same bytes, the sign of every zero included
        pairs = []
        for seed in range(400):
            d = 2 + seed % 4
            rank = d if seed % 2 else 1 + (seed // 2) % d
            pairs.append((random_density(d, rank, seed), random_hermitian(d, 10_000 + seed)))
        for d in (2, 3, 4):
            pure = np.diag(np.eye(d)[0]).astype(complex)
            mixed = np.diag(np.r_[np.full(d - 1, 1.0 / (d - 1)), 0.0]).astype(complex)
            for h in (random_hermitian(d, d), np.diag(np.arange(d)), np.zeros((d, d))):
                pairs += [(pure, h), (mixed, -h), (np.eye(d) / d, h)]
        for rho, h in pairs:
            assert sld(rho, h).tobytes() == oracles.sld(rho, h).tobytes()


class TestQfi:
    def test_maximally_mixed_gives_zero(self):
        assert qfi(np.eye(3) / 3, random_hermitian(3, 0)) <= 1e-14

    def test_hand_computed_value(self):
        # eigenbasis of diag(3/4, 1/4): two off-diagonal terms (1/2)^2/2 each
        assert abs(qfi(np.diag([0.75, 0.25]).astype(complex), SX) - 0.25) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_pure_state_reduces_to_variance(self, seed):
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        h = random_hermitian(3, 10 + seed)
        assert abs(qfi(rho, h) - variance(rho, h)) <= 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_bounded_by_variance(self, seed):
        rho = random_density(3, 2 + seed % 2, seed)
        h = random_hermitian(3, 500 + seed)
        f = qfi(rho, h)
        assert f >= 0.0
        assert f <= variance(rho, h) + 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_convexity_in_the_state(self, seed):
        rng = np.random.default_rng(seed)
        lam = rng.dirichlet(np.ones(3))
        parts = [random_density(3, 3, 100 * seed + j) for j in range(3)]
        h = random_hermitian(3, 900 + seed)
        mixed = sum(l * r for l, r in zip(lam, parts))
        assert qfi(mixed, h) <= sum(l * qfi(r, h) for l, r in zip(lam, parts)) + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_unitary_covariance(self, seed):
        rho = random_density(3, 3, seed)
        h = random_hermitian(3, 50 + seed)
        u = haar_unitary(3, seed)
        rotated = qfi(u @ rho @ dag(u), u @ h @ dag(u))
        assert abs(rotated - qfi(rho, h)) <= 1e-9



RHO_ONCE = [("eigh", True)]


@pytest.mark.parametrize("fn, expected", [
    (qfi, RHO_ONCE),
    (sld, RHO_ONCE),
    (variance, RHO_ONCE),
    # then the one decomposition of h that builds the unitary
    (lambda rho, h: evolve(rho, h, 0.3), RHO_ONCE + [("eigh", False)]),
    # then one positivity check of the three POVM elements, stacked
    (lambda rho, h: classical_fi(rho, h, [np.diag(row) for row in np.eye(3)]),
     RHO_ONCE + [("eigh", False)]),
    (lambda rho, h: validate_density(rho), RHO_ONCE),
    (lambda rho, h: von_neumann_entropy(rho), RHO_ONCE),
], ids=["qfi", "sld", "variance", "evolve", "classical_fi", "validate_density",
        "von_neumann_entropy"])
def test_rho_is_decomposed_once(fn, expected, monkeypatch):
    # every eigh/eigvalsh call, in order, and whether it decomposed rho: the
    # density check reads rho's lowest eigenvalue off the one eigh, which qfi,
    # sld and von_neumann_entropy also read their spectrum from
    rho = random_density(3, 2, 4)
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, f=original, n=name, **k:
                            calls.append((n, np.allclose(a, rho))) or f(a, **k))
    fn(rho, random_hermitian(3, 5))
    assert calls == expected


class TestQfiWeightMatrix:
    def test_hand_computed_weights_and_cutoff(self):
        w = qfi_weight_matrix(np.array([0.75, 0.25, 0.0]))
        # (1/2)^2 / 2 between the two support values, p/2 against the kernel
        expected = np.array([[0.0, 0.125, 0.375], [0.125, 0.0, 0.125], [0.375, 0.125, 0.0]])
        np.testing.assert_allclose(w, expected, atol=1e-15)

    def test_stack_matches_each_spectrum(self):
        spectra = np.random.default_rng(3).random((4, 3))
        spectra[1, :2] = 0.0  # a pair below the support cutoff
        stacked = qfi_weight_matrix(spectra)
        assert stacked.shape == (4, 3, 3)
        for k in range(4):
            np.testing.assert_array_equal(stacked[k], qfi_weight_matrix(spectra[k]))

    def test_equals_the_masked_division_oracle_bit_for_bit(self):
        # random spectra, zeros, pairs summing to exactly the cutoff and just
        # around it, a NaN, and a stack: the same bits, the sign of every zero
        # included
        rng = np.random.default_rng(7)
        half = SUPPORT_CUTOFF / 2
        spectra = [
            rng.random(5),
            rng.dirichlet(np.ones(4)),
            np.zeros(3),
            np.array([0.5, 0.5, 0.0, -0.0]),
            np.array([half, half, 0.25, 0.75]),
            np.array([SUPPORT_CUTOFF, 0.0, np.nextafter(SUPPORT_CUTOFF, 1.0), 1.0]),
            np.array([-1e-17, 1e-17, half, 1.0]),
            np.array([np.nan, 0.25, 0.0, 0.75]),
            rng.random((2, 3, 4)),
        ]
        for values in spectra:
            got, expected = qfi_weight_matrix(values), oracles.qfi_weight_matrix(values)
            assert got.shape == expected.shape == values.shape + values.shape[-1:]
            np.testing.assert_array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
        w = qfi_weight_matrix(np.array([half, half, 1.0]))
        assert w[0, 1] == 0.0 and not np.signbit(w[0, 1])  # at the cutoff: excluded, +0.0

    def test_nan_propagates(self):
        # a NaN eigenvalue gives NaN weights, not the zero of a pair outside the support
        w = qfi_weight_matrix(np.array([np.nan, 1.0]))
        assert np.isnan(w[0]).all() and np.isnan(w[:, 0]).all()
        assert w[1, 1] == 0.0


class TestVariance:
    def test_identity_observable(self):
        assert abs(variance(random_density(3, 3, 4), np.eye(3))) <= 1e-12

    def test_plus_state_sz(self):
        assert abs(variance(PLUS, SZ) - 1.0) <= 1e-12

    def test_maximally_mixed_sz(self):
        assert abs(variance(np.eye(2) / 2, SZ) - 1.0) <= 1e-12


class TestClassicalFi:
    def test_stationary_statistics_give_zero(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        povm = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        assert abs(classical_fi(rho, SZ, povm)) <= 1e-12

    def test_bloch_closed_form(self):
        # outcome probabilities (1 +/- sin 2 theta)/2 give FI = 1 at theta = 0
        sy_basis = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)
        povm = measurement_projectors(sy_basis)
        got = classical_fi(PLUS, SZ, povm)
        assert abs(got - 1.0) <= 1e-6
        assert abs(got - qfi(PLUS, SZ)) <= 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_never_exceeds_qfi(self, seed):
        rho = random_density(3, 3, seed)
        h = random_hermitian(3, 70 + seed)
        basis = haar_unitary(3, 30 + seed)
        povm = measurement_projectors(basis)
        assert classical_fi(rho, h, povm) <= qfi(rho, h) + 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_sld_eigenbasis_attains_qfi(self, seed):
        rho = random_density(3, 3, seed)
        h = random_hermitian(3, 70 + seed)
        basis = eigh(sld(rho, h)).vectors
        povm = measurement_projectors(basis)
        assert abs(classical_fi(rho, h, povm) - qfi(rho, h)) <= 1e-6

    def test_degenerate_point_raises(self):
        delta = 1e-7
        psi = np.array([np.cos(delta), np.sin(delta)], dtype=complex)
        rho = np.outer(psi, psi.conj())
        povm = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        with pytest.raises(DegeneratePointError):
            classical_fi(rho, SY, povm)

    def test_exactly_dark_outcome_contributes_zero(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        povm = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        assert abs(classical_fi(rho, SX, povm)) <= 1e-12


class TestValidatePovm:
    def test_accepts_projective_measurement(self):
        validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])

    def test_rejects_an_empty_set(self):
        with pytest.raises(ShapeError, match="at least one"):
            validate_povm([])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ShapeError, match="share"):
            validate_povm([np.diag([1.0, 0.0]), np.eye(3)])

    def test_rejects_incomplete_set(self):
        with pytest.raises(ValidationError):
            validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 0.5])])

    def test_rejects_negative_element(self):
        with pytest.raises(PositivityError):
            validate_povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])

    @pytest.mark.parametrize("povm, error, message", [
        ([], ShapeError, "POVM needs at least one element"),
        ([np.diag([1.0, 0.0]), np.eye(3)], ShapeError, "POVM elements must share the state dimension"),
        ([np.diag([1.0, 0.0]), np.diag([0.0, 0.5])], ValidationError,
         "POVM does not resolve the identity: ||sum E - I|| = 5.000e-01 > 1e-10"),
        ([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])], PositivityError,
         "POVM element has eigenvalue -5.000e-01 < 0"),
        ([np.diag([-0.5, 0.0]), np.diag([1.5, 1.0])], PositivityError,
         "POVM element has eigenvalue -5.000e-01 < 0"),
        ([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.2, 0.0]), np.diag([0.0, -0.2, 1.0])],
         PositivityError, "POVM element has eigenvalue -2.000e-01 < 0"),
    ], ids=["empty", "mixed-dimensions", "incomplete", "negative-last", "negative-first",
            "negative-of-three"])
    def test_a_single_defect_raises_its_message(self, povm, error, message):
        # the messages of the element-by-element check the stacked one replaced
        with pytest.raises(error) as got:
            validate_povm(povm)
        assert str(got.value) == message
