"""Entropic and geometric discord baselines."""

import math

import numpy as np
import pytest

from qfc import (
    BipartiteState,
    HermiticityError,
    OptimizerConfig,
    OptimizerReport,
    QuantifierResult,
    TraceError,
    dag,
    entropic_discord,
    geometric_discord,
    make_cc,
    make_cq,
    max_entangled,
    measured_state,
    measurement_correlation,
    mutual_information,
    observable_correlation,
    pure_from_schmidt,
    random_pure,
    total_local_qfi_b,
    total_mfi,
    von_neumann_entropy,
    werner,
)
from qfc import verify
from qfc.correlations import _start_basis
from qfc.linalg import SUPPORT_CUTOFF
from qfc.optimize import multistart
from qfc.states import haar_unitary, random_density

from oracles import (_a_components, basis_qfi_sum, jacobi_basis, joint_diagonalize,
                     off_diagonal_mass)

CFG = OptimizerConfig(restarts=8, seed=0)

LN2 = float(np.log(2.0))


class TestEntropy:
    def test_pure_state_has_zero_entropy(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        assert abs(von_neumann_entropy(np.outer(psi, psi.conj()))) <= 1e-12

    def test_pure_spectrum_gives_plus_zero(self):
        # -sum l ln l over the spectrum (1, 0) is -0.0 before the kernel adds 0.0
        assert math.copysign(1.0, von_neumann_entropy(np.diag([1.0, 0.0]))) == 1.0

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(np.eye(2) / 2) - LN2) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_uniform_spectrum_gives_log_d(self, d):
        assert abs(von_neumann_entropy(np.eye(d) / d) - np.log(d)) <= 1e-12

    @pytest.mark.parametrize(
        "rho, error",
        [(np.array([[0.5, 1.0], [0.0, 0.5]]), HermiticityError), (np.eye(2), TraceError)],
        ids=["non-hermitian", "trace-2"],
    )
    def test_refuses_a_matrix_that_is_no_density(self, rho, error):
        # both gave -0.0 before the entropy checked its input
        with pytest.raises(error):
            von_neumann_entropy(rho)


class TestMutualInformation:
    def test_product_state_factorizes(self):
        rho = np.kron(random_density(2, 2, 0), random_density(3, 3, 1))
        assert abs(mutual_information(BipartiteState(rho, 2, 3))) <= 1e-10

    def test_bell_state_has_two_bits(self):
        assert abs(mutual_information(max_entangled(2)) - 2 * LN2) <= 1e-12

    def test_measurement_never_increases_it(self):
        state = werner(0.7)
        u = haar_unitary(2, 4)
        assert mutual_information(measured_state(state, u)) <= mutual_information(state) + 1e-10


class TestEntropicDiscord:
    def test_pure_product_state_gives_plus_zero(self):
        state = pure_from_schmidt([1.0], (2, 2))
        result = entropic_discord(state)
        assert result.method == "closed-form"
        assert result.value == 0.0 and math.copysign(1.0, result.value) == 1.0

    def test_product_state_gives_zero(self):
        rho = np.kron(random_density(2, 2, 5), random_density(2, 2, 6))
        result = entropic_discord(BipartiteState(rho, 2, 2), CFG)
        assert abs(result.value) <= 1e-6

    def test_cq_state_gives_zero(self):
        state = make_cq(
            [0.4, 0.6], haar_unitary(2, 7), [random_density(3, 3, j) for j in range(2)]
        )
        assert abs(entropic_discord(state, CFG).value) <= 1e-6

    # the two pure-state cases search: the default takes the closed form

    def test_bell_state_gives_ln2(self):
        result = entropic_discord(max_entangled(2), CFG, method="optimized")
        assert abs(result.value - LN2) <= 1e-4

    def test_pure_state_equals_entanglement_entropy(self):
        state = random_pure((2, 3), 42)
        expected = von_neumann_entropy(state.marginal("a"))
        assert abs(entropic_discord(state, CFG, method="optimized").value - expected) <= 1e-4

    @pytest.mark.parametrize("dims", [(5, 2), (6, 2)])
    def test_larger_party_a_lies_between_zero_and_its_entropy(self, dims):
        # party a beyond 4, once refused
        state = BipartiteState(random_density(dims[0] * dims[1], dims[0] * dims[1], 70), *dims)
        value = entropic_discord(state, CFG).value
        assert -1e-9 <= value <= von_neumann_entropy(state.marginal("a")) + 1e-9


class TestGeometricDiscord:
    def test_cc_state_gives_zero(self):
        state = make_cc([0.3, 0.7], (2, 2), haar_unitary(2, 10), haar_unitary(2, 11))
        assert abs(geometric_discord(state, CFG).value) <= 1e-6

    def test_bell_state_closed_form(self):
        result = geometric_discord(max_entangled(2))
        assert result.method == "closed-form"
        assert abs(result.value - 0.5) <= 1e-12

    def test_maximally_mixed_werner_gives_zero(self):
        assert abs(geometric_discord(werner(0.0), CFG).value) <= 1e-6

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_pure_closed_form_matches_search(self, dims):
        state = random_pure(dims, 21)
        closed = geometric_discord(state)
        searched = geometric_discord(state, CFG, method="optimized")
        assert closed.method == "closed-form"
        assert searched.method == "optimized"
        assert abs(closed.value - searched.value) <= 1e-4

    def test_closed_form_argopt_attains_the_value(self):
        state = pure_from_schmidt([0.8, 0.2], (2, 2))
        result = geometric_discord(state)
        diff = state.rho - measured_state(state, result.argopt).rho
        distance = float(np.real(np.sum(diff * diff.conj())))
        assert abs(distance - result.value) <= 1e-10

    @pytest.mark.parametrize(
        "state",
        [max_entangled(3), pure_from_schmidt([0.5, 0.5], (3, 2)), random_pure((3, 2), 4),
         random_pure((2, 4), 5), random_pure((3, 3), 6)],
        ids=["max-3x3", "degenerate-3x2", "random-3x2", "random-2x4", "random-3x3"],
    )
    def test_closed_form_argopt_attains_the_value_with_degenerate_or_missing_schmidt_terms(
        self, state
    ):
        # any eigenbasis of rho_a is a Schmidt basis, whatever its order or
        # the rotation within a repeated eigenvalue
        result = geometric_discord(state)
        assert result.method == "closed-form"
        diff = state.rho - measured_state(state, result.argopt).rho
        assert abs(np.vdot(diff, diff).real - result.value) <= 1e-12

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            geometric_discord(max_entangled(2), CFG, method="grid")

    def test_mixed_state_report(self):
        state = BipartiteState(random_density(6, 6, 3), 2, 3)
        result = geometric_discord(state, CFG, method="optimized")
        assert result.method == "optimized"
        report = result.report
        assert report.converged and report.restart_values.size == CFG.restarts
        assert report.best_value == result.value == report.restart_values.min()
        assert np.array_equal(report.best_unitary, result.argopt)
        diff = state.rho - measured_state(state, result.argopt).rho
        assert abs(float(np.sum(np.abs(diff) ** 2)) - result.value) <= 1e-12


class TestQubitAClosedForm:
    """Geometric discord of mixed qubit-a states, against the Jacobi oracle."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("rank", ["full", 2])
    def test_matches_the_jacobi_oracle_and_its_basis(self, n, rank):
        for k in range(4):
            d = 2 * n
            rho = random_density(d, d if rank == "full" else 2, 500 + 10 * n + k)
            state = BipartiteState(rho, 2, n)
            result = geometric_discord(state)
            assert result.method == "closed-form" and result.report is None
            _, jacobi = jacobi_basis(state, 4)
            assert abs(result.value - jacobi) <= 1e-12
            mass = off_diagonal_mass(_a_components(state.rho, state.dims), result.argopt)
            assert abs(mass - result.value) <= 1e-12

    @pytest.mark.parametrize(
        "state",
        [BipartiteState(np.eye(4) / 4, 2, 2), werner(0.3), werner(0.7)],
        ids=["I/4", "werner-0.3", "werner-0.7"],
    )
    def test_degenerate_correlation_matrix(self, state):
        # K = Re tr(R_k R_l) is 0 for I/4 and a multiple of the identity for
        # Werner states: every basis is optimal
        result = geometric_discord(state)
        stack = _a_components(state.rho, state.dims)
        assert abs(result.value - jacobi_basis(state, 1)[1]) <= 1e-12
        for u in (result.argopt, haar_unitary(2, 1), haar_unitary(2, 2)):
            assert abs(off_diagonal_mass(stack, u) - result.value) <= 1e-12


#: (dims, states per rank): 64 states, half full rank and half rank 2.
ORACLE_DIMS = [((2, 2), 7), ((2, 3), 7), ((2, 4), 7), ((3, 2), 3), ((3, 3), 3), ((3, 4), 3),
               ((4, 2), 1), ((4, 4), 1)]
ORACLE_CFG = OptimizerConfig(restarts=8, tolerance=1e-10, seed=0)


class TestJacobiOracles:
    """The search against the Jacobi oracle, and its bases at criterion 3's states."""

    @pytest.mark.parametrize(
        "dims, count", ORACLE_DIMS, ids=[f"{m}x{n}" for (m, n), _ in ORACLE_DIMS]
    )
    def test_search_never_above_the_jacobi_oracle(self, dims, count):
        d = dims[0] * dims[1]
        for k in range(count):
            for rank in (d, 2):
                state = BipartiteState(random_density(d, rank, 700 + 10 * d + k), *dims)
                searched = geometric_discord(state, ORACLE_CFG, method="optimized").value
                _, jacobi = jacobi_basis(state, ORACLE_CFG.restarts, ORACLE_CFG.seed)
                assert searched <= jacobi + 1e-9

    @staticmethod
    def criterion3_states(noisy):
        for i in range(20):
            dims = verify._MIXED_DIMS[i % len(verify._MIXED_DIMS)]
            if noisy:
                yield verify._noisy_entangled(dims, verify.state_seed(0, 3, 100 + i))
            else:
                build = verify._random_cq if i % 2 == 0 else verify._random_cc
                yield build(dims, verify.state_seed(0, 3, i))

    @staticmethod
    def bases(state):
        """u_G, the Jacobi oracle's basis of rho, and restart 0 of every search."""
        return jacobi_basis(state, OptimizerConfig().restarts)[0], _start_basis(state.marginal("a"))

    @staticmethod
    def at(state, u):
        return basis_qfi_sum(state, u), total_local_qfi_b(state) - total_mfi(state, u)

    def test_u_g_is_a_zero_of_both_quantifiers_on_classical_states(self):
        # and so is restart 0 of every search
        for state in self.criterion3_states(noisy=False):
            for u in self.bases(state):
                qah, gap = self.at(state, u)
                assert qah <= 1e-20
                assert abs(gap) <= 1e-12

    def test_u_g_is_no_zero_on_noisy_entangled_states(self):
        # nor is restart 0 of every search
        for state in self.criterion3_states(noisy=True):
            for u in self.bases(state):
                qah, gap = self.at(state, u)
                assert qah >= 1e-3
                assert gap >= 1e-3


#: 20 states: dimensions cycled, full rank at even and rank 2 at odd indices.
BOUND_DIMS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]


def bound_states():
    for i in range(20):
        dims = BOUND_DIMS[i % len(BOUND_DIMS)]
        d = dims[0] * dims[1]
        yield BipartiteState(random_density(d, d if i % 2 == 0 else 2, 900 + i), *dims)


def sqrt_residual(state):
    """``(u_H, D_H)``: the Jacobi basis and residual of sqrt(rho)."""
    vals, vecs = np.linalg.eigh(state.rho)
    roots = np.sqrt(np.where(vals > SUPPORT_CUTOFF, vals, 0.0))
    u_h, residual, _ = joint_diagonalize(_a_components((vecs * roots) @ dag(vecs), state.dims))
    return u_h, residual


class TestOptimizerFreeBounds:
    """Bounds on both quantifiers from Jacobi residuals alone, no search.

    With ``F(rho, H) >= ||[rho, H]||^2 / 2`` and, for the skew information
    ``I = ||[sqrt(rho), H]||^2 / 2``, ``I <= F <= 2 I`` (Luo 2004), summing
    over the projectors of a basis u gives ``qah(u) >= ||rho - Pi_u rho||^2``
    and ``D_H(u) <= qah(u) <= 2 D_H(u)`` with ``D_H(u) = ||sqrt(rho) -
    Pi_u sqrt(rho)||^2``. The qapi gap is >= 0 for every basis and its
    minimum is at most its value at u_H.
    """

    CFG = OptimizerConfig(restarts=4, tolerance=1e-10, seed=0)

    def test_qah_between_the_jacobi_residuals(self):
        for state in bound_states():
            qah = observable_correlation(state, self.CFG).value
            d_g = geometric_discord(state, self.CFG).value
            _, d_h = sqrt_residual(state)
            assert d_g <= qah + 1e-9
            assert d_h <= qah <= 2 * d_h + 1e-9

    def test_qapi_between_zero_and_its_value_at_u_h(self):
        for state in bound_states():
            qapi = measurement_correlation(state, self.CFG).value
            u_h, _ = sqrt_residual(state)
            assert 0.0 <= qapi <= total_local_qfi_b(state) - total_mfi(state, u_h) + 1e-9


class TestLocalUnitaryInvariance:
    def test_both_discords_invariant(self):
        state = werner(0.6)
        u = np.kron(haar_unitary(2, 1), haar_unitary(2, 2))
        rotated = BipartiteState(u @ state.rho @ dag(u), 2, 2)
        assert abs(entropic_discord(state, CFG).value - entropic_discord(rotated, CFG).value) <= 2e-6
        assert abs(geometric_discord(state, CFG).value - geometric_discord(rotated, CFG).value) <= 2e-6


class TestQuantifierResult:
    """All four solvers return one result type that says how its value was reached."""

    @pytest.mark.parametrize(
        "solver, method",
        [
            (observable_correlation, "optimized"),
            (measurement_correlation, "optimized"),
            (entropic_discord, "optimized"),
            (geometric_discord, "optimized"),
        ],
        ids=["qah", "qapi", "dq", "dg"],
    )
    def test_searched_result_carries_its_report(self, solver, method):
        # a qutrit party a, where every solver searches
        state = BipartiteState(random_density(6, 6, 5), 3, 2)
        result = solver(state, OptimizerConfig(restarts=2, seed=0))
        assert isinstance(result, QuantifierResult)
        assert result.method == method
        assert isinstance(result.report, OptimizerReport)
        assert result.converged is result.report.converged is True
        assert np.array_equal(result.argopt, result.report.best_unitary)
        assert result.value == result.report.best_value

    def test_geometric_cross_check_is_optimized(self):
        state = BipartiteState(random_density(4, 4, 5), 2, 2)
        result = geometric_discord(state, OptimizerConfig(restarts=2), method="optimized")
        assert result.method == "optimized" and result.converged

    def test_closed_form_has_no_report_and_counts_as_converged(self):
        result = geometric_discord(max_entangled(2))
        assert isinstance(result, QuantifierResult)
        assert result.method == "closed-form"
        assert result.report is None
        assert result.converged is True

    def test_converged_is_the_flag_of_the_best_restart(self):
        report = multistart([(np.eye(2), float(k), 1, 1, k != 0) for k in range(2)])
        assert not QuantifierResult(0.0, np.eye(2), "optimized", report).converged
