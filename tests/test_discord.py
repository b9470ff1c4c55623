"""Entropic and geometric discord baselines."""

import numpy as np
import pytest

from qfc import (
    BipartiteState,
    DimensionGuardError,
    OptimizerConfig,
    OptimizerReport,
    QuantifierResult,
    basis_qfi_sum,
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
from qfc.optimize import multistart
from qfc.states import haar_unitary, random_density

CFG = OptimizerConfig(restarts=8, seed=0)

LN2 = float(np.log(2.0))


class TestEntropy:
    def test_pure_state_has_zero_entropy(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        assert abs(von_neumann_entropy(np.outer(psi, psi.conj()))) <= 1e-12

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(np.eye(2) / 2) - LN2) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_uniform_spectrum_gives_log_d(self, d):
        assert abs(von_neumann_entropy(np.eye(d) / d) - np.log(d)) <= 1e-12


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
    def test_product_state_gives_zero(self):
        rho = np.kron(random_density(2, 2, 5), random_density(2, 2, 6))
        result = entropic_discord(BipartiteState(rho, 2, 2), CFG)
        assert abs(result.value) <= 1e-6

    def test_cq_state_gives_zero(self):
        state = make_cq(
            [0.4, 0.6], haar_unitary(2, 7), [random_density(3, 3, j) for j in range(2)]
        )
        assert abs(entropic_discord(state, CFG).value) <= 1e-6

    def test_bell_state_gives_ln2(self):
        result = entropic_discord(max_entangled(2), CFG)
        assert abs(result.value - LN2) <= 1e-4

    def test_pure_state_equals_entanglement_entropy(self):
        state = random_pure((2, 3), 42)
        expected = von_neumann_entropy(state.marginal("a"))
        assert abs(entropic_discord(state, CFG).value - expected) <= 1e-4

    def test_dimension_guard(self):
        state = BipartiteState(np.eye(10) / 10, 5, 2)
        with pytest.raises(DimensionGuardError):
            entropic_discord(state, CFG)


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

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            geometric_discord(max_entangled(2), CFG, method="grid")

    def test_mixed_state_report(self):
        state = BipartiteState(random_density(6, 6, 3), 2, 3)
        result = geometric_discord(state, CFG)
        assert result.method == "jacobi"
        report = result.report
        assert report.converged and report.restart_values.size == CFG.restarts
        assert report.best_value == result.value == report.restart_values.min()
        assert np.array_equal(report.best_unitary, result.argopt)
        diff = state.rho - measured_state(state, result.argopt).rho
        assert abs(float(np.sum(np.abs(diff) ** 2)) - result.value) <= 1e-12


#: (dims, states per rank): 64 states, half full rank and half rank 2. Party
#: a of dimension 3 or 4 gets fewer states, because the Nelder-Mead side takes
#: about 0.7 s and 2 s per state there.
ORACLE_DIMS = [((2, 2), 7), ((2, 3), 7), ((2, 4), 7), ((3, 2), 3), ((3, 3), 3), ((3, 4), 3),
               ((4, 2), 1), ((4, 4), 1)]
ORACLE_CFG = OptimizerConfig(restarts=8, tolerance=1e-10, seed=0)


class TestJacobiOracles:
    """The Jacobi basis against the Nelder-Mead search and at criterion 3's states."""

    @pytest.mark.parametrize(
        "dims, count", ORACLE_DIMS, ids=[f"{m}x{n}" for (m, n), _ in ORACLE_DIMS]
    )
    def test_jacobi_never_above_nelder_mead(self, dims, count):
        d = dims[0] * dims[1]
        for k in range(count):
            for rank in (d, 2):
                state = BipartiteState(random_density(d, rank, 700 + 10 * d + k), *dims)
                jacobi = geometric_discord(state, ORACLE_CFG).value
                searched = geometric_discord(state, ORACLE_CFG, method="optimized").value
                assert jacobi <= searched + 1e-9

    @staticmethod
    def criterion3_states(noisy):
        settings = verify.VerifySettings()
        for i in range(20):
            dims = verify._MIXED_DIMS[i % len(verify._MIXED_DIMS)]
            if noisy:
                yield verify._noisy_entangled(dims, settings.state_seed(3, 100 + i))
            else:
                build = verify._random_cq if i % 2 == 0 else verify._random_cc
                yield build(dims, settings.state_seed(3, i))

    @staticmethod
    def at_u_g(state):
        u_g = geometric_discord(state).argopt
        return basis_qfi_sum(state, u_g), total_local_qfi_b(state) - total_mfi(state, u_g)

    def test_u_g_is_a_zero_of_both_quantifiers_on_classical_states(self):
        for state in self.criterion3_states(noisy=False):
            qah, gap = self.at_u_g(state)
            assert qah <= 1e-20
            assert abs(gap) <= 1e-12

    def test_u_g_is_no_zero_on_noisy_entangled_states(self):
        for state in self.criterion3_states(noisy=True):
            qah, gap = self.at_u_g(state)
            assert qah >= 1e-3
            assert gap >= 1e-3


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
            (geometric_discord, "jacobi"),
        ],
        ids=["qah", "qapi", "dq", "dg"],
    )
    def test_searched_result_carries_its_report(self, solver, method):
        state = BipartiteState(random_density(4, 4, 5), 2, 2)
        result = solver(state, OptimizerConfig(restarts=2, seed=0))
        assert isinstance(result, QuantifierResult)
        assert result.method == method
        assert isinstance(result.report, OptimizerReport)
        assert result.converged is result.report.converged is True
        assert np.array_equal(result.argopt, result.report.best_unitary)

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
        report = multistart(lambda k: (np.eye(2), float(k), 1, 1, k != 0), 2, "min")
        assert not QuantifierResult(0.0, np.eye(2), "optimized", report).converged
