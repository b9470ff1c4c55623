"""Certified zeros: one check at the eigenbasis of S = tr_b[(1 (x) Y) rho] before any search.

A solve with ``method="auto"`` that passes the closed forms of
``correlations._solve`` evaluates its objective's value at the eigenbasis of
``S``; a value within the tolerance is returned as ``"certified-zero"``
without a search, with a report of that one evaluation.
"""

import math

import numpy as np
import pytest

from qfc import (
    BipartiteState,
    OptimizerConfig,
    entropic_discord,
    geometric_discord,
    make_cq,
    measurement_correlation,
    observable_correlation,
    random_pure,
    total_local_qfi_b,
    total_mfi,
)
from qfc.correlations import _probe_observable
from qfc.states import haar_unitary, random_density
from qfc.verify import _MIXED_DIMS, _noisy_entangled, _random_cc, _random_cq, state_seed

from oracles import basis_qfi_sum
from test_pure_gate import near_pure

SOLVERS = {
    "qah": observable_correlation,
    "qapi": measurement_correlation,
    "dq": entropic_discord,
    "dg": geometric_discord,
}
#: Solvers with a closed form for a qubit party a, which comes before the certificate.
QUBIT_CLOSED_FORMS = ("qah", "dg")

CFG = OptimizerConfig(restarts=4, seed=0)
#: Criterion 3's tolerance for its CQ/CC states.
TIGHT = OptimizerConfig(restarts=4, tolerance=1e-8, seed=0)


def criterion_3_classical(i, seed=0):
    build = _random_cq if i % 2 == 0 else _random_cc
    return build(_MIXED_DIMS[i % len(_MIXED_DIMS)], state_seed(seed, 3, i))


def criterion_3_noisy(i):
    return _noisy_entangled(_MIXED_DIMS[i % len(_MIXED_DIMS)], state_seed(0, 3, 100 + i))


def degenerate_cq(i):
    """A CQ state with equal probabilities, so rho_a = 1/d_a: its eigenbasis is arbitrary."""
    m, n = (3, 4)[i % 2], (2, 3)[(i // 2) % 2]
    sigmas = [random_density(n, 1 + (i + j) % n, 100 * i + j) for j in range(m)]
    return make_cq(np.full(m, 1.0 / m), haar_unitary(m, 1000 + i), sigmas)


def expected_method(kind, state):
    return "closed-form" if kind in QUBIT_CLOSED_FORMS and state.dim_a == 2 else "certified-zero"


def assert_certified(result, tolerance):
    assert result.method == "certified-zero" and result.converged
    assert abs(result.value) <= tolerance
    report = result.report  # one restart: the single evaluation at the certified basis
    assert report.best_value == result.value and report.best_unitary is result.argopt
    np.testing.assert_array_equal(report.restart_values, [result.value])
    np.testing.assert_array_equal(report.restart_evaluations, [1])
    np.testing.assert_array_equal(report.restart_iterations, [0])
    np.testing.assert_array_equal(report.restart_converged, [True])
    assert (report.n_evaluations, report.n_iterations) == (1, 0)


@pytest.mark.parametrize("i", range(20))
def test_criterion_3_classical_states_are_certified(i):
    state = criterion_3_classical(i)
    for kind, solve in SOLVERS.items():
        result = solve(state, TIGHT)
        assert result.method == expected_method(kind, state), kind
        if result.method == "certified-zero":
            assert_certified(result, TIGHT.tolerance)
        else:
            assert result.report is None and abs(result.value) <= TIGHT.tolerance
        np.testing.assert_allclose(result.argopt.conj().T @ result.argopt,
                                   np.eye(state.dim_a), atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_qubit_closed_forms_of_classical_states_are_never_below_zero(seed):
    # Both closed forms are sums of nonnegative terms (eigenvalues of a Gram
    # matrix), so a zero is +0.0: neither negative by roundoff nor -0.0.
    states = [criterion_3_classical(i, seed) for i in range(20)]
    for state in (s for s in states if s.dim_a == 2):
        for kind in QUBIT_CLOSED_FORMS:
            result = SOLVERS[kind](state, TIGHT)
            assert result.method == "closed-form"
            assert math.copysign(1.0, result.value) == 1.0 and result.value <= TIGHT.tolerance


@pytest.mark.parametrize("i", range(20))
def test_degenerate_cq_states_are_certified_by_every_solver(i):
    state = degenerate_cq(i)
    np.testing.assert_allclose(state.marginal("a"), np.eye(state.dim_a) / state.dim_a,
                               atol=1e-12)
    for solve in SOLVERS.values():
        assert_certified(solve(state, CFG), CFG.tolerance)
    # the certified basis realizes the value the result reports
    qah = observable_correlation(state, CFG)
    assert abs(basis_qfi_sum(state, qah.argopt) - qah.value) <= 1e-12
    qapi = measurement_correlation(state, CFG)
    gap = total_local_qfi_b(state) - total_mfi(state, qapi.argopt)
    assert abs(gap - qapi.value) <= 1e-12


def test_the_rho_a_eigenbasis_misses_degenerate_cq_zeros():
    # why the certificate does not look at restart 0: rho_a = 1/d_a says
    # nothing about the classical basis
    misses = [basis_qfi_sum(s, np.linalg.eigh(s.marginal("a"))[1])
              for s in map(degenerate_cq, range(20))]
    assert max(misses) > 1e-2


@pytest.mark.parametrize("i", range(20))
def test_noisy_states_are_not_certified(i):
    state = criterion_3_noisy(i)
    for solve in SOLVERS.values():
        assert solve(state, CFG).method != "certified-zero"


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)])
def test_entangled_pure_states_are_not_certified(dims):
    for seed in range(3):
        state = random_pure(dims, 50 + seed)
        for solve in SOLVERS.values():
            assert solve(state, CFG).method != "certified-zero"


def near_classical(i, eps):
    """``(1 - eps)`` of a CQ state plus ``eps`` of an entangled pure state."""
    dims = [(2, 2), (3, 2), (3, 3)][i % 3]
    cq = _random_cq(dims, 700 + i)
    entangled = random_pure(dims, 800 + i)
    return BipartiteState((1 - eps) * cq.rho + eps * entangled.rho, *dims)


def test_near_classical_certified_values_are_within_tolerance_of_the_search():
    # a certificate means "within tolerance of zero", not "classical"
    certified = 0
    for i in range(9):
        state = near_classical(i, 1e-4)
        for solve in SOLVERS.values():
            result = solve(state, CFG)
            if result.method != "certified-zero":
                continue
            certified += 1
            assert -CFG.tolerance <= result.value <= CFG.tolerance
            searched = solve(state, CFG, method="optimized")
            assert abs(result.value - searched.value) <= CFG.tolerance
    assert certified >= 9


@pytest.mark.parametrize("i", range(20))
def test_auto_and_optimized_agree_bit_for_bit_when_not_certified(i):
    state = criterion_3_noisy(i)
    for kind, solve in SOLVERS.items():
        if kind in QUBIT_CLOSED_FORMS and state.dim_a == 2:
            continue
        auto, optimized = solve(state, CFG), solve(state, CFG, method="optimized")
        assert auto.method == optimized.method == "optimized"
        assert auto.value == optimized.value
        np.testing.assert_array_equal(auto.argopt, optimized.argopt)
        a, b = auto.report, optimized.report
        for field in ("restart_values", "restart_evaluations", "restart_iterations",
                      "restart_converged"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def test_results_do_not_depend_on_the_global_rng():
    states = [degenerate_cq(0), criterion_3_classical(2), near_classical(1, 1e-4)]

    def solve_all():
        return [(r.method, r.value, r.argopt)
                for s in states for r in (solve(s, CFG) for solve in SOLVERS.values())]

    _probe_observable.cache_clear()
    np.random.seed(1)
    first = solve_all()
    before = np.random.get_state()[1].copy()
    solve_all()
    assert np.array_equal(np.random.get_state()[1], before)  # the global stream is untouched
    _probe_observable.cache_clear()
    np.random.seed(2)
    np.random.standard_normal(7)
    for (m1, v1, u1), (m2, v2, u2) in zip(first, solve_all()):
        assert m1 == m2 and v1 == v2
        np.testing.assert_array_equal(u1, u2)


@pytest.mark.parametrize("kind", ["qapi", "qah"])
def test_default_solves_of_a_certified_state_report_their_evaluations(kind):
    # criterion-3 state 3 (a 3x3 CC state) with criterion 3's optimizer; a
    # caller that reads report.n_evaluations from a default solve keeps working
    state = criterion_3_classical(3)
    result = SOLVERS[kind](state, OptimizerConfig(restarts=16, tolerance=1e-8, seed=0))
    assert result.report.n_evaluations == 1
    assert_certified(result, 1e-8)


@pytest.mark.parametrize("kind", SOLVERS)
def test_optimized_always_reports(kind):
    states = [degenerate_cq(1), criterion_3_classical(0), random_pure((2, 2), 3),
              criterion_3_noisy(3)]
    for state in states:
        result = SOLVERS[kind](state, CFG, method="optimized")
        assert result.method == "optimized"
        assert result.report is not None and result.report.best_value == result.value


@pytest.mark.parametrize("kind", SOLVERS)
@pytest.mark.parametrize("method", ["fast", "Auto", "certified-zero", "closed-form", None])
def test_unknown_method_raises(kind, method):
    # a certifiable, a pure and a mixed qubit-a state: the check comes before every shortcut
    for state in (degenerate_cq(0), random_pure((2, 2), 3), criterion_3_noisy(0)):
        with pytest.raises(ValueError, match="method must be"):
            SOLVERS[kind](state, CFG, method=method)


def result_bits(result):
    """The method, value, basis and report arrays of a result, as comparable bytes."""
    bits = [result.method, result.value.hex(), result.argopt.tobytes()]
    report = result.report
    if report is not None:
        bits += [a.tobytes() for a in (report.restart_values, report.restart_evaluations,
                                       report.restart_iterations, report.restart_converged,
                                       report.best_unitary)]
    return bits


@pytest.mark.parametrize("kind", SOLVERS)
def test_omitted_config_is_the_default_config_bit_for_bit(kind):
    # one None normalization feeds the purity gate, the certificate and the search;
    # the gate edge (1 - purity about 5e-9) passes the gate at the default tolerance only
    states = {"pure": random_pure((2, 2), 3), "mixed 2x2": criterion_3_noisy(0),
              "certificate": criterion_3_classical(2), "search 3x2": criterion_3_noisy(2),
              "gate edge": near_pure((3, 2), 5, 3e-9)}
    methods = set()
    for name, state in states.items():
        omitted, default = SOLVERS[kind](state), SOLVERS[kind](state, OptimizerConfig())
        assert result_bits(omitted) == result_bits(default), name
        methods.add(omitted.method)
    assert {"closed-form", "certified-zero", "optimized"} <= methods
