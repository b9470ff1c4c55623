"""Executable acceptance suite.

Each criterion is an independent seeded check of one defining claim of the
library (closed-form coincidences, exact zeros on classically correlated
states, spectral identities, information hierarchies). ``run_verification``
prints one pass/fail line per criterion with the measured margins; the same
checks back the ``qfc verify`` command and the pytest acceptance module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .correlations import (
    lift_a,
    lift_b,
    measurement_correlation,
    observable_correlation,
    pure_state_correlation,
    total_local_qfi_b,
    total_mfi,
    measurement_projectors,
)
from .discord import entropic_discord, geometric_discord, measured_state, mutual_information
from .fisher import classical_fi, qfi, sld, variance
from .linalg import eigh, hermitian_basis
from .optimize import OptimizerConfig
from .states import (
    BipartiteState,
    apply_channel_b,
    haar_unitary,
    make_cc,
    make_cq,
    make_witness_state,
    max_entangled,
    random_density,
    random_hermitian,
    random_kraus_channel,
    random_pure,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def state_seed(seed: int, criterion: int, index: int) -> int:
    """Seed of state ``index`` of a criterion, for the optimizer base seed ``seed``."""
    return seed + 10_000 * criterion + index


def _done(number: int, name: str, passed: bool, detail: str, start: float) -> CriterionResult:
    return CriterionResult(number, name, bool(passed), detail, time.perf_counter() - start)


_PURE_DIMS = [(2, 2)] * 8 + [(2, 3)] * 8 + [(3, 3)] * 7 + [(3, 4)] * 7
_MIXED_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]


def check_pure_coincidence(cfg: OptimizerConfig) -> CriterionResult:
    """Both quantifiers match 1 - sum(s^2) on seeded random pure states."""
    start = time.perf_counter()
    worst_obs = worst_meas = 0.0
    for i, dims in enumerate(_PURE_DIMS):
        state = random_pure(dims, state_seed(cfg.seed, 1, i))
        closed = pure_state_correlation(state)
        worst_obs = max(worst_obs, abs(observable_correlation(state, cfg).value - closed))
        worst_meas = max(worst_meas, abs(measurement_correlation(state, cfg).value - closed))
    passed = worst_obs <= 1e-4 and worst_meas <= 1e-4
    detail = (
        f"{len(_PURE_DIMS)} pure states up to 3x4: max deviation from closed form "
        f"observable={worst_obs:.2e}, measurement={worst_meas:.2e} (tol 1e-4)"
    )
    return _done(1, "pure-state coincidence with closed form", passed, detail, start)


def check_maximal_values(cfg: OptimizerConfig) -> CriterionResult:
    """Maximally entangled MxM states reach the ceiling 1 - 1/M."""
    start = time.perf_counter()
    worst = 0.0
    for m in (2, 3):
        state = max_entangled(m)
        target = 1.0 - 1.0 / m
        worst = max(
            worst,
            abs(observable_correlation(state, cfg).value - target),
            abs(measurement_correlation(state, cfg).value - target),
        )
    passed = worst <= 1e-4
    detail = f"targets 0.5 and 2/3: max deviation {worst:.2e} (tol 1e-4)"
    return _done(2, "maximal values on maximally entangled states", passed, detail, start)


def _random_cq(dims: tuple[int, int], seed: int) -> BipartiteState:
    m, n = dims
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(m))
    basis = haar_unitary(m, rng.integers(2**63))
    sigmas = [random_density(n, n, rng.integers(2**63)) for _ in range(m)]
    return make_cq(probs, basis, sigmas)


def _random_cc(dims: tuple[int, int], seed: int) -> BipartiteState:
    m, n = dims
    k = min(m, n)
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(k))
    a_basis = haar_unitary(m, rng.integers(2**63))[:, :k]
    b_basis = haar_unitary(n, rng.integers(2**63))[:, :k]
    return make_cc(probs, dims, a_basis, b_basis)


def _noisy_entangled(dims: tuple[int, int], seed: int) -> BipartiteState:
    pure = random_pure(dims, seed)
    d = pure.dim
    rho = 0.9 * pure.rho + 0.1 * np.eye(d) / d
    return BipartiteState(rho, *dims)


def check_zero_discord_detection(cfg: OptimizerConfig) -> CriterionResult:
    """Quantifiers vanish on CQ/CC states and stay away from zero otherwise."""
    start = time.perf_counter()
    tight = replace(cfg, tolerance=min(cfg.tolerance, 1e-8))
    worst_zero = 0.0
    for i in range(20):
        dims = _MIXED_DIMS[i % len(_MIXED_DIMS)]
        build = _random_cq if i % 2 == 0 else _random_cc
        state = build(dims, state_seed(cfg.seed, 3, i))
        worst_zero = max(
            worst_zero,
            abs(observable_correlation(state, tight).value),
            abs(measurement_correlation(state, tight).value),
        )
    least_nonzero = np.inf
    for i in range(20):
        dims = _MIXED_DIMS[i % len(_MIXED_DIMS)]
        state = _noisy_entangled(dims, state_seed(cfg.seed, 3, 100 + i))
        least_nonzero = min(
            least_nonzero,
            observable_correlation(state, cfg).value,
            measurement_correlation(state, cfg).value,
        )
    passed = worst_zero <= 1e-6 and least_nonzero >= 1e-3
    detail = (
        f"20 CQ/CC states: max |value| {worst_zero:.2e} (tol 1e-6); "
        f"20 noisy entangled states: min value {least_nonzero:.2e} (floor 1e-3)"
    )
    return _done(3, "zero on classical states, nonzero off them", passed, detail, start)


def check_commuting_witness(cfg: OptimizerConfig) -> CriterionResult:
    """A single commuting local projector does not certify zero correlation."""
    start = time.perf_counter()
    state = make_witness_state()
    proj = np.zeros((state.dim_a, state.dim_a), dtype=complex)
    proj[0, 0] = 1.0
    local_qfi = qfi(state.rho, lift_a(proj, state.dim_b))
    value = observable_correlation(state, cfg).value
    passed = local_qfi <= 1e-12 and value >= 1e-3
    detail = (
        f"projector driving QFI {local_qfi:.2e} (tol 1e-12) "
        f"yet correlation {value:.4f} (floor 1e-3)"
    )
    return _done(4, "commuting-projector witness state", passed, detail, start)


def check_qfi_bounds(cfg: OptimizerConfig) -> CriterionResult:
    """0 <= QFI <= variance, convexity in the state, and QFI = variance when pure."""
    start = time.perf_counter()
    dims = (2, 3, 4)
    worst_low = 0.0
    worst_high = -np.inf
    for i in range(200):
        d = dims[i % 3]
        seed = state_seed(cfg.seed, 5, i)
        rho = random_density(d, d if i % 2 == 0 else max(1, d - 1), seed)
        h = random_hermitian(d, seed + 1)
        f = qfi(rho, h)
        worst_low = min(worst_low, f)
        worst_high = max(worst_high, f - variance(rho, h))
    worst_convex = -np.inf
    for i in range(100):
        seed = state_seed(cfg.seed, 5, 1000 + i)
        rng = np.random.default_rng(seed)
        lam = rng.dirichlet(np.ones(3))
        parts = [random_density(3, 3, seed + 10 + j) for j in range(3)]
        h = random_hermitian(3, seed + 20)
        mixed = sum(l * r for l, r in zip(lam, parts))
        gap = qfi(mixed, h) - sum(l * qfi(r, h) for l, r in zip(lam, parts))
        worst_convex = max(worst_convex, gap)
    worst_pure = 0.0
    for i in range(50):
        d = dims[i % 3]
        seed = state_seed(cfg.seed, 5, 2000 + i)
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        h = random_hermitian(d, seed + 1)
        worst_pure = max(worst_pure, abs(qfi(rho, h) - variance(rho, h)))
    passed = (
        worst_low >= -1e-12
        and worst_high <= 1e-10
        and worst_convex <= 1e-9
        and worst_pure <= 1e-10
    )
    detail = (
        f"200 pairs: min QFI {worst_low:.1e}, max QFI-V {worst_high:.2e} (tol 1e-10); "
        f"100 mixtures: max convexity gap {worst_convex:.2e} (tol 1e-9); "
        f"50 pure: max |QFI-V| {worst_pure:.2e} (tol 1e-10)"
    )
    return _done(5, "QFI bounds, convexity, pure-state variance", passed, detail, start)


def check_sld_consistency(cfg: OptimizerConfig) -> CriterionResult:
    """The SLD solves its defining equation and reproduces the spectral QFI."""
    start = time.perf_counter()
    dims = (2, 3, 4)
    worst_resid = worst_agree = 0.0
    for i in range(100):
        d = dims[i % 3]
        seed = state_seed(cfg.seed, 6, i)
        rho = random_density(d, d if i % 3 else max(1, d - 1), seed)
        h = random_hermitian(d, seed + 1)
        l = sld(rho, h)
        commutator = 1j * (rho @ h - h @ rho)
        worst_resid = max(
            worst_resid, float(np.linalg.norm(commutator - (l @ rho + rho @ l) / 2))
        )
        via_sld = float(np.real(np.trace(rho @ l @ l))) / 4.0
        worst_agree = max(worst_agree, abs(via_sld - qfi(rho, h)))
    passed = worst_resid <= 1e-9 and worst_agree <= 1e-8
    detail = (
        f"100 pairs: max defining-equation residual {worst_resid:.2e} (tol 1e-9); "
        f"max |tr(rho L^2)/4 - QFI| {worst_agree:.2e} (tol 1e-8)"
    )
    return _done(6, "SLD consistency", passed, detail, start)


def check_basis_sum_invariance(cfg: OptimizerConfig) -> CriterionResult:
    """The basis-free local QFI on party b equals its sum over any observable basis."""
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        dims = _MIXED_DIMS[i % len(_MIXED_DIMS)]
        seed = state_seed(cfg.seed, 7, i)
        state = BipartiteState(
            random_density(dims[0] * dims[1], dims[0] * dims[1], seed), *dims
        )
        n = state.dim_b
        canonical = hermitian_basis(n)
        rng = np.random.default_rng(seed + 1)
        mixes = [np.eye(n * n)] + [
            np.linalg.qr(rng.standard_normal((n * n, n * n)))[0] for _ in range(4)
        ]
        values = [total_local_qfi_b(state)]
        for mix in mixes:
            basis = np.einsum("vu,uij->vij", mix, canonical)
            values.append(sum(qfi(state.rho, lift_b(h, state.dim_a)) for h in basis))
        worst = max(worst, max(values) - min(values))
    passed = worst <= 1e-9
    detail = (
        f"20 states: max spread of the basis-free value and the sums over "
        f"5 observable bases {worst:.2e} (tol 1e-9)"
    )
    return _done(7, "observable-basis-sum invariance", passed, detail, start)


def check_mfi_hierarchy(cfg: OptimizerConfig) -> CriterionResult:
    """Measured information never beats the local QFI; equality for CQ states."""
    start = time.perf_counter()
    worst_gap = -np.inf
    for i in range(100):
        dims = _MIXED_DIMS[i % len(_MIXED_DIMS)]
        seed = state_seed(cfg.seed, 8, i)
        state = BipartiteState(
            random_density(dims[0] * dims[1], dims[0] * dims[1], seed), *dims
        )
        measurement = haar_unitary(state.dim_a, seed + 1)
        gap = total_mfi(state, measurement) - total_local_qfi_b(state)
        worst_gap = max(worst_gap, gap)
    worst_eq = 0.0
    for i in range(20):
        dims = _MIXED_DIMS[i % len(_MIXED_DIMS)]
        seed = state_seed(cfg.seed, 8, 1000 + i)
        basis = haar_unitary(dims[0], seed)
        rng = np.random.default_rng(seed + 1)
        probs = rng.dirichlet(np.ones(dims[0]))
        sigmas = [random_density(dims[1], dims[1], seed + 2 + j) for j in range(dims[0])]
        state = make_cq(probs, basis, sigmas)
        worst_eq = max(
            worst_eq, abs(total_mfi(state, basis) - total_local_qfi_b(state))
        )
    passed = worst_gap <= 1e-9 and worst_eq <= 1e-8
    detail = (
        f"100 pairs: max MFI excess {worst_gap:.2e} (tol 1e-9); "
        f"20 CQ states at the classical basis: max |MFI - lQFI| {worst_eq:.2e} (tol 1e-8)"
    )
    return _done(8, "measured-information hierarchy", passed, detail, start)


def check_measurement_achievability(cfg: OptimizerConfig) -> CriterionResult:
    """Measuring in the SLD eigenbasis attains the QFI classically."""
    start = time.perf_counter()
    dims = (2, 3, 4)
    worst = 0.0
    for i in range(50):
        d = dims[i % 3]
        seed = state_seed(cfg.seed, 9, i)
        rho = random_density(d, d, seed)
        h = random_hermitian(d, seed + 1)
        basis = eigh(sld(rho, h)).vectors
        povm = measurement_projectors(basis)
        worst = max(worst, abs(classical_fi(rho, h, povm) - qfi(rho, h)))
    passed = worst <= 1e-6
    detail = f"50 full-rank states: max |classical FI - QFI| {worst:.2e} (tol 1e-6)"
    return _done(9, "optimal-measurement achievability", passed, detail, start)


def check_channel_contractivity(cfg: OptimizerConfig) -> CriterionResult:
    """Channels on party b never increase the observable quantifier."""
    start = time.perf_counter()
    worst = -np.inf
    for i in range(10):
        dims = (2, 2) if i % 2 == 0 else (2, 3)
        seed = state_seed(cfg.seed, 10, i)
        state = BipartiteState(
            random_density(dims[0] * dims[1], dims[0] * dims[1], seed), *dims
        )
        channel = random_kraus_channel(dims[1], 2 + i % 2, seed + 1)
        before = observable_correlation(state, cfg).value
        after = observable_correlation(apply_channel_b(state, channel), cfg).value
        worst = max(worst, after - before)
    passed = worst <= 2e-4
    detail = f"10 state/channel pairs: max increase {worst:.2e} (tol 2e-4)"
    return _done(10, "contractivity under channels on party b", passed, detail, start)


def _bloch_measurement(theta: float, phi: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    phase = np.exp(1j * phi)
    return np.array([[c, -np.conj(phase) * s], [phase * s, c]], dtype=complex)


def _grid_entropic_discord(state: BipartiteState) -> float:
    best = -np.inf
    for theta in np.linspace(0.0, np.pi, 31):
        for phi in np.linspace(0.0, 2 * np.pi, 61, endpoint=False):
            u = _bloch_measurement(theta, phi)
            best = max(best, mutual_information(measured_state(state, u)))
    return mutual_information(state) - best


def check_discord_baselines(cfg: OptimizerConfig) -> CriterionResult:
    """Geometric discord closed form vs search; Bell entropic discord = ln 2."""
    start = time.perf_counter()
    worst_geo = 0.0
    for i, dims in enumerate([(2, 2)] * 3 + [(2, 3)] * 3):
        state = random_pure(dims, state_seed(cfg.seed, 11, i))
        closed = geometric_discord(state).value
        searched = geometric_discord(state, cfg, method="optimized").value
        worst_geo = max(worst_geo, abs(closed - searched))
    bell = max_entangled(2)
    ln2 = float(np.log(2.0))
    grid_dev = abs(_grid_entropic_discord(bell) - ln2)
    opt_dev = abs(entropic_discord(bell, cfg).value - ln2)
    passed = worst_geo <= 1e-4 and grid_dev <= 1e-4 and opt_dev <= 1e-4
    detail = (
        f"6 pure states: max |closed - optimized| geometric discord {worst_geo:.2e}; "
        f"Bell entropic discord vs ln 2: grid {grid_dev:.2e}, optimizer {opt_dev:.2e} (tol 1e-4)"
    )
    return _done(11, "discord baselines cross-check", passed, detail, start)


ALL_CRITERIA = (
    check_pure_coincidence,
    check_maximal_values,
    check_zero_discord_detection,
    check_commuting_witness,
    check_qfi_bounds,
    check_sld_consistency,
    check_basis_sum_invariance,
    check_mfi_hierarchy,
    check_measurement_achievability,
    check_channel_contractivity,
    check_discord_baselines,
)


def run_verification(config: OptimizerConfig | None = None) -> list[CriterionResult]:
    """Run every acceptance criterion, printing one pass/fail line each.

    ``config`` (default :class:`OptimizerConfig`) sets the optimizer of every
    search and, through its seed, the seed of every state.
    """
    cfg = config if config is not None else OptimizerConfig()
    results = []
    for check in ALL_CRITERIA:
        result = check(cfg)
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(
            f"{status} {result.number:2d}. {result.name}: {result.detail} [{result.seconds:.1f}s]",
            flush=True,
        )
    n_passed = sum(r.passed for r in results)
    total = sum(r.seconds for r in results)
    print(f"{n_passed}/{len(results)} criteria passed in {total:.1f}s", flush=True)
    return results
