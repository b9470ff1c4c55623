"""Executable acceptance suite.

Each criterion is an independent seeded check of one defining claim of the
library (closed-form coincidences, exact zeros on classically correlated
states, spectral identities, information hierarchies) that returns its
margins as ``(label, value, sense, bound)`` tuples with ``sense`` ``"<="`` or
``">="``. It passes when every value keeps to its bound; a NaN never does.
A criterion does not read the clock: ``run_criterion`` times it and fills in
its ``seconds``. ``run_verification`` runs every criterion through
``run_criterion`` and prints one line per criterion, each margin rendered as
``label value (<= bound)``; the same checks back ``qfc verify`` and the
pytest acceptance module.
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
    margins: tuple[tuple[str, float, str, float], ...]
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        # a comparison with NaN is False, so a NaN value fails either sense
        return all(
            value <= bound if sense == "<=" else value >= bound
            for _, value, sense, bound in self.margins
        )

    @property
    def detail(self) -> str:
        return "; ".join(
            f"{label} {value:.2e} ({sense} {bound:.0e})"
            for label, value, sense, bound in self.margins
        )


def state_seed(seed: int, criterion: int, index: int) -> int:
    """Seed of state ``index`` of a criterion, for the optimizer base seed ``seed``."""
    return seed + 10_000 * criterion + index


_PURE_DIMS = [(2, 2)] * 8 + [(2, 3)] * 8 + [(3, 3)] * 7 + [(3, 4)] * 7
_MIXED_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]


def check_pure_coincidence(cfg: OptimizerConfig) -> CriterionResult:
    """Both quantifiers match 1 - tr rho_a^2 on seeded random pure states.

    The quantifiers are solved with ``method="optimized"``: the default
    returns the closed form itself on pure input, and this criterion checks
    that the search reaches it.
    """
    obs, meas = [], []
    for i, dims in enumerate(_PURE_DIMS):
        state = random_pure(dims, state_seed(cfg.seed, 1, i))
        closed = pure_state_correlation(state)
        obs.append(abs(observable_correlation(state, cfg, method="optimized").value - closed))
        meas.append(abs(measurement_correlation(state, cfg, method="optimized").value - closed))
    margins = [
        (f"{len(_PURE_DIMS)} pure states up to 3x4: max |observable - closed form|",
         np.max(obs), "<=", 1e-4),
        ("max |measurement - closed form|", np.max(meas), "<=", 1e-4),
    ]
    return CriterionResult(1, "pure-state coincidence with closed form", tuple(margins))


def check_maximal_values(cfg: OptimizerConfig) -> CriterionResult:
    """Maximally entangled MxM states reach the ceiling 1 - 1/M.

    The quantifiers are solved with ``method="optimized"``: the default
    returns the closed form itself on pure input. rho_a is maximally mixed
    here, so its eigenbasis, the search's first start, is arbitrary, and
    this criterion checks that the search still reaches the ceiling.
    """
    deviations = []
    for m in (2, 3):
        state = max_entangled(m)
        target = 1.0 - 1.0 / m
        for solve in (observable_correlation, measurement_correlation):
            deviations.append(abs(solve(state, cfg, method="optimized").value - target))
    margins = [("targets 0.5 and 2/3: max deviation", np.max(deviations), "<=", 1e-4)]
    return CriterionResult(2, "maximal values on maximally entangled states", tuple(margins))


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


def _random_mixed(dims: tuple[int, int], seed: int) -> BipartiteState:
    d = dims[0] * dims[1]
    return BipartiteState(random_density(d, d, seed), *dims)


def _noisy_entangled(dims: tuple[int, int], seed: int) -> BipartiteState:
    pure = random_pure(dims, seed)
    d = pure.dim
    rho = 0.9 * pure.rho + 0.1 * np.eye(d) / d
    return BipartiteState(rho, *dims)


def check_zero_discord_detection(cfg: OptimizerConfig) -> CriterionResult:
    """Quantifiers vanish on CQ/CC states and stay away from zero otherwise.

    The CQ/CC states are solved with ``method="optimized"``: the default
    would certify them (or take the qubit-a closed form of qah) without a
    search, and this criterion checks that the search finds their zeros.
    """
    tight = replace(cfg, tolerance=min(cfg.tolerance, 1e-8))
    zeros, nonzeros = [], []
    for i in range(20):
        dims = _MIXED_DIMS[i % len(_MIXED_DIMS)]
        build = _random_cq if i % 2 == 0 else _random_cc
        classical = build(dims, state_seed(cfg.seed, 3, i))
        noisy = _noisy_entangled(dims, state_seed(cfg.seed, 3, 100 + i))
        for solve in (observable_correlation, measurement_correlation):
            zeros.append(abs(solve(classical, tight, method="optimized").value))
            nonzeros.append(solve(noisy, cfg).value)
    margins = [
        ("20 CQ/CC states: max |value|", np.max(zeros), "<=", 1e-6),
        ("20 noisy entangled states: min value", np.min(nonzeros), ">=", 1e-3),
    ]
    return CriterionResult(3, "zero on classical states, nonzero off them", tuple(margins))


def check_commuting_witness(cfg: OptimizerConfig) -> CriterionResult:
    """A single commuting local projector does not certify zero correlation."""
    state = make_witness_state()
    proj = np.zeros((state.dim_a, state.dim_a), dtype=complex)
    proj[0, 0] = 1.0
    local_qfi = qfi(state.rho, lift_a(proj, state.dim_b))
    value = observable_correlation(state, cfg).value
    margins = [
        ("projector driving QFI", local_qfi, "<=", 1e-12),
        ("witness correlation", value, ">=", 1e-3),
    ]
    return CriterionResult(4, "commuting-projector witness state", tuple(margins))


def check_qfi_bounds(cfg: OptimizerConfig) -> CriterionResult:
    """0 <= QFI <= variance, convexity in the state, and QFI = variance when pure."""
    dims = (2, 3, 4)
    lows, excesses = [], []
    for i in range(200):
        d = dims[i % 3]
        seed = state_seed(cfg.seed, 5, i)
        rho = random_density(d, d if i % 2 == 0 else max(1, d - 1), seed)
        h = random_hermitian(d, seed + 1)
        f = qfi(rho, h)
        lows.append(f)
        excesses.append(f - variance(rho, h))
    gaps = []
    for i in range(100):
        seed = state_seed(cfg.seed, 5, 1000 + i)
        rng = np.random.default_rng(seed)
        lam = rng.dirichlet(np.ones(3))
        parts = [random_density(3, 3, seed + 10 + j) for j in range(3)]
        h = random_hermitian(3, seed + 20)
        mixed = sum(l * r for l, r in zip(lam, parts))
        gaps.append(qfi(mixed, h) - sum(l * qfi(r, h) for l, r in zip(lam, parts)))
    pure = []
    for i in range(50):
        d = dims[i % 3]
        seed = state_seed(cfg.seed, 5, 2000 + i)
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        h = random_hermitian(d, seed + 1)
        pure.append(abs(qfi(rho, h) - variance(rho, h)))
    margins = [
        ("200 pairs: min(0, QFI)", np.minimum(0.0, np.min(lows)), ">=", -1e-12),
        ("max QFI-V", np.max(excesses), "<=", 1e-10),
        ("100 mixtures: max convexity gap", np.max(gaps), "<=", 1e-9),
        ("50 pure: max |QFI-V|", np.max(pure), "<=", 1e-10),
    ]
    return CriterionResult(5, "QFI bounds, convexity, pure-state variance", tuple(margins))


def check_sld_consistency(cfg: OptimizerConfig) -> CriterionResult:
    """The SLD solves its defining equation and reproduces the spectral QFI."""
    dims = (2, 3, 4)
    resids, disagreements = [], []
    for i in range(100):
        d = dims[i % 3]
        seed = state_seed(cfg.seed, 6, i)
        rho = random_density(d, d if i % 3 else max(1, d - 1), seed)
        h = random_hermitian(d, seed + 1)
        l = sld(rho, h)
        commutator = 1j * (rho @ h - h @ rho)
        resids.append(np.linalg.norm(commutator - (l @ rho + rho @ l) / 2))
        via_sld = float(np.real(np.trace(rho @ l @ l))) / 4.0
        disagreements.append(abs(via_sld - qfi(rho, h)))
    margins = [
        ("100 pairs: max defining-equation residual", np.max(resids), "<=", 1e-9),
        ("max |tr(rho L^2)/4 - QFI|", np.max(disagreements), "<=", 1e-8),
    ]
    return CriterionResult(6, "SLD consistency", tuple(margins))


def check_basis_sum_invariance(cfg: OptimizerConfig) -> CriterionResult:
    """The basis-free local QFI on party b equals its sum over any observable basis."""
    spreads = []
    for i in range(20):
        dims = _MIXED_DIMS[i % len(_MIXED_DIMS)]
        seed = state_seed(cfg.seed, 7, i)
        state = _random_mixed(dims, seed)
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
        spreads.append(np.ptp(values))
    margins = [
        ("20 states: max spread of the basis-free value and the sums over 5 observable bases",
         np.max(spreads), "<=", 1e-9),
    ]
    return CriterionResult(7, "observable-basis-sum invariance", tuple(margins))


def check_mfi_hierarchy(cfg: OptimizerConfig) -> CriterionResult:
    """Measured information never beats the local QFI; equality for CQ states."""
    excesses = []
    for i in range(100):
        dims = _MIXED_DIMS[i % len(_MIXED_DIMS)]
        seed = state_seed(cfg.seed, 8, i)
        state = _random_mixed(dims, seed)
        measurement = haar_unitary(state.dim_a, seed + 1)
        excesses.append(total_mfi(state, measurement) - total_local_qfi_b(state))
    deviations = []
    for i in range(20):
        dims = _MIXED_DIMS[i % len(_MIXED_DIMS)]
        seed = state_seed(cfg.seed, 8, 1000 + i)
        basis = haar_unitary(dims[0], seed)
        rng = np.random.default_rng(seed + 1)
        probs = rng.dirichlet(np.ones(dims[0]))
        sigmas = [random_density(dims[1], dims[1], seed + 2 + j) for j in range(dims[0])]
        state = make_cq(probs, basis, sigmas)
        deviations.append(abs(total_mfi(state, basis) - total_local_qfi_b(state)))
    margins = [
        ("100 pairs: max MFI excess", np.max(excesses), "<=", 1e-9),
        ("20 CQ states at the classical basis: max |MFI - lQFI|", np.max(deviations), "<=", 1e-8),
    ]
    return CriterionResult(8, "measured-information hierarchy", tuple(margins))


def check_measurement_achievability(cfg: OptimizerConfig) -> CriterionResult:
    """Measuring in the SLD eigenbasis attains the QFI classically."""
    dims = (2, 3, 4)
    deviations = []
    for i in range(50):
        d = dims[i % 3]
        seed = state_seed(cfg.seed, 9, i)
        rho = random_density(d, d, seed)
        h = random_hermitian(d, seed + 1)
        basis = eigh(sld(rho, h)).vectors
        povm = measurement_projectors(basis)
        deviations.append(abs(classical_fi(rho, h, povm) - qfi(rho, h)))
    margins = [("50 full-rank states: max |classical FI - QFI|", np.max(deviations), "<=", 1e-6)]
    return CriterionResult(9, "optimal-measurement achievability", tuple(margins))


def check_channel_contractivity(cfg: OptimizerConfig) -> CriterionResult:
    """Channels on party b never increase the observable quantifier."""
    increases = []
    for i in range(10):
        dims = (2, 2) if i % 2 == 0 else (2, 3)
        seed = state_seed(cfg.seed, 10, i)
        state = _random_mixed(dims, seed)
        channel = random_kraus_channel(dims[1], 2 + i % 2, seed + 1)
        before = observable_correlation(state, cfg).value
        after = observable_correlation(apply_channel_b(state, channel), cfg).value
        increases.append(after - before)
    margins = [("10 state/channel pairs: max increase", np.max(increases), "<=", 2e-4)]
    return CriterionResult(10, "contractivity under channels on party b", tuple(margins))


def check_discord_baselines(cfg: OptimizerConfig) -> CriterionResult:
    """Geometric discord closed form vs search; Bell entropic discord = ln 2.

    The maximally entangled state is invariant under ``u (x) u*``, so every
    measurement basis of party a leaves it the same measured information and
    its entropic discord is ln 2 in each basis. The Bell margin checks that
    identity at 8 seeded bases, each on its own, through ``measured_state``
    and no optimizer; every "optimized" margin solves with
    ``method="optimized"``, since the default takes the closed form on these
    pure states.
    """
    geo = []
    for i, dims in enumerate([(2, 2)] * 3 + [(2, 3)] * 3):
        state = random_pure(dims, state_seed(cfg.seed, 11, i))
        closed = geometric_discord(state).value
        searched = geometric_discord(state, cfg, method="optimized").value
        geo.append(abs(closed - searched))
    bell = max_entangled(2)
    ln2 = float(np.log(2.0))
    info = mutual_information(bell)
    bases = [haar_unitary(2, state_seed(cfg.seed, 11, 100 + k)) for k in range(8)]
    bell_gaps = [abs(info - mutual_information(measured_state(bell, u)) - ln2) for u in bases]
    margins = [
        ("6 pure states: max |closed - optimized| geometric discord", np.max(geo), "<=", 1e-4),
        ("Bell entropic discord vs ln 2: max over 8 bases", np.max(bell_gaps), "<=", 1e-4),
        ("optimizer", abs(entropic_discord(bell, cfg, method="optimized").value - ln2),
         "<=", 1e-4),
    ]
    return CriterionResult(11, "discord baselines cross-check", tuple(margins))


def check_qubit_a_search(cfg: OptimizerConfig) -> CriterionResult:
    """The basis search meets the qubit-a closed forms of qah and geometric discord."""
    qah, dg = [], []
    for i in range(20):
        n = 2 + i % 3
        seed = state_seed(cfg.seed, 12, i)
        state = BipartiteState(random_density(2 * n, 2 * n if i % 2 == 0 else 2, seed), 2, n)
        for solve, gaps in ((observable_correlation, qah), (geometric_discord, dg)):
            searched = solve(state, cfg, method="optimized").value
            gaps.append(abs(searched - solve(state).value))
    margins = [
        ("20 mixed states 2x2 to 2x4: max |searched - closed form| qah", np.max(qah), "<=", 1e-6),
        ("geometric discord", np.max(dg), "<=", 1e-6),
    ]
    return CriterionResult(12, "basis search against the qubit-a closed forms", tuple(margins))


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
    check_qubit_a_search,
)


def run_criterion(check, cfg: OptimizerConfig) -> CriterionResult:
    """Run one criterion at ``cfg``; its result, with the seconds the run took."""
    start = time.perf_counter()
    result = check(cfg)
    return replace(result, seconds=time.perf_counter() - start)


def run_verification(config: OptimizerConfig | None = None) -> list[CriterionResult]:
    """Run every acceptance criterion, timing each, and print one pass/fail line each.

    ``config`` (default :class:`OptimizerConfig`) sets the optimizer of every
    search and, through its seed, the seed of every state. Each criterion
    runs through :func:`run_criterion`, so the seconds printed are the ones
    the runner measured.
    """
    cfg = config if config is not None else OptimizerConfig()
    results = []
    for check in ALL_CRITERIA:
        result = run_criterion(check, cfg)
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
