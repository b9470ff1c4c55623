"""Reference correlation measures: entropic and geometric quantum discord.

Both are defined through rank-1 von Neumann measurements on party a and are
used to cross-validate the QFI-based quantifiers. Entropies use the natural
logarithm.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .linalg import dag
from .optimize import OptimizerConfig
from .states import PURITY_TOL, BipartiteState, validate_density
from .correlations import (
    _PAULIS,
    QuantifierResult,
    _a_components,
    _bloch_extremum,
    _may_skip_search,
    _measured_objective,
    _search,
    _start_basis,
    measure_a,
    pure_state_correlation,
)

ENTROPY_CUTOFF = 1e-15


def _spectral_entropy(values: np.ndarray) -> np.ndarray:
    # -sum l ln l over the last axis, terms at or below the cutoff dropped
    return -np.sum(values * np.log(np.where(values > ENTROPY_CUTOFF, values, 1.0)), axis=-1)


def _entropy(rho: np.ndarray) -> float:
    # unchecked: for a state's rho and marginals, valid by construction
    return float(_spectral_entropy(np.linalg.eigvalsh((rho + dag(rho)) / 2)))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy ``-sum_i p_i ln p_i`` of a valid density matrix (0 ln 0 = 0)."""
    return _entropy(validate_density(rho))


def mutual_information(state: BipartiteState) -> float:
    """``S(rho_a) + S(rho_b) - S(rho)`` in nats."""
    return (
        _entropy(state.marginal("a"))
        + _entropy(state.marginal("b"))
        - _entropy(state.rho)
    )


def measured_state(state: BipartiteState, measurement: np.ndarray) -> BipartiteState:
    """Dephased state ``sum_n (P_n (x) 1) rho (P_n (x) 1)`` after measuring a."""
    u = linalg.require_unitary(measurement, state.dim_a, "measurement")
    blocks = measure_a(state, u)
    d = state.dim
    rho = np.einsum("an,nij,bn->aibj", u, blocks, u.conj()).reshape(d, d)
    return BipartiteState(rho, state.dim_a, state.dim_b)


def entropic_discord(
    state: BipartiteState, config: OptimizerConfig | None = None, method: str = "auto"
) -> QuantifierResult:
    """Minimal loss of mutual information under measurement on party a.

    ``min over measurements of I(rho) - I(measured rho)``, restricted to
    rank-1 projective measurements. Zero exactly on CQ/CC states; equals the
    entanglement entropy on pure states. A value certified within tolerance
    of zero skips the search (``method="certified-zero"``, see
    ``correlations._search``); ``method="optimized"`` always searches.
    """
    auto = _may_skip_search(method)
    base = _entropy(state.marginal("a")) - _entropy(state.rho)

    def loss(spectra: np.ndarray):
        # I(measured rho) = S(rho_b) + H(p) - S(measured rho): measuring a
        # leaves rho_b alone (so S(rho_b) cancels from the loss), dephases
        # rho_a to p_n = tr B_n and makes rho block diagonal in the basis u.
        # The slope of I(measured rho) in the eigenvalue l of block n is
        # ln l - ln p_n, with both logarithms clipped at the cutoff; the
        # loss has the opposite slope.
        probs = spectra.sum(axis=-1)
        value = base - _spectral_entropy(probs) + _spectral_entropy(spectra).sum(axis=-1)
        slopes = np.log(np.maximum(spectra, ENTROPY_CUTOFF)) - np.log(
            np.maximum(probs, ENTROPY_CUTOFF)
        )[..., None]
        return value, -slopes

    return _search(state, _measured_objective(state, loss), config, auto)


def geometric_discord(
    state: BipartiteState,
    config: OptimizerConfig | None = None,
    method: str = "auto",
) -> QuantifierResult:
    """Minimal squared Hilbert-Schmidt distance to a state measured on party a.

    For pure inputs the closed form ``1 - tr rho_a^2``
    (:func:`pure_state_correlation`) applies, attained by measuring in the
    eigenbasis of rho_a, a Schmidt basis. With ``rho = sum_k A_k (x) Y_k``
    over a trace-orthonormal Hermitian basis ``Y_k`` of b, the distance in
    the basis u is the off-diagonal mass of the ``A_k`` in that basis
    (:func:`linalg.off_diagonal_mass_and_gradient`). For a mixed input with
    a qubit party a, write ``A_k = (c_0k 1 + sum_l C'_lk sigma_l) / sqrt(2)``:
    the mass in the basis ``(1 +- n.sigma)/2`` is ``||C'||^2 - n^T C'C'^T n``,
    so the minimum is ``||C||^2 - ||c_0||^2 - lambda_max(C'C'^T)`` (Luo and
    Fu, PRA 82, 034302, 2010), the sum of the two smaller eigenvalues of
    ``C'C'^T``, attained by the eigenbasis of ``n.sigma`` for the top
    eigenvector n. Both closed forms give ``method="closed-form"`` and no
    report. Other mixed inputs run the gradient search of
    :func:`optimize_basis` (``method="optimized"``) from the eigenbasis of
    rho_a, as every other basis search does, unless the value is certified
    within tolerance of zero first (``method="certified-zero"``, see
    ``correlations._search``). Pass ``method="optimized"`` to run the search
    on pure inputs, on a qubit party a and on a certifiable state too (used
    to cross-check the closed forms and the certificate).
    """
    auto = _may_skip_search(method)
    if auto and state.purity() >= 1.0 - PURITY_TOL:
        # every eigenbasis of rho_a is a Schmidt basis of a pure state
        return QuantifierResult(pure_state_correlation(state), _start_basis(state), "closed-form")

    stack = _a_components(state.rho, state.dims)
    if auto and state.dim_a == 2:
        c = np.einsum("lab,kba->lk", _PAULIS, stack).real / np.sqrt(2.0)
        vals, basis = _bloch_extremum(c @ c.T, -1)
        return QuantifierResult(float(vals[0] + vals[1]), basis, "closed-form")
    return _search(
        state,
        lambda u, gradient=True: linalg.off_diagonal_mass_and_gradient(stack, u, gradient),
        config,
        auto,
    )
