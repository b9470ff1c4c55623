"""Reference correlation measures: entropic and geometric quantum discord.

Both are defined through rank-1 von Neumann measurements on party a and are
used to cross-validate the QFI-based quantifiers. Entropies use the natural
logarithm.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DimensionGuardError
from .linalg import dag
from .optimize import OptimizerConfig, optimize_basis
from .states import PURITY_TOL, BipartiteState, state_vector
from .correlations import (
    QuantifierResult,
    _a_components,
    _measured_gradient,
    _start_basis,
    measure_a,
)

ENTROPY_CUTOFF = 1e-15
#: Entropic discord optimizes over a full basis of party a; cost grows
#: steeply with dim_a, so larger parties are refused.
MAX_DIM_A = 4


def _spectral_entropy(values: np.ndarray) -> float:
    vals = values[values > ENTROPY_CUTOFF]
    return float(-np.sum(vals * np.log(vals)))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy ``-sum_i p_i ln p_i`` of a density matrix (0 ln 0 = 0)."""
    rho = np.asarray(rho, dtype=complex)
    return _spectral_entropy(np.linalg.eigvalsh((rho + dag(rho)) / 2))


def mutual_information(state: BipartiteState) -> float:
    """``S(rho_a) + S(rho_b) - S(rho)`` in nats."""
    return (
        von_neumann_entropy(state.marginal("a"))
        + von_neumann_entropy(state.marginal("b"))
        - von_neumann_entropy(state.rho)
    )


def measured_state(state: BipartiteState, measurement: np.ndarray) -> BipartiteState:
    """Dephased state ``sum_n (P_n (x) 1) rho (P_n (x) 1)`` after measuring a."""
    u = linalg.require_unitary(measurement, state.dim_a, "measurement")
    blocks = measure_a(state, u)
    d = state.dim
    rho = np.einsum("an,nij,bn->aibj", u, blocks, u.conj()).reshape(d, d)
    return BipartiteState(rho, state.dim_a, state.dim_b)


def entropic_discord(
    state: BipartiteState, config: OptimizerConfig | None = None
) -> QuantifierResult:
    """Minimal loss of mutual information under measurement on party a.

    ``min over measurements of I(rho) - I(measured rho)``, restricted to
    rank-1 projective measurements. Zero exactly on CQ/CC states; equals the
    entanglement entropy on pure states.
    """
    if state.dim_a > MAX_DIM_A:
        raise DimensionGuardError(
            f"entropic discord supports dim_a <= {MAX_DIM_A}, got {state.dim_a}"
        )
    base = von_neumann_entropy(state.marginal("a")) - von_neumann_entropy(state.rho)

    def loss(u: np.ndarray):
        # I(measured rho) = S(rho_b) + H(p) - S(measured rho): measuring a
        # leaves rho_b alone (so S(rho_b) cancels from the loss), dephases
        # rho_a to p_n = tr B_n and makes rho block diagonal in the basis u.
        # The slope of I(measured rho) in the eigenvalue l of block n is
        # ln l - ln p_n, with both logarithms clipped at the cutoff.
        spectra, vecs = np.linalg.eigh(measure_a(state, u))
        probs = spectra.sum(axis=1)
        value = base - _spectral_entropy(probs) + _spectral_entropy(spectra)
        slopes = np.log(np.maximum(spectra, ENTROPY_CUTOFF)) - np.log(
            np.maximum(probs, ENTROPY_CUTOFF)
        )[:, None]
        return value, -_measured_gradient(state, u, vecs, slopes)

    report = optimize_basis(loss, _start_basis(state), config=config)
    return QuantifierResult(report.best_value, report.best_unitary, "optimized", report)


def geometric_discord(
    state: BipartiteState,
    config: OptimizerConfig | None = None,
    method: str = "auto",
) -> QuantifierResult:
    """Minimal squared Hilbert-Schmidt distance to a state measured on party a.

    For pure inputs the closed form ``1 - sum_i s_i^2`` applies, attained by
    measuring in the Schmidt basis. Mixed inputs run the gradient search of
    :func:`optimize_basis` (``method="optimized"``): with ``rho = sum_k A_k
    (x) Y_k`` over a trace-orthonormal Hermitian basis ``Y_k`` of b, the
    distance in the basis u is the off-diagonal mass of the ``A_k`` in that
    basis (:func:`linalg.off_diagonal_mass_and_gradient`). Restart 0 starts
    at the eigenbasis of rho_a, as in every other basis search. Pass
    ``method="optimized"`` to run the search on pure inputs too (used to
    cross-check the closed form).
    """
    if method not in ("auto", "optimized"):
        raise ValueError(f"method must be 'auto' or 'optimized', got {method!r}")
    if method == "auto" and state.purity() >= 1.0 - PURITY_TOL:
        sd = linalg.schmidt(state_vector(state), state.dims)
        value = float(1.0 - np.sum(sd.coefficients**2))
        argopt = linalg.complete_basis(sd.a_vectors, state.dim_a)
        return QuantifierResult(value, argopt, "closed-form")

    stack = _a_components(state.rho, state.dims)
    report = optimize_basis(
        lambda u: linalg.off_diagonal_mass_and_gradient(stack, u),
        _start_basis(state),
        config=config,
    )
    return QuantifierResult(report.best_value, report.best_unitary, "optimized", report)
