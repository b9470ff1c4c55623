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
from .states import BipartiteState
from .correlations import (
    _PAULIS,
    QuantifierResult,
    _block_gradient,
    _bloch_extremum,
    _linear_entropy,
    _measured_objective,
    _solve,
    measure_a,
)

ENTROPY_CUTOFF = 1e-15


def _spectral_entropy(values: np.ndarray) -> np.ndarray:
    # -sum l ln l over the last axis, terms at or below the cutoff dropped
    return -np.sum(values * np.log(np.where(values > ENTROPY_CUTOFF, values, 1.0)), axis=-1)


def _entropy(values: np.ndarray) -> float:
    # the entropy of one spectrum as a float. Adding 0.0 turns the -0.0 of a
    # pure spectrum into 0.0 and keeps every other float.
    return float(_spectral_entropy(values)) + 0.0


def _state_entropy(rho: np.ndarray) -> float:
    # unchecked: for a state's marginals, valid by construction
    return _entropy(np.linalg.eigvalsh((rho + dag(rho)) / 2))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy ``-sum_i p_i ln p_i`` of a valid density matrix (0 ln 0 = 0).

    Read off the spectrum that :func:`linalg.require_density` checked.
    """
    return _entropy(linalg.require_density(rho, "density matrix")[1].values)


def mutual_information(state: BipartiteState) -> float:
    """``S(rho_a) + S(rho_b) - S(rho)`` in nats."""
    return (
        _state_entropy(state.marginal("a"))
        + _state_entropy(state.marginal("b"))
        - _entropy(state.spectrum.values)
    )


def measured_state(state: BipartiteState, measurement: np.ndarray) -> BipartiteState:
    """Dephased state ``sum_n (P_n (x) 1) rho (P_n (x) 1)`` after measuring a."""
    u = linalg.require_unitary(measurement, state.dim_a, "measurement")
    blocks = measure_a(state, u)
    d = state.dim
    rho = np.einsum("an,nij,bn->aibj", u, blocks, u.conj()).reshape(d, d)
    return BipartiteState(rho, state.dim_a, state.dim_b)


def _loss_objective(state: BipartiteState):
    base = _state_entropy(state.marginal("a")) - _entropy(state.spectrum.values)

    def loss(spectra: np.ndarray, gradient: bool):
        # I(measured rho) = S(rho_b) + H(p) - S(measured rho): measuring a
        # leaves rho_b alone (so S(rho_b) cancels from the loss), dephases
        # rho_a to p_n = tr B_n and makes rho block diagonal in the basis u.
        # The slope of I(measured rho) in the eigenvalue l of block n is
        # ln l - ln p_n, with both logarithms clipped at the cutoff; the
        # loss has the opposite slope.
        probs = spectra.sum(axis=-1)
        value = base - _spectral_entropy(probs) + _spectral_entropy(spectra).sum(axis=-1)
        if not gradient:
            return value, None
        slopes = np.log(np.maximum(spectra, ENTROPY_CUTOFF)) - np.log(
            np.maximum(probs, ENTROPY_CUTOFF)
        )[..., None]
        return value, -slopes

    return _measured_objective(state, loss)


def entropic_discord(
    state: BipartiteState, config: OptimizerConfig | None = None, method: str = "auto"
) -> QuantifierResult:
    """Minimal loss of mutual information under measurement on party a.

    ``min over measurements of I(rho) - I(measured rho)``, restricted to
    rank-1 projective measurements. Zero exactly on CQ/CC states, and >= 0
    up to roundoff: the loss is a difference of entropies, which can cancel
    to slightly below zero (down to -4.4e-16 measured) where the minimum is
    0. Equals the entanglement entropy ``S(rho_a)`` on pure states, in every
    basis.

    ``method="auto"`` takes that closed form on a nearly pure state (the
    purity gate of ``correlations._solve``), at the eigenbasis of rho_a with
    ``method="closed-form"`` and no report; it is off by at most ``(1 -
    purity) (1 + ln(d / (1 - purity)))``, the entropy of rho's small
    eigenvalues, which the gate keeps within the configured tolerance. A
    value certified within tolerance of zero skips the search
    (``method="certified-zero"``); ``method="optimized"`` always searches.
    """
    return _solve(state, config, method, _state_entropy, _loss_objective)


def _dg_qubit(state: BipartiteState) -> QuantifierResult:
    # half the two smaller eigenvalues of K at the basis of the top eigenvector
    # (see geometric_discord)
    m, n = state.dims
    r_l = np.einsum("lab,biaj->lij", _PAULIS, state.rho.reshape(m, n, m, n))
    vals, basis = _bloch_extremum(np.einsum("lij,kji->lk", r_l, r_l).real, -1)
    return QuantifierResult(0.5 * float(vals[0] + vals[1]), basis, "closed-form")


def _distance_objective(state: BipartiteState):
    m, n = state.dims
    rho_ab = state.rho.reshape(m, n, m, n)
    off = ~np.eye(m, dtype=bool)[:, :, None, None]

    def distance(u: np.ndarray, gradient: bool = True):
        # r[..., n, k] = (<u_n| (x) 1) rho (|u_k> (x) 1); two contractions cost less than one
        left = np.einsum("...an,aibj->...nibj", u.conj(), rho_ab)
        r = np.einsum("...nibj,...bk->...nkij", left, u)
        # each basis summed as one C-ordered row, so no value depends on the stack size
        mass = np.where(off, r.real**2 + r.imag**2, 0.0)
        value = np.sum(mass.reshape(*mass.shape[:-4], -1), axis=-1)
        if not gradient:
            return value, None
        return value, _block_gradient(state, -2.0 * np.einsum("...nnij->...nij", r), u)

    return distance


def geometric_discord(
    state: BipartiteState, config: OptimizerConfig | None = None, method: str = "auto"
) -> QuantifierResult:
    """Minimal squared Hilbert-Schmidt distance to a state measured on party a.

    In the basis u the distance is the mass of rho's off-diagonal blocks,
    ``sum_{n != k} ||r_nk||_F^2`` with ``r_nk = (<u_n| (x) 1) rho (|u_k> (x)
    1)`` (Luo and Fu, PRA 82, 034302, 2010), a sum of squares. It equals
    ``tr rho^2 - sum_n ||B_n||^2`` over the measured blocks ``B_n = r_nn``
    (:func:`measure_a`), which gives the gradient, but that difference can
    cancel to below zero. On pure states it is ``1 - tr rho_a^2``
    (:func:`pure_state_correlation`), attained by the eigenbasis of rho_a, a
    Schmidt basis. With a qubit party a, ``R_l = tr_a[(sigma_l (x) 1) rho]``
    and ``K_lk = Re tr(R_l R_k)``, the distance in the basis ``(1 +-
    n.sigma)/2`` is ``(tr K - n^T K n) / 2``, so the minimum is half the sum
    of the two smaller eigenvalues of K, attained by the eigenbasis of
    ``n.sigma`` for the top eigenvector n. K is a Gram matrix, positive
    semidefinite, so that minimum is >= 0: an eigenvalue that roundoff puts
    below zero reads +0.0.

    ``method="auto"`` takes the pure closed form on a nearly pure state (the
    purity gate of ``correlations._solve``), then the qubit one, with
    ``method="closed-form"`` and no report; then a value certified within
    tolerance of zero (``method="certified-zero"``); else it searches
    (``method="optimized"``). ``method="optimized"`` always searches (used
    to cross-check the closed forms and the certificate).
    """
    return _solve(state, config, method, _linear_entropy, _distance_objective, _dg_qubit)
