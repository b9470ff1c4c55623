"""Quantum Fisher information of unitary families and related quantities.

Conventions: for a state rho driven as ``rho_theta = exp(-i theta H) rho
exp(i theta H)`` the QFI carries the 1/4 normalization under which the QFI
of a pure state equals the plain variance of H. The symmetric logarithmic
derivative L is the Hermitian solution of ``i[rho, H] = (L rho + rho L)/2``
on the support of rho, and QFI = (1/4) tr(rho L^2). Every function here
that takes rho checks that it is a density matrix (Hermitian, unit trace,
positive) and raises a typed ``ValidationError`` otherwise.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DegeneratePointError, ShapeError, TraceError, ValidationError
from .linalg import SUPPORT_CUTOFF, dag

#: Outcome probabilities below this floor are treated as vanishing.
PROBABILITY_FLOOR = 1e-12
#: Probability derivatives below this threshold are treated as stationary.
DERIVATIVE_FLOOR = 1e-8


def _unit_trace_operands(rho: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Hermitian rho of unit trace and Hermitian h of its shape, positivity unchecked
    h = linalg.require_hermitian(h, "observable")
    rho = linalg.require_hermitian(rho, "state")
    if rho.shape != h.shape:
        raise ShapeError(f"state shape {rho.shape} does not match observable {h.shape}")
    linalg.require_close(np.trace(rho), 1.0, TraceError, "state trace is not 1: |tr - 1|")
    return rho, h


def _operands(rho: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The density matrix and the Hermitian observable as complex arrays of one shape."""
    rho, h = _unit_trace_operands(rho, h)
    linalg.require_positive(rho, "state")
    return rho, h


def _spectral_operands(rho: np.ndarray, h: np.ndarray):
    # rho's spectrum and h in its eigenbasis, checked as _operands checks
    # them; positivity is read off the one decomposition of rho
    rho, h = _unit_trace_operands(rho, h)
    spectrum = linalg.positive_spectrum(rho, "state")
    return spectrum, dag(spectrum.vectors) @ h @ spectrum.vectors


def validate_povm(elements, dim: int | None = None) -> list[np.ndarray]:
    """Validate a POVM: Hermitian positive elements resolving the identity."""
    mats = [linalg.require_hermitian(e, "POVM element") for e in elements]
    if not mats:
        raise ShapeError("POVM needs at least one element")
    d = mats[0].shape[0] if dim is None else dim
    if any(e.shape != (d, d) for e in mats):
        raise ShapeError("POVM elements must share the state dimension")
    for e in mats:
        linalg.require_positive(e, "POVM element")
    linalg.require_close(sum(mats), np.eye(d), ValidationError,
                         "POVM does not resolve the identity: ||sum E - I||")
    return mats


def evolve(rho: np.ndarray, h: np.ndarray, theta: float) -> np.ndarray:
    """Unitary orbit ``exp(-i theta H) rho exp(i theta H)``."""
    rho, h = _operands(rho, h)
    vals, vecs = np.linalg.eigh((h + dag(h)) / 2)
    u = (vecs * np.exp(-1j * theta * vals)) @ dag(vecs)
    return u @ rho @ dag(u)


def qfi_weight_matrix(values: np.ndarray) -> np.ndarray:
    """Spectral weights ``(p_i - p_j)^2 / (2 (p_i + p_j))`` with support cutoff.

    Pairs whose eigenvalue sum is at or below the cutoff are excluded (weight
    +0.0); a NaN value propagates. Broadcasts over leading axes: a ``(...,
    d)`` stack of spectra gives a ``(..., d, d)`` stack of weight matrices.
    """
    p = np.asarray(values, dtype=float)
    sums = p[..., :, None] + p[..., None, :]
    diffs = p[..., :, None] - p[..., None, :]
    # an excluded pair divides its square (>= +0.0) by inf; a NaN sum is kept
    return diffs**2 / (2.0 * np.where(sums <= SUPPORT_CUTOFF, np.inf, sums))


def qfi(rho: np.ndarray, h: np.ndarray) -> float:
    """Quantum Fisher information of the unitary family generated by ``h``.

    Evaluated spectrally: ``sum_ij (p_i - p_j)^2 / (2(p_i + p_j))
    |<psi_i|H|psi_j>|^2`` over eigenpairs inside the support.
    """
    spectrum, elems = _spectral_operands(rho, h)
    w = qfi_weight_matrix(spectrum.values)
    return float(np.sum(w * (elems.real**2 + elems.imag**2)))


def variance(rho: np.ndarray, h: np.ndarray) -> float:
    """Variance ``tr(rho H^2) - (tr rho H)^2`` of an observable."""
    rho, h = _operands(rho, h)
    first = float(np.real(np.trace(rho @ h)))
    second = float(np.real(np.trace(rho @ h @ h)))
    return second - first**2


def sld(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative of the unitary family generated by ``h``.

    Built in the eigenbasis of rho with elements ``2 <psi_x| i[rho, H]
    |psi_y> / (p_x + p_y)``; eigenvalue pairs outside the support contribute
    zero.
    """
    spectrum, elems = _spectral_operands(rho, h)
    p = spectrum.values
    # <psi_x| i[rho,H] |psi_y> = i (p_x - p_y) <psi_x|H|psi_y>
    drho = 1j * (p[:, None] - p[None, :]) * elems
    sums = p[:, None] + p[None, :]
    core = np.zeros_like(drho)
    mask = sums > SUPPORT_CUTOFF
    core[mask] = 2.0 * drho[mask] / sums[mask]
    l = spectrum.vectors @ core @ dag(spectrum.vectors)
    return (l + dag(l)) / 2


def classical_fi(rho: np.ndarray, h: np.ndarray, povm) -> float:
    """Classical Fisher information of a POVM at ``rho`` on its unitary orbit.

    ``(1/4) sum_x (d p_x / d theta)^2 / p_x`` at theta = 0 with the exact
    derivative ``d p_x / d theta = Re tr(M_x i[rho, H])``. Outcomes with
    probability below the floor contribute zero when their derivative also
    vanishes; a near-zero probability with a non-vanishing derivative is an
    undefined 0/0 point and raises. Another point of the orbit is the state
    ``evolve(rho, h, theta)``.
    """
    rho, h = _operands(rho, h)
    mats = validate_povm(povm, rho.shape[0])
    drho = 1j * (rho @ h - h @ rho)
    total = 0.0
    for x, m in enumerate(mats):
        p0 = float(np.real(np.trace(m @ rho)))
        dp = float(np.real(np.trace(m @ drho)))
        if p0 < PROBABILITY_FLOOR:
            if abs(dp) < DERIVATIVE_FLOOR:
                continue
            raise DegeneratePointError(
                f"outcome {x} has probability {p0:.3e} with derivative {dp:.3e}; "
                "evaluate at a nearby point of the orbit, evolve(rho, h, theta)"
            )
        total += dp**2 / p0
    return 0.25 * total
