"""Quantum Fisher information of unitary families and related quantities.

Conventions: for a state rho driven as ``rho_theta = exp(-i theta H) rho
exp(i theta H)`` the QFI carries the 1/4 normalization under which the QFI
of a pure state equals the plain variance of H. The symmetric logarithmic
derivative L is the Hermitian solution of ``i[rho, H] = (L rho + rho L)/2``
on the support of rho, and QFI = (1/4) tr(rho L^2). Every function here
that takes rho checks it with :func:`linalg.require_density` (Hermitian,
unit trace, positive) and raises a typed ``ValidationError`` otherwise;
``qfi`` and ``sld`` read rho's spectrum off that check's one decomposition.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DegeneratePointError, ShapeError, ValidationError
from .linalg import SUPPORT_CUTOFF, dag

#: Outcome probabilities below this floor are treated as vanishing.
PROBABILITY_FLOOR = 1e-12
#: Probability derivatives below this threshold are treated as stationary.
DERIVATIVE_FLOOR = 1e-8


def _operands(rho: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, linalg.Spectrum]:
    """The density matrix, the Hermitian observable of its shape and rho's checked spectrum."""
    h = linalg.require_hermitian(h, "observable")
    # rho is checked in full before the shapes are compared, so its
    # Hermiticity is checked once
    rho, spectrum = linalg.require_density(rho, "state")
    if rho.shape != h.shape:
        raise ShapeError(f"state shape {rho.shape} does not match observable {h.shape}")
    return rho, h, spectrum


def validate_povm(elements, dim: int | None = None) -> list[np.ndarray]:
    """Validate a POVM: Hermitian positive elements resolving the identity.

    The elements' positivity is checked as one stack, in one decomposition.
    """
    mats = [linalg.require_hermitian(e, "POVM element") for e in elements]
    if not mats:
        raise ShapeError("POVM needs at least one element")
    d = mats[0].shape[0] if dim is None else dim
    if any(e.shape != (d, d) for e in mats):
        raise ShapeError("POVM elements must share the state dimension")
    linalg.require_positive(np.stack(mats), "POVM element")
    linalg.require_close(sum(mats), np.eye(d), ValidationError,
                         "POVM does not resolve the identity: ||sum E - I||")
    return mats


def evolve(rho: np.ndarray, h: np.ndarray, theta: float) -> np.ndarray:
    """Unitary orbit ``exp(-i theta H) rho exp(i theta H)``; ``theta`` must be finite."""
    rho, h, _ = _operands(rho, h)
    linalg.require_finite(theta, "theta")
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
    _, h, spectrum = _operands(rho, h)
    elems = dag(spectrum.vectors) @ h @ spectrum.vectors
    w = qfi_weight_matrix(spectrum.values)
    return float(np.sum(w * (elems.real**2 + elems.imag**2)))


def variance(rho: np.ndarray, h: np.ndarray) -> float:
    """Variance ``tr(rho H^2) - (tr rho H)^2`` of an observable."""
    rho, h, _ = _operands(rho, h)
    first = float(np.real(np.trace(rho @ h)))
    second = float(np.real(np.trace(rho @ h @ h)))
    return second - first**2


def sld(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative of the unitary family generated by ``h``.

    Built in the eigenbasis of rho with elements ``2 <psi_x| i[rho, H]
    |psi_y> / (p_x + p_y)``; eigenvalue pairs outside the support contribute
    zero.
    """
    _, h, spectrum = _operands(rho, h)
    elems = dag(spectrum.vectors) @ h @ spectrum.vectors
    p = spectrum.values
    # <psi_x| i[rho,H] |psi_y> = i (p_x - p_y) <psi_x|H|psi_y>
    drho = 1j * (p[:, None] - p[None, :]) * elems
    sums = p[:, None] + p[None, :]
    # a pair outside the support divides by inf, as in qfi_weight_matrix
    core = 2.0 * drho / np.where(sums > SUPPORT_CUTOFF, sums, np.inf)
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
    rho, h, _ = _operands(rho, h)
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
