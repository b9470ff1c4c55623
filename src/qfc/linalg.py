"""Complex linear algebra for finite-dimensional bipartite systems.

Everything operates on plain numpy arrays. Operators are square complex
matrices; pure states are flat complex vectors in party-a-major order, i.e.
entry ``i * dim_b + j`` is the amplitude of ``|i>_a |j>_b``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import HermiticityError, NormalizationError, OrthonormalityError, ShapeError

#: Tolerance of every input check: Hermiticity, orthonormality, unit norm,
#: unit trace, positivity and completeness.
VALIDATION_TOL = 1e-10
#: Eigenvalue pairs whose sum falls below this cutoff are treated as lying
#: outside the support and are excluded from spectral sums.
SUPPORT_CUTOFF = 1e-12


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def hermiticity_defect(h: np.ndarray) -> float:
    """Frobenius norm of ``H - H^dagger``."""
    return float(np.linalg.norm(h - dag(h)))


def require_hermitian(h: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``h`` as a complex array, raising if it is not Hermitian."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {h.shape}")
    defect = hermiticity_defect(h)
    if defect > VALIDATION_TOL:
        raise HermiticityError(
            f"{name} is not Hermitian: ||H - H^dag|| = {defect:.3e} > {VALIDATION_TOL:.0e}"
        )
    return h


def require_orthonormal_columns(v: np.ndarray, name: str = "basis") -> np.ndarray:
    """Return ``v`` as a complex array, raising unless its columns are orthonormal."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2:
        raise ShapeError(f"{name} must be a 2-d array of column vectors")
    gram = dag(v) @ v
    defect = np.linalg.norm(gram - np.eye(v.shape[1]))
    if defect > VALIDATION_TOL:
        raise OrthonormalityError(
            f"{name} columns are not orthonormal: ||V^dag V - I|| = {defect:.3e}"
        )
    return v


def require_unitary(u: np.ndarray, dim: int, name: str = "unitary") -> np.ndarray:
    """Return ``u`` as a complex array, raising unless it is a ``dim x dim`` unitary."""
    if np.shape(u) != (dim, dim):
        raise ShapeError(f"{name} of shape {np.shape(u)} does not match dimension {dim}")
    return require_orthonormal_columns(u, name)


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one party of a bipartite operator.

    Parameters
    ----------
    rho : (M*N, M*N) array
    dims : (M, N) subsystem dimensions, party a first.
    keep : "a" or "b", the party retained.
    """
    m, n = dims
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (m * n, m * n):
        raise ShapeError(
            f"operator shape {rho.shape} does not match dims {m}x{n}"
        )
    r4 = rho.reshape(m, n, m, n)
    if keep == "a":
        return np.einsum("pnqn->pq", r4)
    if keep == "b":
        return np.einsum("mimj->ij", r4)
    raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""

    values: np.ndarray
    vectors: np.ndarray  # orthonormal eigenvectors as columns


def eigh(h: np.ndarray, name: str = "matrix") -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, sorted descending.

    The input is validated and symmetrized as ``(H + H^dag)/2`` before
    decomposition to suppress roundoff.
    """
    h = require_hermitian(h, name)
    vals, vecs = np.linalg.eigh((h + dag(h)) / 2)
    order = np.argsort(-vals, kind="stable")
    return Spectrum(vals[order], vecs[:, order])


class SchmidtDecomposition(NamedTuple):
    """Schmidt data of a bipartite pure state.

    ``coefficients`` are the squared singular values of the reshaped
    amplitude matrix, descending, summing to one. ``a_vectors`` and
    ``b_vectors`` hold the local orthonormal vectors as columns, so the
    state is ``sum_i sqrt(c_i) a_i (x) b_i``.
    """

    coefficients: np.ndarray
    a_vectors: np.ndarray
    b_vectors: np.ndarray


def schmidt(psi: np.ndarray, dims: tuple[int, int]) -> SchmidtDecomposition:
    """Schmidt decomposition of a normalized bipartite pure state vector.

    Coefficients below the support cutoff are dropped together with their
    local vectors.
    """
    m, n = dims
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (m * n,):
        raise ShapeError(f"state vector length {psi.size} does not match dims {m}x{n}")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > VALIDATION_TOL:
        raise NormalizationError(f"state vector norm is {norm:.12f}, expected 1")
    u, s, vh = np.linalg.svd(psi.reshape(m, n), full_matrices=False)
    coeffs = s**2
    kept = coeffs > SUPPORT_CUTOFF
    return SchmidtDecomposition(coeffs[kept], u[:, kept], vh[kept].T)


def hermitian_basis(d: int) -> np.ndarray:
    """Complete trace-orthonormal set of d^2 Hermitian d x d operators.

    The d projectors ``|k><k|`` onto the computational basis, followed, for
    each pair k < l, by the normalized real and imaginary combinations
    ``(|k><l| + |l><k|)/sqrt(2)`` and ``i(|k><l| - |l><k|)/sqrt(2)``.
    Satisfies tr(B_u B_v) = delta_uv.
    """
    ops = np.zeros((d * d, d, d), dtype=complex)
    for k in range(d):
        ops[k, k, k] = 1.0
    idx = d
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for k in range(d):
        for l in range(k + 1, d):
            ops[idx, k, l] = ops[idx, l, k] = inv_sqrt2
            ops[idx + 1, k, l] = 1j * inv_sqrt2
            ops[idx + 1, l, k] = -1j * inv_sqrt2
            idx += 2
    return ops


def off_diagonal_mass_and_gradient(mats: np.ndarray, u: np.ndarray):
    """Off-diagonal mass of a stack in the basis u, and its gradient ``G``.

    The mass of a ``(K, d, d)`` stack ``M`` is ``sum_k ||offdiag(U^dag M_k
    U)||_F^2``, a sum of squares, so ``>= 0``; ``df = Re tr(G^dag du)``. With
    ``d_kn = <u_n| M_k |u_n>`` the value is ``sum_k ||M_k||^2 - sum_kn
    d_kn^2``, so ``G[:, n] = -4 sum_k d_kn M_k u_n``. A ``(..., d, d)``
    stack of bases u gives values of shape ``(...)`` and a ``(..., d, d)``
    stack of gradients.
    """
    m = np.asarray(mats).shape[-1]
    rotated = np.einsum("...ak,mab,...bl->...mkl", u.conj(), mats, u)
    # Boolean indexing leaves the batch axes inner in memory; each basis is
    # summed as one C-ordered row, so no value depends on the stack size.
    off = np.ascontiguousarray(rotated[..., ~np.eye(m, dtype=bool)])
    diagonal = rotated.diagonal(axis1=-2, axis2=-1).real
    grad = -4.0 * np.einsum("kab,...bn,...kn->...an", mats, u, diagonal)
    return np.sum((off.real**2 + off.imag**2).reshape(*off.shape[:-2], -1), axis=-1), grad
