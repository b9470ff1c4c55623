"""Complex linear algebra for finite-dimensional bipartite systems.

Everything operates on plain numpy arrays. Operators are square complex
matrices; pure states are flat complex vectors in party-a-major order, i.e.
entry ``i * dim_b + j`` is the amplitude of ``|i>_a |j>_b``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import HermiticityError, NormalizationError, OrthonormalityError, ShapeError

HERMITICITY_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-10
#: Eigenvalue pairs whose sum falls below this cutoff are treated as lying
#: outside the support and are excluded from spectral sums.
SUPPORT_CUTOFF = 1e-12


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def hermiticity_defect(h: np.ndarray) -> float:
    """Frobenius norm of ``H - H^dagger``."""
    return float(np.linalg.norm(h - dag(h)))


def require_hermitian(
    h: np.ndarray, name: str = "matrix", tol: float = HERMITICITY_TOL
) -> np.ndarray:
    """Return ``h`` as a complex array, raising if it is not Hermitian."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {h.shape}")
    defect = hermiticity_defect(h)
    if defect > tol:
        raise HermiticityError(
            f"{name} is not Hermitian: ||H - H^dag|| = {defect:.3e} > {tol:.0e}"
        )
    return h


def require_orthonormal_columns(
    v: np.ndarray, name: str = "basis", tol: float = ORTHONORMALITY_TOL
) -> np.ndarray:
    """Return ``v`` as a complex array, raising unless its columns are orthonormal."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2:
        raise ShapeError(f"{name} must be a 2-d array of column vectors")
    gram = dag(v) @ v
    defect = np.linalg.norm(gram - np.eye(v.shape[1]))
    if defect > tol:
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
    if abs(norm - 1.0) > 1e-10:
        raise NormalizationError(f"state vector norm is {norm:.12f}, expected 1")
    u, s, vh = np.linalg.svd(psi.reshape(m, n), full_matrices=False)
    coeffs = s**2
    kept = coeffs > SUPPORT_CUTOFF
    return SchmidtDecomposition(coeffs[kept], u[:, kept], vh[kept].T)


def hermitian_basis(vectors: np.ndarray) -> np.ndarray:
    """Complete trace-orthonormal set of d^2 Hermitian operators.

    Built on orthonormal column vectors ``v_k``: the d projectors
    ``|v_k><v_k|`` followed, for each pair k < l, by the normalized real and
    imaginary combinations ``(|v_k><v_l| + h.c.)/sqrt(2)`` and
    ``i(|v_k><v_l| - h.c.)/sqrt(2)``. Satisfies tr(B_u B_v) = delta_uv.
    """
    v = require_orthonormal_columns(vectors, "observable basis vectors")
    d = v.shape[0]
    if v.shape[1] != d:
        raise ShapeError(f"need {d} basis vectors for dimension {d}, got {v.shape[1]}")
    ops = np.empty((d * d, d, d), dtype=complex)
    for k in range(d):
        ops[k] = np.outer(v[:, k], v[:, k].conj())
    idx = d
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for k in range(d):
        for l in range(k + 1, d):
            ekl = np.outer(v[:, k], v[:, l].conj())
            elk = np.outer(v[:, l], v[:, k].conj())
            ops[idx] = (ekl + elk) * inv_sqrt2
            ops[idx + 1] = 1j * (ekl - elk) * inv_sqrt2
            idx += 2
    return ops


def off_diagonal_mass_and_gradient(mats: np.ndarray, u: np.ndarray):
    """:func:`off_diagonal_mass` and its gradient ``G``, ``df = Re tr(G^dag du)``.

    With ``d_kn = <u_n| M_k |u_n>`` the value is ``sum_k ||M_k||^2 - sum_kn
    d_kn^2``, so ``G[:, n] = -4 sum_k d_kn M_k u_n``.
    """
    m = np.asarray(mats).shape[-1]
    rotated = np.einsum("ak,mab,bl->mkl", u.conj(), mats, u)
    off = rotated[:, ~np.eye(m, dtype=bool)]
    diagonal = rotated.diagonal(axis1=1, axis2=2).real
    grad = -4.0 * np.einsum("kab,bn,kn->an", mats, u, diagonal)
    return float(np.vdot(off, off).real), grad


def off_diagonal_mass(mats: np.ndarray, u: np.ndarray) -> float:
    """``sum_k ||offdiag(U^dag M_k U)||_F^2`` for a ``(K, d, d)`` stack ``M``.

    The quantity :func:`joint_diagonalize` minimizes; a sum of squares, so
    it is ``>= 0`` by construction.
    """
    return off_diagonal_mass_and_gradient(mats, u)[0]


#: Pair rotations whose sine is at most this are skipped.
JACOBI_SINE_TOL = 1e-12
#: A sweep that lowers the off-diagonal mass by at most this share of the
#: stack's squared norm, roundoff in the mass itself, ends
#: :func:`joint_diagonalize`; so does a sweep that skips every pair. On
#: stacks that do not commute the sines fall only linearly, and the mass
#: reaches working precision long before they reach JACOBI_SINE_TOL.
JACOBI_MASS_TOL = 1e-15
#: Sweep cap; a search that needs every allowed sweep counts as unconverged.
JACOBI_MAX_SWEEPS = 1000
#: Eigenvalues of a pair's 3x3 matrix this close to its largest, relative to
#: the largest, count as one top eigenspace; ...
_DEGENERATE_REL = 1e-12
#: ... and so do all of them where they differ by less than this share of
#: the stack's squared norm, the roundoff left on a pair that is already
#: diagonal and degenerate in every matrix.
_DEGENERATE_ABS = 1e-28


def joint_diagonalize(mats: np.ndarray, start: np.ndarray | None = None):
    """Unitary that jointly diagonalizes a stack of Hermitian matrices, approximately.

    Minimizes :func:`off_diagonal_mass` over unitaries ``U`` by complex
    Jacobi sweeps (Cardoso and Souloumiac, SIAM J. Matrix Anal. Appl. 17,
    161, 1996): each pair (p, q) is rotated by the top eigenvector of a 3x3
    real symmetric matrix, which maximizes the pair's diagonal contrast
    over all rotations of that pair. When the top eigenspace is degenerate
    the vector closest to no rotation is used, so a pair on which every
    rotation is equally good is left alone, and so is a pair whose rotation
    sine is at most :data:`JACOBI_SINE_TOL`. Sweeps stop once a sweep lowers
    the off-diagonal mass of the rotated stack by at most
    :data:`JACOBI_MASS_TOL` times ``sum_k ||M_k||^2`` (a sweep that rotates
    no pair lowers it by 0), or after :data:`JACOBI_MAX_SWEEPS`.

    ``start`` (default: the identity) is the unitary the sweeps begin from.
    Returns ``(u, residual, sweeps)``: the columns of ``u`` are the basis,
    ``residual`` is ``off_diagonal_mass(mats, u)`` and ``sweeps`` counts
    every sweep made, the last one included. Deterministic.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ShapeError(f"need a (K, d, d) stack of matrices, got shape {mats.shape}")
    d = mats.shape[1]
    u = np.eye(d, dtype=complex) if start is None else require_unitary(start, d, "start").copy()
    a = np.einsum("ak,mab,bl->mkl", u.conj(), mats, u)
    norm2 = float(np.vdot(mats, mats).real)
    floor = _DEGENERATE_ABS * norm2
    off = ~np.eye(d, dtype=bool)
    mass = float(np.vdot(a[:, off], a[:, off]).real)
    sweeps, decrease = 0, np.inf
    while decrease > JACOBI_MASS_TOL * norm2 and sweeps < JACOBI_MAX_SWEEPS:
        sweeps += 1
        for p in range(d - 1):
            for q in range(p + 1, d):
                pq = [p, q]
                app, aqq, apq, aqp = a[:, p, p], a[:, q, q], a[:, p, q], a[:, q, p]
                g = np.stack([app - aqq, apq + aqp, 1j * (aqp - apq)])
                # g g^dag is real symmetric; it is decomposed as a complex
                # matrix because the real LAPACK path costs the process
                # about 0.5 MB of resident memory when first used.
                vals, vecs = np.linalg.eigh((g @ g.conj().T).real.astype(complex))
                top = vecs[:, vals >= vals[-1] * (1.0 - _DEGENERATE_REL) - floor]
                proj = (top @ top.conj().T).real  # onto the top eigenspace
                k = 0 if proj[0, 0] > 0 else int(np.argmax(proj.diagonal()))
                x, y, z = proj[:, k] / np.sqrt(proj[k, k])
                c = np.sqrt((1.0 + x) / 2)
                s = (y - 1j * z) / (2 * c)
                if abs(s) <= JACOBI_SINE_TOL:
                    continue
                rot = np.array([[c, -np.conj(s)], [s, c]])
                a[:, pq, :] = rot.conj().T @ a[:, pq, :]
                a[:, :, pq] = a[:, :, pq] @ rot
                u[:, pq] = u[:, pq] @ rot
        new_mass = float(np.vdot(a[:, off], a[:, off]).real)
        decrease, mass = mass - new_mass, new_mass
    return u, off_diagonal_mass(mats, u), sweeps


def complete_basis(columns: np.ndarray, dim: int) -> np.ndarray:
    """Extend orthonormal columns to a full orthonormal basis of C^dim."""
    cols = require_orthonormal_columns(columns, "partial basis")
    if cols.shape[0] != dim:
        raise ShapeError(f"vectors live in dimension {cols.shape[0]}, expected {dim}")
    q, _ = np.linalg.qr(np.column_stack([cols, np.eye(dim)]))
    return q[:, :dim]
