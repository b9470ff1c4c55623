"""Complex linear algebra for finite-dimensional bipartite systems.

Everything operates on plain numpy arrays. Operators are square complex
matrices; pure states are flat complex vectors in party-a-major order, i.e.
entry ``i * dim_b + j`` is the amplitude of ``|i>_a |j>_b``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (HermiticityError, NormalizationError, OrthonormalityError,
                     PositivityError, ShapeError, TraceError, ValidationError)

#: Tolerance of every input check (Hermiticity, orthonormality, unit norm, unit
#: trace, positivity, completeness); only the ``require_*`` functions read it.
VALIDATION_TOL = 1e-10
#: Eigenvalue pairs whose sum is at or below this cutoff are treated as lying
#: outside the support and are excluded from spectral sums.
SUPPORT_CUTOFF = 1e-12


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def require_close(value, target, error: type[ValidationError], what: str) -> None:
    """Raise ``error``, naming the defect ``what``, unless ``||value - target|| <= VALIDATION_TOL``.

    Written so that a NaN defect fails.
    """
    defect = float(np.linalg.norm(np.subtract(value, target)))
    if not defect <= VALIDATION_TOL:
        raise error(f"{what} = {defect:.3e} > {VALIDATION_TOL:.0e}")


def require_finite(x, name: str) -> None:
    """Raise unless every entry of ``x`` is finite (no NaN, no infinity)."""
    if not np.isfinite(x).all():
        raise ValidationError(f"{name} must be finite; found a non-finite entry")


def require_dim(value, name: str) -> int:
    """Return ``value`` as an ``int``, raising ``ShapeError`` unless it is an integer >= 1.

    numpy integers are accepted; bools are refused.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ShapeError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def require_dims(dims) -> tuple[int, int]:
    """Return ``dims`` as ``(dim_a, dim_b)``, each checked by :func:`require_dim`.

    Any pair that unpacks into two values is accepted; anything else raises
    ``ShapeError``.
    """
    try:
        dim_a, dim_b = dims
    except (TypeError, ValueError):
        raise ShapeError(f"dims must be a pair (dim_a, dim_b), got {dims!r}") from None
    return require_dim(dim_a, "dim_a"), require_dim(dim_b, "dim_b")


def require_hermitian(h: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``h`` as a complex array, raising unless it is finite, Hermitian and of size >= 1."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or not h.size:
        raise ShapeError(f"{name} must be a square matrix, got shape {h.shape}")
    require_finite(h, name)
    require_close(h, dag(h), HermiticityError, f"{name} is not Hermitian: ||H - H^dag||")
    return h


def require_positive(h: np.ndarray, name: str) -> Spectrum:
    """The descending spectrum of Hermitian ``h``; raises on an eigenvalue below ``-VALIDATION_TOL``.

    ``h`` is one matrix or a ``(k, d, d)`` stack, checked as one: the error
    names the lowest eigenvalue of the whole stack. One decomposition gives
    both: the check reads the lowest eigenvalue of the spectrum it returns,
    the last one of a single matrix without a reduction.
    """
    spectrum = _spectrum(h)
    values = spectrum.values
    lowest = float(values[-1] if values.ndim == 1 else values[:, -1].min())
    if not lowest >= -VALIDATION_TOL:
        raise PositivityError(f"{name} has eigenvalue {lowest:.3e} < 0")
    return spectrum


def require_density(rho: np.ndarray, name: str) -> tuple[np.ndarray, Spectrum]:
    """The one density-matrix check: ``rho`` as a complex array and its descending spectrum.

    Raises unless ``rho`` passes :func:`require_hermitian`, has unit trace
    (``TraceError``) and passes :func:`require_positive`, in that order.
    """
    rho = require_hermitian(rho, name)
    require_close(np.trace(rho), 1.0, TraceError, f"{name} trace is not 1: |tr - 1|")
    return rho, require_positive(rho, name)


def require_orthonormal_columns(v: np.ndarray, name: str = "basis") -> np.ndarray:
    """Return ``v`` as a complex array, raising unless its columns are orthonormal."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2:
        raise ShapeError(f"{name} must be a 2-d array of column vectors")
    require_finite(v, name)
    require_close(dag(v) @ v, np.eye(v.shape[1]), OrthonormalityError,
                  f"{name} columns are not orthonormal: ||V^dag V - I||")
    return v


def require_unitary(u: np.ndarray, dim: int, name: str = "unitary") -> np.ndarray:
    """Return ``u`` as a complex array, raising unless it is a ``dim x dim`` unitary, dim >= 1."""
    if dim < 1 or np.shape(u) != (dim, dim):
        raise ShapeError(f"{name} of shape {np.shape(u)} does not match dimension {dim} >= 1")
    return require_orthonormal_columns(u, name)


def require_state_vector(psi: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Return ``psi`` as a flat complex array, raising unless it is a unit vector on ``dims``."""
    m, n = require_dims(dims)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != m * n:
        raise ShapeError(f"state vector length {psi.size} does not match dims {m}x{n}")
    require_close(np.linalg.norm(psi), 1.0, NormalizationError,
                  "state vector is not normalized: | ||psi|| - 1 |")
    return psi


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one party of a bipartite operator.

    Parameters
    ----------
    rho : (M*N, M*N) array
    dims : (M, N) subsystem dimensions, party a first; must pass
        :func:`require_dims`.
    keep : "a" or "b", the party retained.
    """
    m, n = require_dims(dims)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (m * n, m * n):
        raise ShapeError(
            f"operator shape {rho.shape} does not match dims {m}x{n}"
        )
    return _partial_trace(rho, m, n, keep)


def _partial_trace(rho: np.ndarray, m: int, n: int, keep: str) -> np.ndarray:
    # partial_trace without the checks, for an (m n, m n) complex rho whose
    # dims are already checked (a state's)
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
    decomposition to suppress roundoff. Exactly tied eigenvalues keep their
    eigenvectors in the reverse of LAPACK's order.
    """
    return _spectrum(require_hermitian(h, name))


def _spectrum(h: np.ndarray) -> Spectrum:
    # eigh without the check, for a matrix or a stack already checked (a
    # state's rho). One index gather reverses LAPACK's ascending pairs, so
    # tied eigenvalues come out in the reverse of LAPACK's order. Its
    # eigenvectors are F-contiguous; on a reversed view or a C-contiguous
    # copy the solvers' einsums round differently in the last bits.
    vals, vecs = np.linalg.eigh((h + dag(h)) / 2)
    descending = np.arange(vals.shape[-1] - 1, -1, -1)
    return Spectrum(vals[..., descending], vecs[..., descending])


def hermitian_basis(d: int) -> np.ndarray:
    """Complete trace-orthonormal set of d^2 Hermitian d x d operators.

    The d projectors ``|k><k|`` onto the computational basis, followed, for
    each pair k < l, by the normalized real and imaginary combinations
    ``(|k><l| + |l><k|)/sqrt(2)`` and ``i(|k><l| - |l><k|)/sqrt(2)``.
    Satisfies tr(B_u B_v) = delta_uv. ``d`` must pass :func:`require_dim`.
    """
    d = require_dim(d, "d")
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
