"""Constructors and validators for bipartite quantum states.

Covers density-matrix validation, classically correlated (CQ/CC) mixtures,
pure states with prescribed Schmidt coefficients, maximally entangled and
Werner states, seeded random ensembles, and Kraus channels acting on party b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    NormalizationError,
    ShapeError,
    TraceError,
    ValidationError,
)

PURITY_TOL = 1e-8


@dataclass(frozen=True)
class BipartiteState:
    """A density matrix on H^a (x) H^b with party-a-major indexing.

    The constructor checks the matrix with :func:`validate_density`, so an
    unnormalized, non-Hermitian or non-positive matrix raises a
    :class:`ValidationError` here rather than giving a wrong number later.
    ``dim_a`` and ``dim_b`` must be integers >= 1 (numpy integers are
    stored as ``int``; bools are refused) whose product is rho's size, or it
    raises :class:`ShapeError`.
    """

    rho: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        for name in ("dim_a", "dim_b"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ShapeError(f"{name} must be an integer >= 1, got {value!r}")
            object.__setattr__(self, name, int(value))
        rho = validate_density(self.rho)
        object.__setattr__(self, "rho", rho)
        if self.dim_a * self.dim_b != rho.shape[0]:
            raise ShapeError(
                f"dims {self.dim_a}x{self.dim_b} do not match matrix size {rho.shape[0]}"
            )

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @property
    def dims(self) -> tuple[int, int]:
        return (self.dim_a, self.dim_b)

    def marginal(self, party: str) -> np.ndarray:
        """Reduced density matrix of one party."""
        return linalg.partial_trace(self.rho, self.dims, party)

    def purity(self) -> float:
        # tr rho^2 = sum_ij |rho_ij|^2 for a Hermitian rho: no matrix product
        return float(np.vdot(self.rho, self.rho).real)


def validate_density(m: np.ndarray) -> np.ndarray:
    """Check finiteness, Hermiticity, unit trace, and positivity of a density matrix.

    Raises a distinct error for each violated invariant; returns the matrix
    as a complex array on success.
    """
    m = linalg.require_hermitian(m, "density matrix")
    linalg.require_close(np.trace(m), 1.0, TraceError, "density matrix trace is not 1: |tr - 1|")
    linalg.require_positive(m, "density matrix")
    return m


def _validate_probs(probs, count: int | None = None) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if count is not None and p.size != count:
        raise ShapeError(f"expected {count} probabilities, got {p.size}")
    linalg.require_finite(p, "probabilities")
    if p.size and p.min() < -1e-12:
        raise ValidationError(f"negative probability {p.min():.3e}")
    linalg.require_close(p.sum(), 1.0, NormalizationError,
                         "probabilities do not sum to 1: |sum - 1|")
    return np.clip(p, 0.0, None)


def pure_state(psi: np.ndarray, dims: tuple[int, int]) -> BipartiteState:
    """Wrap a normalized state vector as a bipartite density matrix."""
    psi = linalg.require_state_vector(psi, dims)
    return BipartiteState(np.outer(psi, psi.conj()), *dims)


def pure_from_schmidt(coeffs, dims: tuple[int, int]) -> BipartiteState:
    """Pure state ``sum_i sqrt(c_i) |i>_a |i>_b`` with Schmidt coefficients ``c``.

    ``coeffs`` must be nonnegative and sum to one; at most min(M, N) of them.
    The local vectors are the computational bases.
    """
    m, n = dims
    c = _validate_probs(coeffs)
    if c.size > min(m, n):
        raise ShapeError(
            f"{c.size} Schmidt coefficients exceed min dimension {min(m, n)}"
        )
    psi = np.zeros(m * n, dtype=complex)
    psi[np.arange(c.size) * (n + 1)] = np.sqrt(c)  # entry i * n + i is |i>_a |i>_b
    psi /= np.linalg.norm(psi)
    return pure_state(psi, dims)


def make_cq(probs, a_basis: np.ndarray, sigmas) -> BipartiteState:
    """Classical-quantum mixture ``sum_i p_i |a_i><a_i| (x) sigma_i``.

    The a-vectors must be pairwise orthonormal (otherwise the result would
    not be classical on a); the sigmas are validated densities on H^b.
    A CC state is the special case of pure, pairwise-orthogonal sigmas.
    """
    a = linalg.require_orthonormal_columns(a_basis, "a_basis")
    p = _validate_probs(probs, a.shape[1])
    mats = [validate_density(s) for s in sigmas]
    if len(mats) != p.size:
        raise ShapeError(f"expected {p.size} sigmas, got {len(mats)}")
    n = mats[0].shape[0]
    if any(s.shape != (n, n) for s in mats):
        raise ShapeError("sigmas must share a common dimension")
    m = a.shape[0]
    rho = np.zeros((m * n, m * n), dtype=complex)
    for pi, ai, si in zip(p, a.T, mats):
        rho += pi * np.kron(np.outer(ai, ai.conj()), si)
    return BipartiteState(rho, m, n)


def make_cc(
    probs,
    dims: tuple[int, int],
    a_basis: np.ndarray | None = None,
    b_basis: np.ndarray | None = None,
) -> BipartiteState:
    """Classical-classical mixture over orthonormal local vectors on both parties."""
    m, n = dims
    p = _validate_probs(probs)
    if p.size > min(m, n):
        raise ShapeError(f"{p.size} terms exceed min dimension {min(m, n)}")
    a = np.eye(m, dtype=complex) if a_basis is None else linalg.require_orthonormal_columns(a_basis, "a_basis")
    b = np.eye(n, dtype=complex) if b_basis is None else linalg.require_orthonormal_columns(b_basis, "b_basis")
    sigmas = [np.outer(b[:, i], b[:, i].conj()) for i in range(p.size)]
    return make_cq(p, a[:, : p.size], sigmas)


def make_witness_state(
    a=(2**-0.5, 2**-0.5),
    b=(1.0, 0.0),
    probs=(1 / 3, 1 / 3, 1 / 3),
    dims: tuple[int, int] = (3, 2),
) -> BipartiteState:
    """Three-component mixture that fools any single local commutation test.

    On an MxN system with M >= 3, mixes ``|0>|0>``, ``(a1|1> + a2|2>)|0>``
    and ``(b1|1> + b2|2>)|1>`` with weights ``probs``; the a-side overlap
    ``a1*b1 + a2*b2`` of the last two must be nonzero. The result commutes
    with the local projector ``|0><0| (x) 1`` yet is not classical on a, so
    its quantum correlation is strictly positive.
    """
    m, n = dims
    if m < 3:
        raise ValidationError(f"party a needs dimension >= 3, got {m}")
    if n < 2:
        raise ValidationError(f"party b needs dimension >= 2, got {n}")
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.size != 2 or b.size != 2:
        raise ShapeError("a and b must each hold two amplitudes")
    for name, vec in (("a", a), ("b", b)):
        linalg.require_close(np.linalg.norm(vec), 1.0, NormalizationError,
                             f"{name} is not normalized: | ||{name}|| - 1 |")
    overlap = a[0] * b[0] + a[1] * b[1]
    if abs(overlap) <= 1e-12:
        raise ValidationError(
            "a1*b1 + a2*b2 vanishes; the two components must overlap on party a"
        )
    p = _validate_probs(probs, 3)
    eye_a = np.eye(m, dtype=complex)
    e0, e1 = np.eye(n, dtype=complex)[:2]
    components = [
        np.kron(eye_a[:, 0], e0),
        np.kron(a[0] * eye_a[:, 1] + a[1] * eye_a[:, 2], e0),
        np.kron(b[0] * eye_a[:, 1] + b[1] * eye_a[:, 2], e1),
    ]
    rho = np.zeros((m * n, m * n), dtype=complex)
    for pi, psi in zip(p, components):
        rho += pi * np.outer(psi, psi.conj())
    return BipartiteState(rho, m, n)


def max_entangled(m: int) -> BipartiteState:
    """Maximally entangled pure state on an MxM system."""
    if m < 2:
        raise ValidationError(f"maximal entanglement needs dimension >= 2, got {m}")
    return pure_from_schmidt(np.full(m, 1.0 / m), (m, m))


def werner(w: float) -> BipartiteState:
    """Two-qubit Werner state: w times the singlet plus (1-w)/4 times identity."""
    if not -1 / 3 - 1e-12 <= w <= 1 + 1e-12:
        raise ValidationError(f"werner weight {w} outside [-1/3, 1]")
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1 / np.sqrt(2)
    psi[2] = -1 / np.sqrt(2)
    rho = w * np.outer(psi, psi.conj()) + (1 - w) * np.eye(4) / 4
    return BipartiteState(rho, 2, 2)


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed random unitary (QR of a Ginibre matrix, phases fixed)."""
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(dim: int, seed) -> np.ndarray:
    """Random Hermitian matrix with Gaussian entries (GUE-type)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + linalg.dag(g)) / 2


def random_density(dim: int, rank: int, seed) -> np.ndarray:
    """Random density matrix of the given rank via the Ginibre construction."""
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank {rank} must lie in [1, {dim}]")
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))) / np.sqrt(2)
    m = g @ linalg.dag(g)
    return m / np.real(np.trace(m))


def random_pure(dims: tuple[int, int], seed) -> BipartiteState:
    """Random pure bipartite state with Gaussian amplitudes."""
    m, n = dims
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
    return pure_state(psi / np.linalg.norm(psi), dims)


@dataclass(frozen=True)
class KrausChannel:
    """Trace-preserving channel given by Kraus operators on a single party."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        object.__setattr__(self, "operators", ops)
        if not ops:
            raise ShapeError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        if any(k.shape != (d, d) for k in ops):
            raise ShapeError("Kraus operators must be square with a common dimension")
        linalg.require_finite(ops, "Kraus operators")
        linalg.require_close(sum(linalg.dag(k) @ k for k in ops), np.eye(d), ValidationError,
                             "channel is not trace preserving: ||sum K^dag K - I||")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def apply_channel_b(state: BipartiteState, channel: KrausChannel) -> BipartiteState:
    """Apply a Kraus channel to party b: ``sum_k (1 (x) K_k) rho (1 (x) K_k)^dag``."""
    if channel.dim != state.dim_b:
        raise ShapeError(
            f"channel dimension {channel.dim} does not match party b ({state.dim_b})"
        )
    eye_a = np.eye(state.dim_a, dtype=complex)
    out = np.zeros_like(state.rho)
    for k in channel.operators:
        lifted = np.kron(eye_a, k)
        out += lifted @ state.rho @ linalg.dag(lifted)
    return BipartiteState(out, state.dim_a, state.dim_b)


def random_kraus_channel(dim: int, n_operators: int, seed) -> KrausChannel:
    """Random trace-preserving channel from normalized Ginibre operators."""
    if n_operators < 1:
        raise ValidationError("channel needs at least one Kraus operator")
    rng = np.random.default_rng(seed)
    raw = [
        (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        / np.sqrt(2)
        for _ in range(n_operators)
    ]
    total = sum(linalg.dag(g) @ g for g in raw)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = vecs @ np.diag(vals**-0.5) @ linalg.dag(vecs)
    return KrausChannel(tuple(g @ inv_sqrt for g in raw))
