"""QFI-based quantum-correlation quantifiers for bipartite states.

Two quantifiers are provided, both vanishing exactly on states that are
classical on party a (CQ/CC mixtures) and coinciding with the geometric
discord on pure states:

* :func:`observable_correlation` - the minimum, over orthonormal bases
  {phi_n} of H^a, of the summed QFI of the rank-1 local drivings
  ``|phi_n><phi_n| (x) 1``.
* :func:`measurement_correlation` - the gap between the basis-summed local
  QFI on party b and its best measurement-induced counterpart, where party b
  measures after a rank-1 von Neumann measurement on party a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ShapeError
from .fisher import qfi_weight_matrix
from .optimize import OptimizerConfig, OptimizerReport, optimize_basis
from .states import BipartiteState, state_vector

@dataclass(frozen=True)
class QuantifierResult:
    """A correlation value, the basis that attains it and how it was reached.

    ``argopt`` is the unitary whose columns realize the optimum (the
    minimizing basis or measurement). ``method`` is ``"optimized"`` (the
    gradient search of :func:`optimize_basis`, whose ``report.best_value``
    is ``value``) or ``"closed-form"`` (no search and no ``report``: pure
    states in geometric discord, and a qubit party a in
    :func:`observable_correlation` and geometric discord).
    """

    value: float
    argopt: np.ndarray
    method: str
    report: OptimizerReport | None = None

    @property
    def converged(self) -> bool:
        return self.report is None or self.report.converged


def measurement_projectors(u: np.ndarray) -> list[np.ndarray]:
    """Rank-1 projectors onto the columns of a measurement unitary."""
    u = np.asarray(u, dtype=complex)
    return [np.outer(u[:, k], u[:, k].conj()) for k in range(u.shape[1])]


def measure_a(state: BipartiteState, u: np.ndarray) -> np.ndarray:
    """Unnormalized measured blocks ``B_n = (<u_n| (x) 1) rho (|u_n> (x) 1)``.

    ``u`` holds vectors of party a as columns. Only its shape is checked
    here, because optimizer objectives call this on every evaluation; for a
    measurement, validate ``u`` first with :func:`linalg.require_unitary`.
    Returns a ``(k, dim_b, dim_b)`` stack for ``k`` columns, and a ``(...,
    k, dim_b, dim_b)`` stack for a ``(..., dim_a, k)`` stack of such
    matrices; for a measurement, ``tr B_n`` is the probability of outcome n
    and ``sum_n B_n`` is the b marginal.
    """
    m, n = state.dims
    u = np.asarray(u)
    if u.ndim < 2 or u.shape[-2] != m:
        raise ShapeError(f"vectors of shape {u.shape} do not match dim_a {m}")
    return np.einsum("...an,aibj,...bn->...nij", u.conj(), state.rho.reshape(m, n, m, n), u)


def _a_components(x: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    # A_k = tr_b[(1 (x) Y_k) X] over the trace-orthonormal Hermitian basis Y_k
    # of b, so X = sum_k A_k (x) Y_k and, for the dephasing Pi_u of party a in
    # the basis u, ||X - Pi_u X||^2 is the off-diagonal mass of the A_k
    # (linalg.off_diagonal_mass_and_gradient).
    m, n = dims
    y = linalg.hermitian_basis(n)
    return np.einsum("kji,aibj->kab", y, np.asarray(x).reshape(m, n, m, n))


#: Pauli matrices sigma_x, sigma_y, sigma_z.
_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _closed_form_applies(state: BipartiteState, method: str) -> bool:
    # Whether a solver with a qubit-a closed form skips its search.
    if method not in ("auto", "optimized"):
        raise ValueError(f"method must be 'auto' or 'optimized', got {method!r}")
    return method == "auto" and state.dim_a == 2


def _bloch_extremum(k: np.ndarray, index: int):
    # Eigenvalues of the real symmetric 3 x 3 matrix k, ascending, and the
    # eigenbasis of n.sigma for the eigenvector n of eigenvalue number index.
    # A quantity that is n^T k n on the qubit basis {(1 +- n.sigma)/2} of
    # each unit vector n takes that eigenvalue there. k is decomposed as a
    # complex matrix because the real LAPACK path costs the process about
    # 0.5 MB of resident memory when first used.
    vals, vecs = np.linalg.eigh(k.astype(complex))
    n = vecs[:, index]
    lead = n[np.argmax(abs(n))]
    n = (n * abs(lead) / lead).real  # the eigenvector without its phase
    return vals, np.linalg.eigh(np.tensordot(n, _PAULIS, 1))[1]


def _start_basis(state: BipartiteState) -> np.ndarray:
    # Restart 0 of every basis search: the eigenbasis of rho_a, for one
    # d_a x d_a eigh. It is the optimum on pure states (the Schmidt basis)
    # and on CQ/CC states whose rho_a has no repeated eigenvalue (it is then
    # the classical basis).
    return np.linalg.eigh(state.marginal("a"))[1]


def lift_a(h: np.ndarray, dim_b: int) -> np.ndarray:
    """Embed an observable of party a into the joint space: ``h (x) 1_b``."""
    h = linalg.require_hermitian(h, "observable")
    return np.kron(h, np.eye(dim_b, dtype=complex))


def lift_b(h: np.ndarray, dim_a: int) -> np.ndarray:
    """Embed an observable of party b into the joint space: ``1_a (x) h``."""
    h = linalg.require_hermitian(h, "observable")
    return np.kron(np.eye(dim_a, dtype=complex), h)


def total_local_qfi_b(state: BipartiteState) -> float:
    """Summed QFI of the drivings ``1 (x) h`` over a trace-orthonormal basis of b.

    Basis free by Parseval's relation: ``sum_ij w_ij ||tr_a |psi_j><psi_i| ||_F^2``
    over the eigenpairs of rho, with the QFI weights ``w``. The test suite
    and criterion 7 check it against explicit sums over canonical and
    randomly rotated bases.
    """
    m, n = state.dims
    spectrum = linalg.eigh(state.rho, "state")
    v3 = spectrum.vectors.reshape(m, n, m * n)
    reduced = np.einsum("abj,aci->jibc", v3, v3.conj())
    w = qfi_weight_matrix(spectrum.values)
    return float(np.sum(w[:, :, None, None] * (reduced.real**2 + reduced.imag**2)))


def _measured_gradient(state: BipartiteState, u: np.ndarray, vecs, slopes) -> np.ndarray:
    # Gradient of f(u) = sum_n F(B_n) for spectral functions F of the measured
    # blocks, given the eigenvectors of each block and dF/dl at its eigenvalues:
    # with D_n = V_n diag(dF/dl) V_n^dag, df = sum_n tr(D_n dB_n), so
    # G[a, n] = 2 sum_b tr(D_n rho_ab) u[b, n] for the blocks rho_ab of rho.
    m, n = state.dims
    d = np.einsum("...nik,...nk,...njk->...nij", vecs, slopes, vecs.conj())
    return 2.0 * np.einsum("...nij,ajbi,...bn->...an", d, state.rho.reshape(m, n, m, n), u)


def _mfi_objective(state: BipartiteState):
    """Closure returning ``(total_mfi, G)`` for measurements on party a."""

    def objective(u: np.ndarray):
        # The weights are homogeneous of degree one, so p_n w(spectrum of B_n /
        # p_n) is w(spectrum of B_n): no normalization and no 0/0 at a dark
        # outcome.
        vals, vecs = np.linalg.eigh(measure_a(state, u))
        li, lj = vals[..., :, None], vals[..., None, :]
        sums = li + lj
        # d/dl_i of sum_ij (l_i - l_j)^2 / (2 (l_i + l_j)), pairs below the
        # support cutoff dropped
        slopes = np.zeros_like(sums)
        np.divide(
            (li - lj) * (li + 3.0 * lj), sums**2, out=slopes, where=sums > linalg.SUPPORT_CUTOFF
        )
        value = np.sum(qfi_weight_matrix(vals), axis=(-3, -2, -1))
        return value, _measured_gradient(state, u, vecs, slopes.sum(axis=-1))

    return objective


def total_mfi(state: BipartiteState, measurement: np.ndarray) -> float:
    """Measurement-induced Fisher information summed over a basis of b.

    Basis free by Parseval's relation: ``sum_n sum_ij (l_i - l_j)^2 /
    (2 (l_i + l_j))`` over the eigenvalues ``l`` of each unnormalized
    measured block (:func:`measure_a`), pairs below the support cutoff
    dropped. Equals the sum of the measurement-induced Fisher information
    ``sum_n p(n) F(rho_b|n, h)`` over any trace-orthonormal Hermitian basis
    ``h`` of b and is nonnegative by construction.
    """
    u = linalg.require_unitary(measurement, state.dim_a, "measurement")
    return float(_mfi_objective(state)(u)[0])


def _basis_qfi_core(w: np.ndarray, v3: np.ndarray, u: np.ndarray):
    # For each basis u of the (..., d_a, d_a) stack: c[m, nb, k] = <u_m|
    # Psi_k[:, nb]>, so e[m, i, j] = <psi_i| P_m (x) 1 |psi_j>.
    c = np.einsum("...am,ank->...mnk", u.conj(), v3)
    e = np.einsum("...mni,...mnj->...mij", c.conj(), c)
    value = np.sum(w * (e.real**2 + e.imag**2), axis=(-3, -2, -1))
    # The value is quartic in u: with W_m = w o e_m (Hermitian),
    # G[a, m] = 4 sum W_m[j, i] conj(c[m, b, i]) v3[a, b, j].
    x = c.conj() @ np.swapaxes(w * e, -1, -2)
    return value, 4.0 * np.einsum("...mbj,abj->...am", x, v3)


def _qfi_spectrum(state: BipartiteState):
    # QFI weights w of rho's spectrum and its eigenvectors as v3[a, b, i].
    m, n = state.dims
    spectrum = linalg.eigh(state.rho, "state")
    return qfi_weight_matrix(spectrum.values), spectrum.vectors.reshape(m, n, m * n)


def _basis_qfi_objective(state: BipartiteState):
    """Closure returning the summed per-projector QFI and its gradient ``G``."""
    w, v3 = _qfi_spectrum(state)
    return lambda u: _basis_qfi_core(w, v3, u)


def basis_qfi_sum(state: BipartiteState, basis_u: np.ndarray) -> float:
    """Summed QFI of the rank-1 drivings ``|phi_n><phi_n| (x) 1`` for one basis.

    ``basis_u`` is a unitary whose columns are the basis vectors on party a.
    This is the quantity :func:`observable_correlation` minimizes.
    """
    u = linalg.require_unitary(basis_u, state.dim_a, "basis")
    return float(_basis_qfi_objective(state)(u)[0])


def observable_correlation(
    state: BipartiteState, config: OptimizerConfig | None = None, method: str = "auto"
) -> QuantifierResult:
    """Quantum correlation as minimal summed local-driving QFI on party a.

    Minimizes :func:`basis_qfi_sum` over all orthonormal bases of H^a. Zero
    exactly on CQ/CC states; equal to ``1 - sum_i s_i^2`` on pure states with
    Schmidt coefficients ``s_i``.

    For a qubit party a the minimum has a closed form, the structure of the
    local quantum uncertainty (Girolami, Tufarelli and Adesso, PRL 110,
    240402, 2013): the projectors of the basis ``(1 +- n.sigma)/2`` each have
    QFI ``n^T K n / 4`` with ``K_kl = sum_ij w_ij Re(<psi_i|s_k|psi_j>
    <psi_j|s_l|psi_i>)``, ``s_k = sigma_k (x) 1``, over the eigenpairs of rho
    and their QFI weights w. So the value is ``lambda_min(K) / 2``, attained
    by the eigenbasis of ``n.sigma`` for the bottom eigenvector n, and the
    result has ``method="closed-form"`` and no report. Other party-a
    dimensions run the gradient search of :func:`optimize_basis` from the
    eigenbasis of rho_a (``method="optimized"``). Pass ``method="optimized"``
    to run the search on a qubit party a too (used to cross-check the closed
    form).
    """
    w, v3 = _qfi_spectrum(state)
    if _closed_form_applies(state, method):
        s = np.einsum("ani,kab,bnj->kij", v3.conj(), _PAULIS, v3)
        vals, basis = _bloch_extremum(np.einsum("ij,kij,lij->kl", w, s, s.conj()).real, 0)
        return QuantifierResult(0.5 * float(vals[0]), basis, "closed-form")
    report = optimize_basis(
        lambda u: _basis_qfi_core(w, v3, u), _start_basis(state), config=config
    )
    return QuantifierResult(report.best_value, report.best_unitary, "optimized", report)


def measurement_correlation(
    state: BipartiteState, config: OptimizerConfig | None = None
) -> QuantifierResult:
    """Quantum correlation as the Fisher gap of hierarchical measurements.

    Minimizes, over rank-1 von Neumann measurements on party a, the gap
    between the basis-summed local QFI on party b and its measurement-induced
    counterpart :func:`total_mfi`. Zero exactly on CQ/CC states; equal to
    ``1 - sum_i s_i^2`` on pure states.
    """
    total = total_local_qfi_b(state)
    mfi = _mfi_objective(state)

    def gap(u: np.ndarray):
        value, grad = mfi(u)
        return total - value, -grad

    report = optimize_basis(gap, _start_basis(state), config=config)
    return QuantifierResult(report.best_value, report.best_unitary, "optimized", report)


def pure_state_correlation(state: BipartiteState) -> float:
    """Closed-form correlation ``1 - sum_i s_i^2`` of a pure state.

    Both quantifiers take this value on pure states, where it also equals
    the geometric discord. Raises on mixed input.
    """
    sd = linalg.schmidt(state_vector(state), state.dims)
    return float(1.0 - np.sum(sd.coefficients**2))
