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
from functools import lru_cache, partial

import numpy as np

from . import linalg
from .errors import PurityError, ShapeError
from .fisher import qfi_weight_matrix
from .optimize import OptimizerConfig, OptimizerReport, multistart, optimize_basis
from .states import PURITY_TOL, BipartiteState, random_hermitian

@dataclass(frozen=True)
class QuantifierResult:
    """A correlation value, the basis that attains it and how it was reached.

    ``argopt`` is the unitary whose columns realize the optimum (the
    minimizing basis or measurement). ``method`` is one of:

    * ``"optimized"``: the gradient search of :func:`optimize_basis`, whose
      ``report.best_value`` is ``value``;
    * ``"closed-form"``: no search and no ``report`` (a pure state in
      every solver, and a mixed state with a qubit party a in
      :func:`observable_correlation` and geometric discord);
    * ``"certified-zero"``: no search, because the objective at one
      candidate basis was already within the tolerance of zero, the lower
      bound of every quantifier (see ``_solve``). ``report`` records that
      one evaluation: one restart, one evaluation, no iterations,
      converged. It means "within tolerance of zero", not "classical": a
      state a little off the classical ones can be certified too.
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


#: Pauli matrices sigma_x, sigma_y, sigma_z.
_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch_extremum(k: np.ndarray, index: int):
    # Eigenvalues of the real symmetric 3 x 3 matrix k, ascending, and the
    # eigenbasis of n.sigma for the eigenvector n of eigenvalue number index.
    # A quantity that is n^T k n on the qubit basis {(1 +- n.sigma)/2} of
    # each unit vector n takes that eigenvalue there. k is decomposed as a
    # complex matrix because the real LAPACK path costs the process about
    # 0.5 MB of resident memory when first used. Both callers pass a Gram
    # matrix, positive semidefinite, so its eigenvalues are clipped at +0.0:
    # roundoff would otherwise put a zero slightly below it.
    vals, vecs = np.linalg.eigh(k.astype(complex))
    n = vecs[:, index]
    lead = n[np.argmax(abs(n))]
    n = (n * abs(lead) / lead).real  # the eigenvector without its phase
    return np.maximum(vals, 0.0), np.linalg.eigh((n @ _PAULIS.reshape(3, 4)).reshape(2, 2))[1]


def _start_basis(rho_a: np.ndarray) -> np.ndarray:
    # The eigenbasis of rho_a, for one d_a x d_a eigh. It is the optimum on
    # pure states (the Schmidt basis) and on CQ/CC states whose rho_a has no
    # repeated eigenvalue (it is then the classical basis).
    return np.linalg.eigh(rho_a)[1]


def _linear_entropy(rho_a: np.ndarray) -> float:
    # 1 - tr rho_a^2, as 1 - sum_ij |rho_ij|^2 for a Hermitian rho_a
    return float(1.0 - np.sum(rho_a.real**2 + rho_a.imag**2))


@lru_cache(maxsize=None)
def _probe_observable(dim_b: int) -> np.ndarray:
    # The generic Hermitian Y on b of the certificate in _solve. Cached:
    # drawing it takes about 26 us, twice the einsum and eigh that use it
    # (timeit on a 2-vCPU host, over the noisy-discord benchmark states).
    y = random_hermitian(dim_b, 0)
    y.flags.writeable = False
    return y


def _solve(
    state: BipartiteState, config: OptimizerConfig | None, method: str, pure_value, objective,
    qubit=None,
) -> QuantifierResult:
    """Every solver of party a: its closed forms, certificate and search, in that order.

    ``method`` must be ``"auto"`` or ``"optimized"``; ``config=None`` is
    ``OptimizerConfig()``. ``objective(state)`` builds the function ``f``
    to minimize, after the closed forms, so a solve that ends in one does
    none of its setup. Under ``"auto"`` three steps may return first.

    *Purity gate.* A state with ``delta = 1 - purity`` at most
    ``min(PURITY_TOL, tolerance / 100)`` takes its closed form
    ``pure_value(rho_a)`` at the eigenbasis of rho_a, a Schmidt basis of a
    pure state, where every quantifier attains it; no report. rho's top
    eigenvalue is at least ``1 - delta``. Entropic discord is then off its
    closed form by at most S(rho) or the conditional entropies of the
    measured state, each at most ``h(delta) + delta ln d <= delta (1 + ln(d
    / delta))`` with h the binary entropy: below ``100 delta`` for every
    positive float delta (>= 2^-53) and d < e^60. The other three are off by
    O(delta), measured at most ``0.91 delta`` on nearly pure states up to
    4x4. So every closed form the gate admits is within the tolerance; at
    the default tolerance 1e-6 the bound is PURITY_TOL.

    *Qubit closed form.* ``qubit(state)``, when given and ``dim_a == 2``.

    *Certificate.* Write ``rho = sum_k A_k (x) Y_k`` over a
    trace-orthonormal Hermitian basis ``Y_k`` of b. rho is classical on a
    exactly when the ``A_k`` commute pairwise (Dakic, Vedral and Brukner,
    PRL 105, 190502, 2010), and the eigenbasis of a generic combination of
    them is then a classical basis. The combination is ``S = tr_b[(1 (x) Y)
    rho] = sum_k tr(Y Y_k) A_k`` for a fixed generic Hermitian ``Y`` on b,
    ``random_hermitian(dim_b, 0)``: Gaussian entries from
    ``np.random.default_rng(0)``, never numpy's global generator, cached per
    ``dim_b``. The value of ``f`` alone (``f(u, gradient=False)``, which
    returns ``(value, None)``) is evaluated once at the eigenbasis of S.
    Every quantifier is >= 0 in every basis up to roundoff, so a value at
    most ``config.tolerance`` is within tolerance of the minimum: it is
    returned with ``method="certified-zero"``, that basis and a report of
    that one evaluation. That is "within tolerance of zero", not "classical"
    (a state mixed with a little entanglement can pass).

    Otherwise :func:`optimize_basis` minimizes ``f`` with restart 0 at the
    eigenbasis of rho_a. It is looked up as a module global on each call,
    so a rebound one (``bench/tracing.py``) is the one that runs.
    """
    if method not in ("auto", "optimized"):
        raise ValueError(f"method must be 'auto' or 'optimized', got {method!r}")
    config = config if config is not None else OptimizerConfig()
    auto = method == "auto"
    if auto:
        purity = state.purity()
        if purity >= 1.0 - PURITY_TOL and 1.0 - purity <= config.tolerance / 100:
            rho_a = state.marginal("a")
            return QuantifierResult(pure_value(rho_a), _start_basis(rho_a), "closed-form")
        if qubit is not None and state.dim_a == 2:
            return qubit(state)
    f = objective(state)
    if auto:
        m, n = state.dims
        s = np.einsum("ji,aibj->ab", _probe_observable(n), state.rho.reshape(m, n, m, n))
        basis = np.linalg.eigh(s)[1]
        value = float(f(basis, gradient=False)[0])
        if value <= config.tolerance:
            report = multistart([(basis, value, 1, 0, True)])
            return QuantifierResult(value, basis, "certified-zero", report)
    report = optimize_basis(f, _start_basis(state.marginal("a")), config=config)
    return QuantifierResult(report.best_value, report.best_unitary, "optimized", report)


def lift_a(h: np.ndarray, dim_b: int) -> np.ndarray:
    """Embed an observable of party a into the joint space: ``h (x) 1_b``."""
    h = linalg.require_hermitian(h, "observable")
    return np.kron(h, np.eye(dim_b, dtype=complex))


def lift_b(h: np.ndarray, dim_a: int) -> np.ndarray:
    """Embed an observable of party b into the joint space: ``1_a (x) h``."""
    h = linalg.require_hermitian(h, "observable")
    return np.kron(np.eye(dim_a, dtype=complex), h)


def _qfi_spectrum(state: BipartiteState):
    # QFI weights w of rho's spectrum and its eigenvectors as v3[a, b, i],
    # unchecked, since the state's constructor checked rho. The eigenpairs
    # are in LAPACK's ascending order: w and every sum over the eigenpairs
    # do not depend on the order.
    m, n = state.dims
    vals, vecs = np.linalg.eigh((state.rho + state.rho.conj().T) / 2)
    return qfi_weight_matrix(vals), vecs.reshape(m, n, m * n)


def total_local_qfi_b(state: BipartiteState) -> float:
    """Summed QFI of the drivings ``1 (x) h`` over a trace-orthonormal basis of b.

    Basis free by Parseval's relation: ``sum_ij w_ij ||tr_a |psi_j><psi_i| ||_F^2``
    over the eigenpairs of rho, with the QFI weights ``w``. The test suite
    and criterion 7 check it against explicit sums over canonical and
    randomly rotated bases.
    """
    w, v3 = _qfi_spectrum(state)
    m, n, d = v3.shape
    # one Gram matrix of all the reduced operators: x.T @ x.conj() holds
    # (tr_a |psi_j><psi_i|)[b, c] at [(b, j), (c, i)]
    x = v3.reshape(m, n * d)
    reduced = (x.T @ x.conj()).reshape(n, d, n, d)
    return float((w * (reduced.real**2 + reduced.imag**2).sum(axis=(0, 2))).sum())


def _block_gradient(state: BipartiteState, d: np.ndarray, u: np.ndarray) -> np.ndarray:
    # The gradient G[a, n] = 2 sum_b tr(D_n rho_ab) u[b, n] of a function of the
    # measured blocks with df = sum_n tr(D_n dB_n), for the stack d of the D_n.
    m, n = state.dims
    return 2.0 * np.einsum("...nij,ajbi,...bn->...an", d, state.rho.reshape(m, n, m, n), u)


def _measured_objective(state: BipartiteState, spectral):
    # The objective u -> (sum_n F(B_n), G) for a spectral function F of the
    # measured blocks; spectral(l, gradient) returns the values and dF/dl at
    # the block eigenvalues l (None without gradient), and D_n = V_n
    # diag(dF/dl) V_n^dag (see _block_gradient). With gradient=False it
    # returns (value, None) from the eigenvalues alone, computing no slope.

    def objective(u: np.ndarray, gradient: bool = True):
        blocks = measure_a(state, u)
        if not gradient:
            return spectral(np.linalg.eigvalsh(blocks), False)
        vals, vecs = np.linalg.eigh(blocks)
        value, slopes = spectral(vals, True)
        d = np.einsum("...nik,...nk,...njk->...nij", vecs, slopes, vecs.conj())
        return value, _block_gradient(state, d, u)

    return objective


def _mfi_spectral(vals: np.ndarray, gradient: bool):
    # sum_n sum_ij (l_i - l_j)^2 / (2 (l_i + l_j)) and, with gradient, its
    # slopes in l_i (else None), pairs at or below the support cutoff
    # dropped. The weights are homogeneous of degree one, so p_n w(spectrum
    # of B_n / p_n) is w(spectrum of B_n): no normalization and no 0/0 at a
    # dark outcome.
    value = qfi_weight_matrix(vals).sum(axis=(-3, -2, -1))
    if not gradient:
        return value, None
    li, lj = vals[..., :, None], vals[..., None, :]
    sums = li + lj
    # a pair at or below the cutoff divides by inf, to a zero whose sign
    # + 0.0 clears from the row sum
    slopes = (li - lj) * (li + 3.0 * lj) / np.where(sums > linalg.SUPPORT_CUTOFF, sums, np.inf)**2
    return value, slopes.sum(axis=-1) + 0.0


def total_mfi(state: BipartiteState, measurement: np.ndarray) -> float:
    """Measurement-induced Fisher information summed over a basis of b.

    Basis free by Parseval's relation: ``sum_n sum_ij (l_i - l_j)^2 /
    (2 (l_i + l_j))`` over the eigenvalues ``l`` of each unnormalized
    measured block (:func:`measure_a`), pairs at or below the support
    cutoff dropped. Equals the sum of the measurement-induced Fisher
    information ``sum_n p(n) F(rho_b|n, h)`` over any trace-orthonormal
    Hermitian basis ``h`` of b and is nonnegative by construction.
    """
    u = linalg.require_unitary(measurement, state.dim_a, "measurement")
    return float(_measured_objective(state, _mfi_spectral)(u, gradient=False)[0])


def _basis_qfi_core(w: np.ndarray, v3: np.ndarray, u: np.ndarray, gradient: bool = True):
    # For each basis u of the (..., d_a, d_a) stack: c[m, nb, k] = <u_m|
    # Psi_k[:, nb]>, so e[m, i, j] = <psi_i| P_m (x) 1 |psi_j>.
    c = np.einsum("...am,ank->...mnk", u.conj(), v3)
    e = np.einsum("...mni,...mnj->...mij", c.conj(), c)
    value = (w * (e.real**2 + e.imag**2)).sum(axis=(-3, -2, -1))
    if not gradient:
        return value, None
    # The value is quartic in u: with W_m = w o e_m (Hermitian),
    # G[a, m] = 4 sum W_m[j, i] conj(c[m, b, i]) v3[a, b, j].
    x = c.conj() @ np.swapaxes(w * e, -1, -2)
    return value, 4.0 * np.einsum("...mbj,abj->...am", x, v3)


def _qah_objective(state: BipartiteState):
    return partial(_basis_qfi_core, *_qfi_spectrum(state))


def _qah_qubit(state: BipartiteState) -> QuantifierResult:
    # lambda_min(K) / 2 at the basis of the bottom eigenvector (see observable_correlation)
    w, v3 = _qfi_spectrum(state)
    m, n, d = v3.shape
    # s[k] = V^dag (sigma_k (x) 1) V row by row, and K = sum_ij w_ij s_k[i, j] conj(s_l[i, j])
    lifted = (_PAULIS.reshape(3 * m, m) @ v3.reshape(m, n * d)).reshape(3, m * n, d)
    s = (v3.reshape(m * n, d).conj().T @ lifted).reshape(3, d * d)
    vals, basis = _bloch_extremum(((s * w.reshape(-1)) @ s.conj().T).real, 0)
    return QuantifierResult(0.5 * float(vals[0]), basis, "closed-form")


def observable_correlation(
    state: BipartiteState, config: OptimizerConfig | None = None, method: str = "auto"
) -> QuantifierResult:
    """Quantum correlation as minimal summed local-driving QFI on party a.

    Minimizes, over all orthonormal bases {phi_n} of H^a, the summed QFI of
    the rank-1 drivings ``|phi_n><phi_n| (x) 1``. Zero exactly on CQ/CC
    states; equal to ``1 - tr rho_a^2`` on pure states
    (:func:`pure_state_correlation`), attained by the eigenbasis of rho_a (a
    Schmidt basis).

    For a mixed state with a qubit party a the minimum has a closed form,
    the structure of the local quantum uncertainty (Girolami, Tufarelli and
    Adesso, PRL 110, 240402, 2013): the projectors of the basis ``(1 +-
    n.sigma)/2`` each have QFI ``n^T K n / 4`` with ``K_kl = sum_ij w_ij
    Re(<psi_i|s_k|psi_j> <psi_j|s_l|psi_i>)``, ``s_k = sigma_k (x) 1``, over
    the eigenpairs of rho and their QFI weights w. So the value is
    ``lambda_min(K) / 2``, attained by the eigenbasis of ``n.sigma`` for the
    bottom eigenvector n. K is a Gram matrix, positive semidefinite, so the
    value is >= 0: an eigenvalue that roundoff puts below zero reads +0.0.

    ``method="auto"`` takes the pure closed form on a nearly pure state (the
    purity gate of ``_solve``), then the qubit one, with
    ``method="closed-form"`` and no report; then a value certified within
    tolerance of zero (``method="certified-zero"``); else the gradient
    search of :func:`optimize_basis` from the eigenbasis of rho_a
    (``method="optimized"``). ``method="optimized"`` always searches (used
    to cross-check the closed forms and the certificate).
    """
    return _solve(state, config, method, _linear_entropy, _qah_objective, _qah_qubit)


def _qapi_objective(state: BipartiteState):
    total = total_local_qfi_b(state)

    def gap(vals: np.ndarray, gradient: bool):
        value, slopes = _mfi_spectral(vals, gradient)
        return total - value, -slopes if gradient else None

    return _measured_objective(state, gap)


def measurement_correlation(
    state: BipartiteState, config: OptimizerConfig | None = None, method: str = "auto"
) -> QuantifierResult:
    """Quantum correlation as the Fisher gap of hierarchical measurements.

    Minimizes, over rank-1 von Neumann measurements on party a, the gap
    between the basis-summed local QFI on party b and its measurement-induced
    counterpart :func:`total_mfi`. Zero exactly on CQ/CC states, and >= 0 up
    to roundoff: the gap is a difference, which can cancel to slightly below
    zero (down to -8.9e-16 on acceptance criterion 3's CQ/CC states) where
    the minimum is 0. Equal to ``1 - tr rho_a^2`` on pure states, in every
    basis (:func:`pure_state_correlation`).

    ``method="auto"`` takes that closed form on a nearly pure state (the
    purity gate of ``_solve``), at the eigenbasis of rho_a with
    ``method="closed-form"`` and no report, and skips the search for a
    value certified within tolerance of zero (``method="certified-zero"``);
    ``method="optimized"`` always searches.
    """
    return _solve(state, config, method, _linear_entropy, _qapi_objective)


def pure_state_correlation(state: BipartiteState) -> float:
    """Closed-form correlation ``1 - tr rho_a^2`` of a pure state.

    Both quantifiers take this value on pure states, where it also equals
    the geometric discord: the linear entropy of the reduced state (Luo and
    Fu, PRA 82, 034302, 2010), ``1 - sum_i c_i^2`` over the Schmidt
    coefficients ``c_i`` (the eigenvalues of rho_a). The three solvers
    return it for a pure state without a search (``method="auto"``). Raises
    :class:`PurityError` on mixed input.
    """
    purity = state.purity()
    if purity < 1.0 - PURITY_TOL:
        raise PurityError(f"state has purity {purity:.9f}, expected 1")
    return _linear_entropy(state.marginal("a"))
