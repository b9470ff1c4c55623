"""Independent oracles for the library's objectives and searches, used only by the tests.

The library's objectives are spectral functions of the measured blocks and
never normalize them. The per-outcome oracles take the long way: normalized
conditional states of party b and the measurement-induced Fisher
information of one observable at a time. :func:`basis_qfi_sum` sums one QFI
per basis vector, where the library evaluates qah's objective as one
polynomial in the basis, and :func:`schmidt` reaches the Schmidt
coefficients of a pure state by an SVD, where the library's closed form
reads ``1 - tr rho_a^2`` off the reduced state.

The library finds every optimal basis of party a with one gradient search.
:func:`joint_diagonalize` reaches the optimum of the off-diagonal mass by
another path, Jacobi pair rotations, so the tests can hold the search to it.
"""

from typing import NamedTuple

import numpy as np

from qfc import PurityError, ShapeError, lift_a, linalg, measure_a, qfi
from qfc.correlations import _a_components
from qfc.linalg import (SUPPORT_CUTOFF, off_diagonal_mass_and_gradient, require_state_vector,
                        require_unitary)
from qfc.optimize import START_SPREAD, unitary_from_params
from qfc.states import PURITY_TOL, haar_unitary

#: Measurement outcomes with probability below this cutoff are dropped.
OUTCOME_CUTOFF = 1e-12


class ConditionalEnsemble(NamedTuple):
    """Post-measurement ensemble on party b.

    ``probs[k]`` and ``states[k]`` hold the outcome probability and the
    normalized conditional state for each retained outcome; outcomes below
    the probability cutoff are omitted and their total weight reported in
    ``dropped_mass``.
    """

    probs: np.ndarray
    states: np.ndarray
    dropped_mass: float


def conditional_states(state, measurement) -> ConditionalEnsemble:
    """Outcome probabilities and conditional b-states of a measurement on a."""
    blocks = measure_a(state, linalg.require_unitary(measurement, state.dim_a, "measurement"))
    probs = np.real(np.trace(blocks, axis1=1, axis2=2))
    kept = probs > OUTCOME_CUTOFF
    dropped = float(np.clip(probs[~kept], 0.0, None).sum())
    normalized = blocks[kept] / probs[kept, None, None]
    normalized = (normalized + normalized.conj().transpose(0, 2, 1)) / 2
    return ConditionalEnsemble(probs[kept], normalized, dropped)


def mfi(state, measurement, h_b) -> float:
    """Measurement-induced Fisher information for one observable on party b.

    ``sum_n p(n) F(rho_b|n, h_b)`` over the retained outcomes of the rank-1
    measurement on party a.
    """
    h_b = linalg.require_hermitian(h_b, "observable")
    ensemble = conditional_states(state, measurement)
    return float(sum(p * qfi(sigma, h_b) for p, sigma in zip(ensemble.probs, ensemble.states)))


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
    """Schmidt decomposition of a normalized bipartite pure state vector, by an SVD.

    Coefficients below the support cutoff are dropped together with their
    local vectors.
    """
    m, n = dims
    psi = require_state_vector(psi, dims)
    u, s, vh = np.linalg.svd(psi.reshape(m, n), full_matrices=False)
    coeffs = s**2
    kept = coeffs > SUPPORT_CUTOFF
    return SchmidtDecomposition(coeffs[kept], u[:, kept], vh[kept].T)


def state_vector(state) -> np.ndarray:
    """The state vector of a pure bipartite state: rho's top eigenvector."""
    if state.purity() < 1.0 - PURITY_TOL:
        raise PurityError(f"state has purity {state.purity():.9f}, expected 1")
    return linalg.eigh(state.rho, "state").vectors[:, 0]


def basis_qfi_sum(state, basis_u) -> float:
    """``sum_n qfi(rho, lift_a(|u_n><u_n|, d_b))`` over the columns u_n of a unitary.

    The summed QFI of the rank-1 drivings of one basis of party a, one QFI
    at a time: the quantity :func:`qfc.observable_correlation` minimizes.
    """
    u = require_unitary(basis_u, state.dim_a, "basis")
    return float(sum(qfi(state.rho, lift_a(np.outer(v, v.conj()), state.dim_b)) for v in u.T))


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


def jacobi_basis(state, starts: int, seed: int = 0):
    """``(u_G, D_G)``: the best Jacobi basis of rho over ``starts`` starts.

    The starts are the identity and then ``haar_unitary(dim_a, seed + k)``.
    ``D_G``, the off-diagonal mass of rho's components on party a in the
    basis ``u_G``, is the geometric discord this oracle reaches.
    """
    stack = _a_components(state.rho, state.dims)
    runs = [
        joint_diagonalize(stack, None if k == 0 else haar_unitary(state.dim_a, seed + k))[:2]
        for k in range(starts)
    ]
    return min(runs, key=lambda run: run[1])


def random_params(dim: int, seed: int, count: int) -> np.ndarray:
    """The generator coefficients of restarts 1 to ``count`` of :func:`qfc.optimize_basis`.

    Row k - 1 is what restart k of a search at base seed ``seed`` draws;
    it does not depend on ``count``.
    """
    return np.random.default_rng(seed).normal(0.0, START_SPREAD, size=(count, dim * dim))


def random_start(dim: int, seed: int) -> np.ndarray:
    """The unitary restart 1 of a search at base seed ``seed`` starts from.

    Tests that need a random restart 0 pass ``random_start(d, s)``.
    """
    return unitary_from_params(random_params(dim, seed, 1)[0], dim)


#: qah, qapi, entropic and geometric discord of the 20 states of
#: ``test_reach.reach_states()``, in that order, each the best of 48 restarts
#: at tolerance 1e-12 and base seed 1000 (``test_reach.FROZEN_CFG``). Made at
#: commit 2256f43, before the search screened its restarts, by
#: ``PYTHONPATH=src python tests/test_reach.py``. They are frozen so that a
#: loss of reach that a search and a longer run of the same search share
#: still fails.
REACH_REFERENCES = {
    "qah": (
        0.13822759110557398,
        0.305089590361467,
        0.2147498640364274,
        0.4039415481609877,
        0.18709326744189447,
        0.09397838391152606,
        0.17566344127033706,
        0.3942760459144191,
        0.15811275862944318,
        0.5067733355964054,
        0.11409459369552695,
        0.32922177937029556,
        0.19950152467411375,
        0.266293497342383,
        0.17686439374798585,
        0.2687564681993813,
        0.16740845774332003,
        0.37362869704685064,
        0.1264046382292563,
        0.32542156763845925,
    ),
    "qapi": (
        0.12975505328799697,
        0.28531667260757665,
        0.679343961456607,
        0.3583271446334184,
        0.42733899020528643,
        0.06415869883693792,
        0.3763521861078728,
        0.49356014720203234,
        0.1668007647193313,
        0.4967601076111605,
        0.08069738499284995,
        0.33168767108725516,
        0.6601916505152461,
        0.13039405574622276,
        0.3885305220827867,
        0.2013395029043823,
        0.41480534983915973,
        0.5373523244957603,
        0.1027170088652265,
        0.3302839077961848,
    ),
    "dq": (
        0.12023005373573037,
        0.3975981675484521,
        0.24391510979362874,
        0.5314186685200812,
        0.20088600187666827,
        0.1284525592657253,
        0.18963270275437916,
        0.5457754659562983,
        0.14451197244433578,
        0.7235893832795921,
        0.06271475752170486,
        0.45978710705001613,
        0.24289309180611007,
        0.29700194818091363,
        0.18163601596152557,
        0.3008204736884659,
        0.19730657344017688,
        0.6024838748602488,
        0.08335142395799355,
        0.4832142600967446,
    ),
    "dg": (
        0.0759932613364645,
        0.1588196534256071,
        0.046356039808701247,
        0.2754755245878524,
        0.03222885259294197,
        0.07108782232414186,
        0.04938907041151164,
        0.22200055131269983,
        0.04228307608590144,
        0.27056649467897054,
        0.050202193601915246,
        0.18685654158080578,
        0.042452840949421713,
        0.13814846257348376,
        0.03160354097657261,
        0.20957063833971135,
        0.038197028857853886,
        0.18519906634006345,
        0.030527227841189455,
        0.18974032624139214,
    ),
}
