"""Independent oracles for the library's objectives and searches, used only by the tests.

The library's objectives are spectral functions of the measured blocks and
never normalize them. The per-outcome oracles take the long way: normalized
conditional states of party b and the measurement-induced Fisher
information of one observable at a time.

The library finds every optimal basis of party a with one gradient search.
:func:`joint_diagonalize` reaches the optimum of the off-diagonal mass by
another path, Jacobi pair rotations, so the tests can hold the search to it.
"""

from typing import NamedTuple

import numpy as np

from qfc import ShapeError, linalg, measure_a, qfi
from qfc.correlations import _a_components
from qfc.linalg import off_diagonal_mass_and_gradient, require_unitary
from qfc.optimize import random_params, unitary_from_params
from qfc.states import haar_unitary

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


def random_start(dim: int, seed: int) -> np.ndarray:
    """The unitary a random restart draws from the stream seeded ``seed``.

    Restart k >= 1 of a search at base seed s starts at ``random_start(d, s +
    k)``; tests that need a random restart 0 pass ``random_start(d, s)``.
    """
    return unitary_from_params(random_params(dim, np.random.default_rng(seed)), dim)
