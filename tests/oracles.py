"""Independent oracles for the library's objectives and searches, used only by the tests.

The library's objectives are functions of rho's blocks in the basis of
party a and never normalize them. The per-outcome oracles take the long
way: normalized conditional states of party b and the measurement-induced
Fisher information of one observable at a time. :func:`basis_qfi_sum` sums
one QFI per basis vector, where the library evaluates qah's objective as
one polynomial in the basis, and :func:`schmidt` reaches the Schmidt
coefficients of a pure state by an SVD, where the library's closed form
reads ``1 - tr rho_a^2`` off the reduced state.

The library finds every optimal basis of party a with one gradient search.
:func:`joint_diagonalize` reaches the optimum of the off-diagonal mass by
another path, Jacobi pair rotations, on the components ``A_k`` of rho
(:func:`_a_components`), so the tests can hold the search to it.
"""

from typing import NamedTuple

import numpy as np

from qfc import PurityError, ShapeError, hermitian_basis, lift_a, linalg, measure_a, qfi
from qfc.linalg import SUPPORT_CUTOFF, require_state_vector, require_unitary
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


def qfi_weight_matrix(values: np.ndarray) -> np.ndarray:
    """The QFI weights ``(p_i - p_j)^2 / (2 (p_i + p_j))`` by a masked division.

    The library's earlier formula, kept as the oracle of
    :func:`qfc.qfi_weight_matrix`: a zero-filled buffer, divided into only
    where the pair sum is not at or below the cutoff, so that a pair at the
    cutoff weighs +0.0 and a NaN sum propagates.
    """
    p = np.asarray(values, dtype=float)
    sums = p[..., :, None] + p[..., None, :]
    diffs = p[..., :, None] - p[..., None, :]
    w = np.zeros_like(sums)
    np.divide(diffs**2, 2.0 * sums, out=w, where=~(sums <= SUPPORT_CUTOFF))
    return w


def _a_components(x: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """The components ``A_k = tr_b[(1 (x) Y_k) X]`` of an operator X on the joint space.

    Over the trace-orthonormal Hermitian basis ``Y_k = hermitian_basis(d_b)``
    of b, ``X = sum_k A_k (x) Y_k``, so for the dephasing ``Pi_u`` of party a
    in the basis u, ``||X - Pi_u X||^2`` is the off-diagonal mass of the
    ``A_k`` (:func:`off_diagonal_mass`). Returns the ``(d_b^2, d_a, d_a)``
    stack.
    """
    m, n = dims
    y = hermitian_basis(n)
    return np.einsum("kji,aibj->kab", y, np.asarray(x).reshape(m, n, m, n))


def off_diagonal_mass_and_gradient(mats: np.ndarray, u: np.ndarray, gradient: bool = True):
    """Off-diagonal mass of a stack in the basis u, and its gradient ``G``.

    The mass of a ``(K, d, d)`` stack ``M`` is ``sum_k ||offdiag(U^dag M_k
    U)||_F^2``, a sum of squares, so ``>= 0``; ``df = Re tr(G^dag du)``. With
    ``d_kn = <u_n| M_k |u_n>`` the value is ``sum_k ||M_k||^2 - sum_kn
    d_kn^2``, so ``G[:, n] = -4 sum_k d_kn M_k u_n``. A ``(..., d, d)``
    stack of bases u gives values of shape ``(...)`` and a ``(..., d, d)``
    stack of gradients; with ``gradient=False`` the gradient is ``None``.
    An objective of :func:`qfc.optimize_basis` with local minima, and the
    quantity :func:`joint_diagonalize` minimizes.
    """
    m = np.asarray(mats).shape[-1]
    rotated = np.einsum("...ak,mab,...bl->...mkl", u.conj(), mats, u)
    # Boolean indexing leaves the batch axes inner in memory; each basis is
    # summed as one C-ordered row, so no value depends on the stack size.
    off = np.ascontiguousarray(rotated[..., ~np.eye(m, dtype=bool)])
    value = np.sum((off.real**2 + off.imag**2).reshape(*off.shape[:-2], -1), axis=-1)
    if not gradient:
        return value, None
    diagonal = rotated.diagonal(axis1=-2, axis2=-1).real
    return value, -4.0 * np.einsum("kab,...bn,...kn->...an", mats, u, diagonal)


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


#: ``(method, evaluations, iterations, value)`` of each solve of the three
#: sets of ``test_search_path``: acceptance criterion 3's noisy entangled
#: states under qah, qapi, entropic and geometric discord, and its CQ/CC
#: states under qah and qapi, by default and with ``method="optimized"``,
#: each at 4 restarts and optimizer seed 4 x the state seed. Made at commit
#: f1a0d69 by ``PYTHONPATH=src python tests/test_search_path.py``. A change
#: that is meant to leave the search alone keeps them (values to 1e-12).
SEARCH_PATHS = {
    "noisy": (
        ('closed-form', 0, 0, 0.15088735584490431),  # qah
        ('optimized', 4, 0, 0.18254076362452998),  # qapi
        ('optimized', 11, 7, 0.23156934508594385),  # dq
        ('closed-form', 0, 0, 0.14334298805265921),  # dg
        ('closed-form', 0, 0, 0.2904838378427184),  # qah
        ('optimized', 4, 0, 0.3466428439805007),  # qapi
        ('optimized', 11, 6, 0.4114492772276618),  # dq
        ('closed-form', 0, 0, 0.2711182486532037),  # dg
        ('optimized', 20, 13, 0.4094312076764149),  # qah
        ('optimized', 4, 0, 0.4391207437753255),  # qapi
        ('optimized', 14, 8, 0.5386148864089035),  # dq
        ('optimized', 20, 12, 0.3821357938313206),  # dg
        ('optimized', 25, 18, 0.34706161997271445),  # qah
        ('optimized', 4, 0, 0.3991183512384282),  # qapi
        ('optimized', 16, 10, 0.501984194315473),  # dq
        ('optimized', 22, 15, 0.3200679384192813),  # dg
        ('closed-form', 0, 0, 0.18580261163214523),  # qah
        ('optimized', 12, 5, 0.220018830885351),  # qapi
        ('optimized', 9, 3, 0.27629995752235675),  # dq
        ('closed-form', 0, 0, 0.17651248105053807),  # dg
        ('closed-form', 0, 0, 0.2796823542827297),  # qah
        ('optimized', 4, 0, 0.3354394070958695),  # qapi
        ('optimized', 7, 3, 0.39921246564131907),  # dq
        ('closed-form', 0, 0, 0.26103686399721426),  # dg
        ('optimized', 13, 9, 0.20124453574152762),  # qah
        ('optimized', 13, 8, 0.22717748649982683),  # qapi
        ('optimized', 14, 7, 0.3059319811113081),  # dq
        ('optimized', 13, 9, 0.18782823335875887),  # dg
        ('optimized', 31, 20, 0.32428197691105787),  # qah
        ('optimized', 22, 13, 0.3919547531497489),  # qapi
        ('optimized', 14, 8, 0.5208258762196063),  # dq
        ('optimized', 32, 21, 0.29906004537353137),  # dg
        ('closed-form', 0, 0, 0.2409840921207032),  # qah
        ('optimized', 4, 0, 0.27818047037585303),  # qapi
        ('optimized', 11, 7, 0.34309329355713347),  # dq
        ('closed-form', 0, 0, 0.22893488751466806),  # dg
        ('closed-form', 0, 0, 0.36607889630117585),  # qah
        ('optimized', 4, 0, 0.42448937658391395),  # qapi
        ('optimized', 4, 0, 0.4937335862812977),  # dq
        ('closed-form', 0, 0, 0.34167363654776434),  # dg
        ('optimized', 29, 17, 0.1508097401464255),  # qah
        ('optimized', 28, 18, 0.17475039108620827),  # qapi
        ('optimized', 26, 17, 0.2408812128304051),  # dq
        ('optimized', 28, 17, 0.140755757469997),  # dg
        ('optimized', 20, 14, 0.3164426267378189),  # qah
        ('optimized', 13, 8, 0.37282722844038174),  # qapi
        ('optimized', 15, 11, 0.4777412004128765),  # dq
        ('optimized', 21, 15, 0.29183042243598845),  # dg
        ('closed-form', 0, 0, 0.008889184695381608),  # qah
        ('optimized', 4, 0, 0.013185771426024395),  # qapi
        ('optimized', 12, 7, 0.016598614527115196),  # dq
        ('closed-form', 0, 0, 0.008444725460612673),  # dg
        ('closed-form', 0, 0, 0.17330751976473566),  # qah
        ('optimized', 12, 5, 0.22317318148757948),  # qapi
        ('optimized', 10, 4, 0.27048019020186215),  # dq
        ('closed-form', 0, 0, 0.16175368511375335),  # dg
        ('optimized', 18, 10, 0.12769934186646545),  # qah
        ('optimized', 19, 9, 0.15038164001203946),  # qapi
        ('optimized', 14, 8, 0.20935080128160993),  # dq
        ('optimized', 18, 10, 0.11918605240870116),  # dg
        ('optimized', 13, 8, 0.36768630259402757),  # qah
        ('optimized', 12, 8, 0.4394368195661382),  # qapi
        ('optimized', 12, 6, 0.5886867571531492),  # dq
        ('optimized', 14, 8, 0.33908847905893674),  # dg
        ('closed-form', 0, 0, 0.16399565575663527),  # qah
        ('optimized', 12, 7, 0.1966907024923199),  # qapi
        ('optimized', 11, 6, 0.24861645823096495),  # dq
        ('closed-form', 0, 0, 0.15579587296880332),  # dg
        ('closed-form', 0, 0, 0.39188243674971224),  # qah
        ('optimized', 4, 0, 0.4508914916198432),  # qapi
        ('optimized', 4, 0, 0.5206297720664725),  # dq
        ('closed-form', 0, 0, 0.36575694096639844),  # dg
        ('optimized', 20, 13, 0.4032142319932441),  # qah
        ('optimized', 14, 7, 0.43283980601067085),  # qapi
        ('optimized', 10, 6, 0.532270756722905),  # dq
        ('optimized', 20, 12, 0.37633328319369436),  # dg
        ('optimized', 18, 11, 0.30980143008937905),  # qah
        ('optimized', 4, 0, 0.37966066735199444),  # qapi
        ('optimized', 16, 9, 0.5144141780055227),  # dq
        ('optimized', 14, 10, 0.28570576330464936),  # dg
    ),
    "classical": (
        ('closed-form', 0, 0, -2.7755575615629055e-17),  # qah
        ('certified-zero', 1, 0, 1.6653345369377348e-16),  # qapi
        ('closed-form', 0, 0, -6.136584296267955e-17),  # qah
        ('certified-zero', 1, 0, -6.661338147750939e-16),  # qapi
        ('certified-zero', 1, 0, 4.093676041502865e-31),  # qah
        ('certified-zero', 1, 0, 1.5543122344752192e-15),  # qapi
        ('certified-zero', 1, 0, 3.0099360818898728e-30),  # qah
        ('certified-zero', 1, 0, 1.3322676295501878e-15),  # qapi
        ('closed-form', 0, 0, 2.7755575615628914e-17),  # qah
        ('certified-zero', 1, 0, -2.220446049250313e-16),  # qapi
        ('closed-form', 0, 0, 7.632783294297951e-17),  # qah
        ('certified-zero', 1, 0, 2.220446049250313e-16),  # qapi
        ('certified-zero', 1, 0, 5.123376328971658e-31),  # qah
        ('certified-zero', 1, 0, 6.106226635438361e-16),  # qapi
        ('certified-zero', 1, 0, 8.910649842750146e-31),  # qah
        ('certified-zero', 1, 0, 2.220446049250313e-16),  # qapi
        ('closed-form', 0, 0, 8.673617379884035e-18),  # qah
        ('certified-zero', 1, 0, 2.220446049250313e-16),  # qapi
        ('closed-form', 0, 0, -2.7755575615628914e-17),  # qah
        ('certified-zero', 1, 0, 6.661338147750939e-16),  # qapi
        ('certified-zero', 1, 0, 2.953868763953742e-31),  # qah
        ('certified-zero', 1, 0, -4.996003610813204e-16),  # qapi
        ('certified-zero', 1, 0, 2.0045368452757785e-30),  # qah
        ('certified-zero', 1, 0, -8.881784197001252e-16),  # qapi
        ('closed-form', 0, 0, -3.469446951953614e-17),  # qah
        ('certified-zero', 1, 0, 8.881784197001252e-16),  # qapi
        ('closed-form', 0, 0, -6.938893903907228e-17),  # qah
        ('certified-zero', 1, 0, 0.0),  # qapi
        ('certified-zero', 1, 0, 1.635069434048069e-31),  # qah
        ('certified-zero', 1, 0, 0.0),  # qapi
        ('certified-zero', 1, 0, 3.353293303157115e-31),  # qah
        ('certified-zero', 1, 0, -4.440892098500626e-16),  # qapi
        ('closed-form', 0, 0, 4.336808689942018e-18),  # qah
        ('certified-zero', 1, 0, 2.220446049250313e-16),  # qapi
        ('closed-form', 0, 0, -2.7755575615628914e-17),  # qah
        ('certified-zero', 1, 0, 3.552713678800501e-15),  # qapi
        ('certified-zero', 1, 0, 5.682083060927881e-31),  # qah
        ('certified-zero', 1, 0, 6.661338147750939e-16),  # qapi
        ('certified-zero', 1, 0, 1.969074399945652e-31),  # qah
        ('certified-zero', 1, 0, 8.881784197001252e-16),  # qapi
    ),
    "classical-optimized": (
        ('optimized', 11, 5, 3.2393715098943276e-31),  # qah
        ('optimized', 12, 7, 0.0),  # qapi
        ('optimized', 15, 9, 2.2727908080407314e-31),  # qah
        ('optimized', 25, 15, -8.881784197001252e-16),  # qapi
        ('optimized', 20, 12, 3.8714018971858565e-31),  # qah
        ('optimized', 22, 16, 1.5543122344752192e-15),  # qapi
        ('optimized', 30, 20, 5.014424791825666e-31),  # qah
        ('optimized', 35, 25, -4.440892098500626e-16),  # qapi
        ('optimized', 11, 7, 5.347265660639573e-32),  # qah
        ('optimized', 12, 4, -1.1102230246251565e-16),  # qapi
        ('optimized', 17, 9, 4.353325693915177e-31),  # qah
        ('optimized', 15, 9, -8.881784197001252e-16),  # qapi
        ('optimized', 21, 15, 2.2463865616076838e-31),  # qah
        ('optimized', 24, 14, 5.551115123125783e-17),  # qapi
        ('optimized', 25, 15, 4.743032289212281e-31),  # qah
        ('optimized', 23, 16, 2.220446049250313e-16),  # qapi
        ('optimized', 11, 6, 2.627682689788479e-29),  # qah
        ('optimized', 9, 4, -1.1102230246251565e-16),  # qapi
        ('optimized', 11, 7, 1.8070779661733636e-31),  # qah
        ('optimized', 13, 7, 2.220446049250313e-16),  # qapi
        ('optimized', 32, 25, 4.472786693916544e-31),  # qah
        ('optimized', 24, 16, -6.661338147750939e-16),  # qapi
        ('optimized', 18, 12, 1.6099141944530744e-28),  # qah
        ('optimized', 23, 16, -4.440892098500626e-16),  # qapi
        ('optimized', 11, 7, 1.729215280683296e-31),  # qah
        ('optimized', 13, 8, 1.1102230246251565e-15),  # qapi
        ('optimized', 11, 6, 1.7878386238690946e-31),  # qah
        ('optimized', 22, 11, 4.440892098500626e-16),  # qapi
        ('optimized', 16, 10, 4.437108840620789e-31),  # qah
        ('optimized', 11, 6, -1.6653345369377348e-16),  # qapi
        ('optimized', 21, 15, 9.443458796823941e-31),  # qah
        ('optimized', 31, 22, 4.440892098500626e-16),  # qapi
        ('optimized', 9, 4, 2.1816763510414685e-31),  # qah
        ('optimized', 11, 6, 0.0),  # qapi
        ('optimized', 11, 7, 2.2267912310794796e-31),  # qah
        ('optimized', 17, 12, 4.884981308350689e-15),  # qapi
        ('optimized', 21, 14, 7.698734855111757e-31),  # qah
        ('optimized', 23, 16, 6.661338147750939e-16),  # qapi
        ('optimized', 30, 19, 2.481438145462892e-31),  # qah
        ('optimized', 27, 19, 1.3322676295501878e-15),  # qapi
    ),
}
