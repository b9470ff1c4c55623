"""Gradient optimization over orthonormal bases of C^d.

A basis (equivalently a rank-1 von Neumann measurement) is a unitary u whose
columns are the basis vectors. The chart ``p -> exp(i A(p))`` maps d^2 real
coefficients of a Hermitian generator A, in the canonical trace-orthonormal
Hermitian basis ``linalg.hermitian_basis(d)``, onto the whole unitary group.

An objective returns ``(value, G)``, the value and its Euclidean gradient,
so that ``df = Re tr(G^dag du)``. Every objective here is invariant under
``u -> u diag(e^{i phi})``, so the d diagonal generators leave it
unchanged: restart k is a Riemannian BFGS search on U(d) (Edelman, Arias
and Smith, SIAM J. Matrix Anal. Appl. 20, 303, 1998) in the d^2 - d
coordinates of the off-diagonal generators. Each step is ``u <- u exp(i
A(t p))`` along ``p = -H g`` for the inverse-Hessian estimate H and the
gradient g in those coordinates, which are re-centred at every step. Until
a step meets positive curvature there is no H; the step is then steepest
descent from a step length the search remembers (see :func:`_bfgs`), so a
restart that starts where the minimized value curves down leaves in a few
doublings rather than in many unit steps. Every search minimizes: each
quantifier is a minimum over bases, and its objective returns the quantifier
itself. Restart 0 starts at a given basis, which every solver of party a
sets to the eigenbasis of rho_a; restart k >= 1 starts from random generator
coefficients drawn from its own stream (seed = base seed + k). The restart
loop and its report are :func:`multistart`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import OptimizationError, ShapeError

#: Spread (radians) of the random generator coefficients at each restart.
START_SPREAD = np.pi / 2
#: Iteration cap of each restart; a restart that reaches it is unconverged.
MAX_ITERATIONS = 2000
#: Sufficient-decrease constant of the backtracking (Armijo) line search.
ARMIJO = 1e-4
#: Step halvings a line search may make before it gives up and ends the
#: restart.
MAX_HALVINGS = 40


@dataclass(frozen=True)
class OptimizerConfig:
    """Multistart settings: restart count, objective tolerance and base seed."""

    restarts: int = 16
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            # restart k draws from np.random.default_rng(seed + k)
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")


@dataclass(frozen=True)
class OptimizerReport:
    """Outcome of a multistart search, built by :func:`multistart`.

    ``restart_values`` holds each restart's final objective value;
    ``best_value`` is the smallest of them and ``converged`` is the flag of
    the restart that reached it. Ties between equally good restarts resolve
    to the lowest restart index. ``best_unitary`` is the basis that attains
    ``best_value``.
    """

    best_value: float
    best_unitary: np.ndarray
    restart_values: np.ndarray
    restart_converged: np.ndarray
    converged: bool
    n_evaluations: int
    n_iterations: int

    @property
    def second_best_value(self) -> float:
        """Runner-up among restart finals (nan for a single restart)."""
        if self.restart_values.size < 2:
            return float("nan")
        return float(np.sort(self.restart_values)[1])


@lru_cache(maxsize=None)
def _generator_basis(dim: int) -> np.ndarray:
    basis = linalg.hermitian_basis(dim)
    basis.flags.writeable = False
    return basis


def hermitian_from_params(params: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian generator with the given canonical-basis coefficients."""
    p = np.asarray(params, dtype=float).reshape(-1)
    if p.size != dim * dim:
        raise ShapeError(f"need {dim * dim} parameters for dimension {dim}, got {p.size}")
    return np.einsum("k,kij->ij", p, _generator_basis(dim))


def unitary_from_params(params: np.ndarray, dim: int) -> np.ndarray:
    """Unitary ``exp(i A(params))``; surjective onto U(d) over the chart."""
    a = hermitian_from_params(params, dim)
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.exp(1j * vals)) @ linalg.dag(vecs)


def random_params(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random generator coefficients for one restart."""
    return rng.normal(0.0, START_SPREAD, size=dim * dim)


def multistart(search, restarts: int) -> OptimizerReport:
    """Run ``search(k)`` for restarts ``k = 0 .. restarts - 1`` and keep the best.

    ``search(k)`` returns ``(unitary, value, evaluations, iterations,
    converged)`` for restart k. The best value is the smallest; ties resolve
    to the lowest restart index. Evaluations and iterations are summed over
    the restarts.
    """
    runs = [search(k) for k in range(restarts)]
    values = np.array([run[1] for run in runs], dtype=float)
    flags = np.array([run[4] for run in runs], dtype=bool)
    best = int(np.argmin(values))
    return OptimizerReport(
        best_value=float(values[best]),
        best_unitary=runs[best][0],
        restart_values=values,
        restart_converged=flags,
        converged=bool(flags[best]),
        n_evaluations=sum(run[2] for run in runs),
        n_iterations=sum(run[3] for run in runs),
    )


@lru_cache(maxsize=None)
def _tangent_rows(dim: int) -> np.ndarray:
    # Row k is the off-diagonal generator Y_k, transposed and flattened, so
    # tr(M Y_k) = _tangent_rows(dim)[k] @ M.ravel().
    rows = _generator_basis(dim)[dim:].transpose(0, 2, 1).reshape(dim * dim - dim, -1)
    rows.flags.writeable = False
    return rows


def _bfgs(objective, u: np.ndarray, tolerance: float):
    """Minimize ``f`` from the unitary ``u`` by BFGS on U(d).

    Returns ``(unitary, value, evaluations, iterations, converged)``. Each
    backtracking (Armijo) line search along ``p`` starts at ``t = 1`` once
    the inverse Hessian H exists. Before that ``p = -g`` and the first trial
    is a remembered step ``t_sd``: 1 at the start, doubled after a line
    search that accepted its first trial, and otherwise the step the
    backtrack accepted. Every trial is capped at ``|t p| <= pi``.

    The search stops converged once the squared gradient norm is at most
    ``tolerance`` and either the last step lowered the value by at most
    ``tolerance`` (the start counts as such a step) or the predicted decrease
    ``-g.p`` is at most ``tolerance``; the latter ends a search at roundoff
    level without a line search that could only halve its way to nothing.
    It stops unconverged at :data:`MAX_ITERATIONS`, or when a line search
    finds no step that lowers the value while the squared gradient norm is
    still above ``tolerance``.
    """
    dim = u.shape[0]
    rows = _tangent_rows(dim)
    pad = np.zeros(dim)

    def evaluate(v: np.ndarray):
        value, grad = objective(v)
        value = float(value)
        # d/dt f(v exp(i t Y_k)) = Re tr(G^dag v i Y_k)
        g = -(rows @ (linalg.dag(grad) @ v).ravel()).imag
        if not (np.isfinite(value) and np.all(np.isfinite(g))):
            raise OptimizationError(f"objective returned non-finite value {value} or gradient")
        return value, g

    f, g = evaluate(u)
    evaluations, iterations, decrease = 1, 0, 0.0
    h = None  # inverse Hessian estimate; the identity until the first update
    t_sd = 1.0  # first trial of a steepest-descent line search
    while decrease > tolerance or g @ g > tolerance:
        p = -g if h is None else -h @ g
        slope = g @ p
        if slope >= 0.0:
            p, slope = -g, -(g @ g)
        if g @ g <= tolerance and -slope <= tolerance:
            break  # the predicted decrease is within tolerance too
        if iterations == MAX_ITERATIONS:
            return u, f, evaluations, iterations, False
        # |t p| <= pi keeps the generator's eigenvalues from wrapping.
        t = first = min(t_sd if h is None else 1.0, np.pi / np.sqrt(p @ p))
        for _ in range(MAX_HALVINGS):
            trial = u @ unitary_from_params(np.concatenate([pad, t * p]), dim)
            f_new, g_new = evaluate(trial)
            evaluations += 1
            if f_new <= f + ARMIJO * t * slope:
                break
            t /= 2.0
        else:
            # No step lowers the value: the decrease is 0, so this is a
            # stationary point to working precision unless g is still large.
            return u, f, evaluations, iterations, bool(g @ g <= tolerance)
        s, y = t * p, g_new - g
        sy = s @ y
        if sy > 0.0:
            if h is None:
                h = (sy / (y @ y)) * np.eye(s.size)
            hy = h @ y
            h += ((sy + y @ hy) * np.outer(s, s) / sy - np.outer(hy, s) - np.outer(s, hy)) / sy
        t_sd = 2.0 * t if t == first else t
        iterations += 1
        decrease = f - f_new
        u, f, g = trial, f_new, g_new
    return u, f, evaluations, iterations, True


def optimize_basis(objective, start, *, config=None):
    """Minimize a function of an orthonormal basis (measurement) of C^d.

    ``objective`` receives a unitary matrix u whose columns are the basis
    vectors (the measurement of party a) and returns ``(value, G)``: a finite
    float and its Euclidean gradient, ``df = Re tr(G^dag du)``. It must be
    invariant under ``u -> u diag(e^{i phi})``. ``start`` is a d x d unitary,
    the start of restart 0; every solver of party a passes the eigenbasis of
    rho_a. Restart k >= 1 starts from the unitary of random generator
    coefficients drawn from its own stream (seed ``config.seed + k``). Each
    restart is a BFGS search (see :func:`_bfgs`); ``config`` (an
    :class:`OptimizerConfig`, the default one if None) sets the restarts and
    the tolerance, which bounds both the last decrease and the squared
    gradient norm. Returns the :class:`OptimizerReport` of the restarts.
    Deterministic for a fixed config and start.
    """
    dim = np.shape(start)[0] if np.ndim(start) else 0
    start = linalg.require_unitary(start, dim, "start")
    cfg = config if config is not None else OptimizerConfig()

    def search(k: int):
        if k == 0:
            u = start
        else:
            u = unitary_from_params(random_params(dim, np.random.default_rng(cfg.seed + k)), dim)
        return _bfgs(objective, u, cfg.tolerance)

    return multistart(search, cfg.restarts)
