"""Gradient optimization over orthonormal bases of C^d.

A basis (equivalently a rank-1 von Neumann measurement) is a unitary u whose
columns are the basis vectors. The chart ``p -> exp(i A(p))`` maps d^2 real
coefficients of a Hermitian generator A, in the canonical trace-orthonormal
Hermitian basis ``linalg.hermitian_basis(d)``, onto the whole unitary group.

An objective takes a ``(..., d, d)`` stack of unitaries and returns
``(values, G)``: the values, of shape ``(...)``, and their Euclidean
gradients, of shape ``(..., d, d)``, so that ``df = Re tr(G^dag du)`` for
each unitary of the stack. Every objective here is invariant under
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
coefficients drawn from its own stream (seed = base seed + k). The restarts
run in lockstep, one objective call per round on the stack of those still
searching; :func:`multistart` reports them.
"""

from __future__ import annotations

import math
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
        for name in ("restarts", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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

    ``restart_values`` holds each restart's final objective value, and
    ``restart_evaluations`` and ``restart_iterations`` its objective
    evaluations and accepted steps; ``n_evaluations`` and ``n_iterations``
    are their sums. ``best_value`` is the smallest value and ``converged``
    is the flag of the restart that reached it. Ties between equally good
    restarts resolve to the lowest restart index. ``best_unitary`` is the
    basis that attains ``best_value``.
    """

    best_value: float
    best_unitary: np.ndarray
    restart_values: np.ndarray
    restart_converged: np.ndarray
    restart_evaluations: np.ndarray
    restart_iterations: np.ndarray
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
    """Hermitian generators with the given canonical-basis coefficients.

    ``(..., d^2)`` coefficients give a ``(..., d, d)`` stack.
    """
    p = np.asarray(params, dtype=float)
    if p.shape[-1:] != (dim * dim,):
        raise ShapeError(f"need {dim * dim} parameters for dimension {dim}, got shape {p.shape}")
    return np.einsum("...k,kij->...ij", p, _generator_basis(dim))


def unitary_from_params(params: np.ndarray, dim: int) -> np.ndarray:
    """Unitaries ``exp(i A(params))``; surjective onto U(d) over the chart.

    ``(..., d^2)`` coefficients give a ``(..., d, d)`` stack.
    """
    a = hermitian_from_params(params, dim)
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.exp(1j * vals)[..., None, :]) @ linalg.dag(vecs)


def random_params(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random generator coefficients for one restart."""
    return rng.normal(0.0, START_SPREAD, size=dim * dim)


def multistart(runs) -> OptimizerReport:
    """Report the restarts of one search and keep the best.

    ``runs`` holds one ``(unitary, value, evaluations, iterations,
    converged)`` run per restart, in restart order (see :func:`_bfgs`). The
    best value is the smallest; ties resolve to the lowest restart index.
    """
    values = np.array([run[1] for run in runs], dtype=float)
    flags = np.array([run[4] for run in runs], dtype=bool)
    evaluations = np.array([run[2] for run in runs], dtype=int)
    iterations = np.array([run[3] for run in runs], dtype=int)
    best = int(np.argmin(values))
    return OptimizerReport(
        best_value=float(values[best]),
        best_unitary=runs[best][0],
        restart_values=values,
        restart_converged=flags,
        restart_evaluations=evaluations,
        restart_iterations=iterations,
        converged=bool(flags[best]),
        n_evaluations=int(evaluations.sum()),
        n_iterations=int(iterations.sum()),
    )


@lru_cache(maxsize=None)
def _tangent_rows(dim: int) -> np.ndarray:
    # Row k is the off-diagonal generator Y_k, transposed and flattened, so
    # tr(M Y_k) = _tangent_rows(dim)[k] @ M.ravel().
    rows = _generator_basis(dim)[dim:].transpose(0, 2, 1).reshape(dim * dim - dim, -1)
    rows.flags.writeable = False
    return rows


def _evaluate(objective, v: np.ndarray):
    # Values and tangent gradients of the (m, d, d) stack v, one call.
    values, grads = objective(v)
    values = np.asarray(values, dtype=float)
    if values.shape != v.shape[:-2] or np.shape(grads) != v.shape:
        raise ShapeError(
            f"objective on a stack of shape {v.shape} returned values of shape "
            f"{values.shape} and gradients of shape {np.shape(grads)}"
        )
    # d/dt f(v exp(i t Y_k)) = Re tr(G^dag v i Y_k), one matrix product per
    # unitary so that no row depends on the size of the stack
    m = linalg.dag(grads) @ v
    g = -(m.reshape(len(v), 1, -1) @ _tangent_rows(v.shape[-1]).T)[:, 0].imag
    if not (np.isfinite(values).all() and np.isfinite(g).all()):
        raise OptimizationError("objective returned a non-finite value or gradient")
    return values, g


def _restart(u: np.ndarray, f: float, g: np.ndarray, tolerance: float):
    # One restart of _bfgs from u, where the value is f and the tangent
    # gradient g: a generator that yields (u, step) for each trial point
    # u exp(i A(0, step)), is sent (trial, value, gradient) back, and returns
    # the restart's run.
    evaluations, iterations, decrease = 1, 0, 0.0
    h = None  # inverse Hessian estimate; the identity until the first update
    t_sd = 1.0  # first trial of a steepest-descent line search
    while True:
        gg = g @ g
        p = -g if h is None else -(h @ g)
        slope = g @ p
        if slope >= 0.0:
            p, slope = -g, -gg
        if gg <= tolerance and (decrease <= tolerance or -slope <= tolerance):
            return u, f, evaluations, iterations, True
        if iterations == MAX_ITERATIONS:
            return u, f, evaluations, iterations, False
        # |t p| <= pi keeps the generator's eigenvalues from wrapping.
        t = first = min(t_sd if h is None else 1.0, np.pi / math.sqrt(p @ p))
        for _ in range(MAX_HALVINGS):
            s = t * p
            trial, f_new, g_new = yield u, s
            evaluations += 1
            if f_new <= f + ARMIJO * t * slope:
                break
            t /= 2.0
        else:
            # No step lowers the value: the decrease is 0, so this is a
            # stationary point to working precision unless g is still large.
            return u, f, evaluations, iterations, bool(gg <= tolerance)
        y = g_new - g
        sy = s @ y
        if sy > 0.0:
            if h is None:
                h = (sy / (y @ y)) * np.eye(s.size)
            hy = h @ y
            hys = hy[:, None] * s
            h += ((sy + y @ hy) * (s[:, None] * s) / sy - hys - hys.T) / sy
        t_sd = 2.0 * t if t == first else t
        iterations += 1
        decrease = f - f_new
        u, f, g = trial, f_new, g_new


def _bfgs(objective, starts: np.ndarray, tolerance: float):
    """Minimize ``f`` by BFGS on U(d) from each unitary of the ``(R, d, d)`` stack ``starts``.

    Returns one ``(unitary, value, evaluations, iterations, converged)`` run
    per restart. The R restarts run in lockstep: each round makes one chart
    call and one objective call on the stack of the trial points of the
    restarts still searching, and a restart that stops drops out of the
    batch. Each restart keeps its own point, inverse Hessian H, step memory
    and counters, so it follows the path it would follow alone.

    Each backtracking (Armijo) line search along ``p`` starts at ``t = 1``
    once H exists. Before that ``p = -g`` and the first trial is a
    remembered step ``t_sd``: 1 at the start, doubled after a line search
    that accepted its first trial, and otherwise the step the backtrack
    accepted. Every trial is capped at ``|t p| <= pi``.

    A restart stops converged once the squared gradient norm is at most
    ``tolerance`` and either the last step lowered the value by at most
    ``tolerance`` (the start counts as such a step) or the predicted decrease
    ``-g.p`` is at most ``tolerance``; the latter ends a search at roundoff
    level without a line search that could only halve its way to nothing.
    It stops unconverged at :data:`MAX_ITERATIONS`, or when a line search
    finds no step that lowers the value while the squared gradient norm is
    still above ``tolerance``.
    """
    count, dim = len(starts), starts.shape[-1]
    values, grads = _evaluate(objective, starts)
    searches = [_restart(*start, tolerance) for start in zip(starts, values.tolist(), grads)]
    runs = [None] * count
    active, replies = range(count), [None] * count  # None starts a generator
    while True:
        requests = []
        for k, reply in zip(active, replies):
            try:
                requests.append((k, *searches[k].send(reply)))
            except StopIteration as stop:
                runs[k] = stop.value
        if not requests:
            return runs
        active, bases, steps = zip(*requests)
        params = np.concatenate([np.zeros((len(steps), dim)), steps], axis=1)
        trials = np.array(bases) @ unitary_from_params(params, dim)
        values, grads = _evaluate(objective, trials)
        replies = list(zip(trials, values.tolist(), grads))


def optimize_basis(objective, start, *, config=None):
    """Minimize a function of an orthonormal basis (measurement) of C^d.

    ``objective`` receives a ``(..., d, d)`` stack of unitary matrices u,
    each with the basis vectors (the measurement of party a) as columns, and
    returns ``(values, G)``: finite values of shape ``(...)`` and their
    Euclidean gradients of shape ``(..., d, d)``, ``df = Re tr(G^dag du)``
    for each unitary. It must be invariant under ``u -> u diag(e^{i phi})``.
    ``start`` is a d x d unitary, the start of restart 0; every solver of
    party a passes the eigenbasis of rho_a. Restart k >= 1 starts from the
    unitary of random generator coefficients drawn from its own stream (seed
    ``config.seed + k``). The restarts are BFGS searches run in lockstep, one
    objective call per round on the stack of those still searching (see
    :func:`_bfgs`); ``config`` (an :class:`OptimizerConfig`, the default one
    if None) sets the restarts and the tolerance, which bounds both the last
    decrease and the squared gradient norm. Returns the
    :class:`OptimizerReport` of the restarts. Deterministic for a fixed
    config and start. A restart's result does not depend on how many others
    run beside it as long as the objective's value and gradient at a unitary
    do not depend on the stack it comes in, which holds for every objective
    of the library.
    """
    dim = np.shape(start)[0] if np.ndim(start) else 0
    start = linalg.require_unitary(start, dim, "start")
    cfg = config if config is not None else OptimizerConfig()
    params = [random_params(dim, np.random.default_rng(cfg.seed + k))
              for k in range(1, cfg.restarts)]
    randoms = unitary_from_params(np.reshape(params, (-1, dim * dim)), dim)
    return multistart(_bfgs(objective, np.concatenate([start[None], randoms]), cfg.tolerance))
