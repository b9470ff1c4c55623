"""Gradient optimization over orthonormal bases of C^d.

A basis (equivalently a rank-1 von Neumann measurement) is a unitary u whose
columns are the basis vectors. The chart ``p -> exp(i A(p))`` maps d^2 real
coefficients of a Hermitian generator A, in the canonical trace-orthonormal
Hermitian basis ``linalg.hermitian_basis(d)``, onto the whole unitary group.

An objective takes a ``(..., d, d)`` stack of unitaries and returns
``(values, G)``: the values, of shape ``(...)``, and their Euclidean
gradients, of shape ``(..., d, d)``, so that ``df = Re tr(G^dag du)`` for
each unitary of the stack. Every objective here is invariant under ``u -> u
diag(e^{i phi})``, so the d diagonal generators leave it unchanged: restart
k is a Riemannian BFGS search on U(d) (Edelman, Arias and Smith, SIAM J.
Matrix Anal. Appl. 20, 303, 1998) in the d^2 - d coordinates of the
off-diagonal generators. Each step is ``u <- u exp(i A(t p))`` along ``p =
-H g`` for the inverse-Hessian estimate H and the gradient g in those
coordinates, which are re-centred at every step. The step chart
:func:`_step_chart` takes those d^2 - d coordinates as they are;
:func:`unitary_from_params`, which charts the random starts, takes all d^2
and checks them. Until a step meets positive curvature there is no H; the
step is then steepest descent from a step length the search remembers (see
:func:`_bfgs`), so a restart that starts where the minimized value curves
down leaves in a few doublings rather than in many unit steps. Every search
minimizes: each quantifier is a minimum over bases, and its objective
returns the quantifier itself. Restart 0 starts at a given basis, which
every solver of party a sets to the eigenbasis of rho_a in one place,
``correlations._solve``; restart k >= 1 starts from random generator
coefficients, row k - 1 of one ``(R - 1, d^2)`` normal draw from
``np.random.default_rng(seed)``, which does not depend on the restart count
R. The random starts of one ``(seed, R, d)`` are drawn once per process and
shared read-only by every search that uses them. A search screens and then
polishes its restarts in rounds (see :func:`_bfgs`); each round runs its
restarts in lockstep, one objective call per step on the stack of those
still searching. :func:`multistart` reports the restarts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import OptimizationError, ShapeError

#: Spread (radians) of the random generator coefficients at each restart.
START_SPREAD = np.pi / 2
#: Iteration cap of each restart, over every round it runs in; a restart
#: that reaches it is unconverged.
MAX_ITERATIONS = 2000
#: Tolerance of the first screen round, which runs every restart of a search;
#: round j runs the better half of round j - 1 to ``SCREEN_TOLERANCE**j``.
SCREEN_TOLERANCE = 1e-2
#: Loosest tolerance of the polish, which continues the screen's one
#: remaining restart: it runs to ``min(config.tolerance, POLISH_TOLERANCE)``.
POLISH_TOLERANCE = 1e-12
#: Sufficient-decrease constant of the backtracking (Armijo) line search.
ARMIJO = 1e-4
#: Step halvings a line search may make before it gives up and ends the
#: restart.
MAX_HALVINGS = 40
#: Random-start stacks kept by :func:`_random_starts`, one per ``(seed,
#: restarts, d)``; the least recently used goes first.
START_CACHE_SIZE = 128


@dataclass(frozen=True)
class OptimizerConfig:
    """Multistart settings: restart count, objective tolerance and base seed.

    ``tolerance`` is the threshold below which a solver certifies a zero,
    and a hundredth of it bounds ``1 - purity`` at the purity gate (both in
    ``correlations._solve``); :func:`_bfgs` says how the search uses it.
    ``seed`` seeds the one generator of the random starts.
    """

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
            # the random starts are drawn from np.random.default_rng(seed)
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        tol = self.tolerance
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < np.inf:
            raise ValueError(f"tolerance must be a positive finite number, got {tol!r}")


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

    After :func:`_bfgs`, ``best_value`` and ``converged`` are the polished
    restart's, and every other restart's value and ``restart_converged``
    flag hold only to the tolerance of its last screen round (see
    :func:`_bfgs`).
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
        """Runner-up among restart finals (nan for a single restart).

        A screened value: it may lie above the runner-up's basin minimum by
        far more than the polish tolerance.
        """
        if self.restart_values.size < 2:
            return float("nan")
        return float(np.sort(self.restart_values)[1])


@lru_cache(maxsize=None)
def _generator_basis(dim: int) -> np.ndarray:
    basis = linalg.hermitian_basis(dim)
    basis.flags.writeable = False
    return basis


def unitary_from_params(params: np.ndarray, dim: int) -> np.ndarray:
    """Unitaries ``exp(i A(params))``; surjective onto U(d) over the chart.

    ``A(params)`` is the Hermitian generator with the given coefficients in
    the canonical basis. ``(..., d^2)`` coefficients give a ``(..., d, d)``
    stack; a non-finite coefficient raises ``ValidationError``.
    """
    p = np.asarray(params, dtype=float)
    if p.shape[-1:] != (dim * dim,):
        raise ShapeError(f"need {dim * dim} parameters for dimension {dim}, got shape {p.shape}")
    linalg.require_finite(p, "params")
    return _exp_i(p, _generator_basis(dim))


def _exp_i(coefficients: np.ndarray, generators: np.ndarray) -> np.ndarray:
    # exp(i A) for A = sum_k coefficients[..., k] generators[k], through eigh
    vals, vecs = np.linalg.eigh(np.einsum("...k,kij->...ij", coefficients, generators))
    return (vecs * np.exp(1j * vals)[..., None, :]) @ linalg.dag(vecs)


@lru_cache(maxsize=START_CACHE_SIZE)
def _random_starts(seed: int, count: int, dim: int) -> np.ndarray:
    # The starts of restarts 1 to count of a search at this seed, read-only:
    # every search of the same (seed, restarts, d) shares one draw.
    params = np.random.default_rng(seed).normal(0.0, START_SPREAD, (count, dim * dim))
    starts = unitary_from_params(params, dim)
    starts.flags.writeable = False
    return starts


def _step_chart(steps: np.ndarray, dim: int) -> np.ndarray:
    # exp(i A(0, step)) for a (m, d^2 - d) stack of off-diagonal coefficients,
    # unchecked. The real and the imaginary part of each entry of A get at
    # most one nonzero term, so leaving out the diagonal generators' zero
    # terms gives unitary_from_params of the zero-padded step bit for bit.
    return _exp_i(steps, _generator_basis(dim)[dim:])


def multistart(runs) -> OptimizerReport:
    """Report the restarts of one search and keep the best.

    ``runs`` holds one ``(unitary, value, evaluations, iterations,
    converged)`` run per restart, in restart order (see :func:`_bfgs`). The
    best value is the smallest; ties resolve to the lowest restart index.
    """
    unitaries, values, evaluations, iterations, flags = zip(*runs)
    best = min(range(len(values)), key=values.__getitem__)  # min keeps the first of equals
    return OptimizerReport(
        best_value=float(values[best]),
        best_unitary=unitaries[best],
        restart_values=np.array(values, dtype=float),
        restart_converged=np.array(flags, dtype=bool),
        restart_evaluations=np.array(evaluations, dtype=int),
        restart_iterations=np.array(iterations, dtype=int),
        converged=bool(flags[best]),
        n_evaluations=int(sum(evaluations)),
        n_iterations=int(sum(iterations)),
    )


@lru_cache(maxsize=None)
def _tangent_rows(dim: int) -> np.ndarray:
    # Row k is the off-diagonal generator Y_k, transposed and flattened, so
    # tr(M Y_k) = _tangent_rows(dim)[k] @ M.ravel().
    rows = _generator_basis(dim)[dim:].transpose(0, 2, 1).reshape(dim * dim - dim, dim * dim)
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


def _search(u: np.ndarray, f: float, g: np.ndarray):
    """One restart of :func:`_bfgs`, over every round it runs in.

    The generator is the restart: between rounds its state lives in its
    suspended frame and nowhere else. That state is its point ``u``, value
    ``f`` and tangent gradient ``g``; the inverse Hessian estimate ``h``
    (None, the identity, until the first update); the first trial ``t_sd`` of
    a steepest-descent line search; the value's ``decrease`` over the last
    step (the start counts as a step of 0); its ``evaluations`` (the start is
    one) and ``iterations``; and ``stalled``, set once a line search found no
    lower value. It yields its ``(unitary, value, evaluations, iterations,
    converged)`` run first at the start, unconverged, and then at every stop
    (see :func:`_bfgs` for the steps and stops), and each time waits for the
    next round's tolerance, which :func:`_lockstep` sends. Within a round it
    yields ``(u, step)`` for each trial point ``u exp(i A(0, step))`` and is
    sent ``(trial, value, gradient)`` back. A stalled restart is not searched
    again: it only checks its stop.
    """
    h, t_sd, decrease = None, 1.0, 0.0
    evaluations, iterations, stalled, converged = 1, 0, False, False
    while True:
        tolerance = yield u, f, evaluations, iterations, converged
        while True:
            # Scalars are Python floats. A steepest-descent step reuses g.g
            # for -g.p and p.p, which negation leaves the same bits.
            gg = float(g @ g)
            if h is not None:
                p = -(h @ g)
                slope = float(g @ p)
            if h is None or slope >= 0.0:
                p, slope, pp = -g, -gg, gg
            else:
                pp = float(p @ p)
            # Once no step lowers the value the decrease is 0, so a stalled
            # restart is at a stationary point to working precision unless
            # g is still large; at the cap it is unconverged.
            converged = gg <= tolerance and (min(decrease, -slope) <= tolerance or stalled)
            if converged or stalled or iterations == MAX_ITERATIONS:
                break
            # |t p| <= pi keeps the generator's eigenvalues from wrapping.
            t = first = min(t_sd if h is None else 1.0, np.pi / math.sqrt(pp))
            for _ in range(MAX_HALVINGS):
                s = t * p
                trial, f_new, g_new = yield u, s
                evaluations += 1
                if f_new <= f + ARMIJO * t * slope:
                    break
                t /= 2.0
            else:
                stalled = True
                continue
            y = g_new - g
            sy = float(s @ y)
            if sy > 0.0:
                if h is None:
                    h = (sy / float(y @ y)) * np.eye(s.size)
                hy = h @ y
                hys = hy[:, None] * s
                h += ((sy + float(y @ hy)) * (s[:, None] * s) / sy - hys - hys.T) / sy
            t_sd = 2.0 * t if t == first else t
            iterations += 1
            decrease = f - f_new
            u, f, g = trial, f_new, g_new


def _lockstep(objective, searches, runs, field, tolerance: float):
    """Search each restart ``k`` of ``field`` on to ``tolerance``, in lockstep: one round.

    ``searches[k]`` is restart k: its one :func:`_search` generator, whose
    suspended frame holds the restart's point, value, gradient, inverse
    Hessian, step memory, last decrease, counts and stall flag between
    rounds. It is sent ``tolerance`` and goes on from where its last round
    stopped. Each step of the round makes one chart call and one objective
    call on the stack of the trial points of the restarts still searching. A
    restart that stops yields its run, stored as ``runs[k]``, and drops out
    of the stack; its generator stays suspended for the next round. The chart
    call is :func:`_step_chart`, which maps the steps' off-diagonal
    coordinates straight to ``exp(i A(0, step))``, as
    :func:`unitary_from_params` maps the zero-padded step, bit for bit. Each
    restart keeps its own state, so it takes the steps it would take alone.
    """
    replies = [tolerance] * len(field)
    while True:
        searching = []
        for k, reply in zip(field, replies):
            request = searches[k].send(reply)
            if len(request) == 2:  # a trial point (u, step); a stop yields the run
                searching.append((k, *request))
            else:
                runs[k] = request
        if not searching:
            return
        field, bases, steps = zip(*searching)
        trials = np.array(bases) @ _step_chart(np.array(steps), len(bases[0]))
        values, grads = _evaluate(objective, trials)
        replies = list(zip(trials, values.tolist(), grads))


def _bfgs(objective, starts: np.ndarray, tolerance: float):
    """Minimize ``f`` by BFGS on U(d) from each unitary of the ``(R, d, d)`` stack ``starts``.

    Returns one ``(unitary, value, evaluations, iterations, converged)`` run
    per restart. A multistart in two phases (Rinnooy Kan and Timmer, Math.
    Programming 39, 27, 1987), each phase one or more :func:`_lockstep`
    rounds:

    * *Screen.* All R restarts run to the loose :data:`SCREEN_TOLERANCE`.
      The better half of them, by value (ties go to the lower index), run on
      to ``SCREEN_TOLERANCE**2``, the better half of those to
      ``SCREEN_TOLERANCE**3``, and so on until one restart is left. No
      screen round runs tighter than the polish.
    * *Polish.* That restart runs on to ``min(tolerance,
      POLISH_TOLERANCE)``.

    So only the best restart is polished: its value and flag hold at the
    polish tolerance, and every other restart's value is an upper bound on
    its basin's minimum that holds only to the tolerance of the last screen
    round it ran in (its squared gradient norm at most
    ``SCREEN_TOLERANCE**j`` in round j), as does its flag.

    Each restart is one :func:`_search` generator, primed to its start run;
    ``runs[k]`` holds restart k's run from its last stop, by whose value the
    field is ranked. A restart goes on from where its last round stopped,
    with its point, value, gradient, inverse Hessian and step memory, and
    its counts hold the work of every round it ran in. Stopping and going on
    does not change its path: the polished restart ends exactly where it
    would end searched alone to the polish tolerance.

    Each backtracking (Armijo) line search along ``p`` starts at ``t = 1``
    once H exists. Before that ``p = -g`` and the first trial is a
    remembered step ``t_sd``: 1 at the start, doubled after a line search
    that accepted its first trial, and otherwise the step the backtrack
    accepted. Every trial is capped at ``|t p| <= pi``.

    A round stops a restart converged once the squared gradient norm is at
    most the round's tolerance and either the last step lowered the value by
    at most that tolerance (the start counts as such a step), the predicted
    decrease ``-g.p`` is at most that tolerance, or a line search found no
    step that lowers the value; the predicted decrease ends a search at
    roundoff level without a line search that could only halve its way to
    nothing. It stops a restart unconverged at :data:`MAX_ITERATIONS`
    iterations over all rounds, or when a line search finds no step that
    lowers the value while the squared gradient norm is still above the
    tolerance. An unconverged restart takes no further step in a later
    round, so an unconverged winner is reported as it stands.
    """
    values, grads = _evaluate(objective, starts)
    searches = [_search(*start) for start in zip(starts, values.tolist(), grads)]
    runs = [next(search) for search in searches]
    field, screen, polish = range(len(runs)), SCREEN_TOLERANCE, min(tolerance, POLISH_TOLERANCE)
    while len(field) > 1:
        _lockstep(objective, searches, runs, field, screen)
        field = sorted(field, key=lambda k: (runs[k][1], k))[: (len(field) + 1) // 2]
        screen = max(screen * SCREEN_TOLERANCE, polish)
    _lockstep(objective, searches, runs, field, polish)
    return runs


def optimize_basis(objective, start, *, config=None):
    """Minimize a function of an orthonormal basis (measurement) of C^d.

    ``objective`` receives a ``(..., d, d)`` stack of unitary matrices u,
    each with the basis vectors (the measurement of party a) as columns, and
    returns ``(values, G)``: finite values of shape ``(...)`` and their
    Euclidean gradients of shape ``(..., d, d)``, ``df = Re tr(G^dag du)``
    for each unitary. It must be invariant under ``u -> u diag(e^{i phi})``.
    ``start`` is a d x d unitary, the start of restart 0; every solver of
    party a calls this through ``correlations._solve``, which passes the
    eigenbasis of rho_a. Restart k >= 1 starts from the unitary of random
    generator coefficients, row k - 1 of one normal draw from
    ``np.random.default_rng(config.seed)``, drawn once per process for each
    ``(seed, restarts, d)`` and shared read-only. ``config`` (an
    :class:`OptimizerConfig`, the default one if None) sets the restarts,
    the seed and the tolerance.

    The restarts are BFGS searches, screened and then polished as
    :func:`_bfgs` says, and each round runs its restarts in lockstep, one
    objective call per step on the stack of those still searching.

    Returns the :class:`OptimizerReport` of the restarts. Deterministic for a fixed config and start. Stopping a restart and going
    on does not change its path, so as long as the objective's value and
    gradient at a unitary do not depend on the stack it comes in (which
    holds for every objective of the library) the polished restart ends
    exactly where a one-restart search from its start ends.
    """
    dim = np.shape(start)[0] if np.ndim(start) else 0
    start = linalg.require_unitary(start, dim, "start")
    cfg = config if config is not None else OptimizerConfig()
    randoms = _random_starts(int(cfg.seed), int(cfg.restarts) - 1, dim)
    return multistart(_bfgs(objective, np.concatenate([start[None], randoms]), cfg.tolerance))
