"""Derivative-free optimization over orthonormal bases of C^d.

A basis (equivalently a rank-1 von Neumann measurement) is parameterized by
d^2 real coefficients of a Hermitian generator A in the canonical
trace-orthonormal Hermitian basis; the chart ``p -> exp(i A(p))`` covers the
whole unitary group. Optimization is multistart Nelder-Mead: restarts draw
independent random generator coefficients, each restart owning its RNG
stream (seed = base seed + restart index). Restart 0 may instead be warm
started at a given basis, charted as ``start @ exp(i A(p))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import OptimizationError, ShapeError

#: Spread (radians) of the random generator coefficients at each restart.
START_SPREAD = np.pi / 2
#: Simplex collapse threshold; one of the convergence criteria.
DIAMETER_TOL = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    """Multistart Nelder-Mead settings."""

    restarts: int = 16
    max_iterations: int = 2000
    tolerance: float = 1e-6
    step_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.step_scale <= 0:
            raise ValueError("step_scale must be positive")


@dataclass(frozen=True)
class OptimizerReport:
    """Outcome of a multistart search.

    ``restart_values`` holds each restart's final objective value in original
    (unsigned) units; ``converged`` is the flag of the restart that produced
    the best value. Ties between equally good restarts resolve to the lowest
    restart index. ``best_unitary`` is the basis that attains ``best_value``.
    """

    direction: str
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
        ordered = np.sort(self.restart_values)
        return float(ordered[1] if self.direction == "min" else ordered[-2])


@lru_cache(maxsize=None)
def _generator_basis(dim: int) -> np.ndarray:
    basis = linalg.hermitian_basis(np.eye(dim))
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


def random_params(dim: int, rng: np.random.Generator, spread: float = START_SPREAD) -> np.ndarray:
    """Random generator coefficients for one restart."""
    return rng.normal(0.0, spread, size=dim * dim)


def nelder_mead(
    f,
    x0: np.ndarray,
    step: float,
    tolerance: float,
    max_iterations: int,
    diameter_tol: float = DIAMETER_TOL,
):
    """Minimize ``f`` from ``x0`` with a standard Nelder-Mead simplex.

    Stops when the simplex objective spread drops below ``tolerance``, or the
    simplex diameter drops below ``diameter_tol``, or the iteration cap is
    reached (in which case ``converged`` is False but the best point is still
    returned).

    Returns ``(x_best, f_best, n_evaluations, n_iterations, converged)``.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    pts = np.tile(x0, (n + 1, 1))
    for i in range(n):
        pts[i + 1, i] += step
    fv = np.array([f(p) for p in pts])
    nfev = n + 1
    nit = 0
    converged = False
    while True:
        order = np.argsort(fv, kind="stable")
        pts, fv = pts[order], fv[order]
        spread = fv[-1] - fv[0]
        diameter = np.max(np.linalg.norm(pts[1:] - pts[0], axis=1))
        if spread < tolerance or diameter < diameter_tol:
            converged = True
            break
        if nit >= max_iterations:
            break
        nit += 1
        centroid = pts[:-1].mean(axis=0)
        xr = 2.0 * centroid - pts[-1]
        fr = f(xr)
        nfev += 1
        if fr < fv[0]:
            xe = centroid + 2.0 * (xr - centroid)
            fe = f(xe)
            nfev += 1
            if fe < fr:
                pts[-1], fv[-1] = xe, fe
            else:
                pts[-1], fv[-1] = xr, fr
        elif fr < fv[-2]:
            pts[-1], fv[-1] = xr, fr
        else:
            if fr < fv[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid - 0.5 * (centroid - pts[-1])
            fc = f(xc)
            nfev += 1
            if fc < min(fr, fv[-1]):
                pts[-1], fv[-1] = xc, fc
            else:
                pts[1:] = pts[0] + 0.5 * (pts[1:] - pts[0])
                fv[1:] = [f(p) for p in pts[1:]]
                nfev += n
    best = int(np.argmin(fv))
    return pts[best], float(fv[best]), nfev, nit, converged


def optimize_basis(
    objective,
    dim: int,
    direction: str = "min",
    config: OptimizerConfig | None = None,
    *,
    start: np.ndarray | None = None,
) -> OptimizerReport:
    """Optimize a function of an orthonormal basis (measurement) of C^dim.

    ``objective`` receives a unitary matrix whose columns are the basis
    vectors / measurement directions and must return a finite float.
    Restart k starts from random generator coefficients drawn from its own
    stream (seed ``config.seed + k``). A ``start`` unitary replaces restart 0
    by a search over ``start @ exp(i A(p))`` from ``p = 0``, so its first
    evaluation is at ``start``; the other restarts are unchanged.
    Deterministic for a fixed config and start.
    """
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
    if start is not None:
        if np.shape(start) != (dim, dim):
            raise ShapeError(f"start of shape {np.shape(start)} does not match dimension {dim}")
        start = linalg.require_orthonormal_columns(start, "start")
    cfg = config if config is not None else OptimizerConfig()
    sign = 1.0 if direction == "min" else -1.0

    def chart(p: np.ndarray, base: np.ndarray | None) -> np.ndarray:
        u = unitary_from_params(p, dim)
        return u if base is None else base @ u

    finals = np.empty(cfg.restarts)
    flags = np.empty(cfg.restarts, dtype=bool)
    unitaries = []
    nfev_total = 0
    nit_total = 0
    for k in range(cfg.restarts):
        base = start if k == 0 else None
        if base is None:
            x0 = random_params(dim, np.random.default_rng(cfg.seed + k))
        else:
            x0 = np.zeros(dim * dim)

        def wrapped(p: np.ndarray) -> float:
            value = float(objective(chart(p, base)))
            if not np.isfinite(value):
                raise OptimizationError(f"objective returned non-finite value {value}")
            return sign * value

        x, fx, nfev, nit, ok = nelder_mead(
            wrapped, x0, cfg.step_scale, cfg.tolerance, cfg.max_iterations
        )
        finals[k] = fx
        flags[k] = ok
        unitaries.append(chart(x, base))
        nfev_total += nfev
        nit_total += nit
    best = int(np.argmin(finals))
    return OptimizerReport(
        direction=direction,
        best_value=sign * finals[best],
        best_unitary=unitaries[best],
        restart_values=sign * finals,
        restart_converged=flags,
        converged=bool(flags[best]),
        n_evaluations=nfev_total,
        n_iterations=nit_total,
    )
