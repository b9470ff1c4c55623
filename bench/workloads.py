"""Seeded workload inputs, their solve lists and the reference each solve must meet.

States come only from public ``qfc`` constructors, following the recipes of
the acceptance criteria in ``qfc.verify`` with state seed
``seed + 10000 * criterion + i``; at a given seed the lists equal the
criteria's own. References never use the optimizer: exact zeros on CQ/CC
states, the pure-state closed form ``1 - sum_i c_i^2`` from an SVD, a floor on
full-rank entangled states and ``ln 2`` for the Bell state's entropic discord.

Solves run with ``RESTARTS`` restarts and an optimizer seed of their own per
state (``RESTARTS * state seed``, so no two states share a restart stream).
With the criteria's shared seed every state of a run starts from the same
points, so the cost of a whole run moves with the seed; per-state streams let
the list average that out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qfc
import qfc.correlations
import qfc.discord
import qfc.optimize
import qfc.states

RESTARTS = 4
#: Dimensions of acceptance criterion 3, cycled by state index.
MIXED_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]
#: Dimensions of acceptance criterion 1, in its order.
PURE_DIMS = [(2, 2)] * 8 + [(2, 3)] * 8 + [(3, 3)] * 7 + [(3, 4)] * 7
CLASSICAL_STATES = 20
NOISY_STATES = 20
ZERO_BOUND = 1e-6
PURE_BOUND = 1e-4
NONZERO_FLOOR = 1e-3
BELL_BOUND = 1e-4

#: Solve kinds: the module and public function each one calls.
SOLVERS = {
    "qah": ("correlations", "observable_correlation"),
    "qapi": ("correlations", "measurement_correlation"),
    "dq": ("discord", "entropic_discord"),
    "dg": ("discord", "geometric_discord"),
}

#: The CLI workload: commands cycled by index, spec dims cycled per command round.
CLI_COMMANDS = ("qah", "qapi", "discord", "qfi")
CLI_DIMS = [(2, 2), (2, 3)]
CLI_INVOCATIONS = 40
PAULI_X = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]


def state_seed(seed: int, criterion: int, index: int) -> int:
    return seed + 10_000 * criterion + index


@dataclass(frozen=True)
class Solve:
    """One optimized result and the bound it is checked against."""

    kind: str
    label: str
    state: object
    tolerance: float
    opt_seed: int
    check: Callable[[float], bool]

    def config(self):
        return qfc.optimize.OptimizerConfig(
            restarts=RESTARTS, tolerance=self.tolerance, seed=self.opt_seed
        )

    def run(self):
        module, name = SOLVERS[self.kind]
        solver = getattr(getattr(qfc, module), name)
        return solver(self.state, self.config())


# -- criterion recipes, on public constructors only --------------------------
def random_cq(dims, seed):
    m, n = dims
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(m))
    basis = qfc.states.haar_unitary(m, rng.integers(2**63))
    sigmas = [qfc.states.random_density(n, n, rng.integers(2**63)) for _ in range(m)]
    return qfc.states.make_cq(probs, basis, sigmas)


def random_cc(dims, seed):
    m, n = dims
    k = min(m, n)
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(k))
    a_basis = qfc.states.haar_unitary(m, rng.integers(2**63))[:, :k]
    b_basis = qfc.states.haar_unitary(n, rng.integers(2**63))[:, :k]
    return qfc.states.make_cc(probs, dims, a_basis, b_basis)


def noisy_entangled(dims, seed):
    pure = qfc.states.random_pure(dims, seed)
    d = pure.dim
    rho = 0.9 * pure.rho + 0.1 * np.eye(d) / d
    return qfc.states.BipartiteState(rho, *dims)


def classical_state(seed, i):
    build = random_cq if i % 2 == 0 else random_cc
    return build(MIXED_DIMS[i % len(MIXED_DIMS)], state_seed(seed, 3, i))


def pure_closed_form(state) -> float:
    """``1 - sum_i c_i^2`` from the SVD of the state's leading eigenvector."""
    _, vecs = np.linalg.eigh(state.rho)
    psi = vecs[:, -1].reshape(state.dim_a, state.dim_b)
    c = np.linalg.svd(psi, compute_uv=False) ** 2
    return float(1.0 - np.sum(c**2))


# -- in-process workloads ----------------------------------------------------
def _label(i, state):
    return f"{i}:{state.dim_a}x{state.dim_b}"


def classical_zero(seed):
    solves = []
    for i in range(CLASSICAL_STATES):
        state = classical_state(seed, i)
        for kind in ("qah", "qapi"):
            solves.append(Solve(kind, _label(i, state), state, 1e-8,
                                RESTARTS * state_seed(seed, 3, i),
                                lambda v: abs(v) <= ZERO_BOUND))
    return solves


def pure_coincidence(seed):
    solves = []
    for i, dims in enumerate(PURE_DIMS):
        s = state_seed(seed, 1, i)
        state = qfc.states.random_pure(dims, s)
        closed = pure_closed_form(state)
        for kind in ("qah", "qapi"):
            solves.append(Solve(kind, _label(i, state), state, 1e-6, RESTARTS * s,
                                lambda v, c=closed: abs(v - c) <= PURE_BOUND))
    return solves


def noisy_discord(seed):
    solves = []
    for i in range(NOISY_STATES):
        s = state_seed(seed, 3, 100 + i)
        state = noisy_entangled(MIXED_DIMS[i % len(MIXED_DIMS)], s)
        for kind in ("qah", "qapi", "dq", "dg"):
            solves.append(Solve(kind, _label(i, state), state, 1e-6, RESTARTS * s,
                                lambda v: v >= NONZERO_FLOOR))
    bell = qfc.states.max_entangled(2)
    solves.append(Solve("dq", "bell:2x2", bell, 1e-6, RESTARTS * state_seed(seed, 3, 200),
                        lambda v: abs(v - math.log(2)) <= BELL_BOUND))
    return solves


IN_PROCESS = {
    "classical-zero": classical_zero,
    "pure-closed-form": pure_coincidence,
    "noisy-discord": noisy_discord,
}


def verify_self_check(workload, seed, solves):
    """Compare the states with the acceptance suite's own builders.

    Returns ``None`` when ``qfc.verify`` no longer has the private builders,
    else the number of states that differ.
    """
    try:
        from qfc import verify
        builders = {"cq": verify._random_cq, "cc": verify._random_cc,
                    "noisy": verify._noisy_entangled}
    except (ImportError, AttributeError):
        return None
    mismatches = 0
    seen = set()
    for solve in solves:
        index, _, _ = solve.label.partition(":")
        if solve.label in seen or not index.isdigit():
            continue
        seen.add(solve.label)
        i = int(index)
        dims = (solve.state.dim_a, solve.state.dim_b)
        if workload == "classical-zero":
            expected = builders["cq" if i % 2 == 0 else "cc"](dims, state_seed(seed, 3, i))
        elif workload == "noisy-discord":
            expected = builders["noisy"](dims, state_seed(seed, 3, 100 + i))
        else:
            expected = qfc.states.random_pure(dims, state_seed(seed, 1, i))
        mismatches += not np.array_equal(expected.rho, solve.state.rho)
    return mismatches


# -- CLI workload ------------------------------------------------------------
def cli_specs(seed):
    """``(command, state spec, observable spec or None)`` per invocation."""
    out = []
    for i in range(CLI_INVOCATIONS):
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        dims = CLI_DIMS[(i // len(CLI_COMMANDS)) % len(CLI_DIMS)]
        spec = {"kind": "random", "dims": list(dims), "seed": seed + i,
                "rank": dims[0] * dims[1]}
        observable = {"party": "a", "matrix": PAULI_X} if command == "qfi" else None
        out.append((command, spec, observable))
    return out
