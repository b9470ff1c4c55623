"""Per-outcome oracles for the measurement of party a, used only by the tests.

The library's objectives are spectral functions of the measured blocks and
never normalize them. These oracles take the long way: normalized
conditional states of party b and the measurement-induced Fisher
information of one observable at a time.
"""

from typing import NamedTuple

import numpy as np

from qfc import linalg, measure_a, qfi

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
