"""Both correlation quantifiers coincide with the geometric discord on pure states.

For a pure bipartite state, the observable quantifier, the measurement
quantifier, and the geometric discord all equal 1 - tr rho_a^2, the linear
entropy of the reduced state, peaking at 1 - 1/M for maximally entangled MxM
states.
"""

import numpy as np

from qfc import (
    OptimizerConfig,
    geometric_discord,
    max_entangled,
    measurement_correlation,
    observable_correlation,
    pure_from_schmidt,
    pure_state_correlation,
    random_pure,
)

cfg = OptimizerConfig(restarts=8, seed=0)

print("Pure-state coincidence")
print("-" * 72)
print(f"{'state':<28} {'closed form':>12} {'observable':>12} {'measurement':>12}")

for label, state in [
    ("product (1.0)", pure_from_schmidt([1.0], (2, 2))),
    ("schmidt (0.8, 0.2)", pure_from_schmidt([0.8, 0.2], (2, 2))),
    ("Bell (max entangled, M=2)", max_entangled(2)),
    ("max entangled, M=3", max_entangled(3)),
    ("random pure 2x3", random_pure((2, 3), 7)),
    ("random pure 3x3", random_pure((3, 3), 8)),
]:
    closed = pure_state_correlation(state)
    obs = observable_correlation(state, cfg).value
    meas = measurement_correlation(state, cfg).value
    print(f"{label:<28} {closed:>12.6f} {obs:>12.6f} {meas:>12.6f}")

print()
print("Geometric discord agrees (closed form on pure inputs):")
state = pure_from_schmidt([0.8, 0.2], (2, 2))
dg = geometric_discord(state)
print(f"  schmidt (0.8, 0.2): D_G = {dg.value:.6f} via {dg.method}")

print()
print("Sweeping s over coefficient pairs (s, 1-s): value = 1 - s^2 - (1-s)^2")
print(f"{'s':>6} {'closed':>10} {'observable':>12}")
for s in np.linspace(0.5, 1.0, 6):
    state = pure_from_schmidt([s, 1 - s], (2, 2))
    closed = pure_state_correlation(state)
    obs = observable_correlation(state, cfg).value
    print(f"{s:>6.2f} {closed:>10.6f} {obs:>12.6f}")
