"""The measured-information hierarchy behind the measurement quantifier.

Party b alone, measuring after a fixed von Neumann measurement on party a,
never extracts more Fisher information than the joint local QFI; the summed
gap over an observable basis of b is the measurement quantifier. On CQ
states the gap closes at the classical basis. The basis sum itself is
independent of which orthonormal observable basis is used.
"""

import numpy as np

from qfc import (
    OptimizerConfig,
    make_cq,
    hermitian_basis,
    lift_b,
    measurement_correlation,
    qfi,
    total_local_qfi_b,
    total_mfi,
    werner,
)
from qfc.states import BipartiteState, haar_unitary, random_density

cfg = OptimizerConfig(restarts=8, seed=0)

print("Hierarchy: total MFI <= total local QFI on party b")
print("-" * 60)
state = BipartiteState(random_density(6, 6, 0), 2, 3)
top = total_local_qfi_b(state)
for k in range(4):
    u = haar_unitary(2, 10 + k)
    print(f"  random measurement {k}: total MFI {total_mfi(state, u):.6f}  <=  {top:.6f}")

print()
print("CQ states close the gap at their classical basis:")
basis = haar_unitary(2, 3)
cq = make_cq([0.4, 0.6], basis, [random_density(3, 3, 20), random_density(3, 3, 21)])
print(f"  total MFI at classical basis: {total_mfi(cq, basis):.9f}")
print(f"  total local QFI:              {total_local_qfi_b(cq):.9f}")

print()
print("The basis sum does not depend on the observable basis:")


def basis_sum(basis):
    return sum(qfi(state.rho, lift_b(h, 2)) for h in basis)


canonical = hermitian_basis(3)
rng = np.random.default_rng(5)
for k in range(3):
    mix, _ = np.linalg.qr(rng.standard_normal((9, 9)))
    rotated = np.einsum("vu,uij->vij", mix, canonical)
    print(f"  random orthogonal mixing {k}: {basis_sum(rotated):.12f}")
print(f"  canonical basis:             {basis_sum(canonical):.12f}")
print(f"  basis-free value:            {top:.12f}")

print()
print("Werner family: the quantifier grows with the singlet weight")
print(f"{'w':>6} {'measurement quantifier':>24}")
for w in np.linspace(0.0, 1.0, 5):
    value = measurement_correlation(werner(w), cfg).value
    print(f"{w:>6.2f} {value:>24.6f}")
