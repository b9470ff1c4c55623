"""Quantum Fisher information and QFI-based correlation quantifiers.

A small numpy library for finite-dimensional bipartite states: QFI of
unitary families, symmetric logarithmic derivatives, measurement-induced
Fisher information, two QFI-based quantum-correlation quantifiers with
their optimizer, and entropic/geometric discord baselines.
"""

from .correlations import (
    QuantifierResult,
    basis_qfi_sum,
    lift_a,
    lift_b,
    measure_a,
    measurement_correlation,
    measurement_projectors,
    observable_correlation,
    pure_state_correlation,
    total_local_qfi_b,
    total_mfi,
)
from .discord import (
    entropic_discord,
    geometric_discord,
    measured_state,
    mutual_information,
    von_neumann_entropy,
)
from .errors import (
    DegeneratePointError,
    DimensionGuardError,
    HermiticityError,
    NormalizationError,
    OptimizationError,
    OrthonormalityError,
    PositivityError,
    PurityError,
    ShapeError,
    TraceError,
    ValidationError,
)
from .fisher import classical_fi, evolve, qfi, qfi_weight_matrix, sld, validate_povm, variance
from .linalg import (
    SchmidtDecomposition,
    Spectrum,
    dag,
    eigh,
    hermitian_basis,
    partial_trace,
    schmidt,
)
from .optimize import (
    OptimizerConfig,
    OptimizerReport,
    optimize_basis,
    unitary_from_params,
)
from .states import (
    BipartiteState,
    KrausChannel,
    apply_channel_b,
    haar_unitary,
    make_cc,
    make_cq,
    make_witness_state,
    max_entangled,
    pure_from_schmidt,
    pure_state,
    random_density,
    random_hermitian,
    random_kraus_channel,
    random_pure,
    state_vector,
    validate_density,
    werner,
)

__version__ = "0.1.0"
