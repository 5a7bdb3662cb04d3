"""Fock-space simulation of a measurement-induced Kerr-type gate.

Coherent superpositions of photon addition/subtraction orderings acting on
weak coherent states, detector-loss modeling, seeded homodyne sampling,
maximum-likelihood state reconstruction, and a heralded nonlinear sign gate
for resource comparison.
"""

__version__ = "0.1.0"

from .fock import (
    DensityMatrix,
    FockVector,
    apply_annihilation,
    apply_creation,
    apply_diagonal,
    basis_state,
    coherent_state,
    density_from_pure,
    fidelity,
    inner_product,
    truncate_density,
)
from .gates import (
    DiagonalOperator,
    GainSolution,
    SuperpositionParams,
    amplified_sign_target,
    apply_conditional,
    build_superposition_operator,
    ideal_kerr,
    noiseless_amplify,
    noiseless_attenuate,
    nonlinear_sign_target,
    solve_superposition,
)
from .channels import LossChannel, apply_loss, loss_adjoint_on_operator
from .homodyne import (
    PhaseSchedule,
    SampleBatch,
    default_schedule,
    projector_matrix,
    quadrature_pdf,
    quadrature_wavefunction,
    sample_quadratures,
)
from .tomography import (
    BinnedData,
    TomographyConfig,
    bin_samples,
    build_povm,
    loglikelihood,
    reconstruct,
)
from .klm import (
    DetectorModel,
    beam_splitter,
    run_ns_gate,
    solve_ns_transmittances,
    transfer_matrix,
    transition_amplitude,
)
from .errors import (
    ConfigError,
    KerrsimError,
    NumericalError,
    SampleFileError,
    StageError,
    SubspaceSupportError,
    TruncationOverflowError,
)
from .tolerances import TOL, Tolerances
