"""Numerical tolerance constants shared across the package.

All magic tolerances live in one frozen record so that tests and library code
agree on what "negligible" means.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # coherent-state construction: maximum truncated tail weight 1 - sum |c_n|^2
    tail: float = 1e-6
    # creation operator: maximum population of the top Fock level before erroring
    overflow: float = 1e-8
    # three-level targets: maximum relative amplitude allowed above n = 2
    subspace: float = 1e-6
    # Hermiticity residual for density matrices
    hermitian: float = 1e-10
    # most negative eigenvalue tolerated in a "positive semidefinite" matrix
    psd_floor: float = 1e-9
    # slack above 1 that DensityMatrix.validate allows in a trace
    norm_unit: float = 1e-10
    # conditional-operation weight below which a zero-output warning is raised
    zero_weight: float = 1e-15
    # quadrature grid: maximum probability mass missing from the tabulated range
    grid_deficit: float = 1e-6
    # POVM per-phase completeness residual
    completeness: float = 1e-6
    # ML reconstruction stops once its certified gap N (lambda_max(R(rho)) - 1),
    # an upper bound on L* - L(rho) in nats, is this small; the gap float64 can reach
    # grows with the shot count N: 0.1 nats at N = 2e6 needs lambda_max - 1 <= 5e-8
    ml_gap_nats: float = 0.1
    # relative rounding of a log-likelihood, a sum of count * log(probability) over the
    # occupied bins, between two orders of its terms or two runs to the same optimum
    loglik_rounding: float = 1e-12
    # fidelity treats a state with 1 - Tr[rho^2] / Tr[rho]^2 below this as pure
    pure: float = 1e-12
    # NS gate: largest residual of lambda_1/lambda_0 = 1 and lambda_2/lambda_0 = -1
    ns_ratio_residual: float = 1e-10
    # global-phase fix: a single-photon amplitude below this sets no phase reference
    phase_amplitude: float = 1e-14


TOL = Tolerances()
