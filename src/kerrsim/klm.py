"""Three-mode heralded nonlinear sign gate with PNR or on-off detectors.

Fixed conventions (mode indices are 0-based):

* mode 0: signal; mode 1: ancilla prepared with one photon (herald: exactly
  one photon / click); mode 2: ancilla vacuum (herald: zero photons / no
  click).
* A linear network is its 3x3 mode-transfer matrix M: a_k+ -> sum_l M[l, k]
  a_l+, later elements multiplying from the left.  The amplitude from
  occupation S to T is Per(M[T, S]) / sqrt(prod S! prod T!), with row l
  repeated T_l times and column k S_k times (Scheel, quant-ph/0406127).
* A beam splitter on modes (i, j) with amplitude transmittance t and phase
  convention angle phi maps

      a_i+ -> t a_i+ - r e^{-i phi} a_j+,
      a_j+ -> r e^{i phi} a_i+ + t a_j+,        r = sqrt(1 - t^2).

* The gate network is: pi phase on the signal path (the folding mirror),
  then beam splitters (1,2), (0,1), (1,2); the last one carries phi = pi.
  Under these conventions the heralded map on signal levels {0, 1, 2} is
  proportional to diag(1, 1, -1).
* run_ns_gate appends a pi phase plate on the signal output, turning
  diag(1, 1, -1) into the vacuum sign flip diag(-1, 1, 1) up to a global
  factor -1.

The ancilla photon is modeled as an ideal |1>; heralded outputs under
inefficient detectors are weighted pure-branch ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .fock import DensityMatrix, FockVector, density_from_pure, fidelity
from .gates import nonlinear_sign_target
from .tolerances import TOL

__all__ = [
    "DetectorModel", "NsGateSolution", "NsGateResult", "beam_splitter", "transfer_matrix",
    "transition_amplitude", "solve_ns_transmittances", "run_ns_gate",
]

SIGNAL, HERALD_ONE, HERALD_ZERO = 0, 1, 2
MAX_PHOTONS = 3  # signal levels {0, 1, 2} plus the ancilla photon


@dataclass(frozen=True)
class DetectorModel:
    """kind 'pnr' (photon number resolving) or 'on_off'; efficiency in (0, 1]."""

    kind: str
    efficiency: float = 1.0

    def __post_init__(self):
        if self.kind not in ("pnr", "on_off"):
            raise ValueError("detector kind must be 'pnr' or 'on_off'")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")


def beam_splitter(i: int, j: int, t: float, phi: float = 0.0) -> np.ndarray:
    """Mode-transfer matrix of a beam splitter on modes (i, j), t in [0, 1]."""
    if i == j or not {i, j} <= {SIGNAL, HERALD_ONE, HERALD_ZERO} or not 0.0 <= t <= 1.0:
        raise ValueError("beam splitter needs two distinct modes in 0..2 and t in [0, 1]")
    r = math.sqrt(1.0 - t * t)
    m = np.eye(3, dtype=np.complex128)
    m[i, i] = m[j, j] = t
    m[j, i] = -r * np.exp(-1j * phi)
    m[i, j] = r * np.exp(1j * phi)
    return m


def transfer_matrix(t1: float, t2: float, t3: float) -> np.ndarray:
    """Mode-transfer matrix of the gate network (mirror phase, then three splitters)."""
    return (
        beam_splitter(HERALD_ONE, HERALD_ZERO, t3, math.pi)
        @ beam_splitter(SIGNAL, HERALD_ONE, t2)
        @ beam_splitter(HERALD_ONE, HERALD_ZERO, t1)
        @ np.diag([-1.0, 1.0, 1.0])
    )


def transition_amplitude(m: np.ndarray, out: tuple[int, ...], inp: tuple[int, ...]) -> complex:
    """<out| U |inp> for the network with mode-transfer matrix m."""
    rows = [mode for mode, n in enumerate(out) for _ in range(n)]
    cols = [mode for mode, n in enumerate(inp) for _ in range(n)]
    if len(rows) != len(cols):
        return 0j  # linear optics conserves photon number
    sub = m[np.ix_(rows, cols)].tolist()
    permanent = sum(
        math.prod(sub[r][c] for r, c in enumerate(sigma))
        for sigma in permutations(range(len(rows)))
    )
    norm = math.prod(math.factorial(n) for n in (*out, *inp))
    return complex(permanent) / math.sqrt(norm)


def _detector_weight(detector: DetectorModel, reading: int, n: int) -> float:
    """P(reading | n photons); an on-off detector reads 1 for a click, 0 for none."""
    eta = detector.efficiency
    if detector.kind == "pnr":
        if n < reading:
            return 0.0
        return math.comb(n, reading) * eta**reading * (1.0 - eta) ** (n - reading)
    miss = (1.0 - eta) ** n
    return 1.0 - miss if reading else miss


@dataclass(frozen=True)
class NsGateSolution:
    """Beam-splitter settings plus the heralded diagonal they produce."""

    transmittances: tuple[float, float, float]
    lambdas: tuple[float, float, float]
    success_probability: float
    residuals: tuple[float, float]


def _heralded_lambdas(t1: float, t2: float, t3: float) -> np.ndarray:
    """Conditional amplitudes lambda_n = <n,1,0|network|n,1,0> for n = 0, 1, 2."""
    m = transfer_matrix(t1, t2, t3)
    return np.array([transition_amplitude(m, (n, 1, 0), (n, 1, 0)) for n in range(3)])


@lru_cache(maxsize=1)
def solve_ns_transmittances() -> NsGateSolution:
    """Beam-splitter settings of the heralded sign gate at its best success probability.

    The two ratio conditions lambda_1/lambda_0 = 1 and lambda_2/lambda_0 = -1
    leave a one-parameter family in (t1, t2, t3); its most probable point is
    t1 = t3 = cos(pi/8), t2 = sqrt(2) - 1 with |lambda_0|^2 = 1/4 (Ralph, White,
    Munro & Milburn, PRA 65, 012314, 2001).  The conditions are checked on the
    network built from these settings, so a convention that breaks them raises.
    """
    t1 = t3 = math.cos(math.pi / 8.0)
    t2 = math.sqrt(2.0) - 1.0
    lam = _heralded_lambdas(t1, t2, t3)
    residuals = (
        float(abs(lam[1] / lam[0] - 1.0)),
        float(abs(lam[2] / lam[0] + 1.0)),
    )
    if max(residuals) > TOL.ns_ratio_residual:
        raise RuntimeError(f"ratio conditions not met: residuals {residuals}")
    return NsGateSolution(
        transmittances=(t1, t2, t3),
        lambdas=tuple(float(x.real) for x in lam),
        success_probability=float(abs(lam[0]) ** 2),
        residuals=residuals,
    )


@dataclass(frozen=True)
class NsGateResult:
    branches: tuple[tuple[float, FockVector], ...]
    output: DensityMatrix
    probability: float
    fidelity: float


def run_ns_gate(
    state: FockVector,
    detectors: DetectorModel | tuple[DetectorModel, DetectorModel],
) -> NsGateResult:
    """Full heralded gate: ancilla preparation, network, heralds, output phase.

    ``detectors`` is a single model for both heralds or a (one-photon herald,
    zero-photon herald) pair.  Reports the heralded output ensemble (as a
    density matrix on the input space), the success probability, and the
    Uhlmann fidelity against the vacuum-sign-flip target.
    """
    if isinstance(detectors, DetectorModel):
        det_one = det_zero = detectors
    else:
        det_one, det_zero = detectors
    if state.dim < 3:
        raise ValueError("input must cover levels {0, 1, 2}")
    norm = state.norm
    if norm == 0.0:
        raise ValueError("zero input state")
    excess = float(np.max(np.abs(state.amps[3:]), initial=0.0))
    if excess > TOL.subspace * norm:
        raise ValueError("input support above n=2 exceeds tolerance")

    signal_in = state.amps[:3] / norm
    network = transfer_matrix(*solve_ns_transmittances().transmittances)

    branches: list[tuple[float, FockVector]] = []
    phase = np.exp(1j * math.pi * np.arange(state.dim))
    for n_zero in range(MAX_PHOTONS + 1):
        for n_one in range(MAX_PHOTONS + 1 - n_zero):
            weight = _detector_weight(det_zero, 0, n_zero)
            weight *= _detector_weight(det_one, 1, n_one)
            if weight == 0.0:
                continue
            # both heralds report, so n_one >= 1 and the signal keeps m <= 2 photons
            amps = np.zeros(state.dim, dtype=np.complex128)
            for n in range(max(0, n_one + n_zero - 1), 3):
                m = n + 1 - n_one - n_zero
                amp = transition_amplitude(network, (m, n_one, n_zero), (n, 1, 0))
                amps[m] = signal_in[n] * amp
            mass = float(np.vdot(amps, amps).real)
            if mass == 0.0:
                continue
            branches.append((weight * mass, FockVector(state.dim, phase * amps / math.sqrt(mass))))

    probability = sum(weight for weight, _ in branches)
    if probability <= 0.0:
        raise RuntimeError("herald pattern has zero probability")
    rho = sum(weight * np.outer(vec.amps, vec.amps.conj()) for weight, vec in branches)
    output = DensityMatrix(state.dim, rho / probability)
    target = density_from_pure(nonlinear_sign_target(FockVector(state.dim, state.amps / norm)))
    return NsGateResult(
        branches=tuple(branches),
        output=output,
        probability=probability,
        fidelity=fidelity(output, target),
    )
