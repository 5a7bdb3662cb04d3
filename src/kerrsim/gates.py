"""Photon-number-diagonal gates built from addition/subtraction superpositions.

The central object is the conditional operator v(n) = a*(n+1) + b*n obtained
by coherently superposing the two orderings of one photon addition and one
photon subtraction (``a`` weighs add-then-subtract, ``b`` subtract-then-add).
Alongside it live the ideal Kerr phase, the three-level sign-flip targets and
the noiseless gain/attenuation maps, all diagonal in the Fock basis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SubspaceSupportError
from .fock import FockVector, apply_diagonal
from .tolerances import TOL

__all__ = [
    "DiagonalOperator",
    "SuperpositionParams",
    "GainSolution",
    "solve_superposition",
    "build_superposition_operator",
    "ideal_kerr",
    "noiseless_amplify",
    "noiseless_attenuate",
    "apply_conditional",
    "nonlinear_sign_target",
    "amplified_sign_target",
]


@dataclass(frozen=True)
class DiagonalOperator:
    """One complex value per Fock level, representing any f(n)."""

    dim: int
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.shape != (self.dim,):
            raise ValueError(f"values must have shape ({self.dim},)")
        if not np.all(np.isfinite(arr)):
            raise ValueError("diagonal values must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class SuperpositionParams:
    """Weights of the two operator orderings: v(n) = a*(n+1) + b*n."""

    a: complex
    b: complex

    def __post_init__(self):
        if self.a == 0 and self.b == 0:
            raise ValueError("(a, b) must not both be zero")


@dataclass(frozen=True)
class GainSolution:
    """Accepted branch of the ratio equations: b/a and the gain g > 1."""

    ratio: float
    gain: float


def solve_superposition() -> GainSolution:
    """Solve v(1)/v(0) = -g, v(2)/v(1) = g for the branch with g > 1.

    Substituting r = b/a reduces the pair to r^2 + 6r + 7 = 0 with
    g = -(2 + r); the accepted root is r = -3 - sqrt(2), g = 1 + sqrt(2).
    """
    r = -3.0 - math.sqrt(2.0)
    return GainSolution(ratio=r, gain=-(2.0 + r))


def build_superposition_operator(params: SuperpositionParams, dim: int) -> DiagonalOperator:
    """Diagonal of the ordering superposition: values[n] = a*(n+1) + b*n."""
    if dim < 3:
        raise ValueError("dim must be >= 3 to cover the three-level subspace")
    n = np.arange(dim)
    return DiagonalOperator(dim, params.a * (n + 1) + params.b * n)


def ideal_kerr(phi: float, dim: int) -> DiagonalOperator:
    """Kerr phase gate: values[n] = exp(i * phi * n * (n - 1))."""
    n = np.arange(dim)
    return DiagonalOperator(dim, np.exp(1j * phi * n * (n - 1)))


def noiseless_amplify(g: float, dim: int) -> DiagonalOperator:
    """Heralded noiseless gain: values[n] = g**n with g >= 1."""
    if g < 1.0:
        raise ValueError(f"gain must be >= 1, got {g}")
    return DiagonalOperator(dim, np.float64(g) ** np.arange(dim))


def noiseless_attenuate(t: float, dim: int) -> DiagonalOperator:
    """Heralded noiseless attenuation: values[n] = t**n with t in (0, 1]."""
    if not 0.0 < t <= 1.0:
        raise ValueError(f"transmittance must be in (0, 1], got {t}")
    return DiagonalOperator(dim, np.float64(t) ** np.arange(dim))


def apply_conditional(op: DiagonalOperator, state: FockVector) -> tuple[FockVector, float]:
    """Apply a heralded diagonal operator; returns (unnormalized output, weight).

    The weight ||op psi||^2 / ||psi||^2 is a relative success weight, not an
    absolute heralding probability: the absolute value depends on source and
    tap parameters outside this model.
    """
    out = apply_diagonal(op, state)  # checks the dimensions first
    n2 = float(np.sum(np.abs(state.amps) ** 2))
    if n2 == 0.0:
        raise ValueError("conditional operation on a zero state")
    weight = float(np.sum(np.abs(out.amps) ** 2)) / n2
    if weight < TOL.zero_weight:
        warnings.warn(
            f"conditional output weight {weight:.3e} is numerically zero",
            stacklevel=2,
        )
    return out, weight


def nonlinear_sign_target(state: FockVector) -> FockVector:
    """Sign flip of the vacuum amplitude: (c0, c1, c2, ...) -> (-c0, c1, c2, ...)."""
    if state.dim < 3:
        raise ValueError("dim must be >= 3")
    out = state.amps.copy()
    out[0] = -out[0]
    return FockVector(state.dim, out)


def amplified_sign_target(state: FockVector, g: float) -> FockVector:
    """Amplified three-level target: (c0, c1, c2) -> (-c0, g c1, g^2 c2).

    Demands (rather than silently projecting away) negligible support above
    n = 2, so misuse surfaces as an error.
    """
    if state.dim < 3:
        raise ValueError("dim must be >= 3")
    norm = state.norm
    if norm == 0.0:
        raise ValueError("zero state")
    excess = float(np.max(np.abs(state.amps[3:]), initial=0.0))
    if excess > TOL.subspace * norm:
        raise SubspaceSupportError(
            f"support above n=2 (max amplitude {excess:.3e}) exceeds tolerance"
        )
    out = np.zeros(state.dim, dtype=np.complex128)
    out[0] = -state.amps[0]
    out[1] = g * state.amps[1]
    out[2] = g * g * state.amps[2]
    return FockVector(state.dim, out)
