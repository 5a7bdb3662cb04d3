"""Truncated single-mode Fock space: states, ladder operators, state metrics.

Everything lives in the first ``dim`` Fock levels |0>..|dim-1>.  States and
matrices are immutable values; operations are pure functions returning new
values, so concurrent use is safe.  A coherent state follows the standard
expansion c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationOverflowError
from .tolerances import TOL

__all__ = [
    "FockVector",
    "DensityMatrix",
    "basis_state",
    "coherent_state",
    "apply_creation",
    "apply_annihilation",
    "apply_diagonal",
    "inner_product",
    "density_from_pure",
    "fidelity",
    "truncate_density",
]


def _lock(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FockVector:
    """Complex amplitudes over |0>..|dim-1|; possibly unnormalized.

    Unnormalized vectors carry a conditional weight (their squared norm)
    from heralded operations.
    """

    dim: int
    amps: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        arr = np.asarray(self.amps, dtype=np.complex128)
        if arr.shape != (self.dim,):
            raise ValueError(f"amps must have shape ({self.dim},), got {arr.shape}")
        object.__setattr__(self, "amps", _lock(arr.copy()))

    def __reduce__(self):
        # rebuilt through the constructor, so an unpickled copy is read-only too
        return type(self), (self.dim, self.amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "FockVector":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return FockVector(self.dim, self.amps / n)


@dataclass(frozen=True)
class DensityMatrix:
    """dim x dim complex density matrix with explicitly tracked trace."""

    dim: int
    elems: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        arr = np.asarray(self.elems, dtype=np.complex128)
        if arr.shape != (self.dim, self.dim):
            raise ValueError(f"elems must have shape ({self.dim}, {self.dim})")
        object.__setattr__(self, "elems", _lock(arr.copy()))

    def __reduce__(self):
        return type(self), (self.dim, self.elems)

    @property
    def trace(self) -> float:
        return float(np.trace(self.elems).real)

    def validate(self) -> None:
        """Check the physicality invariants, raising ValueError on violation."""
        herm = np.max(np.abs(self.elems - self.elems.conj().T))
        if herm > TOL.hermitian:
            raise ValueError(f"not Hermitian: residual {herm:.3e}")
        evals = np.linalg.eigvalsh(0.5 * (self.elems + self.elems.conj().T))
        if evals[0] < -TOL.psd_floor:
            raise ValueError(f"not positive semidefinite: min eigenvalue {evals[0]:.3e}")
        tr = self.trace
        if not (0.0 < tr <= 1.0 + TOL.norm_unit):
            raise ValueError(f"trace {tr!r} outside (0, 1]")


def basis_state(n: int, dim: int) -> FockVector:
    """Fock basis vector |n> in a dim-level space."""
    if not 0 <= n < dim:
        raise ValueError(f"level {n} outside [0, {dim})")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[n] = 1.0
    return FockVector(dim, amps)


def coherent_state(alpha: complex, dim: int) -> FockVector:
    """Truncated coherent state of the complex amplitude ``alpha``.

    Raises ValueError for a non-finite alpha, and TruncationOverflowError
    when the truncated tail weight 1 - sum_n |c_n|^2 exceeds ``TOL.tail``,
    signalling that ``dim`` is too small for this amplitude.  It raises at once
    for |alpha|^2 >= min(dim, 1400): at least half the weight then lies above the
    top level, or the running product (peak e^(|alpha|^2 / 2)) would overflow.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"coherent amplitude must be finite, got {alpha}")
    limit = min(dim, 1400)
    if math.hypot(alpha.real, alpha.imag) >= math.sqrt(limit):
        raise TruncationOverflowError(
            f"coherent state alpha={alpha} needs |alpha|^2 < {limit} at dim={dim}")
    # c_n = e^{-|a|^2/2} a^n / sqrt(n!), built by a stable running product
    ratios = np.ones(dim, dtype=np.complex128)
    if dim > 1:
        ratios[1:] = alpha / np.sqrt(np.arange(1, dim))
    amps = np.cumprod(ratios) * math.exp(-0.5 * abs(alpha) ** 2)
    tail = 1.0 - float(np.sum(np.abs(amps) ** 2))
    if tail > TOL.tail:
        raise TruncationOverflowError(
            f"coherent state alpha={alpha} loses tail weight {tail:.3e} at dim={dim}"
        )
    return FockVector(dim, amps)


def apply_creation(state: FockVector) -> FockVector:
    """Apply the creation operator: out[n+1] = sqrt(n+1) * in[n].

    The top input level would leave the truncated space; if its population
    exceeds ``TOL.overflow`` this raises instead of silently clipping.
    """
    top = abs(state.amps[-1]) ** 2
    if top > TOL.overflow:
        raise TruncationOverflowError(
            f"top-level population {top:.3e} exceeds {TOL.overflow:.1e}; "
            "increase dim before adding a photon"
        )
    out = np.zeros(state.dim, dtype=np.complex128)
    out[1:] = np.sqrt(np.arange(1, state.dim)) * state.amps[:-1]
    return FockVector(state.dim, out)


def apply_annihilation(state: FockVector) -> FockVector:
    """Apply the annihilation operator: out[n-1] = sqrt(n) * in[n]."""
    out = np.zeros(state.dim, dtype=np.complex128)
    out[:-1] = np.sqrt(np.arange(1, state.dim)) * state.amps[1:]
    return FockVector(state.dim, out)


def apply_diagonal(op, state: FockVector) -> FockVector:
    """Apply a photon-number-diagonal operator: out[n] = f(n) * in[n].

    ``op`` is any object exposing ``dim`` and per-level ``values`` (see
    gates.DiagonalOperator).
    """
    if op.dim != state.dim:
        raise ValueError(f"dimension mismatch: operator {op.dim}, state {state.dim}")
    return FockVector(state.dim, np.asarray(op.values) * state.amps)


def inner_product(a: FockVector, b: FockVector) -> complex:
    """<a|b> = sum_n conj(a_n) b_n."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amps, b.amps))


def density_from_pure(state: FockVector) -> DensityMatrix:
    """|psi><psi| / <psi|psi> for a nonzero vector."""
    n2 = float(np.sum(np.abs(state.amps) ** 2))
    if n2 == 0.0:
        raise ValueError("zero-norm state has no density matrix")
    return DensityMatrix(state.dim, np.outer(state.amps, state.amps.conj()) / n2)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _is_pure(rho: DensityMatrix) -> bool:
    purity = float(np.vdot(rho.elems, rho.elems).real)
    return purity >= (1.0 - TOL.pure) * rho.trace ** 2


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1].

    When either state is pure, |psi><psi|, F = <psi|other|psi> = Tr[rho sigma]
    is computed directly: the Uhlmann form would add the square root of every
    rounding-level eigenvalue of sqrt(rho) sigma sqrt(rho), about 3e-9 each.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    rho.validate()
    sigma.validate()
    if _is_pure(rho) or _is_pure(sigma):
        # Tr[rho^dagger sigma], and rho is Hermitian
        return min(max(float(np.vdot(rho.elems, sigma.elems).real), 0.0), 1.0)
    s = _psd_sqrt(0.5 * (rho.elems + rho.elems.conj().T))
    mid = s @ sigma.elems @ s
    w = np.linalg.eigvalsh(0.5 * (mid + mid.conj().T))
    f = float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)
    return min(max(f, 0.0), 1.0)


def truncate_density(rho: DensityMatrix, dim: int) -> tuple[DensityMatrix, float]:
    """Project onto the first ``dim`` levels and renormalize.

    Returns the renormalized block and the discarded tail mass.
    """
    if dim > rho.dim:
        raise ValueError(f"cannot grow density matrix from {rho.dim} to {dim}")
    block = rho.elems[:dim, :dim]
    kept = float(np.trace(block).real)
    if kept <= 0.0:
        raise ValueError("no mass left in the kept block")
    return DensityMatrix(dim, block / kept), rho.trace - kept
