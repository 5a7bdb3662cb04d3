"""Photon loss: the beam-splitter (generalized Bernoulli) channel and its adjoint.

The channel with quantum efficiency eta acts exactly in the truncated space
through its Kraus operators A_k (k photons lost),

    (A_k)[n-k, n] = sqrt(C(n, k)) * eta^((n-k)/2) * (1-eta)^(k/2),

which only move population downward, so the map is trace preserving on the
truncated space.  The adjoint is used to fold detector inefficiency into
measurement operators instead of states.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix
from .tolerances import TOL

__all__ = ["LossChannel", "loss_kraus", "apply_loss", "loss_adjoint_on_operator"]


@dataclass(frozen=True)
class LossChannel:
    """Survival probability eta in [0, 1] for each photon."""

    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")


def _kraus_diagonals(eta: float, dim: int) -> Iterator[np.ndarray]:
    """c_k for k = 0 .. dim - 1, the nonzero superdiagonal of A_k: (A_k)[i, i + k] = c_k[i]."""
    eta = float(eta)
    kept = np.arange(dim, dtype=np.float64)
    for k in range(dim):
        binom = np.array([float(math.comb(m, k)) for m in range(k, dim)])
        yield np.sqrt(binom) * eta ** (kept[:dim - k] / 2.0) * (1.0 - eta) ** (k / 2.0)


def loss_kraus(channel: LossChannel, dim: int) -> np.ndarray:
    """Stack of Kraus operators, shape (dim, dim, dim); A_k = result[k]."""
    ops = np.zeros((dim, dim, dim))
    for k, diag in enumerate(_kraus_diagonals(channel.eta, dim)):
        ops[k, np.arange(dim - k), np.arange(k, dim)] = diag
    return ops


def apply_loss(rho: DensityMatrix, channel: LossChannel) -> DensityMatrix:
    """rho' = sum_k A_k rho A_k^T; trace preserving and positivity preserving."""
    ops = loss_kraus(channel, rho.dim)
    out = np.einsum("kab,bc,kdc->ad", ops, rho.elems, ops, optimize=["einsum_path", (0, 1), (0, 1)])
    return DensityMatrix(rho.dim, out)


def loss_adjoint_on_operator(e: np.ndarray, channel: LossChannel) -> np.ndarray:
    """Adjoint channel on measurement operators: E' = sum_k A_k^T E A_k.

    ``e`` is one operator of shape (dim, dim) or a stack of shape
    (..., dim, dim), mapped in one contraction; every element of the stack must
    be Hermitian with 0 <= E <= I.  Preserves Hermiticity and those bounds;
    satisfies the duality Tr[rho E'] = Tr[rho' E] with rho' the lossy state.
    """
    e = np.asarray(e, dtype=np.complex128)
    if e.ndim < 2 or e.shape[-1] != e.shape[-2]:
        raise ValueError("operator must be a square matrix or a stack of them")
    herm = np.max(np.abs(e - np.swapaxes(e.conj(), -1, -2)), initial=0.0)
    if herm > TOL.hermitian:
        raise ValueError(f"operator not Hermitian: residual {herm:.3e}")
    w = np.linalg.eigvalsh(e)
    if w.size:
        lo, hi = w[..., 0].min(), w[..., -1].max()
        if lo < -TOL.psd_floor or hi > 1.0 + TOL.psd_floor:
            raise ValueError(f"operator bounds violated: eigenvalues in [{lo:.3e}, {hi:.3e}]")
    ops = loss_kraus(channel, e.shape[-1])
    # the Kraus pair first, as the real dim^4 superoperator, then the stack: a
    # pinned path, as optimize=True caps intermediates at the largest input and
    # so falls back to the naive loop once dim^2 exceeds the stack length (7 s
    # for 360 bins at dim 20, against 0.02 s)
    return np.einsum("kba,...bc,kcd->...ad", ops, e, ops, optimize=["einsum_path", (0, 2), (0, 1)])
