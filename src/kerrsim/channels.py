"""Photon loss: the beam-splitter (generalized Bernoulli) channel and its adjoint.

The channel with quantum efficiency eta acts exactly in the truncated space
through its Kraus operators A_k (k photons lost),

    (A_k)[n-k, n] = sqrt(C(n, k)) * eta^((n-k)/2) * (1-eta)^(k/2),

which only move population downward, so the map is trace preserving on the
truncated space.  The adjoint is used to fold detector inefficiency into
measurement operators instead of states.  Both maps go by the one nonzero
diagonal of each A_k (``_loss_map``), in O(dim^2) memory; the dense
(dim, dim, dim) stack of ``loss_kraus`` is a reference for tests.
"""

from __future__ import annotations

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
    """c_k for k = 0 .. dim - 1, the nonzero superdiagonal of A_k: (A_k)[i, i + k] = c_k[i].
    Its binomials C(m, k) are exact, C(m - 1, k) * m // (m - k), then rounded by float(),
    which raises OverflowError past float64's range, from dim 1031 on."""
    eta = float(eta)
    for k in range(dim):
        binom = [1]
        for m in range(k + 1, dim):
            binom.append(binom[-1] * m // (m - k))
        yield (np.sqrt(np.array([float(b) for b in binom])) * eta ** (np.arange(dim - k) / 2.0)
               * (1.0 - eta) ** (k / 2.0))


def _loss_map(x: np.ndarray, eta: float, adjoint: bool = False) -> np.ndarray:
    """sum_k A_k X A_k^T, or with ``adjoint`` sum_k A_k^T X A_k, for each X of a real or
    complex (..., dim, dim) stack, k ascending: each term is X's block scaled by c_k c_k^T
    and moved k levels, up the diagonal or with ``adjoint`` down it."""
    d = x.shape[-1]
    out = np.zeros_like(x)
    for k, c in enumerate(_kraus_diagonals(eta, d)):
        if adjoint:
            out[..., k:, k:] += np.outer(c, c) * x[..., :d - k, :d - k]
        else:
            out[..., :d - k, :d - k] += np.outer(c, c) * x[..., k:, k:]
    return out


def loss_kraus(channel: LossChannel, dim: int) -> np.ndarray:
    """Stack of Kraus operators, shape (dim, dim, dim); A_k = result[k]."""
    ops = np.zeros((dim, dim, dim))
    for k, diag in enumerate(_kraus_diagonals(channel.eta, dim)):
        ops[k, np.arange(dim - k), np.arange(k, dim)] = diag
    return ops


def apply_loss(rho: DensityMatrix, channel: LossChannel) -> DensityMatrix:
    """rho' = sum_k A_k rho A_k^T; trace preserving and positivity preserving."""
    return DensityMatrix(rho.dim, _loss_map(rho.elems, channel.eta))


def loss_adjoint_on_operator(e: np.ndarray, channel: LossChannel) -> np.ndarray:
    """Adjoint channel on measurement operators: E' = sum_k A_k^T E A_k.

    ``e`` is one operator of shape (dim, dim) or a stack of shape (..., dim, dim), each
    Hermitian with 0 <= E <= I.  E' keeps both; Tr[rho E'] = Tr[rho' E], rho' the lossy state.
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
    return _loss_map(e, channel.eta, adjoint=True)
