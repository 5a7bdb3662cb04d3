"""Quadrature statistics and seeded Monte Carlo homodyne sampling.

Conventions (used consistently by the tomography module):

* quadrature operator scaled so the vacuum variance is 1/2,
* oscillator eigenfunctions psi_n(x) = pi^(-1/4) (2^n n!)^(-1/2) H_n(x) e^(-x^2/2),
* phase enters as p(x | theta) = sum_{mn} rho_mn e^{i(m-n)theta} psi_m(x) psi_n(x).

Sampling is inverse-CDF on a tabulated grid with a counter-based (Philox)
generator keyed per phase, so per-phase blocks are independent and the whole
batch is bit-reproducible for a fixed seed and schedule order.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .artifacts import atomic_open, write_json
from .channels import LossChannel, apply_loss
from .errors import NumericalError
from .fock import DensityMatrix
from .tolerances import TOL

__all__ = [
    "PhaseSchedule",
    "SampleBatch",
    "quadrature_wavefunction",
    "wavefunction_table",
    "quadrature_pdf",
    "projector_matrix",
    "sample_quadratures",
    "default_schedule",
    "save_samples",
    "load_samples",
]

GRID_HALFWIDTH = 6.0
GRID_STEP = 0.01
_CSV_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class PhaseSchedule:
    """Per-phase sample counts plus the RNG seed for the whole batch."""

    phases: tuple[tuple[float, int], ...]
    seed: int

    def __post_init__(self):
        phases = tuple((float(t), int(c)) for t, c in self.phases)
        thetas = [t for t, _ in phases]
        if len(set(thetas)) != len(thetas):
            raise ValueError("phases must be distinct")
        if any(c <= 0 for _, c in phases):
            raise ValueError("sample counts must be positive")
        object.__setattr__(self, "phases", phases)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.phases)


@dataclass(frozen=True)
class SampleBatch:
    """Batch of samples as parallel arrays; its provenance lives in the sidecar."""

    thetas: np.ndarray
    xs: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.thetas, dtype=np.float64)
        x = np.asarray(self.xs, dtype=np.float64)
        if t.shape != x.shape or t.ndim != 1:
            raise ValueError("thetas and xs must be 1-d arrays of equal length")
        t.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "thetas", t)
        object.__setattr__(self, "xs", x)

    def __len__(self) -> int:
        return self.thetas.size


def default_schedule(seed: int, n_phases: int, samples_per_phase: int) -> PhaseSchedule:
    """Uniform phases in [0, pi) with equal counts."""
    thetas = np.arange(n_phases) * math.pi / n_phases
    return PhaseSchedule(tuple((float(t), samples_per_phase) for t in thetas), seed)


def wavefunction_table(dim: int, x: np.ndarray) -> np.ndarray:
    """psi_n(x) for n = 0..dim-1, shape (dim, len(x)).

    Uses the normalized three-term recurrence, which stays O(1) in magnitude
    (no factorial overflow) well past n = 32.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((dim, x.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if dim > 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(2, dim):
        out[n] = math.sqrt(2.0 / n) * x * out[n - 1] - math.sqrt((n - 1) / n) * out[n - 2]
    return out


def quadrature_wavefunction(n: int, x) -> np.ndarray:
    """Real oscillator eigenfunction psi_n at the points x, as a 1-d array."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return wavefunction_table(n + 1, np.atleast_1d(x))[n]


def _phased_vectors(dim: int, theta: float, x: np.ndarray) -> np.ndarray:
    """Columns w(x) with w_m = e^{-i m theta} psi_m(x); p = <w|rho|w>."""
    psi = wavefunction_table(dim, x)
    return np.exp(-1j * theta * np.arange(dim))[:, None] * psi


def quadrature_pdf(rho: DensityMatrix, theta: float, x) -> np.ndarray:
    """p(x | theta) = sum_{mn} rho_mn e^{i(m-n)theta} psi_m(x) psi_n(x), a 1-d array over x."""
    herm = np.max(np.abs(rho.elems - rho.elems.conj().T))
    if herm > TOL.hermitian:
        raise ValueError(f"density matrix not Hermitian: residual {herm:.3e}")
    w = _phased_vectors(rho.dim, theta, np.atleast_1d(x))
    return np.einsum("mg,mn,ng->g", w.conj(), rho.elems, w, optimize=True).real


def projector_matrix(theta: float, x: float, dim: int) -> np.ndarray:
    """Quadrature projector |x_theta><x_theta| in the Fock basis.

    Defined so that Tr[rho * projector] == quadrature_pdf(rho, theta, x).
    """
    w = _phased_vectors(dim, theta, np.atleast_1d(float(x)))[:, 0]
    return np.outer(w, w.conj())


def _tabulated_cdf(rho: DensityMatrix, theta: float, grid: np.ndarray) -> np.ndarray:
    pdf = np.clip(quadrature_pdf(rho, theta, grid), 0.0, None)
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))))
    mass = cdf[-1]
    if rho.trace - mass > TOL.grid_deficit:
        raise NumericalError(
            f"quadrature grid covers mass {mass:.9f} of trace {rho.trace:.9f}"
        )
    return cdf / mass


def sample_quadratures(
    rho: DensityMatrix,
    schedule: PhaseSchedule,
    eta: float,
) -> SampleBatch:
    """Draw homodyne samples from the state after detection loss eta.

    Per phase, draws i.i.d. samples by inverse-CDF lookup on a grid of step
    ``GRID_STEP`` over +-``GRID_HALFWIDTH`` (linear interpolation).  Each
    phase gets its own Philox stream derived from (seed, phase index), so
    output is deterministic given the schedule.
    """
    lossy = apply_loss(rho, LossChannel(eta))
    n_points = int(round(2.0 * GRID_HALFWIDTH / GRID_STEP)) + 1
    grid = np.linspace(-GRID_HALFWIDTH, GRID_HALFWIDTH, n_points)
    thetas_out = []
    xs_out = []
    for index, (theta, count) in enumerate(schedule.phases):
        cdf = _tabulated_cdf(lossy, theta, grid)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=schedule.seed, spawn_key=(index,)))
        )
        u = rng.random(count)
        xs_out.append(np.interp(u, cdf, grid))
        thetas_out.append(np.full(count, theta))
    return SampleBatch(np.concatenate(thetas_out), np.concatenate(xs_out))


def _sidecar_path(path: str) -> str:
    """``samples.csv`` or ``samples.npy`` -> ``samples_meta.json``, beside the data file."""
    return os.path.splitext(path)[0] + "_meta.json"


def save_samples(batch: SampleBatch, path, meta: dict | None = None) -> None:
    """Write samples plus a sidecar JSON: the file's name, the count and ``meta``.

    A ``.npy`` path gets an ``(N, 2)`` float64 array with columns theta and
    x, which holds every value exactly.  Any other path gets a CSV (header
    theta,x): each row is ``repr(theta),repr(x)`` with CRLF line ends, the
    bytes ``csv.writer`` gives.
    """
    path = str(path)
    if path.endswith(".npy"):
        with atomic_open(path, binary=True) as fh:
            np.save(fh, np.column_stack((batch.thetas, batch.xs)), allow_pickle=False)
    else:
        _write_csv(batch, path)
    sidecar = {"schema_version": 1, "file": os.path.basename(path), "count": len(batch)}
    write_json(_sidecar_path(path), {**sidecar, **(meta or {})})


def _write_csv(batch: SampleBatch, path: str) -> None:
    """Write the sample CSV.

    The sampler writes each phase as one run of rows, so a run's
    ``repr(theta) + ","`` is formatted once and joined in front of every x of
    the run.
    """
    n = len(batch)
    bits = batch.thetas.view(np.int64)
    # runs split on the bit pattern, not on !=, so 0.0 and -0.0 keep their own repr
    heads = (np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist()
    edges = [0, *heads, n] if n else []
    with atomic_open(path, newline="") as fh:
        fh.write("theta,x\r\n")
        for start, stop in zip(edges, edges[1:]):
            prefix = repr(float(batch.thetas[start])) + ","
            sep = "\r\n" + prefix
            # bounded chunks keep the formatted text small next to the batch itself
            for lo in range(start, stop, _CSV_CHUNK_ROWS):
                xs = batch.xs[lo:min(lo + _CSV_CHUNK_ROWS, stop)].tolist()
                fh.write(prefix + sep.join(map(repr, xs)) + "\r\n")


def load_samples(path) -> tuple[SampleBatch, dict]:
    """Read a sample file written by save_samples, and the fields of its sidecar.

    A ``.npy`` file must hold an ``(N, 2)`` float64 array.  Any other file is
    a CSV, parsed by NumPy's C reader, which rounds each decimal exactly as
    ``float()`` does.  Either way a reloaded batch is bit-identical to the
    saved one.  A file that cannot be parsed, or that holds a NaN or infinite
    theta or x, raises ValueError; the sampler writes none.  The fields are {}
    when no sidecar describes the file (there is none, it names another file,
    or its count is not the number of rows read); a sidecar that is not a
    JSON object, or whose ``eta`` is not a number in (0, 1], raises
    ValueError naming it.
    """
    path = str(path)
    body = _read_npy(path) if path.endswith(".npy") else _read_csv(path)
    finite = np.isfinite(body).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite theta or x in data row {int(np.argmin(finite)) + 1}")
    return SampleBatch(body[:, 0], body[:, 1]), _sidecar_for(path, len(body))


def _read_npy(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        # the .npy reader alone: np.load would also open a zip archive or a pickle
        body = np.lib.format.read_array(fh, allow_pickle=False)
    if body.dtype != np.float64 or body.ndim != 2 or body.shape[1] != 2:
        raise ValueError(
            f"expected an (N, 2) float64 array, got {body.dtype} of shape {body.shape}"
        )
    return body


def _read_csv(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if header[:2] != ["theta", "x"]:
            raise ValueError(f"unexpected sample CSV header: {header}")
        with warnings.catch_warnings():
            # a header-only file is an empty batch; the caller decides what that means
            warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
            return np.loadtxt(fh, delimiter=",", usecols=(0, 1), ndmin=2)


def _sidecar_for(path: str, rows: int) -> dict:
    """The sidecar's fields if it describes ``path`` and its ``rows``; else {}, or ValueError."""
    meta_path = _sidecar_path(path)
    name = os.path.basename(path)
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        return {}
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ValueError(f"sidecar {meta_path} is not readable JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"sidecar {meta_path} does not hold a JSON object")
    # a sidecar written before sidecars named their file describes the file beside it;
    # one whose count differs was written for an earlier version of the file
    if meta.get("file", name) != name or meta.get("count", rows) != rows:
        return {}
    eta = meta.get("eta")
    # JSON numbers load as int or float; a bool is not one
    if "eta" in meta and not (type(eta) in (int, float) and 0.0 < eta <= 1.0):
        raise ValueError(f"sidecar {meta_path} records eta {eta!r}, not a number in (0, 1]")
    return meta
