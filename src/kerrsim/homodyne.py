"""Quadrature statistics and seeded Monte Carlo homodyne sampling.

Conventions (used consistently by the tomography module):

* quadrature operator scaled so the vacuum variance is 1/2,
* oscillator eigenfunctions psi_n(x) = pi^(-1/4) (2^n n!)^(-1/2) H_n(x) e^(-x^2/2),
* phase enters as p(x | theta) = sum_{mn} rho_mn e^{i(m-n)theta} psi_m(x) psi_n(x).

Sampling is inverse-CDF on a tabulated grid with a counter-based (Philox)
generator keyed per phase, so per-phase blocks are independent and the whole
batch is bit-reproducible for a fixed seed and schedule order.  Each uniform
draw finds its CDF knot through a guide table (Chen & Asau 1974; Devroye,
Non-Uniform Random Variate Generation, 1986, sec. III.2.4) in O(1), then
interpolates with ``np.interp``'s formula, so every sample equals
``np.interp(u, cdf, grid)`` bit for bit.

Homodyne data are recorded at a few fixed phases (Lvovsky & Raymer, RMP 81,
299, 2009), so a ``SampleBatch`` holds one x per shot, 8 bytes, and its
phases as runs: one theta per run of shots at that phase and the run's
cumulative end.  The sampler makes one run per schedule phase; the readers
and writers work on the runs, and none expands a theta per shot.

Sample files are ``.npy`` or CSV.  A CSV is formatted and parsed in
contiguous row ranges, each a part of ``_parts.run_parts``; the bytes and
values do not depend on how many.  The x values are formatted with array
arithmetic (``_floatrepr.format_rows``), bit for bit as ``repr``.  A writer
formats a batch's rows, or draws its own rows of a schedule (``_Shots``) and
formats them, so that no range holds the shot column.  A reader cuts the
body by bytes at line ends and gives each parsed piece of a range's rows to
the range's own sink (``_Rows``), which counts them from 0; the calling
process numbers the rows once every range is parsed, so no range is parsed
twice.  ``load_samples`` gathers the rows into a batch, and
``tomography._Histogram`` bins them as they come.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import shutil
import warnings
from dataclasses import dataclass

import numpy as np

from ._parts import _worker_count, run_parts, values
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
_GRID_POINTS = int(round(2.0 * GRID_HALFWIDTH / GRID_STEP)) + 1
_CSV_CHUNK_ROWS = 4096
# bytes per read of the CSV body, which bounds the reader's text buffers (about 8 times this)
_CSV_SLICE_BYTES = 2**18
# a power of two, so that u * _GUIDE_SIZE and k / _GUIDE_SIZE are exact
_GUIDE_SIZE = 2**12
# shots per pass of the inverse-CDF lookup and of the binning, which bounds their temporaries
_CHUNK_SHOTS = 2**16
_PDF_PATH = ["einsum_path", (0, 1), (0, 1)]  # the conjugate vectors with rho, then with w


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


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs of bit-identical entries of the 1-d float64 ``values``: each run's value and
    its cumulative end.  Runs split on the bit pattern, not on !=, so 0.0 and -0.0, or two
    NaN payloads, keep runs of their own."""
    bits = values.view(np.int64)
    ends = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if values.size:
        ends = np.append(ends, values.size)
    return values[ends - 1], ends


def _runs_in(run_ends: np.ndarray, lo: int, hi: int) -> tuple[slice, np.ndarray]:
    """The runs that hold shots ``lo``..``hi``, as a slice of the run arrays, and how many
    of those shots each holds."""
    first = int(np.searchsorted(run_ends, lo, side="right"))
    last = int(np.searchsorted(run_ends, hi, side="left"))
    return slice(first, last + 1), np.diff(np.minimum(run_ends[first:last + 1], hi) - lo, prepend=0)


@dataclass(frozen=True, init=False)
class SampleBatch:
    """Samples as an x per shot plus the phase runs that hold them, 8 bytes a shot.

    Run r is the shots ``run_ends[r - 1]`` (0 for the first run) up to
    ``run_ends[r]``, all at phase ``run_thetas[r]``.  Homodyne data come in a
    few phase blocks, so the runs are a few numbers however many the shots.
    The provenance of the samples lives in the sidecar.
    """

    xs: np.ndarray
    run_thetas: np.ndarray
    run_ends: np.ndarray

    def __init__(self, thetas, xs):
        """A batch from per-shot columns: thetas are split into runs on their bit pattern."""
        t = np.asarray(thetas, dtype=np.float64)
        x = np.asarray(xs, dtype=np.float64)
        if t.shape != x.shape or t.ndim != 1:
            raise ValueError("thetas and xs must be 1-d arrays of equal length")
        self._hold(x, *_runs(t))

    @classmethod
    def from_runs(cls, run_thetas, run_ends, xs) -> "SampleBatch":
        """A batch from its x column and phase runs, with no per-shot theta column."""
        batch = object.__new__(cls)
        batch._hold(np.asarray(xs, dtype=np.float64), np.asarray(run_thetas, dtype=np.float64),
                    np.asarray(run_ends, dtype=np.intp))
        return batch

    def _hold(self, x: np.ndarray, run_thetas: np.ndarray, run_ends: np.ndarray) -> None:
        if x.ndim != 1 or run_thetas.ndim != 1 or run_thetas.shape != run_ends.shape:
            raise ValueError("xs, run_thetas and run_ends must be 1-d, the runs of equal length")
        # every run holds a shot, and the last ends with the batch
        last = run_ends[-1] if run_ends.size else 0
        if last != x.size or np.any(np.diff(run_ends, prepend=0) <= 0):
            raise ValueError(f"run_ends must rise from above 0 to {x.size}")
        for name, arr in (("xs", x), ("run_thetas", run_thetas), ("run_ends", run_ends)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def thetas(self) -> np.ndarray:
        """The phase of every shot, expanded from the runs (8 more bytes a shot), read-only."""
        t = np.repeat(self.run_thetas, np.diff(self.run_ends, prepend=0))
        t.setflags(write=False)
        return t

    def __len__(self) -> int:
        return self.xs.size


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


def _phased_vectors(theta: float, psi: np.ndarray) -> np.ndarray:
    """Columns w(x) with w_m = e^{-i m theta} psi_m(x), from psi = wavefunction_table(...)."""
    return np.exp(-1j * theta * np.arange(len(psi)))[:, None] * psi


def _check_hermitian(rho: DensityMatrix) -> None:
    herm = np.max(np.abs(rho.elems - rho.elems.conj().T))
    if herm > TOL.hermitian:
        raise ValueError(f"density matrix not Hermitian: residual {herm:.3e}")


def _pdf(rho: DensityMatrix, theta: float, psi: np.ndarray) -> np.ndarray:
    """p = <w|rho|w> at the points psi was tabulated on."""
    w = _phased_vectors(theta, psi)
    return np.einsum("mg,mn,ng->g", w.conj(), rho.elems, w, optimize=_PDF_PATH).real


def quadrature_pdf(rho: DensityMatrix, theta: float, x) -> np.ndarray:
    """p(x | theta) = sum_{mn} rho_mn e^{i(m-n)theta} psi_m(x) psi_n(x), a 1-d array over x."""
    _check_hermitian(rho)
    return _pdf(rho, theta, wavefunction_table(rho.dim, np.atleast_1d(x)))


def projector_matrix(theta: float, x: float, dim: int) -> np.ndarray:
    """Quadrature projector |x_theta><x_theta| in the Fock basis.

    Defined so that Tr[rho * projector] == quadrature_pdf(rho, theta, x).
    """
    w = _phased_vectors(theta, wavefunction_table(dim, np.atleast_1d(float(x))))[:, 0]
    return np.outer(w, w.conj())


def _tabulated_cdf(rho: DensityMatrix, pdf: np.ndarray, grid: np.ndarray) -> np.ndarray:
    pdf = np.clip(pdf, 0.0, None)
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))))
    mass = cdf[-1]
    if rho.trace - mass > TOL.grid_deficit:
        raise NumericalError(
            f"quadrature grid covers mass {mass:.9f} of trace {rho.trace:.9f}"
        )
    return cdf / mass


def _last_knot_at_or_below(knots: np.ndarray, values: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Index of the last of the non-decreasing ``knots`` <= each value.

    ``lower`` is that index or the one before it, and ``knots[lower + 1]``
    must exist; one comparison settles which.  A NaN value counts as above
    every knot.
    """
    return lower + ~(values < knots[lower + 1])


def _inverse_cdf(u: np.ndarray, cdf: np.ndarray, grid: np.ndarray, out: np.ndarray) -> None:
    """Write ``np.interp(u, cdf, grid)`` into ``out``, bit for bit, in O(1) per value.

    ``cdf`` rises from cdf[0] = 0 to cdf[-1] = 1, and every u lies in [0, 1),
    so the last knot j <= u is never the last knot, where np.interp returns
    grid[-1].  Bucket k of the guide table holds the last knot <= k / K; a
    u in that bucket has that knot or the next, unless more knots than one
    fall in the bucket (the flat tails of the CDF), where u is searched.
    Between knots the value is np.interp's slope * (u - cdf[j]) + grid[j],
    and grid[j] when u is on the knot.  The temporaries are a few times
    ``u``'s size, which the caller bounds.
    """
    levels = np.arange(_GUIDE_SIZE + 1) / _GUIDE_SIZE
    guide = np.searchsorted(cdf, levels, side="right") - 1
    # like np.interp, warn of nothing: a flat stretch has an infinite slope, which no u uses
    with np.errstate(all="ignore"):
        slope = np.diff(grid) / np.diff(cdf)
        bucket = (u * _GUIDE_SIZE).astype(np.intp)
        j = _last_knot_at_or_below(cdf, u, guide[bucket])
        wide = np.flatnonzero((np.diff(guide) > 1)[bucket])
        if wide.size:
            j[wide] = np.searchsorted(cdf, u[wide], side="right") - 1
        at, base = cdf[j], grid[j]
        np.subtract(u, at, out=out)
        out *= slope[j]
        out += base
        np.copyto(out, base, where=u == at)


class _Shots:
    """The shots of ``schedule`` from the state ``rho`` after detection loss ``eta``, drawn
    on demand: any contiguous rows, bit for bit as one pass over the schedule draws them.

    Holds the lossy state and its wavefunction table on the sampling grid; a
    phase's CDF is tabulated when its rows are drawn, unless ``keep_cdfs``
    kept it.  Phase i draws from its own Philox stream, keyed by (seed, i),
    which ``advance`` moves to any row, so a process draws its rows without
    the rows before them.
    """

    def __init__(self, rho: DensityMatrix, schedule: PhaseSchedule, eta: float):
        self.lossy = apply_loss(rho, LossChannel(eta))
        _check_hermitian(self.lossy)
        self.schedule = schedule
        self.grid = np.linspace(-GRID_HALFWIDTH, GRID_HALFWIDTH, _GRID_POINTS)
        self.psi = wavefunction_table(self.lossy.dim, self.grid)
        self.ends = np.cumsum([count for _, count in schedule.phases], dtype=np.intp)
        self.kept: dict[int, np.ndarray] = {}

    def cdf(self, index: int) -> np.ndarray:
        """Phase ``index``'s CDF on the grid; NumericalError if the grid misses the state's mass."""
        if index in self.kept:
            return self.kept[index]
        theta = self.schedule.phases[index][0]
        return _tabulated_cdf(self.lossy, _pdf(self.lossy, theta, self.psi), self.grid)

    def keep_cdfs(self) -> None:
        """Tabulate every phase's CDF, so that a grid that misses the state's mass fails here,
        and keep them for ``chunks`` while they take no more bytes than the schedule's x
        column, 8 a shot, which a caller that draws its rows by chunks never holds: all 12 of
        the default schedule (115 kB), fewer where phases hold fewer shots than the grid's
        1,201 points."""
        room = 8 * self.schedule.total
        for index in range(len(self.schedule.phases)):
            cdf = self.cdf(index)
            if cdf.nbytes <= room:
                self.kept[index] = cdf
                room -= cdf.nbytes

    def chunks(self, lo: int, hi: int, out: np.ndarray | None = None):
        """Draw shots ``lo``..``hi`` in chunks of at most _CHUNK_SHOTS of one phase, and yield
        each chunk's (theta, x): x is the chunk's part of ``out``, which holds rows lo..hi,
        or without ``out`` a buffer that the next chunk reuses."""
        buffer = np.empty(min(hi - lo, _CHUNK_SHOTS)) if out is None else None
        for index in range(int(np.searchsorted(self.ends, lo, side="right")), self.ends.size):
            theta, count = self.schedule.phases[index]
            stop = int(self.ends[index])
            first = max(lo, stop - count)
            if first >= hi:
                break
            cdf = self.cdf(index)
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=self.schedule.seed, spawn_key=(index,))))
            # a step of Philox makes four draws; random() takes one a shot
            skipped = first - (stop - count)
            rng.bit_generator.advance(skipped // 4)
            rng.random(skipped % 4)
            for a in range(first, min(stop, hi), _CHUNK_SHOTS):
                b = min(a + _CHUNK_SHOTS, stop, hi)
                x = buffer[:b - a] if out is None else out[a - lo:b - lo]
                _inverse_cdf(rng.random(b - a), cdf, self.grid, x)
                yield theta, x


def sample_quadratures(
    rho: DensityMatrix,
    schedule: PhaseSchedule,
    eta: float,
) -> SampleBatch:
    """Draw homodyne samples from the state after detection loss eta.

    Per phase, draws i.i.d. samples by inverse-CDF lookup on a grid of step
    ``GRID_STEP`` over +-``GRID_HALFWIDTH`` (linear interpolation).  Each
    phase gets its own Philox stream derived from (seed, phase index), so
    output is deterministic given the schedule.  A guide table finds each
    draw's grid interval in O(1); the samples equal ``np.interp`` on the
    tabulated CDF bit for bit.  The batch holds 8 bytes a shot, one run per
    phase, and the uniforms are drawn ``_CHUNK_SHOTS`` at a time.
    """
    shots = _Shots(rho, schedule, eta)
    xs = np.empty(schedule.total)
    for _ in shots.chunks(0, xs.size, xs):
        pass
    return SampleBatch.from_runs([theta for theta, _ in schedule.phases], shots.ends, xs)


def _sample_peak_bytes(dim: int) -> int:
    """A bound, in Python ints, on sample_quadratures' memory peak for a state of ``dim``
    levels, the shots aside: tracemalloc measures 7 (dim + 1) _GRID_POINTS + 2 dim^2 doubles
    from dim 96 to 1030, 0.76-0.86 of the bound from dim 3 to 1030.  Its peak is in a phase's
    pdf, with the wavefunction table, the complex phased vectors, their conjugates and their
    product on the sampling grid, beside the lossy state; apply_loss's temporaries, five
    dim^2 doubles, are let go before."""
    return 8 * (4 * dim * dim + 8 * (dim + 1) * _GRID_POINTS)


def _shots_peak_bytes(n_phases: int, samples_per_phase: int) -> int:
    """A bound, in Python ints, on what sample_quadratures holds for the shots of a uniform
    schedule beyond _sample_peak_bytes: 8 bytes a shot for the x column, 512 a phase for the
    schedule's tuples and set and the runs (tracemalloc measures at most 290 from 1,000 to
    170,000 phases), and the lookup's temporaries, 64 bytes a shot of one chunk (50 measured)."""
    lookup = 64 * min(samples_per_phase, _CHUNK_SHOTS)
    return 8 * n_phases * samples_per_phase + 512 * n_phases + lookup


def _sidecar_path(path: str) -> str:
    """``samples.csv`` or ``samples.npy`` -> ``samples_meta.json``, beside the data file."""
    return os.path.splitext(path)[0] + "_meta.json"


def save_samples(batch: SampleBatch, path, meta: dict | None = None) -> None:
    """Write samples plus a sidecar JSON: the file's name, the count and ``meta``.

    A ``.npy`` path gets the bytes ``np.save`` gives for the ``(N, 2)``
    float64 table of columns theta and x, which holds every value exactly:
    its header, then rows built from the runs ``_CHUNK_SHOTS`` at a time, so
    no more than one chunk of the table is held.  Any other path gets a CSV
    (header theta,x): each row is ``repr(theta),repr(x)`` with CRLF line
    ends, the bytes ``csv.writer`` gives, in the ranges of _write_csv, whose
    number does not change the bytes.  Each run's theta is formatted once,
    and its x values _CSV_CHUNK_ROWS at a time by _floatrepr.format_rows,
    which finds repr's digits with array arithmetic for 1e-4 <= |x| < 100
    and calls ``repr`` for the values outside that range or not settled
    there (0.6 % of normal draws).
    """
    path = str(path)
    if path.endswith(".npy"):
        rows = np.empty((min(len(batch), _CHUNK_SHOTS), 2))
        with atomic_open(path, binary=True) as fh:
            np.lib.format.write_array_header_1_0(fh, {
                "descr": rows.dtype.str, "fortran_order": False, "shape": (len(batch), 2)})
            for lo in range(0, len(batch), _CHUNK_SHOTS):
                hi = min(lo + _CHUNK_SHOTS, len(batch))
                runs, lengths = _runs_in(batch.run_ends, lo, hi)
                rows[:hi - lo, 0] = np.repeat(batch.run_thetas[runs], lengths)
                rows[:hi - lo, 1] = batch.xs[lo:hi]
                fh.write(rows[:hi - lo])
    else:
        _write_csv(path, len(batch), functools.partial(_write_rows, batch))
    _write_sidecar(path, len(batch), meta)


def _save_shots(shots: _Shots, path: str, meta: dict | None = None) -> None:
    """save_samples of the batch sample_quadratures draws for ``shots``, to a CSV, the same
    bytes, with no batch: each process draws the rows it formats (see _write_draws), so none
    holds more than one chunk of x."""
    _write_csv(path, shots.schedule.total, functools.partial(_write_draws, shots))
    _write_sidecar(path, shots.schedule.total, meta)


def _write_sidecar(path: str, count: int, meta: dict | None) -> None:
    sidecar = {"schema_version": 1, "file": os.path.basename(path), "count": count}
    write_json(_sidecar_path(path), {**sidecar, **(meta or {})})


def _log_rows(path: str, action: str, rows: int, workers: int) -> None:
    # `import kerrsim` alone does not load logging; the CLI has it loaded already
    import logging

    logging.getLogger("kerrsim").info(
        "%s: %d rows %s, %d worker%s", os.path.basename(path), rows, action, workers,
        "s" if workers > 1 else "",
    )


def _write_rows(batch: SampleBatch, lo: int, hi: int, fh) -> None:
    """Write rows ``lo``..``hi`` of the CSV body to the binary file ``fh``.

    Each phase run's ``repr(theta) + ","`` is formatted once and put in front
    of every x of the run that falls in the rows, _CSV_CHUNK_ROWS rows at a
    time by format_rows.
    """
    # imported only where a CSV is written: compiled on `import kerrsim`, it raised that
    # import's peak RSS by 0.27 MB
    from ._floatrepr import format_rows

    runs, lengths = _runs_in(batch.run_ends, lo, hi)
    start = lo
    for theta, length in zip(batch.run_thetas[runs].tolist(), lengths.tolist()):
        stop = start + length
        prefix = (repr(theta) + ",").encode()
        for first in range(start, stop, _CSV_CHUNK_ROWS):
            fh.write(format_rows(prefix, batch.xs[first:min(first + _CSV_CHUNK_ROWS, stop)]))
        start = stop


def _write_draws(shots: _Shots, lo: int, hi: int, fh) -> None:
    """Draw rows ``lo``..``hi`` of ``shots`` a chunk at a time, and write each chunk's rows."""
    for theta, x in shots.chunks(lo, hi):
        _write_rows(SampleBatch.from_runs([theta], [x.size], x), 0, x.size, fh)


def _write_csv(path: str, rows: int, write_range) -> None:
    """Write the sample CSV of ``rows`` rows, whose rows ``lo``..``hi`` ``write_range(lo, hi,
    fh)`` writes, in contiguous ranges, one a part of run_parts per usable CPU but at most one
    per _CHUNK_SHOTS rows.  Each range but the first is written to its own temporary file
    beside ``path``; this process writes the header and the first range, then appends those.
    """
    workers = _worker_count(rows // _CHUNK_SHOTS)
    bounds = [rows * i // workers for i in range(workers + 1)]
    parts = [f"{path}.{os.urandom(6).hex()}.tmp" for _ in range(workers - 1)]

    def write_part(part: str, lo: int, hi: int) -> None:
        with open(part, "xb") as out:
            write_range(lo, hi, out)

    try:
        with atomic_open(path, binary=True) as fh:
            fh.write(b"theta,x\r\n")
            values(run_parts([functools.partial(write_range, bounds[0], bounds[1], fh),
                              *(functools.partial(write_part, part, lo, hi)
                                for part, lo, hi in zip(parts, bounds[1:], bounds[2:]))]))
            fh.flush()
            for part in parts:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh)
                os.remove(part)
    finally:
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)
        # format_rows's table of digits, let go so that a process that goes on to
        # reconstruct does not hold it at its peak
        from ._floatrepr import digit_words

        digit_words.cache_clear()
    _log_rows(path, "written", rows, workers)


def load_samples(path) -> tuple[SampleBatch, dict]:
    """Read a sample file written by save_samples, and the fields of its sidecar.

    A ``.npy`` file must hold an ``(N, 2)`` float64 array in native byte
    order, as save_samples writes it; it is read ``_CHUNK_SHOTS`` rows at a
    time, and the batch takes its phase runs from column 0 and its x from
    column 1.  Any other file is a CSV, parsed by
    NumPy's C reader, which rounds each decimal exactly as ``float()`` does, in
    the ranges of _parse_csv, whose number does not change the result; a
    piece of rows of one phase, as the sampler writes, has its x column
    parsed alone and its theta parsed once (see _parse_piece).  Each range
    returns its x values in pieces, and its phase runs counted from its first
    row; this process joins the pieces into one x column, 8 bytes a row, and
    the runs where a run spans two.  Either way
    a reloaded batch is bit-identical to the saved one.  A file that cannot be
    parsed raises ValueError, and so does one that holds a NaN or infinite
    theta or x; each error names the first bad row as its 1-based data row,
    header excluded, and the sampler writes none.  The fields are {} when no
    sidecar describes the file (there is none, it names another file, or its
    count is not the number of rows read); a sidecar that is not a JSON object,
    or whose ``eta`` is not a number in (0, 1], raises ValueError naming it.
    """
    sinks, fields = _read(str(path), _Gather)
    xs = np.concatenate([np.empty(0), *(x for s in sinks for x in s.pieces)])
    # a run that crosses a piece or range edge comes back in pieces: the runs of the
    # pieces' thetas join them, and each joined run ends where its last piece does
    run_thetas, last = _runs(np.concatenate([np.empty(0), *(t for s in sinks for t in s.thetas)]))
    run_ends = np.concatenate([np.empty(0, np.intp), *(s.start + e for s in sinks for e in s.ends)])
    return SampleBatch.from_runs(run_thetas, run_ends[last - 1], xs), fields


class _Rows:
    """A sink for the rows of a sample file, given an ``(n, 2)`` array of theta and x at a
    time by ``take``.

    It counts the rows it takes and notes the first that holds a NaN or an
    infinity, both from its own first row; ``start``, the rows of the file
    before that one, is set by the reader once every range is parsed.  A
    subclass keeps what it needs of the rows in ``_take``, and may set ``full``
    to be given no more there: ``take`` still counts the rows and notes a
    non-finite one.
    """

    full = False
    start = 0

    def __init__(self):
        self.rows, self.first_bad = 0, None

    def take(self, table: np.ndarray) -> None:
        if self.first_bad is None and not np.isfinite(table).all():
            self.first_bad = self.rows + int(np.argmin(np.isfinite(table).all(axis=1)))
        if not self.full:
            self._take(table)
        self.rows += len(table)

    def _take(self, table: np.ndarray) -> None:
        raise NotImplementedError


class _Gather(_Rows):
    """Keeps the rows: the x values in ``pieces``, and each piece's phase runs, their ends
    counted from the sink's first row."""

    def __init__(self):
        super().__init__()
        self.pieces, self.thetas, self.ends = [], [], []

    def _take(self, table: np.ndarray) -> None:
        self.pieces.append(table[:, 1].copy())
        run_thetas, run_ends = _runs(table[:, 0])
        self.thetas.append(run_thetas)
        self.ends.append(run_ends + self.rows)


def _read(path: str, new_sink) -> tuple[list, dict]:
    """The rows of the sample file at ``path``, given to sinks, and its sidecar's fields.

    ``new_sink()`` gives a _Rows for each range of the file.  A ``.npy`` file
    is one range, read ``_CHUNK_SHOTS`` rows at a time until its sink is full;
    a CSV is parsed to its end as _parse_csv says.  Returns the sinks in row
    order, each with its ``start``.  A file that cannot be parsed raises
    ValueError, and then so does one with a NaN or infinite theta or x among
    the rows read, naming its first such row.
    """
    parsed = _read_npy(path, new_sink()) if path.endswith(".npy") else _parse_csv(path, new_sink)
    bad = [sink.start + sink.first_bad for sink in parsed if sink.first_bad is not None]
    if bad:
        raise ValueError(f"non-finite theta or x in data row {bad[0] + 1}")
    return parsed, _sidecar_for(path, sum(sink.rows for sink in parsed))


def _read_npy(path: str, sink: _Rows) -> list:
    """An ``(N, 2)`` native-order float64 .npy array's rows, given to ``sink`` _CHUNK_SHOTS at
    a time until it is full."""
    fmt = np.lib.format
    with open(path, "rb") as fh:
        # the .npy header alone: np.load would also open a zip archive or a pickle
        version = fmt.read_magic(fh)
        read_header = {(1, 0): fmt.read_array_header_1_0,
                       (2, 0): fmt.read_array_header_2_0}.get(version)
        if read_header is None:
            raise ValueError(f"unsupported .npy format version {version}")
        shape, fortran_order, dtype = read_header(fh)
        if dtype != np.float64 or len(shape) != 2 or shape[1] != 2:
            native = np.dtype(np.float64).str
            raise ValueError(f"expected an (N, 2) float64 array in native byte order "
                             f"({native!r}), got {dtype.str!r} of shape {shape}")
        rows = shape[0]
        body = fh.tell()

        def values(offset: int, count: int) -> np.ndarray:
            fh.seek(body + 8 * offset)
            data = fh.read(8 * count)
            if len(data) < 8 * count:
                raise ValueError(f"the file ends before the {rows} rows its header gives")
            return np.frombuffer(data, np.float64)

        for lo in range(0, rows, _CHUNK_SHOTS):
            if sink.full:
                break
            count = min(_CHUNK_SHOTS, rows - lo)
            if fortran_order:  # every theta, then every x
                sink.take(np.column_stack((values(lo, count), values(rows + lo, count))))
            else:
                sink.take(values(2 * lo, 2 * count).reshape(count, 2))
    return [sink]


def _loadtxt(fh, usecols: tuple[int, ...] = (0, 1)) -> np.ndarray:
    """The columns ``usecols`` of the CSV rows left in the text stream ``fh``, as an
    (N, len(usecols)) array."""
    with warnings.catch_warnings():
        # a header-only file is an empty batch; the caller decides what that means
        warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
        return np.loadtxt(fh, delimiter=",", usecols=usecols, ndmin=2)


def _parse_csv(path: str, new_sink) -> list:
    """A CSV's rows given to sinks, one from ``new_sink()`` for each range of _csv_ranges,
    and the sinks in row order.

    Each range is a part of run_parts, parsed into its own sink, which counts
    its rows from 0.  This process then numbers them: a sink's ``start`` is
    the rows of the ranges before it, and the first range that failed has
    the data row its error names moved on by as many, and raises it.  Every
    range is parsed to its end, a full sink's too, so at any worker count a
    row that cannot be parsed is raised first, then a non-finite row (_read),
    then too many phases (the caller's check of the full sinks).  No range is
    parsed twice.
    """
    with open(path, newline="") as fh:
        line = fh.readline()
        encoding = fh.encoding
    header = next(csv.reader([line]), [])
    if header[:2] != ["theta", "x"]:
        raise ValueError(f"unexpected sample CSV header: {header}")
    offsets = _csv_ranges(path, len(line.encode(encoding)))
    outcomes = run_parts([functools.partial(_parse_range, path, lo, hi, encoding, new_sink())
                          for lo, hi in zip(offsets, offsets[1:])])
    parsed, rows = [], 0
    for outcome in outcomes:
        if isinstance(outcome, ValueError):
            raise ValueError(_data_row(str(outcome), "data row", rows)) from outcome
        if isinstance(outcome, BaseException):
            raise outcome
        outcome.start, rows = rows, rows + outcome.rows
        parsed.append(outcome)
    _log_rows(path, "read", rows, len(outcomes))
    return parsed


def _csv_ranges(path: str, start: int) -> list[int]:
    """The byte offsets of the ranges that the CSV body from byte ``start`` on is parsed in,
    and its end.

    There is a range per process that _worker_count gives for one per
    32 * _CHUNK_SHOTS bytes of the body (a sampler row averages 38 bytes), and
    range i begins at the line after byte i / workers of the body; no more of
    the file is read than the line that holds that byte.
    """
    with open(path, "rb") as raw:
        end = os.fstat(raw.fileno()).st_size
        workers = _worker_count((end - start) // (32 * _CHUNK_SHOTS))
        offsets = [start]
        for i in range(1, workers):
            raw.seek(start + (end - start) * i // workers)
            raw.readline()
            offsets.append(raw.tell())
    return offsets + [end]


def _parse_range(path: str, lo: int, hi: int, encoding: str, sink: _Rows) -> _Rows:
    """Parse bytes ``lo``..``hi`` of the CSV, whole lines, in newline-aligned pieces of at
    most _CSV_SLICE_BYTES, give each piece's rows to ``sink`` as it is parsed, and return the
    sink; a full sink is given the rest too (see _Rows.take), so that every row is parsed.

    A row that cannot be parsed raises np.loadtxt's ValueError, which names
    the row by its 1-based data row counted from the range's first.
    """
    carry = b""
    with open(path, "rb") as raw:
        raw.seek(lo)
        pos = lo
        while pos < hi:
            block = raw.read(min(_CSV_SLICE_BYTES, hi - pos))
            if not block:
                raise ValueError(f"{path} shrank while it was read")
            pos += len(block)
            text = carry + block
            cut = len(text) if pos == hi else text.rfind(b"\n") + 1
            if cut:
                sink.take(_parse_piece(text[:cut].decode(encoding), sink.rows))
            carry = text[cut:]
    return sink


def _parse_piece(text: str, before: int) -> np.ndarray:
    """The rows of ``text``, whole lines of a range of the CSV after ``before`` of its data
    rows, as an (n, 2) array; a row that cannot be parsed raises np.loadtxt's ValueError, with
    the row named as the range's 1-based data row, which _parse_csv renumbers in the file.

    A piece of one phase, every line of which begins with ``repr(t) + ","``
    for the t its first field holds, has its x column parsed alone, and t
    fills its theta column: np.loadtxt reads repr(t) as t.  Any other piece,
    or one whose x column fails to parse or gives a row count other than its
    line count, is parsed on both columns, so that its values and its errors
    are those of the two-column parse.
    """
    table = _one_phase(text)
    if table is not None:
        return table
    try:
        return _loadtxt(io.StringIO(text))
    except ValueError:
        pass
    try:  # np.loadtxt refuses a lone CR, which a text file reads as a line end
        return _loadtxt(io.StringIO(text, newline=None))
    except ValueError as exc:
        message = str(exc)
        # np.loadtxt counts rows from 0 where a value is not a number, from 1 where one is missing
        shift = before + message.startswith("could not convert")
        raise ValueError(_data_row(message, "row", shift)) from exc


def _data_row(message: str, named: str, shift: int) -> str:
    """``message`` with its first "at <named> N" given as "at data row <N + shift>"."""
    return re.sub(rf"\bat {named} (\d+)", lambda m: f"at data row {int(m[1]) + shift}", message,
                  count=1)


def _one_phase(text: str) -> np.ndarray | None:
    """_parse_piece's table of ``text`` if every line begins with ``repr(t) + ","`` for the t
    of its first field and the x column alone parses to a row a line; else None."""
    first = text[:text.find(",") + 1]  # the first field and its comma; "" without a comma
    try:
        theta = float(first[:-1])
    except ValueError:
        return None
    prefix = repr(theta) + ","
    lines = text.count("\n") + (not text.endswith("\n"))
    if not text.startswith(prefix) or text.count("\n" + prefix) != lines - 1:
        return None
    try:
        xs = _loadtxt(io.StringIO(text), usecols=(1,))
    except ValueError:
        return None
    if len(xs) != lines:
        return None
    table = np.empty((lines, 2))
    table[:, 0] = theta
    table[:, 1:] = xs
    return table


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
