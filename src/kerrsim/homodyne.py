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

Sample files are ``.npy`` or CSV.  A CSV is formatted and parsed in
contiguous row ranges, the first in the calling process and the others in
forked children, one per usable CPU, and none while another thread runs; the
bytes and values are those of one process.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import shutil
import threading
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
_GRID_POINTS = int(round(2.0 * GRID_HALFWIDTH / GRID_STEP)) + 1
_CSV_CHUNK_ROWS = 4096
# bytes per read of the CSV body, which bounds the reader's text buffers
_CSV_SLICE_BYTES = 2**20
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
    and grid[j] when u is on the knot.
    """
    levels = np.arange(_GUIDE_SIZE + 1) / _GUIDE_SIZE
    guide = np.searchsorted(cdf, levels, side="right") - 1
    wide_bucket = np.diff(guide) > 1
    # like np.interp, warn of nothing: a flat stretch has an infinite slope, which no u uses
    with np.errstate(all="ignore"):
        slope = np.diff(grid) / np.diff(cdf)
        for lo in range(0, u.size, _CHUNK_SHOTS):
            v = u[lo:lo + _CHUNK_SHOTS]
            bucket = (v * _GUIDE_SIZE).astype(np.intp)
            j = _last_knot_at_or_below(cdf, v, guide[bucket])
            wide = np.flatnonzero(wide_bucket[bucket])
            if wide.size:
                j[wide] = np.searchsorted(cdf, v[wide], side="right") - 1
            at, base = cdf[j], grid[j]
            x = out[lo:lo + _CHUNK_SHOTS]
            np.subtract(v, at, out=x)
            x *= slope[j]
            x += base
            np.copyto(x, base, where=v == at)


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
    tabulated CDF bit for bit.
    """
    lossy = apply_loss(rho, LossChannel(eta))
    _check_hermitian(lossy)
    grid = np.linspace(-GRID_HALFWIDTH, GRID_HALFWIDTH, _GRID_POINTS)
    psi = wavefunction_table(lossy.dim, grid)
    thetas = np.empty(schedule.total)
    xs = np.empty(schedule.total)
    start = 0
    for index, (theta, count) in enumerate(schedule.phases):
        cdf = _tabulated_cdf(lossy, _pdf(lossy, theta, psi), grid)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=schedule.seed, spawn_key=(index,)))
        )
        stop = start + count
        _inverse_cdf(rng.random(count), cdf, grid, xs[start:stop])
        thetas[start:stop] = theta
        start = stop
    return SampleBatch(thetas, xs)


def _sample_peak_bytes(dim: int) -> int:
    """A bound, in Python ints, on sample_quadratures' memory peak for a state of ``dim``
    levels, the shots aside (tracemalloc measures 6.0 dim^3 doubles at dim 200): apply_loss's
    Kraus stack and its complex einsum operands 7 dim^3, the state's copies, and the
    wavefunction tables on the sampling grid."""
    return 8 * (7 * dim**3 + 4 * dim * dim + 8 * (dim + 1) * _GRID_POINTS)


def _sidecar_path(path: str) -> str:
    """``samples.csv`` or ``samples.npy`` -> ``samples_meta.json``, beside the data file."""
    return os.path.splitext(path)[0] + "_meta.json"


def save_samples(batch: SampleBatch, path, meta: dict | None = None) -> None:
    """Write samples plus a sidecar JSON: the file's name, the count and ``meta``.

    A ``.npy`` path gets an ``(N, 2)`` float64 array with columns theta and
    x, which holds every value exactly.  Any other path gets a CSV (header
    theta,x): each row is ``repr(theta),repr(x)`` with CRLF line ends, the
    bytes ``csv.writer`` gives.  The CSV rows are formatted in contiguous
    ranges by up to one process per usable CPU (at most one per
    ``_CHUNK_SHOTS`` rows); the bytes do not depend on how many, and there is
    no setting.
    """
    path = str(path)
    if path.endswith(".npy"):
        with atomic_open(path, binary=True) as fh:
            np.save(fh, np.column_stack((batch.thetas, batch.xs)), allow_pickle=False)
    else:
        _write_csv(batch, path)
    sidecar = {"schema_version": 1, "file": os.path.basename(path), "count": len(batch)}
    write_json(_sidecar_path(path), {**sidecar, **(meta or {})})


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork, or should not: while another
    thread runs, a forked child may inherit a lock that thread holds, and deadlock on it."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _worker_count(rows: int) -> int:
    """Processes that share ``rows`` CSV rows: one per usable CPU, at most one per _CHUNK_SHOTS rows."""
    return max(1, min(_usable_cpus(), rows // _CHUNK_SHOTS))


def _child(part) -> None:
    """Run ``part`` in a forked child and end it: status 0, the errno of an OSError, else 255."""
    status = 255
    try:
        part()
        status = 0
    except OSError as exc:
        if exc.errno in range(1, 255):
            status = exc.errno
    finally:
        os._exit(status)


def _run_parts(parts: list) -> None:
    """Call ``parts[0]`` here while each later part runs in a forked child.

    Every child is reaped before this returns or raises; if this process is
    unwinding, its children are killed first.  A child that failed raises
    here: OSError with the child's errno, or ChildProcessError.
    """
    pids = []
    try:
        for part in parts[1:]:
            pid = os.fork()
            if pid == 0:
                _child(part)
            pids.append(pid)
        parts[0]()
    except BaseException:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for code in codes:
        if 0 < code < 255:
            raise OSError(code, os.strerror(code))
        if code:
            how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
            raise ChildProcessError(f"a CSV worker process failed ({how})")


def _log_rows(path: str, action: str, rows: int, workers: int) -> None:
    # `import kerrsim` alone does not load logging; the CLI has it loaded already
    import logging

    logging.getLogger("kerrsim").info(
        "%s: %d rows %s, %d worker%s", os.path.basename(path), rows, action, workers,
        "s" if workers > 1 else "",
    )


def _write_rows(batch: SampleBatch, lo: int, hi: int, fh) -> None:
    """Write rows ``lo``..``hi`` of the CSV body.

    The sampler writes each phase as one run of rows, so a run's
    ``repr(theta) + ","`` is formatted once and joined in front of every x of
    the run.
    """
    bits = batch.thetas[lo:hi].view(np.int64)
    # runs split on the bit pattern, not on !=, so 0.0 and -0.0 keep their own repr
    heads = (np.flatnonzero(bits[1:] != bits[:-1]) + lo + 1).tolist()
    edges = [lo, *heads, hi] if hi > lo else []
    for start, stop in zip(edges, edges[1:]):
        prefix = repr(float(batch.thetas[start])) + ","
        sep = "\r\n" + prefix
        # bounded chunks keep the formatted text small next to the batch itself
        for first in range(start, stop, _CSV_CHUNK_ROWS):
            xs = batch.xs[first:min(first + _CSV_CHUNK_ROWS, stop)].tolist()
            fh.write(prefix + sep.join(map(repr, xs)) + "\r\n")


def _write_csv(batch: SampleBatch, path: str) -> None:
    """Write the sample CSV; rows after the first range are formatted by forked children.

    Each child writes its range to its own temporary file beside ``path``;
    this process writes the header and the first range, then appends the
    parts in order.
    """
    rows = len(batch)
    workers = _worker_count(rows)
    bounds = [rows * i // workers for i in range(workers + 1)]
    parts = [f"{path}.{os.urandom(6).hex()}.tmp" for _ in range(workers - 1)]

    def write_part(part: str, lo: int, hi: int) -> None:
        with open(part, "x", newline="") as out:
            _write_rows(batch, lo, hi, out)

    try:
        with atomic_open(path, newline="") as fh:
            def write_first() -> None:
                fh.write("theta,x\r\n")
                _write_rows(batch, 0, bounds[1], fh)

            _run_parts([write_first, *(functools.partial(write_part, part, lo, hi)
                                       for part, lo, hi in zip(parts, bounds[1:], bounds[2:]))])
            fh.flush()
            for part in parts:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
                os.remove(part)
    finally:
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)
    _log_rows(path, "written", rows, workers)


def load_samples(path) -> tuple[SampleBatch, dict]:
    """Read a sample file written by save_samples, and the fields of its sidecar.

    A ``.npy`` file must hold an ``(N, 2)`` float64 array.  Any other file is
    a CSV, parsed by NumPy's C reader, which rounds each decimal exactly as
    ``float()`` does; its rows are parsed in contiguous ranges by up to one
    process per usable CPU (at most one per ``_CHUNK_SHOTS`` rows), with the
    same result however many, and there is no setting.  Either way a reloaded
    batch is bit-identical to the saved one.  A file that cannot be parsed,
    or that holds a NaN or infinite theta or x, raises ValueError; the
    sampler writes none.  The fields are {} when no sidecar describes the
    file (there is none, it names another file, or its count is not the
    number of rows read); a sidecar that is not a JSON object, or whose
    ``eta`` is not a number in (0, 1], raises ValueError naming it.
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


def _loadtxt(fh) -> np.ndarray:
    """The CSV rows left in the text stream ``fh`` as an (N, 2) array."""
    with warnings.catch_warnings():
        # a header-only file is an empty batch; the caller decides what that means
        warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
        return np.loadtxt(fh, delimiter=",", usecols=(0, 1), ndmin=2)


def _read_csv(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        line = fh.readline()
        header = next(csv.reader([line]), [])
        if header[:2] != ["theta", "x"]:
            raise ValueError(f"unexpected sample CSV header: {header}")
        parsed = None
        if line.endswith("\n"):  # else the header ends in a lone CR or ends the file
            parsed = _parse_in_parts(path, len(line.encode(fh.encoding)), fh.encoding)
        # one np.loadtxt over the whole body, which also gives a bad row's error
        body, workers = parsed or (_loadtxt(fh), 1)
    _log_rows(path, "read", len(body), workers)
    return body


def _parse_in_parts(path: str, start: int, encoding: str) -> tuple[np.ndarray, int] | None:
    """The CSV body from byte ``start`` on, parsed in contiguous ranges, and the number of ranges.

    This process parses the first range while forked children parse the
    others into one shared array.  None when one process should parse the
    body, or when any range failed: the caller then parses it whole.
    """
    with open(path, "rb") as raw:
        raw.seek(start)
        # lines ending before each _CSV_SLICE_BYTES slice of the body, and a last line without a line end
        before, last = [0], b"\n"
        for block in iter(functools.partial(raw.read, _CSV_SLICE_BYTES), b""):
            before.append(before[-1] + np.count_nonzero(np.frombuffer(block, np.uint8) == 10))
            last = block
        end = raw.tell()
        lines = before[-1] + (not last.endswith(b"\n"))
        workers = _worker_count(lines)
        if workers == 1:
            return None
        # range i begins after the line that holds the first byte of slice ``edge``;
        # first_line[i] is its first line, and its first row in the result
        offsets, first_line = [start], [0]
        for i in range(1, workers):
            edge = (len(before) - 1) * i // workers
            raw.seek(start + edge * _CSV_SLICE_BYTES)
            rest = raw.readline()
            offsets.append(raw.tell())
            first_line.append(before[edge] + 1 if rest.endswith(b"\n") else lines)
    offsets.append(end)
    first_line.append(lines)

    import mmap

    # the result, written by the children in place
    body = np.frombuffer(mmap.mmap(-1, 16 * lines), np.float64).reshape(lines, 2)
    parts = [
        functools.partial(_parse_range, path, offsets[i], offsets[i + 1], encoding,
                          body[first_line[i]:first_line[i + 1]])
        for i in range(workers)
    ]
    try:
        _run_parts(parts)
    except (OSError, ValueError):
        return None
    return body, workers


def _parse_range(path: str, lo: int, hi: int, encoding: str, out: np.ndarray) -> None:
    """Parse bytes ``lo``..``hi`` of the CSV into ``out``, a row per line, in newline-aligned slices.

    A blank or comment line leaves a row of ``out`` unparsed: ValueError, as
    for a bad row, so the file is parsed whole instead.
    """
    rows = 0
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
                parsed = _loadtxt(io.StringIO(text[:cut].decode(encoding)))
                # more rows than the range's lines raise ValueError here, as in any bad file
                out[rows:rows + len(parsed)] = parsed
                rows += len(parsed)
            carry = text[cut:]
    if rows != len(out):
        raise ValueError(f"{rows} rows parsed from {len(out)} lines")


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
