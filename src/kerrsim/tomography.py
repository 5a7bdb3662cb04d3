"""Maximum-likelihood reconstruction from binned quadrature data.

The estimator maximizes the binned log-likelihood L = sum_j f_j log Tr[rho E_j]
over density matrices by accelerated projected gradient with restart (Shang,
Zhang & Ng, PRA 95, 062336, 2017) on f(rho) = -L(rho)/N, whose gradient is
-R(rho) with

    R(rho) = (1/N) sum_j f_j E_j / Tr[rho E_j].

Each step moves from a momentum point along R, projects onto density
matrices (an eigendecomposition with the eigenvalues projected onto the
simplex) and backtracks the step size on the quadratic upper bound.  An
iterate that would lower L restarts the momentum instead (or, from the last
iterate, ends the run as stalled), so the accepted likelihoods are monotone.
The iteration stops on the certified gap N (lambda_max(R(rho)) - 1) >=
L* - L(rho) (Glancy, Knill & Girard, NJP 14, 095017, 2012) once it is at
most ``TOL.ml_gap_nats``.  POVM elements are bin-integrated quadrature
projectors pushed through the adjoint loss channel, so the reconstruction
compensates detector efficiency and estimates the pre-detector state.

Samples are binned a ``SampleBatch`` piece at a time, by one count of its
runs and x values: ``bin_samples`` takes a batch's ``pieces``, and
``_Histogram``, the sink a sample file's reader gives each parsed piece,
bins the file as it is read.

The likelihood works in Hermitian coordinates: a Hermitian rho is the d^2
reals x(rho) = [rho_ii, Re rho_ij, Im rho_ij] (i < j), and the occupied POVM
elements are the rows [E_ii, 2 Re E_ij, 2 Im E_ij] of one real (J, d^2)
design matrix A, built once per reconstruction by gathering those real
coordinates from the POVM's float64 view, with no complex copy of the
elements (see _design_matrix).  Then the Born
probabilities are A x(rho), and sum_j w_j E_j is the Hermitian matrix whose
coordinates are w A with the off-diagonal entries halved.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .artifacts import atomic_open
from .channels import _loss_map, loss_adjoint_on_operator  # noqa: F401  (perfbench wraps it)
from .errors import NumericalError, _show
from .fock import DensityMatrix
from .homodyne import SampleBatch, _last_knot_at_or_below, _Rows, wavefunction_table
from .tolerances import TOL

__all__ = [
    "TomographyConfig",
    "BinnedData",
    "ReconstructionDiagnostics",
    "bin_samples",
    "build_povm",
    "completeness_residual",
    "loglikelihood",
    "reconstruct",
    "save_density_matrix",
    "load_density_matrix",
    "matrix_to_json_dict",
]

_PROB_FLOOR = 1e-300
_MIN_STEP = 1e-12  # below this the backtracking gives up on a gradient step


@dataclass(frozen=True)
class TomographyConfig:
    dim: int = 8
    eta: float = 0.66
    bin_width: float = 0.05
    x_max: float = 6.0
    max_iterations: int = 2000

    def __post_init__(self):
        if self.dim < 3:
            raise ValueError(f"dim must be >= 3, got {_show(self.dim)}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {self.bin_width:g}")
        if self.x_max <= 0:
            raise ValueError(f"x_max must be positive, got {self.x_max:g}")
        if self.max_iterations <= 0:
            raise ValueError(f"max_iterations must be positive, got {_show(self.max_iterations)}")
        if not math.isfinite(2.0 * self.x_max / self.bin_width):
            raise ValueError(
                f"bin_width {self.bin_width:g} and x_max {self.x_max:g} give no finite bin count"
            )
        if self.n_bins < 1:
            raise ValueError(
                f"bin_width {self.bin_width:g} leaves no bin on [-{self.x_max:g}, {self.x_max:g}]"
            )

    @property
    def n_bins(self) -> int:
        return int(round(2.0 * self.x_max / self.bin_width))

    def bin_edges(self) -> np.ndarray:
        return np.linspace(-self.x_max, self.x_max, self.n_bins + 1)

    def bin_centers(self) -> np.ndarray:
        edges = self.bin_edges()
        return 0.5 * (edges[:-1] + edges[1:])


@dataclass(frozen=True)
class BinnedData:
    """Histogram counts per (phase, x bin); bins are half-open [lo, hi).

    Counts are stored as floats so that exact Born frequencies can stand in
    for data in fixed-point checks; histogram counts are integers.
    """

    thetas: np.ndarray            # (n_phases,)
    counts: np.ndarray            # (n_phases, n_bins) nonnegative
    out_of_range: int = 0

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.float64)
        if counts.ndim != 2 or counts.shape[0] != thetas.size:
            raise ValueError("counts must have shape (n_phases, n_bins)")
        if np.any(counts < 0) or not np.all(np.isfinite(counts)):
            raise ValueError("counts must be nonnegative and finite")
        for name, arr in (("thetas", thetas), ("counts", counts)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def total(self) -> float:
        return float(self.counts.sum())


def _lower_bin(x: np.ndarray, config: TomographyConfig) -> np.ndarray:
    """The last bin edge <= each x, or the edge before it, in [-1, n_bins - 1].

    The guess (x + x_max) / width sits half a bin below the exact position.
    bin_edges() steps by the same rounded width, so the guess errs by about
    n_bins * 2**-50 bins, far below half a bin for any grid that fits in
    memory; and it is monotone in x.  A NaN gets n_bins - 1.
    """
    n_bins = config.n_bins
    with np.errstate(over="ignore"):  # a huge x overflows to inf, which the clip takes
        guess = (x + config.x_max) / (2.0 * config.x_max / n_bins) - 0.5
    np.floor(guess, out=guess)
    np.fmin(guess, n_bins - 1, out=guess)  # fmin, not minimum: NaN becomes n_bins - 1
    np.fmax(guess, -1, out=guess)
    return guess.astype(np.intp)


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values), bit for bit, for a 1-d float array.

    The same sort, then one comparison of neighbours: of equal values (-0.0
    and 0.0) the first in sorted order stays, and the NaNs, sorted last, merge
    into their first.  np.unique would import numpy.ma on its first call in a
    process, which costs more than the binning it serves.
    """
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    keep[1:] &= ~np.isnan(values[:-1])  # a value after a NaN is a NaN too
    return values[keep]


def bin_samples(samples: SampleBatch, config: TomographyConfig) -> BinnedData:
    """Histogram a sample batch on the config grid.

    A value exactly on an interior bin edge lands in the upper bin; values
    outside [-x_max, x_max) are dropped from the histogram but counted in
    ``out_of_range``.  The phases are the distinct values of the batch's
    run thetas, sorted; the shots are counted a bounded piece at a time
    (``SampleBatch.pieces``), with no theta per shot.
    """
    if len(samples) == 0:
        raise ValueError("empty sample batch")
    thetas = _sorted_distinct(samples.run_thetas)
    slots = np.zeros((thetas.size, config.n_bins + 2), dtype=np.intp)
    for piece in samples.pieces(0, len(samples)):
        _count(slots, thetas, piece, config)
    return _binned(thetas, slots)


def _count(slots: np.ndarray, thetas: np.ndarray, piece: SampleBatch,
           config: TomographyConfig) -> None:
    """Add the shots of ``piece`` to ``slots``, whose row i counts phase ``thetas[i]``, which
    holds each of the piece's run thetas.

    Each phase owns n_bins + 2 slots: slot 0 below -x_max, slots 1..n_bins the
    bins and slot n_bins + 1 at or above x_max (or NaN), as np.digitize numbers
    them.  A shot's slot is its run's first bin slot plus the last edge <= x:
    one guess from (x + x_max) / width and one comparison with the exact edge
    above it give that edge without a search.
    """
    run_bin1 = np.searchsorted(thetas, piece.run_thetas) * (config.n_bins + 2) + 1
    slot = np.repeat(run_bin1, np.diff(piece.run_ends, prepend=0))
    slot += _last_knot_at_or_below(config.bin_edges(), piece.xs, _lower_bin(piece.xs, config))
    slots += np.bincount(slot, minlength=slots.size).reshape(slots.shape)


def _binned(thetas: np.ndarray, slots: np.ndarray) -> BinnedData:
    """The BinnedData of the slot counts ``slots`` of the phases ``thetas`` (see _count)."""
    out_of_range = int(slots[:, 0].sum() + slots[:, -1].sum())
    return BinnedData(thetas, slots[:, 1:-1].astype(np.float64), out_of_range)


class _Histogram(_Rows):
    """A sink for a sample file's rows (see homodyne._Rows) that bins each piece as it takes
    it, as bin_samples bins a batch: ``slots`` holds a row of slot counts for each of the
    sorted distinct ``thetas`` it has taken.

    Past ``max_phases`` distinct thetas it is full, and keeps their thetas
    but neither grows nor adds to its counts.
    """

    def __init__(self, config: TomographyConfig, max_phases: int):
        super().__init__()
        self.config, self.max_phases = config, max_phases
        self.thetas = np.empty(0)
        self.slots = np.zeros((0, config.n_bins + 2), dtype=np.intp)

    def _take(self, piece: SampleBatch) -> None:
        thetas = _sorted_distinct(np.concatenate((self.thetas, piece.run_thetas)))
        if thetas.size > self.max_phases:
            self.thetas, self.full = thetas, True
            return
        if thetas.size > self.thetas.size:
            slots = np.zeros((thetas.size, self.slots.shape[1]), dtype=np.intp)
            slots[np.searchsorted(thetas, self.thetas)] = self.slots
            self.thetas, self.slots = thetas, slots
        _count(self.slots, thetas, piece, self.config)


def _merged(histograms: list[_Histogram], thetas: np.ndarray) -> BinnedData:
    """The BinnedData of the ranges' histograms, added up exactly by theta on ``thetas``,
    the sorted distinct thetas of them all."""
    slots = np.zeros((thetas.size, histograms[0].slots.shape[1]), dtype=np.intp)
    for histogram in histograms:
        slots[np.searchsorted(thetas, histogram.thetas)] += histogram.slots
    return _binned(thetas, slots)


# np.polynomial.legendre.leggauss(5), written out: importing numpy.polynomial to compute them
# held 0.75 MB more RSS in every process that imports kerrsim
_GL_NODES = np.array([-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831,
                      0.906179845938664])
_GL_WEIGHTS = np.array([0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                        0.4786286704993663, 0.23692688505618928])
_MAX_PANEL_WIDTH = 0.1  # subdivide wide bins so the quadrature stays accurate


def _nodes(config: TomographyConfig) -> tuple[np.ndarray, np.ndarray]:
    """psi_m at each bin's Gauss-Legendre nodes at theta = 0, shape (dim, n_bins, k), and
    the weights w, shape (k,): bin b integrates |x><x| dx to sum_k w_k psi_bk psi_bk^T."""
    # the width of the grid's bins; bin_width is rounded to it so n_bins tile +-x_max
    width = 2.0 * config.x_max / config.n_bins
    panels = max(1, int(math.ceil(width / _MAX_PANEL_WIDTH)))
    half = 0.5 * width / panels
    offsets = -0.5 * width + (2 * np.arange(panels) + 1) * half
    nodes = (offsets[:, None] + half * _GL_NODES[None, :]).ravel()
    x = (config.bin_centers()[:, None] + nodes[None, :]).ravel()
    psi = wavefunction_table(config.dim, x).reshape(config.dim, config.n_bins, nodes.size)
    return psi, np.tile(_GL_WEIGHTS * half, panels)


def _povm_peak_bytes(config: TomographyConfig, n_phases: int) -> int:
    """Bounds build_povm's tracemalloc peak at ``n_phases`` phases, in Python ints (0.97 of it
    at dim 50 and 80 on 12 phases): the real stack, the complex POVM and phase factors with
    temporaries (n_bins + 2 n_phases (n_bins + 2)) dim^2, above the adjoint loss's 3 n_bins
    dim^2, 4 node tables of n_bins + 20 x_max panels, and 256 KiB of ufunc buffers."""
    d, n = int(config.dim), config.n_bins
    table = d * (n + 20 * int(config.x_max) + 20) * _GL_NODES.size
    return 8 * (n * d * d + 2 * n_phases * (n + 2) * d * d + 4 * table) + 2**18


def completeness_residual(config: TomographyConfig) -> float:
    """||sum_b E_b - I||_2 of the POVM at every phase, from one (dim, dim) operator: the
    adjoint loss is linear, so it maps the bins' projectors summed on the nodes; no
    element's bound is checked, as the residual is the check."""
    psi, w = _nodes(config)
    summed = np.einsum("mbk,nbk,k->mn", psi, psi, w, optimize=["einsum_path", (0, 2), (0, 1)])
    povm_sum = _loss_map(summed, config.eta, adjoint=True)
    return float(np.linalg.norm(povm_sum - np.eye(config.dim), ord=2))


def build_povm(config: TomographyConfig, thetas) -> np.ndarray:
    """Efficiency-compensated POVM, shape (n_phases, n_bins, dim, dim).

    Raises NumericalError first, allocating nothing of the POVM's size, if
    ``completeness_residual`` exceeds the tolerance.  Then the bin-integrated
    quadrature projectors at theta = 0 go through the adjoint loss at config.eta.
    Loss commutes with U = diag(exp(-i n theta)), so the element at theta is U E(0)
    U^dag, E(0)_mn exp(-i (m - n) theta), complete as E(0) is.
    """
    if (residual := completeness_residual(config)) > TOL.completeness:
        raise NumericalError(f"POVM completeness residual {residual:.3e}")
    psi, w = _nodes(config)
    raw = np.einsum("mbk,nbk,k->bmn", psi, psi, w, optimize=["einsum_path", (0, 2), (0, 1)])
    povm0 = _loss_map(raw, config.eta, adjoint=True)
    del raw  # so that the peak below is 3 n_bins dim^2 doubles, not 4
    n = np.arange(config.dim)
    phase = np.exp(-1j * np.multiply.outer(np.asarray(thetas, dtype=np.float64), n[:, None] - n))
    return povm0 * phase[:, None, :, :]


def _design_matrix(data: BinnedData, povm: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Counts of the occupied bins, the real design matrix A of their POVM elements, its index.

    Row j is E_j in Hermitian coordinates, [E_ii, 2 Re E_ij, 2 Im E_ij] for
    i < j, shape (J, dim^2), so that Tr[rho E_j] = (A x(rho))_j for Hermitian
    rho and E_j.  The index, which ``_born`` and ``_weighted_sum`` take with
    A, holds flat indices into a (dim, dim) matrix: the diagonal, then (i, j)
    and (j, i) for i < j.  Raises ValueError unless the POVM has one element
    per (phase, bin) count.

    The POVM's float64 view holds each entry as a (real, imaginary) pair, so
    every column of A is one strided column of that view taken at the
    occupied rows; the columns are written one at a time into A, and the
    off-diagonal ones doubled in place, so that nothing of A's size is
    allocated beside it.  A is Fortran-ordered: A @ x rounds differently on
    a C-ordered copy of A, and the recorded estimates are those of this layout.
    """
    if povm.shape[:2] != data.counts.shape:
        raise ValueError(
            f"POVM of shape {povm.shape} does not match counts of shape {data.counts.shape}"
        )
    counts = data.counts.reshape(-1)
    rows = np.flatnonzero(counts > 0)
    dim = povm.shape[-1]
    i, j = np.triu_indices(dim, 1)
    index = (np.arange(dim) * (dim + 1), i * dim + j, j * dim + i)
    diag, upper, _ = index
    # each element's entries as (real, imaginary) pairs of doubles: a view, not a copy
    parts = np.ascontiguousarray(povm, dtype=np.complex128).reshape(-1, dim * dim).view(np.float64)
    design = np.empty((rows.size, dim * dim), order="F")
    for k, column in enumerate(np.concatenate((2 * diag, 2 * upper, 2 * upper + 1)).tolist()):
        design[:, k] = parts[rows, column]
    design[:, dim:] *= 2.0
    return counts[rows], design, index


def _coordinates(rho: np.ndarray, index: tuple) -> np.ndarray:
    """x(rho) = [rho_ii, Re rho_ij, Im rho_ij] for i < j: the d^2 reals of Hermitian rho."""
    diag, upper, _ = index
    flat = np.asarray(rho, dtype=np.complex128).reshape(-1)
    off = flat[upper]
    return np.concatenate((flat[diag].real, off.real, off.imag))


def _born(design: np.ndarray, rho: np.ndarray, index: tuple) -> np.ndarray:
    """Tr[rho E_j] for every row of ``_design_matrix`` (rho Hermitian)."""
    return design @ _coordinates(rho, index)


def _weighted_sum(weights: np.ndarray, design: np.ndarray, index: tuple) -> np.ndarray:
    """sum_j weights_j E_j as a (dim, dim) Hermitian matrix: w @ A, off-diagonal halved."""
    diag, upper, lower = index
    coords = weights @ design
    dim = diag.size
    half = 0.5 * (coords[dim:dim + upper.size] + 1j * coords[dim + upper.size:])
    out = np.empty(dim * dim, dtype=np.complex128)
    out[diag] = coords[:dim]
    out[upper] = half
    out[lower] = half.conj()
    return out.reshape(dim, dim)


def loglikelihood(rho: DensityMatrix, data: BinnedData, povm: np.ndarray) -> float:
    """L = sum_j f_j log Tr[rho E_j] over occupied bins (floored at 1e-300)."""
    counts, design, index = _design_matrix(data, povm)
    floored = np.maximum(_born(design, rho.elems, index), _PROB_FLOOR)
    return float(counts @ np.log(floored))


@dataclass
class ReconstructionDiagnostics:
    iterations: int = 0
    converged: bool = False
    final_loglik: float = math.nan
    loglik_per_sample: float = math.nan
    completeness_residual: float = math.nan  # completeness_residual(config), of the grid
    ml_gap_nats: float = math.nan
    loglik_trace: list[float] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Every field but the log-likelihood trace, which stays in memory."""
        payload = asdict(self)
        del payload["loglik_trace"]
        return payload


def _project_density(mat: np.ndarray) -> np.ndarray:
    """The density matrix nearest to Hermitian ``mat`` in Frobenius norm.

    Keeps the eigenvectors and projects the eigenvalues onto the probability
    simplex (sort, then shift by the threshold that makes them sum to one).
    """
    w, v = np.linalg.eigh(mat)
    desc = w[::-1]
    excess = np.cumsum(desc) - 1.0
    k = np.flatnonzero(desc * np.arange(1, w.size + 1) > excess)[-1]
    w = np.maximum(w - excess[k] / (k + 1), 0.0)
    out = (v * w) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def reconstruct(
    data: BinnedData,
    config: TomographyConfig,
    povm: np.ndarray,
    initial: np.ndarray | None = None,
) -> tuple[DensityMatrix, ReconstructionDiagnostics]:
    """Maximum-likelihood estimate by accelerated projected gradient.

    ``povm`` holds one element per count, as ``build_povm(config,
    data.thetas)`` gives; a mismatched shape raises ValueError.  Starts from
    the maximally mixed state unless ``initial`` is given, and stops once the
    certified gap ``ml_gap_nats`` is at most ``TOL.ml_gap_nats``;
    ``converged`` means exactly that.  Accepted
    iterations never decrease the log-likelihood (``loglik_trace``).  Returns
    the estimate plus diagnostics; a run that reaches max_iterations returns
    its best iterate flagged, it does not raise.  ``completeness_residual``
    is ``completeness_residual(config)``, of the config's grid, not ``povm``.
    """
    if data.total <= 0:
        raise ValueError("no counts to reconstruct from")
    if povm.shape[2:] != (config.dim, config.dim):
        raise ValueError(
            f"POVM of shape {povm.shape} needs elements of shape ({config.dim}, {config.dim})"
        )

    diag = ReconstructionDiagnostics()
    if data.thetas.size < 2:
        diag.warnings.append(
            "single-phase data: off-diagonal elements are not reliably constrained"
        )
    diag.completeness_residual = completeness_residual(config)

    c, design, index = _design_matrix(data, povm)
    total = float(c.sum())
    freqs = c / total

    if initial is None:
        rho = np.eye(config.dim, dtype=np.complex128) / config.dim
    else:
        rho = np.asarray(initial, dtype=np.complex128).copy()
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
    probs = _born(design, rho, index)
    if np.any(probs <= 0.0):
        raise ValueError("initial state gives an occupied bin zero probability")

    def gradient(p: np.ndarray) -> np.ndarray:
        """R at the state whose Born probabilities are p: minus the gradient of f."""
        return _weighted_sum(freqs / p, design, index)

    def gap_of(p: np.ndarray) -> float:
        # L* - L(rho) <= N (lambda_max(R) - 1); nonnegative in exact arithmetic,
        # since lambda_max(R) >= Tr[rho R] = 1, so only rounding is clamped
        return max(0.0, total * float(np.linalg.eigvalsh(gradient(p))[-1] - 1.0))

    loglik = float(c @ np.log(probs))
    diag.loglik_trace.append(loglik)
    gap = gap_of(probs)
    # the momentum point sigma; Born probabilities are linear in the state, so
    # sigma's are extrapolated from the iterates' rather than recomputed
    sigma, sigma_probs, momentum, step = rho, probs, 1.0, 1.0

    while gap > TOL.ml_gap_nats and diag.iterations < config.max_iterations:
        diag.iterations += 1
        r_op = gradient(sigma_probs)
        sigma_loglik = float(c @ np.log(sigma_probs))
        while step > _MIN_STEP:
            cand = _project_density(sigma + step * r_op)
            cand_probs = _born(design, cand, index)
            if np.all(cand_probs > 0.0):
                cand_loglik = float(c @ np.log(cand_probs))
                # quadratic upper bound on f = -L/N around sigma, in nats
                delta = cand - sigma
                bound = sigma_loglik + total * (
                    float(np.vdot(r_op, delta).real)
                    - float(np.vdot(delta, delta).real) / (2.0 * step)
                )
                if cand_loglik >= bound:
                    break
            step *= 0.5
        else:
            cand_loglik = -math.inf
        if cand_loglik < loglik:
            if sigma is rho:
                break  # no step from the last iterate raises L: stalled
            # the step would lower L: restart the momentum from the last iterate
            sigma, sigma_probs, momentum = rho, probs, 1.0
            continue
        next_momentum = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
        beta = (momentum - 1.0) / next_momentum
        sigma = cand + beta * (cand - rho)
        sigma_probs = cand_probs + beta * (cand_probs - probs)
        rho, probs, loglik, momentum = cand, cand_probs, cand_loglik, next_momentum
        if np.any(sigma_probs <= 0.0):
            sigma, sigma_probs, momentum = rho, probs, 1.0
        diag.loglik_trace.append(loglik)
        step *= 1.5
        gap = gap_of(probs)

    diag.converged = gap <= TOL.ml_gap_nats
    if not diag.converged:
        diag.warnings.append(
            f"no convergence after {diag.iterations} iterations; best iterate returned"
        )
    diag.ml_gap_nats = gap
    diag.final_loglik = loglik
    diag.loglik_per_sample = loglik / total
    return DensityMatrix(config.dim, rho), diag


def matrix_to_json_dict(rho: DensityMatrix) -> dict:
    return {
        "schema_version": 1,
        "dim": rho.dim,
        "re": rho.elems.real.tolist(),
        "im": rho.elems.imag.tolist(),
    }


def save_density_matrix(rho: DensityMatrix, path) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(matrix_to_json_dict(rho), sort_keys=True) + "\n")


def load_density_matrix(path) -> DensityMatrix:
    with open(str(path)) as fh:
        payload = json.load(fh)
    elems = np.asarray(payload["re"], dtype=np.float64) + 1j * np.asarray(
        payload["im"], dtype=np.float64
    )
    return DensityMatrix(int(payload["dim"]), elems)
