"""End-to-end experiment reproduction: prepare -> gate -> loss -> sample ->
reconstruct -> compare, with seeded configs and JSON, CSV and .npy artifacts.

``run_pipeline`` runs the whole chain; ``simulate``, ``sample``,
``reconstruct_file`` and ``klm_table`` run its parts through the same stages
and write the same artifacts, one entry point per ``kerrsim`` subcommand.
A run is deterministic given its config and seed; every output file is
written atomically through ``artifacts.atomic_open``, and JSON files carry a
schema_version field.  Every step of an entry point runs in a named stage,
a ``with _stage(...)`` block: a failure in it is a StageError naming the
stage, except that a ConfigError and an OSError pass through, so a failure
while writing artifacts is an OSError (an output that cannot be written) or
a StageError naming ``emit``.  Each stage logs its wall time at INFO level on
the ``kerrsim`` logger (``kerrsim --verbose``), and each reconstruction logs
its iterations, convergence flag and certified gap there; no timing enters
an artifact.  ``run_pipeline`` runs its amplitudes in contiguous ranges, the
first here and the others in forked workers; its artifacts, output and log
lines are those of one process.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import logging
import math
import numbers
import os
import sys
import time
import warnings
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import __version__
from .artifacts import alpha_dir, write_json, write_matrix_table, write_table
from .errors import ConfigError, StageError, _show
from .fock import (
    DensityMatrix,
    FockVector,
    coherent_state,
    density_from_pure,
    fidelity,
    truncate_density,
)
from .gates import (
    SuperpositionParams,
    amplified_sign_target,
    apply_conditional,
    build_superposition_operator,
    solve_superposition,
)
from .homodyne import (
    PhaseSchedule,
    SampleBatch,
    _run_parts,
    _sample_peak_bytes,
    _worker_count,
    default_schedule,
    load_samples,
    sample_quadratures,
    save_samples,
)
from .klm import DetectorModel, run_ns_gate, solve_ns_transmittances
from .tolerances import TOL
from .tomography import (
    ReconstructionDiagnostics,
    TomographyConfig,
    _povm_peak_bytes,
    bin_samples,
    build_povm,
    completeness_residual,
    matrix_to_json_dict,
    reconstruct,
    save_density_matrix,
)

__all__ = [
    "ExperimentConfig",
    "MODES",
    "AlphaRecord",
    "RunReport",
    "run_pipeline",
    "simulate",
    "sample",
    "reconstruct_file",
    "simulate_forward",
    "klm_compare",
    "klm_table",
    "superposition_for_mode",
    "fix_global_phase",
    "BESTFIT_RATIO_MAGNITUDE",
    "BESTFIT_RATIO_PHASE",
]

# best-fit operator ratio: magnitude 5.97, phase pi (ideal negative sign)
# shifted by the extra -pi/7 between the two operator orderings
BESTFIT_RATIO_MAGNITUDE = 5.97
BESTFIT_RATIO_PHASE = math.pi - math.pi / 7.0

MODES = ("ideal", "bestfit", "custom")

_log = logging.getLogger("kerrsim")


def _is_number(value, kind=numbers.Complex) -> bool:
    """A finite number of ``kind`` but not a bool; an int too large for a float is not finite."""
    try:
        return isinstance(value, kind) and not isinstance(value, bool) and cmath.isfinite(value)
    except OverflowError:
        return False


_KINDS = {"float": "a finite real number", "complex": "a finite complex number"}
# bytes build_povm, or the sample stage, may hold at once, on every host (recon_dim 80 and
# sim_dim 335 fit)
_BUDGET = 2**31


@dataclass(frozen=True)
class ExperimentConfig:
    alphas: tuple[float, ...] = (0.23, 0.53, 0.79)
    mode: str = "ideal"
    custom_a: complex = 1.0 + 0.0j
    custom_b: complex = 0.0 + 0.0j
    eta: float = TomographyConfig.eta
    n_phases: int = 12
    samples_per_phase: int = 16667
    seed: int = 20230
    sim_dim: int = 16
    recon_dim: int = TomographyConfig.dim
    bin_width: float = TomographyConfig.bin_width
    x_max: float = TomographyConfig.x_max
    max_iterations: int = TomographyConfig.max_iterations
    outdir: str = "out"

    def __post_init__(self):
        self.validate()
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))

    def validate(self) -> None:
        """Raise ConfigError naming the first invalid field, the grid by arithmetic alone."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            elif f.type == "float":
                ok = _is_number(value, numbers.Real)
            elif f.type == "complex":
                ok = _is_number(value)
            elif f.type == "str":
                ok = isinstance(value, str)
            else:
                continue
            if not ok:
                kind = _KINDS.get(f.type, f"of type {f.type}")
                raise ConfigError(f"{f.name} must be {kind}, got {_show(value)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {_show(self.seed)}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.alphas, (list, tuple)) or not all(
            _is_number(a, numbers.Real) and a >= 0 for a in self.alphas
        ):
            raise ConfigError(
                f"alphas must be a list of nonnegative finite reals, got {_show(self.alphas)}")
        if not self.alphas:
            raise ConfigError(f"alphas must hold at least one amplitude, got {self.alphas!r}")
        owners = {}
        for a in self.alphas:
            adir = alpha_dir(self.outdir, a)
            if adir in owners:
                raise ConfigError(
                    f"alphas {owners[adir]!r} and {a!r} would share the artifact directory {adir}"
                )
            owners[adir] = a
        for name in ("n_phases", "samples_per_phase"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {_show(getattr(self, name))}")
        if not 3 <= self.recon_dim <= self.sim_dim:
            raise ConfigError(f"need 3 <= recon_dim <= sim_dim, got recon_dim "
                              f"{_show(self.recon_dim)} and sim_dim {_show(self.sim_dim)}")
        if self.mode == "custom" and self.custom_a == 0 and self.custom_b == 0:
            raise ConfigError("mode 'custom' needs a nonzero custom_a or custom_b")
        try:
            tomo = self.tomography()  # checks the tomography fields
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if _povm_peak_bytes(tomo) > _BUDGET:
            raise ConfigError(
                f"bin_width {self.bin_width:g} and x_max {self.x_max:g} give a POVM too large "
                f"to hold at recon_dim {_show(self.recon_dim)} within the {_BUDGET >> 30} GiB "
                "budget"
            )
        if (residual := completeness_residual(tomo)) > TOL.completeness:
            raise ConfigError(f"x_max {self.x_max:g} is too small for recon_dim "
                              f"{_show(self.recon_dim)}: POVM completeness residual {residual:.3e}")
        if _sample_peak_bytes(self.sim_dim) > _BUDGET:
            raise ConfigError(f"sim_dim {_show(self.sim_dim)} gives a lossy state too large to "
                              f"sample within the {_BUDGET >> 30} GiB budget")

    def tomography(self) -> TomographyConfig:
        return TomographyConfig(
            dim=self.recon_dim,
            eta=self.eta,
            bin_width=self.bin_width,
            x_max=self.x_max,
            max_iterations=self.max_iterations,
        )

    def schedule(self, alpha_index: int) -> PhaseSchedule:
        # each alpha gets its own seed offset; phases split further inside the sampler
        return default_schedule(self.seed + alpha_index, self.n_phases, self.samples_per_phase)

    @staticmethod
    def from_dict(payload: dict) -> "ExperimentConfig":
        def as_complex(v):
            # a real number or a [re, im] pair of them; validate rejects anything else
            parts = v if isinstance(v, (list, tuple)) and len(v) == 2 else (v, 0.0)
            return complex(*parts) if all(_is_number(p, numbers.Real) for p in parts) else v

        unknown = set(payload) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        known = dict(payload)
        for key in ("custom_a", "custom_b"):
            if key in known:
                known[key] = as_complex(known[key])
        return ExperimentConfig(**known)

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["alphas"] = list(self.alphas)
        for key in ("custom_a", "custom_b"):
            z = complex(payload[key])
            payload[key] = [z.real, z.imag]
        return payload


def superposition_for_mode(config: ExperimentConfig) -> SuperpositionParams:
    """Operator weights implied by the parameter mode."""
    if config.mode == "ideal":
        return SuperpositionParams(1.0, solve_superposition().ratio)
    if config.mode == "bestfit":
        ratio = BESTFIT_RATIO_MAGNITUDE * complex(
            math.cos(BESTFIT_RATIO_PHASE), math.sin(BESTFIT_RATIO_PHASE)
        )
        return SuperpositionParams(1.0, ratio)
    return SuperpositionParams(config.custom_a, config.custom_b)


def fix_global_phase(state: FockVector) -> FockVector:
    """Rotate so the single-photon amplitude is real nonnegative (display convention)."""
    a1 = state.amps[1] if state.dim > 1 else 0.0
    if abs(a1) < TOL.phase_amplitude:
        return state
    return FockVector(state.dim, state.amps * np.exp(-1j * np.angle(a1)))


@dataclass
class SignSummary:
    re01: float
    re02: float
    re12: float
    im01: float

    @staticmethod
    def of(rho: DensityMatrix) -> "SignSummary":
        e = rho.elems
        return SignSummary(
            re01=float(e[0, 1].real),
            re02=float(e[0, 2].real),
            re12=float(e[1, 2].real),
            im01=float(e[0, 1].imag),
        )

    def vacuum_flip_visible(self) -> bool:
        return self.re01 < 0.0 and self.re02 < 0.0 and self.re12 > 0.0


@dataclass
class AlphaRecord:
    alpha: float
    success_weight: float
    input_model: DensityMatrix
    output_model: DensityMatrix
    reconstructed: DensityMatrix
    fidelity_model: float
    model_tail: float
    signs_model: SignSummary
    signs_reconstructed: SignSummary
    diagnostics: ReconstructionDiagnostics


@dataclass
class RunReport:
    config: ExperimentConfig
    records: list[AlphaRecord] = field(default_factory=list)
    versions: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "config": self.config.to_dict(),
            "seed": self.config.seed,
            "versions": self.versions,
            "records": [
                {
                    "alpha": r.alpha,
                    "success_weight": r.success_weight,
                    "fidelity_model": r.fidelity_model,
                    "model_tail": r.model_tail,
                    "signs_model": asdict(r.signs_model),
                    "signs_reconstructed": asdict(r.signs_reconstructed),
                    "vacuum_flip_model": r.signs_model.vacuum_flip_visible(),
                    "vacuum_flip_reconstructed": r.signs_reconstructed.vacuum_flip_visible(),
                    "input_model": matrix_to_json_dict(r.input_model),
                    "output_model": matrix_to_json_dict(r.output_model),
                    "reconstructed": matrix_to_json_dict(r.reconstructed),
                    "reconstruction": r.diagnostics.to_dict(),
                }
                for r in self.records
            ],
        }


def _versions() -> dict:
    return {"kerrsim": __version__, "numpy": np.__version__}


def _where(alpha: float | None) -> str:
    return "" if alpha is None else f" alpha={alpha:g}"


@contextlib.contextmanager
def _stage(name: str, alpha: float | None = None):
    """Run the block as the named stage: log its wall time if it completes, and
    report any failure as a StageError that names the stage.

    A ConfigError (an unusable input) and an OSError (an output that cannot be
    written) pass through unchanged, as does a StageError.
    """
    start = time.perf_counter()
    try:
        yield
    except (StageError, ConfigError, OSError):
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc
    _log.info("stage %s%s: %.3f s", name, _where(alpha), time.perf_counter() - start)


def simulate_forward(
    config: ExperimentConfig, alpha: float
) -> tuple[FockVector, FockVector, float]:
    """Input state and phase-fixed conditional output at the simulation cutoff."""
    psi_in = coherent_state(alpha, config.sim_dim)
    operator = build_superposition_operator(superposition_for_mode(config), config.sim_dim)
    raw, weight = apply_conditional(operator, psi_in)
    return psi_in, fix_global_phase(raw), weight


def _model(config: ExperimentConfig, alpha: float):
    """Output at the simulation cutoff, the model panels at recon_dim, weight and tail."""
    with _stage("forward-model", alpha):
        psi_in, psi_out, weight = simulate_forward(config, alpha)
        rho_out_full = density_from_pure(psi_out)
    with _stage("truncate", alpha):
        rho_in, _ = truncate_density(density_from_pure(psi_in), config.recon_dim)
        rho_out, tail = truncate_density(rho_out_full, config.recon_dim)
    return rho_out_full, {"input_model": rho_in, "output_model": rho_out}, weight, tail


def _sample(config: ExperimentConfig, index: int, alpha: float):
    """The model stages, then the sample stage, schedule included: batch, panels, weight, tail."""
    rho_out_full, panels, weight, tail = _model(config, alpha)
    with _stage("sample", alpha):
        batch = sample_quadratures(rho_out_full, config.schedule(index), config.eta)
    return batch, panels, weight, tail


def _reconstruct(alpha: float | None, binned, tomo: TomographyConfig, povm: np.ndarray):
    """The reconstruct stage on the POVM for the binned phases, then a convergence log line."""
    with _stage("reconstruct", alpha):
        rho_hat, diag = reconstruct(binned, tomo, povm)
    _log.info(
        "reconstruct%s: %d iterations, converged=%s, ml_gap_nats=%.3g",
        _where(alpha), diag.iterations, diag.converged, diag.ml_gap_nats,
    )
    return rho_hat, diag


def _save_panels(config: ExperimentConfig, alpha: float, panels: dict) -> str:
    """Write each panel as <panel>.json plus tables/<panel>.csv; returns the alpha dir."""
    adir = alpha_dir(config.outdir, alpha)
    os.makedirs(os.path.join(adir, "tables"), exist_ok=True)
    for panel, rho in panels.items():
        save_density_matrix(rho, os.path.join(adir, f"{panel}.json"))
        write_matrix_table(os.path.join(adir, "tables", f"{panel}.csv"), rho)
    return adir


def _save_batch(config: ExperimentConfig, index: int, batch: SampleBatch, name: str) -> None:
    """Write <alpha dir>/<name> and its sidecar, which records alpha, eta, mode and seed."""
    adir = alpha_dir(config.outdir, config.alphas[index])
    os.makedirs(adir, exist_ok=True)
    meta = {"alpha": config.alphas[index], "eta": config.eta, "mode": config.mode,
            "seed": config.schedule(index).seed}
    save_samples(batch, os.path.join(adir, name), meta=meta)


def _save_diag(directory: str, binned, diag: ReconstructionDiagnostics) -> None:
    write_json(
        os.path.join(directory, "reconstruction_diag.json"),
        {"schema_version": 1, "out_of_range": binned.out_of_range, **diag.to_dict()},
    )


def simulate(config: ExperimentConfig) -> list[dict]:
    """Forward model only: per alpha the input and output panels, plus simulate.json."""
    summary = []
    for alpha in config.alphas:
        _, panels, weight, tail = _model(config, alpha)
        with _stage("emit", alpha):
            _save_panels(config, alpha, panels)
        summary.append({"alpha": alpha, "success_weight": weight, "model_tail": tail})
    with _stage("emit"):
        write_json(
            os.path.join(config.outdir, "simulate.json"),
            {"schema_version": 1, "config": config.to_dict(), "records": summary,
             "versions": _versions()},
        )
    return summary


def sample(config: ExperimentConfig) -> list[SampleBatch]:
    """Sample every alpha as run_pipeline does and export each batch as samples.csv plus sidecar."""
    import numpy.random  # noqa: F401  (as in run_pipeline: no sample stage pays its import)

    batches = []
    for index, alpha in enumerate(config.alphas):
        batch = _sample(config, index, alpha)[0]
        with _stage("emit", alpha):
            _save_batch(config, index, batch, "samples.csv")
        batches.append(batch)
    return batches


def reconstruct_file(
    config: ExperimentConfig, path: str
) -> tuple[DensityMatrix, ReconstructionDiagnostics]:
    """Reconstruct from a sample file, ``.csv`` or ``.npy``.

    Writes reconstructed.json and reconstruction_diag.json.  The POVM is
    built for the phases found in the file and compensates ``config.eta``; if
    no sidecar records the file's eta, or it records another, the diagnostics
    carry a warning.  A file or sidecar that cannot be read, or a file with no
    sample inside the binning range, is a ConfigError.
    """
    tomo = config.tomography()
    with _stage("load"):
        try:
            batch, fields = load_samples(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read samples from {path}: {exc}") from exc
    if len(batch):
        with _stage("bin"):
            binned = bin_samples(batch, tomo)
    if not len(batch) or binned.total <= 0:
        raise ConfigError(
            f"cannot reconstruct from {path}: {len(batch)} samples, none inside +-{tomo.x_max:g}"
        )
    with _stage("povm"):
        povm = build_povm(tomo, binned.thetas)
    rho_hat, diag = _reconstruct(None, binned, tomo, povm)
    eta = fields.get("eta")
    if eta != tomo.eta:
        recorded = "an unknown eta (no sidecar records it)" if eta is None else f"eta={eta:g}"
        diag.warnings.append(
            f"samples were recorded at {recorded} but reconstructed with eta={tomo.eta:g}")
    with _stage("emit"):
        os.makedirs(config.outdir, exist_ok=True)
        save_density_matrix(rho_hat, os.path.join(config.outdir, "reconstructed.json"))
        _save_diag(config.outdir, binned, diag)
    return rho_hat, diag


def _run_alpha(
    config: ExperimentConfig, index: int, alpha: float, emit: bool, povm: np.ndarray,
    thetas: np.ndarray,
) -> AlphaRecord:
    """One amplitude of run_pipeline, reconstructed on ``povm``, built for the phases ``thetas``."""
    batch, panels, weight, tail = _sample(config, index, alpha)
    rho_in, rho_out = panels["input_model"], panels["output_model"]
    tomo = config.tomography()
    with _stage("bin", alpha):
        binned = bin_samples(batch, tomo)
    if not np.array_equal(binned.thetas, thetas):
        raise StageError(
            "povm", f"binned phases {binned.thetas.tolist()} at alpha={alpha} are not the "
            f"schedule's {thetas.tolist()}, for which the POVM was built"
        )
    rho_hat, diag = _reconstruct(alpha, binned, tomo, povm)
    with _stage("validate", alpha):
        for matrix in (rho_in, rho_out, rho_hat):
            matrix.validate()
    with _stage("compare", alpha):
        fid = fidelity(rho_hat, rho_out)

    record = AlphaRecord(
        alpha=alpha,
        success_weight=weight,
        input_model=rho_in,
        output_model=rho_out,
        reconstructed=rho_hat,
        fidelity_model=fid,
        model_tail=tail,
        signs_model=SignSummary.of(rho_out),
        signs_reconstructed=SignSummary.of(rho_hat),
        diagnostics=diag,
    )

    if config.mode in ("ideal", "bestfit") and alpha > 0:
        if not record.signs_model.vacuum_flip_visible():
            raise StageError("signature", f"model sign signature violated at alpha={alpha}")
        if not record.signs_reconstructed.vacuum_flip_visible():
            raise StageError(
                "signature", f"reconstructed sign signature violated at alpha={alpha}"
            )

    if emit:
        with _stage("emit", alpha):
            adir = _save_panels(config, alpha, {**panels, "output_reconstructed": rho_hat})
            _save_batch(config, index, batch, "samples.npy")
            _save_diag(adir, binned, diag)
    return record


def _run_range(
    config: ExperimentConfig, emit: bool, povm: np.ndarray, thetas: np.ndarray, lo: int,
    hi: int, outcomes: list,
) -> list:
    """Amplitudes ``lo``..``hi - 1`` of run_pipeline; appends to ``outcomes``, and returns it,
    each one's AlphaRecord or the exception it raised."""
    for index in range(lo, hi):
        try:
            outcomes.append(_run_alpha(config, index, config.alphas[index], emit, povm, thetas))
        except Exception as exc:  # raised once every amplitude has run
            outcomes.append(exc)
    return outcomes


class _Kept(logging.Handler):
    """Appends each record to ``events``, its message formatted, so that it pickles (as
    logging.handlers.QueueHandler would, whose import costs a worker some 5 ms)."""

    def __init__(self, events: list):
        super().__init__()
        self.events = events

    def emit(self, record: logging.LogRecord) -> None:
        record.msg, record.args = record.getMessage(), None
        record.exc_info = record.exc_text = None
        self.events.append(record)


def _in_worker(run) -> tuple:
    """``run()`` in a forked worker: its value, and in their order the ``kerrsim`` log records
    and the warnings it gave, which the worker itself shows nowhere (see _replay)."""
    events: list = []
    _log.handlers, _log.propagate = [_Kept(events)], False  # this worker's copy of the logger
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, category, filename, lineno, *_: events.append(
            (message, filename, lineno))
        return run(), events


def _replay(events: list) -> None:
    """Give a worker's log records to this process's ``kerrsim`` logger, and raise its
    warnings again here, under the filters and the registry of the module each came from,
    so that a repeat is shown or not as in one process."""
    for event in events:
        if isinstance(event, logging.LogRecord):
            _log.handle(event)
            continue
        message, filename, lineno = event
        module = next((m for m in list(sys.modules.values())
                       if getattr(m, "__file__", None) == filename), None)
        registry = None if module is None else vars(module).setdefault("__warningregistry__", {})
        warnings.warn_explicit(message, type(message), filename, lineno,
                               getattr(module, "__name__", None), registry)


@functools.cache
def _openblas():
    """The OpenBLAS that numpy's wheel bundles, as numpy loaded it, or None where numpy
    uses another BLAS or none is found."""
    import ctypes
    import glob

    here = os.path.dirname(np.__file__)
    for pattern in (os.path.join(os.path.dirname(here), "numpy.libs", "*openblas*"),
                    os.path.join(here, ".dylibs", "*openblas*")):
        for path in glob.glob(pattern):
            try:
                # RTLD_NOLOAD: the copy numpy loaded, never a second one
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
                lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            except (OSError, AttributeError):
                continue
            return lib
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's BLAS at one thread for the block and yield True, then restore its
    thread count; yield False, changing nothing, where _openblas finds no library."""
    lib = _openblas()
    if lib is None:
        yield False
        return
    threads = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield True
    finally:
        lib.scipy_openblas_set_num_threads64_(threads)


def run_pipeline(config: ExperimentConfig, emit: bool = True) -> RunReport:
    """Run the full chain for every alpha and emit all artifacts.

    Deterministic for a fixed config and seed.  The POVM is built once, for
    the schedule's phases, and every alpha is reconstructed on it.  In ideal
    and bestfit modes the vacuum sign signature is asserted on model and
    reconstruction for every nonzero alpha; a violation is a structured stage
    error.

    The amplitudes are split into contiguous ranges, one per usable CPU but at
    most one per ``homodyne._CHUNK_SHOTS`` shots.  This process runs the first
    range while forked workers run the others, each amplitude with all its
    stages, ``emit`` included; none is forked while another thread runs.  With
    more than one worker, numpy's BLAS is held at one thread in every process
    until the workers have ended; where it cannot be, one process runs them
    all.  The workers' log records and warnings are given here in amplitude
    order, after this process's own.  Every amplitude runs, and writes its
    artifacts if it succeeds; then the lowest-index failure is raised, and
    ``report.json`` is written only when none failed.  A worker that ends
    without a result is a StageError of stage ``worker``.
    """
    # numpy loads numpy.random on first use: load it before the first stage, so that no
    # amplitude's sample stage is charged for it, and the workers inherit it
    import numpy.random  # noqa: F401

    if emit:  # an unwritable outdir fails before any stage runs
        os.makedirs(config.outdir, exist_ok=True)
    report = RunReport(config=config, versions=_versions())
    with _stage("povm"):
        # every amplitude samples the same phases (only the schedule's seed differs),
        # in increasing order as bin_samples returns them, so one POVM serves them all
        thetas = np.array([theta for theta, _ in config.schedule(0).phases])
        povm = build_povm(config.tomography(), thetas)
    count = len(config.alphas)
    workers = min(count, _worker_count(count * config.schedule(0).total))
    outcomes: list = []
    lost = []
    with _one_blas_thread() if workers > 1 else contextlib.nullcontext(False) as held:
        workers = workers if held else 1
        bounds = [count * i // workers for i in range(workers + 1)]
        run = functools.partial(_run_range, config, emit, povm, thetas)
        try:
            _, *caught = _run_parts([
                functools.partial(run, 0, bounds[1], outcomes),
                *(functools.partial(_in_worker, functools.partial(run, lo, hi, []))
                  for lo, hi in zip(bounds[1:], bounds[2:])),
            ])
        except (OSError, ChildProcessError) as exc:
            caught, lost = [], [StageError("worker", str(exc))]
    for part, events in caught:
        _replay(events)
        outcomes += part
    failures = [o for o in outcomes if isinstance(o, Exception)] + lost
    if failures:
        raise failures[0]
    report.records = outcomes
    if emit:
        with _stage("emit"):
            write_json(os.path.join(config.outdir, "report.json"), report.to_dict())
    return report


_KLM_PROBES = (
    ("balanced", np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)),
    ("qubit", np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)),
    ("two_heavy", np.array([1.0, 1.0, 2.0]) / math.sqrt(6.0)),
)


_KLM_COLUMNS = ("probe", "scheme", "detector", "eta", "fidelity", "success")


def klm_compare(eta_heralds: float = ExperimentConfig.eta) -> list[dict]:
    """Resource-comparison table: heralded sign gate vs conditional v(n) scheme.

    For each probe state supported on {0, 1, 2}: gate fidelity and success
    probability under PNR/on-off detectors at unit and reduced efficiency, and
    the addition/subtraction scheme's fidelity to the amplified target (its
    herald efficiency only rescales the success weight, so the fidelity column
    is detector independent).  Each row maps ``_KLM_COLUMNS`` to its values.
    The last row is the ``ns_gate_settings`` row: the sign-gate solution's
    success probability, with NaN eta and fidelity.
    """
    solution = solve_ns_transmittances()
    gain = solve_superposition()
    operator = build_superposition_operator(SuperpositionParams(1.0, gain.ratio), 3)
    detectors = (
        ("pnr", 1.0),
        ("pnr", eta_heralds),
        ("on_off", 1.0),
        ("on_off", eta_heralds),
    )
    rows = []
    for name, amps in _KLM_PROBES:
        probe = FockVector(3, amps)
        for kind, eta in detectors:
            result = run_ns_gate(probe, DetectorModel(kind, eta))
            rows.append((name, "ns_gate", kind, eta, result.fidelity, result.probability))
        conditional, weight = apply_conditional(operator, probe)
        target = density_from_pure(amplified_sign_target(probe, gain.gain))
        fid = fidelity(density_from_pure(conditional), target)
        for kind, eta in (("on_off", 1.0), ("on_off", eta_heralds)):
            # two herald detections, each scaling the weight by eta
            rows.append((name, "addition_subtraction", kind, eta, fid, weight * eta * eta))
    rows.append(("-", "ns_gate_settings", "-", math.nan, math.nan, solution.success_probability))
    return [dict(zip(_KLM_COLUMNS, values)) for values in rows]


def klm_table(config: ExperimentConfig) -> list[dict]:
    """klm_compare at the config's eta as the klm stage; writes klm_table.csv and .json."""
    with _stage("klm"):
        rows = klm_compare(eta_heralds=config.eta)
    with _stage("emit"):
        os.makedirs(config.outdir, exist_ok=True)
        table = [[row[k] for k in _KLM_COLUMNS] for row in rows]
        write_table(os.path.join(config.outdir, "klm_table.csv"), _KLM_COLUMNS, table)
        write_json(
            os.path.join(config.outdir, "klm_table.json"), {"schema_version": 1, "rows": rows}
        )
    return rows
