"""Command-line front end.

Subcommands: ``pipeline`` (full run), ``simulate`` (forward model only),
``sample`` (quadrature data CSV), ``reconstruct`` (from a sample file,
``.csv`` or ``.npy``), ``klm`` (detector comparison table), ``solve``
(print gate algebra).  Exit codes:
0 success, 2 invalid configuration, unusable sample file or sidecar, or an
output that cannot be written (path named on stderr), 3 numerical failure or
a worker process that ended without its result (stage named on stderr);
reconstruction warnings go to stderr.  Each subcommand but
``solve`` is one ``pipeline`` entry point; ``kerrsim --verbose`` logs its
stages' wall times, each reconstruction's convergence and each sample CSV's
rows and worker processes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import os
import sys

from .errors import ConfigError, SampleFileError, StageError
from .gates import solve_superposition
from .klm import solve_ns_transmittances
from .pipeline import (
    MODES,
    ExperimentConfig,
    klm_table,
    reconstruct_file,
    run_pipeline,
    sample,
    simulate,
)
# names the benchmark tracer wraps on this module (perfbench/tracing.py WRAP_POINTS)
from .homodyne import load_samples  # noqa: F401
from .pipeline import bin_samples, reconstruct, sample_quadratures, save_density_matrix, save_samples, simulate_forward  # noqa: F401


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    # a flag left out sets no attribute, so only the flags given override the config
    flag = functools.partial(parser.add_argument, default=argparse.SUPPRESS)
    flag(
        "--alpha", action="append", type=float, dest="alphas", metavar="A",
        help="input coherent amplitude (repeatable)",
    )
    flag("--mode", choices=MODES)
    flag("--eta", type=float, help="detector efficiency")
    flag("--seed", type=int)
    flag("--samples-per-phase", type=int, dest="samples_per_phase")
    flag("--phases", type=int, dest="n_phases")
    flag("--out", dest="outdir", help="output directory")


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The --config file's fields, overridden by the config flags given; validated."""
    payload: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:  # also not UTF-8, or an int too long to parse
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("config file must hold a JSON object")
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    payload.update((key, value) for key, value in vars(args).items() if key in names)
    return ExperimentConfig.from_dict(payload)


def _cmd_solve(args: argparse.Namespace) -> int:
    gain = solve_superposition()
    ns = solve_ns_transmittances()
    print(
        json.dumps(
            {
                "ratio": gain.ratio,
                "gain": gain.gain,
                "ns_transmittances": list(ns.transmittances),
                "ns_success_probability": ns.success_probability,
                "ns_lambdas": list(ns.lambdas),
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    simulate(config)
    print(f"forward model written to {config.outdir}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    config = _load_config(args)
    for alpha, count in zip(config.alphas, sample(config)):
        print(f"alpha={alpha:g}: {count} samples")
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    config = _load_config(args)
    _, diag = reconstruct_file(config, args.samples)
    for warning in diag.warnings:
        print(f"warning: {args.samples}: {warning}", file=sys.stderr)
    matrix_path = os.path.join(config.outdir, "reconstructed.json")
    print(
        f"reconstruction written to {matrix_path} ({diag.iterations} iterations, "
        f"converged={diag.converged}, ml_gap={diag.ml_gap_nats:.3g} nats)"
    )
    return 0


def _cmd_klm(args: argparse.Namespace) -> int:
    config = _load_config(args)
    rows = klm_table(config)
    print("probe        scheme                 detector eta    fidelity  success")
    for row in rows:
        print(
            f"{row['probe']:<13}{row['scheme']:<23}{row['detector']:<9}"
            f"{row['eta']:<7.3g}{row['fidelity']:<10.6f}{row['success']:.6f}"
        )
    table = os.path.join(config.outdir, "klm_table")
    print(f"table written to {table}.csv and {table}.json")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = run_pipeline(config)
    for record in report.records:
        print(
            f"alpha={record.alpha:g}: fidelity(recon, model)={record.fidelity_model:.4f} "
            f"weight={record.success_weight:.4f} "
            f"ml_gap={record.diagnostics.ml_gap_nats:.3g} nats "
            f"signs(model)={'ok' if record.signs_model.vacuum_flip_visible() else 'violated'} "
            f"signs(recon)={'ok' if record.signs_reconstructed.vacuum_flip_visible() else 'violated'}"
        )
        for warning in record.diagnostics.warnings:
            print(f"warning: alpha={record.alpha:g}: {warning}", file=sys.stderr)
    print(f"report written to {os.path.join(config.outdir, 'report.json')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrsim",
        description="Simulate the measurement-induced Kerr gate pipeline",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="log each stage's wall time and each reconstruction's convergence to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="print the gate algebra and NS-gate settings")
    p.set_defaults(fn=_cmd_solve)

    for name, fn, text in (
        ("pipeline", _cmd_pipeline, "full run: model, sampling, reconstruction"),
        ("simulate", _cmd_simulate, "forward model only"),
        ("sample", _cmd_sample, "generate quadrature data as CSV"),
        ("reconstruct", _cmd_reconstruct, "reconstruct from a sample file (.csv or .npy)"),
        ("klm", _cmd_klm, "detector comparison table for the NS gate"),
    ):
        p = sub.add_parser(name, help=text)
        _add_config_flags(p)
        if name == "reconstruct":
            p.add_argument("--samples", required=True,
                           help="sample file (.csv or .npy) written by 'sample' or 'pipeline'")
        p.set_defaults(fn=fn)

    return parser


@contextlib.contextmanager
def _stage_log(verbose: bool):
    """While active, the "kerrsim" logger's INFO lines (stage timings) go to stderr."""
    if not verbose:
        yield
        return
    log = logging.getLogger("kerrsim")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _stage_log(args.verbose):
            return args.fn(args)
    except OSError as exc:  # unreadable inputs already became ConfigError; this is an output
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except SampleFileError as exc:  # names its file, which is no configuration
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
