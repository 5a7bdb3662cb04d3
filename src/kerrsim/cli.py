"""Command-line front end.

Subcommands: ``pipeline`` (full run), ``simulate`` (forward model only),
``sample`` (quadrature data), ``reconstruct`` (from a sample CSV), ``klm``
(detector comparison table), ``solve`` (print gate algebra).  Exit codes:
0 success, 2 invalid configuration, unusable sample file or an output that
cannot be written (path named on stderr), 3 numerical failure (stage named
on stderr); reconstruction warnings go to stderr.  ``kerrsim --verbose``
logs each pipeline stage's wall time to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys

from .artifacts import alpha_dir, write_json
from .errors import ConfigError, KerrsimError, StageError
from .fock import density_from_pure
from .gates import solve_superposition
from .homodyne import load_samples, save_samples, sample_quadratures
from .klm import solve_ns_transmittances
from .pipeline import (
    ExperimentConfig,
    klm_compare,
    run_pipeline,
    simulate,
    simulate_forward,
    write_klm_report,
)
from .tomography import bin_samples, reconstruct, save_density_matrix


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument(
        "--alpha", action="append", type=float, dest="alphas", metavar="A",
        help="input coherent amplitude (repeatable)",
    )
    parser.add_argument("--mode", choices=("ideal", "bestfit", "custom"))
    parser.add_argument("--eta", type=float, help="detector efficiency")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--samples-per-phase", type=int, dest="samples_per_phase")
    parser.add_argument("--phases", type=int, dest="n_phases")
    parser.add_argument("--out", dest="outdir", help="output directory")


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    payload: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("config file must hold a JSON object")
    for key in ("alphas", "mode", "eta", "seed", "samples_per_phase", "n_phases", "outdir"):
        value = getattr(args, key, None)
        if value is not None:
            payload[key] = value
    config = ExperimentConfig.from_dict(payload)
    config.validate()
    return config


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
    for index, alpha in enumerate(config.alphas):
        _, psi_out, _ = simulate_forward(config, alpha)
        batch = sample_quadratures(
            density_from_pure(psi_out), config.schedule(index), config.eta
        )
        adir = alpha_dir(config.outdir, alpha)
        os.makedirs(adir, exist_ok=True)
        meta = {"alpha": alpha, "eta": config.eta, "mode": config.mode}
        save_samples(batch, os.path.join(adir, "samples.csv"), meta=meta)
        print(f"alpha={alpha:g}: {len(batch)} samples")
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    config = _load_config(args)
    try:
        batch = load_samples(args.samples)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read samples from {args.samples}: {exc}") from exc
    tomo = config.tomography()
    try:
        binned = bin_samples(batch, tomo)
        rho_hat, diag = reconstruct(binned, tomo)
    except ValueError as exc:  # no sample, or none inside the binning range
        raise ConfigError(f"cannot reconstruct from {args.samples}: {exc}") from exc
    os.makedirs(config.outdir, exist_ok=True)
    matrix_path = os.path.join(config.outdir, "reconstructed.json")
    save_density_matrix(rho_hat, matrix_path)
    write_json(
        os.path.join(config.outdir, "reconstruction_diag.json"),
        {"schema_version": 1, "out_of_range": binned.out_of_range, **diag.to_dict()},
    )
    for warning in diag.warnings:
        print(f"warning: {args.samples}: {warning}", file=sys.stderr)
    print(f"reconstruction written to {matrix_path} ({diag.iterations} iterations)")
    return 0


def _cmd_klm(args: argparse.Namespace) -> int:
    config = _load_config(args)
    rows = klm_compare(eta_heralds=config.eta)
    csv_path, json_path = write_klm_report(rows, config.outdir)
    print("probe        scheme                 detector eta    fidelity  success")
    for row in rows:
        print(
            f"{row['probe']:<13}{row['scheme']:<23}{row['detector']:<9}"
            f"{row['eta']:<7.3g}{row['fidelity']:<10.6f}{row['success']:.6f}"
        )
    print(f"table written to {csv_path} and {json_path}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = run_pipeline(config)
    for record in report.records:
        print(
            f"alpha={record.alpha:g}: fidelity(recon, model)={record.fidelity_model:.4f} "
            f"weight={record.success_weight:.4f} "
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
        "--verbose", action="store_true", help="log each stage's wall time to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="print the gate algebra and NS-gate settings")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("pipeline", help="full run: model, sampling, reconstruction")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_pipeline)

    p = sub.add_parser("simulate", help="forward model only")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sample", help="generate quadrature data")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("reconstruct", help="reconstruct from a sample CSV")
    _add_config_flags(p)
    p.add_argument("--samples", required=True, help="sample CSV written by 'sample'")
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("klm", help="detector comparison table for the NS gate")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_klm)

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
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KerrsimError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
