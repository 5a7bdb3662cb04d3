"""The benchmark workloads: what one op runs, how its output is checked, and
the quality figures computed from it outside the timed region.

Every op calls kerrsim through a module attribute (``pipeline.run_pipeline``,
``cli.main``, ``pipeline.klm_compare``) so that the tracer's wrappers, when
installed, see the call.  The workload seed reaches the program only as
``ExperimentConfig.seed`` (the ``--seed`` flag on the command line).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os

import numpy as np

from kerrsim import cli, pipeline
from kerrsim.fock import density_from_pure, fidelity, truncate_density
from kerrsim.homodyne import sample_quadratures
from kerrsim.klm import solve_ns_transmittances as _solve_ns
from kerrsim.pipeline import ExperimentConfig, simulate_forward
from kerrsim.tolerances import TOL
from kerrsim.tomography import bin_samples, build_povm, load_density_matrix

FIDELITY_FLOOR = 0.98  # acceptance floor of the closed loop (criterion 6)


def certified_gap(rho: np.ndarray, binned, povm: np.ndarray) -> float:
    """N (lambda_max(R(rho)) - 1), an upper bound on L* - L(rho) in nats.

    Concavity of the log-likelihood gives the bound (Glancy, Knill & Girard,
    NJP 14, 095017, 2012); R(rho) = (1/N) sum_j f_j E_j / Tr[rho E_j].
    """
    dim = rho.shape[0]
    counts = binned.counts.reshape(-1)
    occupied = counts > 0
    c = counts[occupied]
    e = povm.reshape(-1, dim, dim)[occupied]
    probs = np.einsum("jmn,nm->j", e, rho).real
    r = np.einsum("j,jmn->mn", c / probs, e)
    return float(np.linalg.eigvalsh(0.5 * (r + r.conj().T))[-1] - c.sum())


def _closed_loop_quality(config: ExperimentConfig, rho_hats, diagnostics) -> list[dict]:
    """Per amplitude: iterations, converged flag and certified ML gap side by side.

    The binned data are regenerated from the seed with the public sampler,
    which is bit-identical to what the op sampled (and wrote to CSV).
    """
    tomo = config.tomography()
    thetas = np.arange(config.n_phases) * math.pi / config.n_phases
    povm = build_povm(tomo, thetas)
    rows = []
    for index, (alpha, rho_hat, diag) in enumerate(zip(config.alphas, rho_hats, diagnostics)):
        _, psi_out, _ = simulate_forward(config, alpha)
        batch = sample_quadratures(density_from_pure(psi_out), config.schedule(index), config.eta)
        binned = bin_samples(batch, tomo)
        rows.append(
            {
                "alpha": alpha,
                "iterations": diag["iterations"],
                "converged": diag["converged"],
                "ml_gap_nats": certified_gap(rho_hat.elems, binned, povm),
                "occupied_bins": int(np.count_nonzero(binned.counts)),
            }
        )
    return rows


def _dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, names in os.walk(root)
        for name in names
    )


class PaperDefault:
    """run_pipeline at the paper's configuration, artifacts included."""

    name = "paper-default"

    def __init__(self, seed: int):
        self.config = ExperimentConfig(seed=seed)
        self.alphas = self.config.alphas
        self.samples_per_op = len(self.alphas) * self.config.n_phases * self.config.samples_per_phase

    def prepare(self) -> None:
        pass

    def run(self, outdir: str):
        return pipeline.run_pipeline(dataclasses.replace(self.config, outdir=outdir), emit=True)

    def check(self, report, outdir: str) -> dict:
        problems = []
        for record in report.records:
            if record.alpha > 0 and not record.signs_model.vacuum_flip_visible():
                problems.append(f"model sign signature violated at alpha={record.alpha}")
            if record.alpha > 0 and not record.signs_reconstructed.vacuum_flip_visible():
                problems.append(f"reconstructed sign signature violated at alpha={record.alpha}")
        fids = [fidelity(r.reconstructed, r.output_model) for r in report.records]
        if min(fids) < FIDELITY_FLOOR:
            problems.append(f"closed-loop fidelity {min(fids):.4f} below {FIDELITY_FLOOR}")
        if not os.path.isfile(os.path.join(outdir, "report.json")):
            problems.append("report.json was not written")
        return {
            "problems": problems,
            "fidelities": fids,
            "bytes_written": _dir_bytes(outdir),
            "bytes_read": 0,
        }

    def quality(self, report, facts: dict) -> list[dict]:
        rows = _closed_loop_quality(
            self.config,
            [r.reconstructed for r in report.records],
            [{"iterations": r.diagnostics.iterations, "converged": r.diagnostics.converged}
             for r in report.records],
        )
        for row, fid in zip(rows, facts["fidelities"]):
            row["fidelity"] = fid
        return rows


class Shots2mCsv:
    """Split path: 'kerrsim sample' of 2 M shots to CSV, then 'kerrsim reconstruct'."""

    name = "shots-2m-csv"
    alpha = 0.53
    samples_per_phase = 166667

    def __init__(self, seed: int):
        self.seed = seed
        self.alphas = (self.alpha,)
        self.config = ExperimentConfig(
            alphas=self.alphas, samples_per_phase=self.samples_per_phase, seed=seed
        )
        self.samples_per_op = self.config.n_phases * self.samples_per_phase
        _, psi_out, _ = simulate_forward(self.config, self.alpha)
        self.model, _ = truncate_density(density_from_pure(psi_out), self.config.recon_dim)

    def prepare(self) -> None:
        pass

    def run(self, outdir: str) -> tuple[int, int]:
        csv_path = os.path.join(outdir, f"alpha_{self.alpha:g}", "samples.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            sampled = cli.main(
                ["sample", "--alpha", str(self.alpha), "--samples-per-phase",
                 str(self.samples_per_phase), "--seed", str(self.seed), "--out", outdir]
            )
            rebuilt = cli.main(["reconstruct", "--samples", csv_path, "--out", outdir])
        return sampled, rebuilt

    def check(self, codes, outdir: str) -> dict:
        problems = [f"exit code {code}" for code in codes if code != 0]
        csv_path = os.path.join(outdir, f"alpha_{self.alpha:g}", "samples.csv")
        with open(csv_path, "rb") as fh:
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 22), b"")) - 1
        if rows != self.samples_per_op:
            problems.append(f"CSV holds {rows} rows, expected {self.samples_per_op}")
        with open(os.path.join(outdir, "reconstruction_diag.json")) as fh:
            diag = json.load(fh)
        reloaded = round(diag["final_loglik"] / diag["loglik_per_sample"]) + diag["out_of_range"]
        if reloaded != rows:
            problems.append(f"reconstruct reloaded {reloaded} rows of {rows} written")
        rho_hat = load_density_matrix(os.path.join(outdir, "reconstructed.json"))
        if abs(rho_hat.trace - 1.0) > TOL.norm_unit:
            problems.append(f"reconstruction trace {rho_hat.trace!r} is not one")
        evals = np.linalg.eigvalsh(0.5 * (rho_hat.elems + rho_hat.elems.conj().T))
        if evals[0] < -TOL.psd_floor:
            problems.append(f"reconstruction not PSD: min eigenvalue {evals[0]:.3e}")
        return {
            "problems": problems,
            "fidelities": [fidelity(rho_hat, self.model)],
            "bytes_written": _dir_bytes(outdir),
            "bytes_read": os.path.getsize(csv_path),
            "rho_hat": rho_hat,
            "diag": diag,
        }

    def quality(self, codes, facts: dict) -> list[dict]:
        rows = _closed_loop_quality(self.config, [facts["rho_hat"]], [facts["diag"]])
        rows[0]["fidelity"] = facts["fidelities"][0]
        return rows


class NsGateTable:
    """klm_compare with a cold transmittance solve, as every 'kerrsim klm' pays."""

    name = "ns-gate-table"
    alphas = ()
    samples_per_op = 0
    eta_heralds = 0.66

    def __init__(self, seed: int):
        self.seed = seed  # the op has no random input

    def prepare(self) -> None:
        clear = getattr(_solve_ns, "cache_clear", None)
        if clear is not None:
            clear()

    def run(self, outdir: str) -> list[dict]:
        return pipeline.klm_compare(eta_heralds=self.eta_heralds)

    def check(self, rows, outdir: str) -> dict:
        problems = []
        settings = [r for r in rows if r["scheme"] == "ns_gate_settings"]
        if len(settings) != 1 or abs(settings[0]["success"] - 0.25) > 1e-9:
            problems.append("NS gate success probability is not 0.25")
        gate = {(r["probe"], r["detector"], r["eta"]): r for r in rows if r["scheme"] == "ns_gate"}
        for probe in sorted({p for p, _, _ in gate}):
            pnr = gate[(probe, "pnr", 1.0)]["fidelity"]
            on_off = gate[(probe, "on_off", 1.0)]["fidelity"]
            if abs(pnr - 1.0) > 1e-9:
                problems.append(f"{probe}: PNR fidelity {pnr!r} is not 1")
            if not on_off < pnr:
                problems.append(f"{probe}: on-off fidelity {on_off!r} not below PNR")
        return {
            "problems": problems,
            "fidelities": [r["fidelity"] for r in rows if math.isfinite(r["fidelity"])],
            "bytes_written": 0,
            "bytes_read": 0,
        }

    def quality(self, rows, facts: dict) -> list[dict]:
        return []


WORKLOADS = {w.name: w for w in (PaperDefault, Shots2mCsv, NsGateTable)}
