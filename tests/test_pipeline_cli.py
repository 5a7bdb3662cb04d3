import contextlib
import dataclasses
import errno
import functools
import importlib
import importlib.util
import io
import json
import math
import os
import re
import signal
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

import kerrsim
from kerrsim import _parts, homodyne, pipeline
from kerrsim.artifacts import atomic_open, write_json
from kerrsim.cli import main
from kerrsim.errors import ConfigError, StageError
from kerrsim.fock import basis_state, density_from_pure, fidelity
from kerrsim.pipeline import (
    BESTFIT_RATIO_MAGNITUDE,
    BESTFIT_RATIO_PHASE,
    MODES,
    ExperimentConfig,
    SignSummary,
    fix_global_phase,
    klm_compare,
    run_pipeline,
    simulate_forward,
    superposition_for_mode,
)
from kerrsim.tolerances import TOL
from kerrsim.tomography import BinnedData, bin_samples, load_density_matrix

FAST = dict(n_phases=6, samples_per_phase=2000, max_iterations=300)
# the warning of a reconstruction from a file whose eta no sidecar records, at the default eta
UNKNOWN_ETA = ("samples were recorded at an unknown eta (no sidecar records it) "
               "but reconstructed with eta=0.66")


def test_config_validation():
    ExperimentConfig().validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="nope").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(alphas=(-0.1,)).validate()
    with pytest.raises(ConfigError, match="eta"):
        ExperimentConfig(eta=0.0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(recon_dim=20).validate()
    # a range error shows the value it rejected
    for kwargs, message in (
        ({"eta": 1.5}, "eta must be in (0, 1], got 1.5"),
        ({"eta": 0.0}, "eta must be in (0, 1], got 0.0"),
        ({"recon_dim": 20}, "need 3 <= recon_dim <= sim_dim, got recon_dim 20 and sim_dim 16"),
        ({"recon_dim": 2}, "got recon_dim 2 and sim_dim 16"),
        ({"max_iterations": 0}, "max_iterations must be positive, got 0"),
        ({"bin_width": -1.0}, "bin_width must be positive, got -1"),
        ({"x_max": 0.0}, "x_max must be positive, got 0"),
        ({"seed": -3}, "seed must be non-negative, got -3"),
        ({"n_phases": 0}, "n_phases must be positive, got 0"),
        ({"alphas": ()}, "alphas must hold at least one amplitude, got ()"),
        # past 4,300 digits str(int) raises ValueError, which formatting these once did
        ({"seed": -10**5000}, "seed must be non-negative, got -<int of 16610 bits>"),
        ({"sim_dim": 10**5000}, "sim_dim <int of 16610 bits> gives a lossy state too large"),
        ({"recon_dim": 10**5000}, "got recon_dim <int of 16610 bits> and sim_dim 16"),
        ({"n_phases": -10**5000}, "n_phases must be positive, got -<int of 16610 bits>"),
        ({"max_iterations": -10**5000}, "max_iterations must be positive, got -<int of 16610"),
        ({"alphas": (0.5, 10**5000)}, "alphas must be a list of nonnegative finite reals, "
                                      "got <tuple holding an int too long to print>"),
    ):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(**kwargs)
        assert message in str(info.value)
    with pytest.raises(ConfigError, match="alphas"):
        ExperimentConfig(alphas=5)
    with pytest.raises(ConfigError, match="got '05'"):  # not read one character at a time
        ExperimentConfig(alphas="05")
    with pytest.raises(ConfigError, match="custom_a or custom_b"):
        ExperimentConfig(mode="custom", custom_a=0.0, custom_b=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"bogus_field": 1})
    # wrongly-typed fields and a negative seed name the field, not a traceback
    for bad in ({"max_iterations": "5"}, {"eta": "0.5"}, {"seed": 1.5}, {"seed": -1},
                {"seed": True}, {"n_phases": 6.0}, {"x_max": math.inf}, {"eta": math.nan},
                {"mode": 1}, {"outdir": 5}, {"alphas": ["0.5", True]}, {"alphas": ["0.5"]},
                {"alphas": [0.5, True]}, {"custom_a": [math.nan, 0]},
                {"custom_b": [0, math.inf]}, {"custom_a": True}, {"custom_b": [True, 0]},
                {"custom_a": "1"}, {"alphas": [0.5, 0.5]}, {"alphas": [0.5, 0.5000001]},
                {"bin_width": 100.0}, {"x_max": 1.0}, {"bin_width": -1.0}, {"x_max": 0.0},
                {"max_iterations": 0}, {"n_phases": 0}, {"samples_per_phase": 0},
                # these grids' POVMs (1.1 EiB, 36 PiB) exceed the 2 GiB budget, so the
                # size rule refuses them, by arithmetic, before anything is allocated
                {"bin_width": 1e-14}, {"x_max": 1e12}):
        (name,) = bad
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig.from_dict(bad).validate()
    ExperimentConfig(eta=1, x_max=6).validate()  # an int is a real number



# values of every JSON type; a huge int overflows a float and some floats are subnormal
_HUGE_INTS = st.integers(-10**400, 10**400)
_JSON_SCALAR = st.one_of(st.none(), st.booleans(), _HUGE_INTS, st.floats(), st.text(max_size=6))
_JSON = st.recursive(_JSON_SCALAR, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
_NOT_A_NUMBER = st.one_of(st.none(), st.booleans(), st.text(max_size=6),
                          st.lists(_JSON, max_size=3))
_NOT_POSITIVE = st.one_of(st.floats(max_value=0.0), st.integers(-10**400, 0),
                          st.sampled_from((math.nan, math.inf)), st.integers(2**1024, 10**400))
# a grid is either small (at most 400 bins) or has over 1e14 bins, whose POVM (14 PB
# or more) exceeds the 2 GiB budget, so the size rule refuses it before allocating
_X_MAX = st.one_of(_NOT_POSITIVE, st.floats(0.5, 10.0), st.integers(1, 10),
                   st.floats(min_value=1e16), st.integers(10**16, 10**400))
_BIN_WIDTH = st.one_of(_NOT_POSITIVE, st.floats(0.05, 100.0), st.integers(1, 100),
                       st.floats(0.0, 1e-14, exclude_min=True))
_DIM = st.one_of(st.integers(3, 32), st.integers(-10**400, 32))
# per field, values of its JSON type, mostly in range, so that most examples reach the
# later checks; any int of up to 400 digits where an int goes
_REAL = st.one_of(st.floats(-2.0, 2.0), st.integers(-1, 2))
_COUNT = st.integers(-1, 10**400)
_TYPED = {
    "alphas": st.lists(_REAL, max_size=4),
    "mode": st.sampled_from(MODES),
    "custom_a": st.one_of(_REAL, st.lists(_REAL, min_size=2, max_size=2)),
    "custom_b": st.one_of(_REAL, st.lists(_REAL, min_size=2, max_size=2)),
    "eta": _REAL,
    "n_phases": _COUNT,
    "samples_per_phase": _COUNT,
    "seed": _COUNT,
    "sim_dim": _DIM,
    "recon_dim": _DIM,
    "bin_width": _BIN_WIDTH,
    "x_max": _X_MAX,
    "max_iterations": _COUNT,
    "outdir": st.text(max_size=6),
}
# per field, any JSON value; dims and grids only those that reserve no memory
_ANY = {name: _JSON for name in _TYPED} | {
    "sim_dim": st.one_of(_NOT_A_NUMBER, st.floats(), _DIM),
    "recon_dim": st.one_of(_NOT_A_NUMBER, st.floats(), _DIM),
    "bin_width": st.one_of(_NOT_A_NUMBER, _BIN_WIDTH),
    "x_max": st.one_of(_NOT_A_NUMBER, _X_MAX),
}


@st.composite
def _config_payloads(draw):
    """Values of the field's type in some fields and any JSON value in up to two."""
    names = st.sampled_from(sorted(_TYPED))
    payload = {name: draw(_TYPED[name]) for name in draw(st.lists(names, unique=True))}
    for name in draw(st.one_of(st.just([]), st.lists(names, unique=True, max_size=2))):
        payload[name] = draw(_ANY[name])
    return payload


@given(_config_payloads())
def test_from_dict_raises_only_config_error(payload):
    # any JSON value in any field builds a valid config or raises ConfigError naming
    # a field, never another exception
    try:
        config = ExperimentConfig.from_dict(payload)
    except ConfigError as exc:
        assert any(name in str(exc) for name in _TYPED), str(exc)
    else:
        config.validate()


def test_config_roundtrip():
    config = ExperimentConfig(alphas=(0.3,), mode="custom", custom_b=1.5 - 0.5j)
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config


def test_superposition_for_mode():
    ideal = superposition_for_mode(ExperimentConfig(mode="ideal"))
    assert_allclose(ideal.b, -3.0 - math.sqrt(2.0), rtol=1e-14)
    best = superposition_for_mode(ExperimentConfig(mode="bestfit"))
    assert_allclose(abs(best.b), BESTFIT_RATIO_MAGNITUDE, rtol=1e-14)
    assert_allclose(np.angle(best.b), BESTFIT_RATIO_PHASE, rtol=1e-12)
    custom = superposition_for_mode(
        ExperimentConfig(mode="custom", custom_a=2.0, custom_b=1.0j)
    )
    assert custom.a == 2.0 and custom.b == 1.0j


def test_fix_global_phase():
    _, out, _ = simulate_forward(ExperimentConfig(), 0.53)
    assert out.amps[1].imag == pytest.approx(0.0, abs=1e-12)
    assert out.amps[1].real >= 0.0


def test_forward_model_sign_signature():
    # vacuum-coupled off-diagonals flip sign, the 1-2 coherence does not
    from kerrsim.fock import density_from_pure, truncate_density

    for alpha in (0.23, 0.53, 0.79):
        for mode in ("ideal", "bestfit"):
            _, out, _ = simulate_forward(ExperimentConfig(mode=mode), alpha)
            rho, _ = truncate_density(density_from_pure(out), 8)
            assert rho.elems[0, 1].real < 0.0
            assert rho.elems[0, 2].real < 0.0
            assert rho.elems[1, 2].real > 0.0


@settings(max_examples=50)
@given(alpha=st.floats(0.01, 2.0), mode=st.sampled_from(["ideal", "bestfit"]))
@example(alpha=0.01, mode="ideal")
@example(alpha=0.01, mode="bestfit")
@example(alpha=2.0, mode="ideal")
@example(alpha=2.0, mode="bestfit")
def test_model_sign_signature_holds_at_every_amplitude(alpha, mode):
    # the signature is the gate's at any amplitude, not only the default three: from 0.01,
    # where Re rho12 is 1e-5, to 2, where the coherent state needs sim_dim 40
    config = ExperimentConfig(alphas=(alpha,), mode=mode, sim_dim=40)
    panels = pipeline._model(config, alpha)[1]
    assert SignSummary.of(panels["output_model"]).vacuum_flip_visible()


def test_pipeline_alpha_zero(tmp_path):
    config = ExperimentConfig(alphas=(0.0,), outdir=str(tmp_path / "zero"), **FAST)
    report = run_pipeline(config)
    rec = report.records[0]
    vac = density_from_pure(basis_state(0, 8))
    assert fidelity(rec.output_model, vac) >= 1.0 - 1e-12
    assert fidelity(rec.reconstructed, vac) >= 0.99
    assert_allclose(rec.success_weight, 1.0, rtol=1e-12)


def test_pipeline_deterministic_artifacts(tmp_path):
    files = [
        "report.json",
        os.path.join("alpha_0.53", "samples.npy"),
        os.path.join("alpha_0.53", "samples_meta.json"),
        os.path.join("alpha_0.53", "output_reconstructed.json"),
        os.path.join("alpha_0.53", "tables", "output_model.csv"),
    ]
    outdir = str(tmp_path / "run")
    config = ExperimentConfig(alphas=(0.53,), outdir=outdir, **FAST)
    run_pipeline(config)
    first = {}
    for rel in files:
        with open(os.path.join(outdir, rel), "rb") as fh:
            first[rel] = fh.read()
    run_pipeline(config)
    for rel in files:
        with open(os.path.join(outdir, rel), "rb") as fh:
            assert fh.read() == first[rel], f"artifact {rel} not byte-identical"


def test_default_run_is_certified_and_fidelity_is_the_overlap(ideal_run):
    config = ideal_run.report.config
    for record in ideal_run.report.records:
        diag = record.diagnostics
        assert diag.converged and 0.0 <= diag.ml_gap_nats <= TOL.ml_gap_nats
        # the model output is pure, so the fidelity is <psi|rho_hat|psi> itself
        _, psi_out, _ = simulate_forward(config, record.alpha)
        psi = psi_out.amps[: config.recon_dim]
        psi = psi / np.linalg.norm(psi)
        overlap = float((psi.conj() @ record.reconstructed.elems @ psi).real)
        assert record.fidelity_model == pytest.approx(overlap, rel=0, abs=1e-15)


@pytest.mark.parametrize("seed, iterations", [(20230, [112, 112, 29]), (4242, [171, 71, 194])])
def test_default_run_iterations_are_pinned(seed, iterations):
    # rounding-level changes to the ML core must not move the default run: a
    # changed count here is a different stopping point, not noise
    report = run_pipeline(ExperimentConfig(seed=seed), emit=False)
    assert [r.diagnostics.iterations for r in report.records] == iterations
    assert [r.diagnostics.converged for r in report.records] == [True, True, True]


def test_pipeline_builds_one_povm_per_run(tmp_path, monkeypatch):
    config = ExperimentConfig(alphas=(0.23, 0.53, 0.79), outdir=str(tmp_path / "run"), **FAST)
    calls = []
    build = pipeline.build_povm
    monkeypatch.setattr(pipeline, "build_povm", lambda *args: calls.append(args) or build(*args))
    report = run_pipeline(config, emit=False)
    assert len(report.records) == 3
    assert len(calls) == 1
    assert np.array_equal(calls[0][1], np.arange(6) * math.pi / 6)


def test_pipeline_rejects_binned_phases_other_than_the_povm_phases(tmp_path, monkeypatch):
    config = ExperimentConfig(alphas=(0.53,), outdir=str(tmp_path / "run"), **FAST)
    bin_samples = pipeline.bin_samples

    def shifted(batch, tomo):
        binned = bin_samples(batch, tomo)
        return BinnedData(np.nextafter(binned.thetas, 4.0), binned.counts)

    monkeypatch.setattr(pipeline, "bin_samples", shifted)
    with pytest.raises(StageError, match="are not the schedule's") as err:
        run_pipeline(config, emit=False)
    assert err.value.stage == "povm"


def test_every_sample_file_is_written_by_the_pipeline_modules_save_samples(tmp_path,
                                                                          monkeypatch):
    # a wrap of pipeline.save_samples, as a tracer installs one from outside, sees each
    # amplitude's write in run_pipeline and in sample; a default argument that bound the
    # function at import once hid both from it
    written = []
    save = pipeline.save_samples

    def wrapped(samples, path, meta):
        written.append(os.path.relpath(path, tmp_path))
        save(samples, path, meta)

    monkeypatch.setattr(pipeline, "save_samples", wrapped)
    monkeypatch.setattr(_parts, "_usable_cpus", lambda: 1)
    config = ExperimentConfig(alphas=(0.23, 0.53), outdir=str(tmp_path / "run"), **FAST)
    run_pipeline(config)
    pipeline.sample(dataclasses.replace(config, outdir=str(tmp_path / "sample")))
    assert written == [os.path.join(d, f"alpha_{a}", name)
                       for d, name in (("run", "samples.npy"), ("sample", "samples.csv"))
                       for a in (0.23, 0.53)]


def test_pipeline_seed_changes_samples(tmp_path):
    a = run_pipeline(
        ExperimentConfig(alphas=(0.53,), outdir=str(tmp_path / "s1"), seed=1, **FAST)
    )
    b = run_pipeline(
        ExperimentConfig(alphas=(0.53,), outdir=str(tmp_path / "s2"), seed=2, **FAST)
    )
    assert not np.allclose(
        a.records[0].reconstructed.elems, b.records[0].reconstructed.elems
    )


def test_report_contents(tmp_path):
    outdir = str(tmp_path / "rep")
    run_pipeline(ExperimentConfig(alphas=(0.53,), outdir=outdir, **FAST))
    with open(os.path.join(outdir, "report.json")) as fh:
        payload = json.load(fh)
    assert payload["schema_version"] == 1
    assert payload["seed"] == payload["config"]["seed"]
    assert set(payload["versions"]) == {"kerrsim", "numpy"}
    record = payload["records"][0]
    assert record["vacuum_flip_model"] is True
    assert record["vacuum_flip_reconstructed"] is True
    assert record["reconstruction"]["completeness_residual"] <= 1e-6

    # matrices in the report match the standalone JSON files exactly
    rho = load_density_matrix(os.path.join(outdir, "alpha_0.53", "output_reconstructed.json"))
    assert record["reconstructed"]["re"] == rho.elems.real.tolist()


def test_tables_match_json_exactly(tmp_path):
    outdir = str(tmp_path / "tab")
    run_pipeline(ExperimentConfig(alphas=(0.53,), outdir=outdir, **FAST))
    rho = load_density_matrix(os.path.join(outdir, "alpha_0.53", "output_model.json"))
    path = os.path.join(outdir, "alpha_0.53", "tables", "output_model.csv")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        assert header == ["part", "m"] + [str(n) for n in range(8)]
        values = {"re": np.zeros((8, 8)), "im": np.zeros((8, 8))}
        for line in fh:
            cells = line.strip().split(",")
            values[cells[0]][int(cells[1])] = [float(v) for v in cells[2:]]
    assert np.array_equal(values["re"], rho.elems.real)
    assert np.array_equal(values["im"], rho.elems.imag)


def test_vacuum_table_trivial(tmp_path):
    outdir = str(tmp_path / "vac")
    run_pipeline(ExperimentConfig(alphas=(0.0,), outdir=outdir, **FAST))
    rho = load_density_matrix(os.path.join(outdir, "alpha_0", "input_model.json"))
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    assert_allclose(rho.elems.real, expected, atol=1e-12)


def test_pipeline_stage_error_names_stage(tmp_path):
    config = ExperimentConfig(alphas=(3.5,), outdir=str(tmp_path / "big"), **FAST)
    with pytest.raises(StageError) as err:
        run_pipeline(config)
    assert err.value.stage == "forward-model"


def test_klm_compare_rows():
    rows = klm_compare()
    ns = [r for r in rows if r["scheme"] == "ns_gate"]
    vscheme = [r for r in rows if r["scheme"] == "addition_subtraction"]
    assert len(ns) == 12 and len(vscheme) == 6

    by_key = {(r["probe"], r["detector"], r["eta"]): r for r in ns}
    perfect = by_key[("balanced", "pnr", 1.0)]
    assert_allclose(perfect["fidelity"], 1.0, atol=1e-9)
    assert_allclose(perfect["success"], 0.25, atol=1e-9)
    assert by_key[("balanced", "on_off", 1.0)]["fidelity"] < perfect["fidelity"]

    # conditional-superposition fidelity does not depend on herald efficiency
    for probe in ("balanced", "qubit", "two_heavy"):
        fids = {r["fidelity"] for r in vscheme if r["probe"] == probe}
        assert max(fids) - min(fids) <= 1e-12
        assert_allclose(max(fids), 1.0, atol=1e-9)
    weights = [r["success"] for r in vscheme if r["probe"] == "balanced"]
    assert weights[0] > weights[1]  # eta^2 rescaling only


# ---------------------------------------------------------------- CLI ------


def test_cli_solve(capsys):
    assert main(["solve"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert_allclose(payload["ratio"], -3.0 - math.sqrt(2.0), rtol=1e-12)
    assert_allclose(payload["gain"], 1.0 + math.sqrt(2.0), rtol=1e-12)
    assert_allclose(payload["ns_success_probability"], 0.25, atol=1e-9)
    assert len(payload["ns_transmittances"]) == 3


def test_cli_invalid_config_exit_code(tmp_path, capsys):
    assert main(["pipeline", "--mode", "ideal", "--eta", "2.0", "--out", str(tmp_path)]) == 2
    assert "invalid configuration: eta must be in (0, 1], got 2.0" in capsys.readouterr().err
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"max_iterations": 0}))
    assert main(["pipeline", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    config.write_text(json.dumps({"max_iterations": "5"}))
    assert main(["reconstruct", "--config", str(config), "--samples", str(config),
                 "--out", str(tmp_path)]) == 2
    assert "max_iterations" in capsys.readouterr().err
    for command in ("sample", "pipeline"):
        assert main([command, "--seed", "-1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: seed must be non-negative")


def test_cli_config_setting_dilution_is_unknown_field(tmp_path, capsys):
    # the dilution knob of the old R rho R solver is gone; a config that still sets it exits 2
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"dilution": 0.5}))
    assert main(["pipeline", "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: invalid configuration: unknown config fields: ['dilution']\n"
    assert not (tmp_path / "report.json").exists()


def test_cli_config_rejected_before_any_stage(tmp_path, capsys):
    # each of these used to fail inside a stage (exit 3) or overwrite an artifact (exit 0)
    out = str(tmp_path / "out")
    config = tmp_path / "bad.json"
    for payload, message in (
        ({"mode": "custom", "custom_a": [math.nan, 0.0]}, "custom_a must be a finite complex"),
        ({"mode": "custom", "custom_b": [0.0, math.inf]}, "custom_b must be a finite complex"),
        ({"bin_width": 100.0}, "bin_width 100 leaves no bin"),
        ({"x_max": 1.0}, "x_max 1 is too small for recon_dim 8"),
        ({"alphas": 5}, "alphas must be a list"),
        ({"n_phases": 0}, "n_phases must be positive"),
        ({"mode": "custom", "custom_a": 0.0}, "needs a nonzero custom_a or custom_b"),
        ({"bin_width": 1e-14}, "bin_width 1e-14 and x_max 6 give a POVM too large"),
        ({"x_max": 1e12}, "at recon_dim 8"),
    ):
        config.write_text(json.dumps(payload))
        assert main(["pipeline", "--config", str(config), "--out", out]) == 2
        assert message in capsys.readouterr().err
    assert main(["sample", "--alpha", "0.5", "--alpha", "0.5000001", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "alphas 0.5 and 0.5000001 would share the artifact directory" in err
    assert not os.path.exists(out)


def test_cli_overflowing_config_values_exit_2(tmp_path, capsys):
    # each of these but the last grid ended in an OverflowError traceback (exit 1)
    out = str(tmp_path / "out")
    config = tmp_path / "bad.json"
    huge = 10**400  # no float holds it
    for payload, message in (
        ({"eta": huge}, f"eta must be a finite real number, got {huge}"),
        ({"bin_width": huge}, f"bin_width must be a finite real number, got {huge}"),
        ({"alphas": [0.5, huge]}, "alphas must be a list of nonnegative finite reals"),
        ({"custom_a": huge}, f"custom_a must be a finite complex number, got {huge}"),
        ({"custom_b": [0.0, -huge]}, "custom_b must be a finite complex number, got [0.0, -1000"),
        ({"x_max": 1e308}, "bin_width 0.05 and x_max 1e+308 give no finite bin count"),
        ({"bin_width": 1e-320}, "bin_width 9.99989e-321 and x_max 6 give no finite bin count"),
        ({"x_max": 1e200, "bin_width": 1e-200},
         "bin_width 1e-200 and x_max 1e+200 give no finite bin count"),
        # one bin 1e308 wide: its quadrature panel count overflows a float
        ({"x_max": 5e307, "bin_width": 1e308},
         "bin_width 1e+308 and x_max 5e+307 give a POVM too large to hold at recon_dim 8"),
        # a finite count too large for numpy even to describe its array named no field
        ({"x_max": 1e300}, "bin_width 0.05 and x_max 1e+300 give a POVM too large to hold"),
    ):
        config.write_text(json.dumps(payload))
        assert main(["simulate", "--config", str(config), "--out", out]) == 2, payload
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid configuration: "), payload
        assert message in err[0], payload
    # an integer too long for Python to parse, and a file that is not UTF-8
    for text in (b'{"eta": 1' + b"0" * 5000 + b"}", b"\xff\xfe"):
        config.write_bytes(text)
        assert main(["simulate", "--config", str(config), "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: invalid configuration: cannot read "
                                                   f"config file {config}: ")
    assert not os.path.exists(out)
    # a phase count whose shot batch (1.3e20 bytes) cannot be held is refused before any stage
    code = main(["sample", "--alpha", "0.53", "--phases", "1000000000000000", "--out", out])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid configuration: n_phases "
                                               "1000000000000000 and samples_per_phase 16667")
    assert not os.path.exists(os.path.join(out, "alpha_0.53", "samples.csv"))


def test_cli_admits_a_grid_by_arithmetic(tmp_path, capsys):
    # each grid's build_povm needs more than the 2 GiB budget: the POVM stacks of 240 bins
    # at recon_dim 100000 (52 TiB) or 3000 (48 GiB), the complex POVM of 3000 bins at
    # recon_dim 250 (2.8 GiB, a complete grid), a recon_dim no float holds, or the node
    # tables of two bins 1e12 wide (23 PiB); each is refused, by arithmetic, before
    # anything of its size is allocated
    out = str(tmp_path / "out")
    config = tmp_path / "big.json"
    for payload in ({"recon_dim": 100000, "sim_dim": 100000}, {"recon_dim": 3000, "sim_dim": 3000},
                    {"recon_dim": 250, "sim_dim": 250, "x_max": 30.0, "bin_width": 0.02},
                    {"recon_dim": 10**400, "sim_dim": 10**400}, {"x_max": 1e12, "bin_width": 1e12}):
        config.write_text(json.dumps(payload))
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", str(config), "--out", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2, payload
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid configuration: "), payload
        assert "give a POVM too large to hold at recon_dim" in err[0], payload
        assert err[0].endswith("within the 2 GiB budget"), payload
        assert peak < 4 * 2**20, payload
    assert not os.path.exists(out)


def test_cli_admits_sim_dim_by_arithmetic(tmp_path, capsys):
    # the sample stage of sim_dim 10**6 would hold 8 TB of grid tables; it is refused,
    # naming the field, before anything of that size is allocated.  Memory admits sim_dim
    # up to 7078, but the loss channel's binomials pass float64's range from 1031 on, so
    # 1031 and 3000 are refused too, after the memory bound (10**400 never forms one).
    # recon_dim 440 on ten wide bins fits the POVM budget (87 MiB), and sim_dim 1031 is
    # refused before the completeness check builds the grid's node tables
    config = tmp_path / "big.json"
    memory = "gives a lossy state too large to sample within the 2 GiB budget"
    for payload, ending in (
            ({"sim_dim": 10**6}, memory), ({"sim_dim": 10**400}, memory),
            ({"sim_dim": 1031}, "gives a loss binomial, C(1030, 515), too large for float64"),
            ({"sim_dim": 3000}, "gives a loss binomial, C(2999, 1499), too large for float64"),
            ({"recon_dim": 440, "sim_dim": 1031, "x_max": 30.0, "bin_width": 6.0},
             "gives a loss binomial, C(1030, 515), too large for float64")):
        config.write_text(json.dumps(payload))
        tracemalloc.start()
        try:
            code = main(["sample", "--alpha", "0.5", "--config", str(config), "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2, payload
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid configuration: sim_dim "), err
        assert err[0].endswith(ending), err
        assert peak < 4 * 2**20, payload
    assert ExperimentConfig(sim_dim=1030).sim_dim == 1030  # the largest admitted
    assert os.listdir(tmp_path) == ["big.json"]


def test_cli_admits_the_shot_batch_by_arithmetic(tmp_path, capsys):
    # 8 bytes a shot: 12 phases of 22,312,171 shots pass the 2 GiB budget at sim_dim 16,
    # and are refused, naming both fields, before the schedule or any shot is allocated
    config = tmp_path / "big.json"
    for payload in ({"samples_per_phase": 22_312_171}, {"n_phases": 10**15},
                    {"n_phases": 1, "samples_per_phase": 10**400}):
        config.write_text(json.dumps(payload))
        tracemalloc.start()
        try:
            code = main(["sample", "--alpha", "0.5", "--config", str(config), "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2, payload
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid configuration: n_phases "), err
        assert "samples_per_phase" in err[0], err
        assert err[0].endswith("too large to sample at sim_dim 16 within the 2 GiB budget"), err
        assert peak < 4 * 2**20, payload
    assert ExperimentConfig(samples_per_phase=22_312_170).samples_per_phase == 22_312_170
    assert os.listdir(tmp_path) == ["big.json"]


def test_cli_admits_the_povm_at_every_phase_by_arithmetic(tmp_path, capsys):
    # build_povm holds 16 bytes a phase, bin and dim^2: recon_dim 310 at x_max 22.5 fits the
    # budget at one phase, but its 12-phase POVM (15.5 GiB) is refused, naming n_phases,
    # before anything of that size is allocated
    config = tmp_path / "big.json"
    config.write_text(json.dumps({"recon_dim": 310, "sim_dim": 335, "x_max": 22.5}))
    tracemalloc.start()
    try:
        code = main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: invalid configuration: n_phases 12, bin_width 0.05 and x_max 22.5 give a POVM "
        "too large to hold at recon_dim 310 within the 2 GiB budget"]
    assert peak < 4 * 2**20
    assert os.listdir(tmp_path) == ["big.json"]
    assert ExperimentConfig(recon_dim=310, sim_dim=335, x_max=22.5, n_phases=1).n_phases == 1
    # at 12 phases, the default bin width and the smallest complete x_max on a half-unit grid
    assert ExperimentConfig(recon_dim=130, sim_dim=130, x_max=15.0).recon_dim == 130
    with pytest.raises(ConfigError, match=r"^n_phases 12, bin_width 0.05 and x_max 15.5 give"):
        ExperimentConfig(recon_dim=131, sim_dim=131, x_max=15.5)


def test_reconstruct_refuses_a_file_of_too_many_phases(tmp_path, capsys):
    # one shot at each of 9,000 phases: their POVM at the default grid needs more than the
    # budget, which is counted for the phases binned, before the POVM is built
    path = tmp_path / "samples.csv"
    thetas = np.arange(9000) * math.pi / 9000
    homodyne.save_samples(homodyne.SampleBatch(thetas, np.zeros(9000)), path)
    with mock.patch.object(pipeline, "build_povm", side_effect=AssertionError("built")):
        code = main(["reconstruct", "--samples", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot reconstruct from {path}: more than 8662 phases give a "
        "POVM too large to hold at recon_dim 8 within the 2 GiB budget"]


_TOO_MANY = ("error: cannot reconstruct from {path}: more than 10 phases give a POVM too "
             "large to hold at recon_dim 8 within the 2 GiB budget")
_CANNOT_CONVERT = ("error: cannot read samples from {path}: could not convert string 'abc' to "
                   "float64 at data row {row}, column 2.")


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("tail, refusal", [
    (["0.5,abc"], _CANNOT_CONVERT.format(path="{path}", row=201)),
    ([f"{1.0 + i / 128!r},0.25" for i in range(100)], _TOO_MANY)],
    ids=["bad-row", "more-phases"])
def test_reconstruct_refuses_too_many_phases_alike_at_any_worker_count(cpus, tail, refusal,
                                                                       tmp_path, capsys):
    # 100 one-row phases and 100 rows of one phase, then a bad row or 100 more phases, with
    # 10 phases admitted: every range is parsed to its end, the full ones too, so the bad
    # row is the error, and otherwise the refusal names the admitted count, at 1 and 3 CPUs
    rows = [f"{i / 128!r},0.25" for i in range(100)] + ["2.0,0.5"] * 100 + tail
    path = tmp_path / "samples.csv"
    path.write_text("theta,x\r\n" + "\r\n".join(rows) + "\r\n", newline="")
    with _workers(cpus), mock.patch.object(homodyne, "_CSV_SLICE_BYTES", 16), \
            mock.patch.object(pipeline, "_admitted_phases", return_value=10), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        code = main(["reconstruct", "--samples", str(path), "--out", str(tmp_path / "out")])
    assert (code, fork.call_count) == (2, cpus - 1)
    assert capsys.readouterr().err.splitlines() == [refusal.format(path=path)]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("bad, refusal", [
    ("1.0,abc", _CANNOT_CONVERT.format(path="{path}", row=65)),
    ("1.0,nan", "error: cannot read samples from {path}: non-finite theta or x in data row 65"),
    ("1.0,0.5", _TOO_MANY)], ids=["text", "nan", "none"])
def test_reconstruct_refusal_order_does_not_depend_on_the_worker_count(cpus, bad, refusal,
                                                                       tmp_path, capsys):
    # 11 one-row phases past the 10 admitted end the first half of the body, and the second
    # half's fourth row is bad; one process parses it in the same piece as the phases, two
    # in the second range, after the full first one.  Either way a row that cannot be
    # parsed is the error, then a non-finite row, then too many phases
    first = ["0.0,0.25"] * 50 + [f"{1.0 + i / 128!r},0.25" for i in range(11)]
    second = ["0.0,0.5"] * 3 + [bad] + ["0.0,0.5"] * 68
    path = tmp_path / "samples.csv"
    text = "theta,x\r\n" + "\r\n".join(first + second) + "\r\n"
    path.write_text(text, newline="")
    with _workers(cpus), mock.patch.object(pipeline, "_admitted_phases", return_value=10), \
            mock.patch.object(homodyne, "_CSV_SLICE_BYTES", 2**18):
        offsets = homodyne._csv_ranges(str(path), len("theta,x\r\n"))
        assert len(offsets) == cpus + 1
        if cpus == 2:  # the second range holds the bad row, and none of the first's phases
            assert text.index("0.0,0.5") <= offsets[1] <= text.index(bad)
        code = main(["reconstruct", "--samples", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [refusal.format(path=path)]


def test_reconstruct_refuses_a_npy_of_too_many_phases_before_binning_them(tmp_path, capsys):
    # one shot at each of 100,000 phases; the default grid's POVM budget admits 8,662, so the
    # read stops after the first 65,536-row chunk, before any histogram of its phases exists,
    # and names the count admitted (a 1.6 MB file that once peaked at 396 MB)
    tomo = ExperimentConfig().tomography()
    most = pipeline._admitted_phases(tomo)
    assert most == 8662
    assert pipeline._povm_peak_bytes(tomo, most) <= pipeline._BUDGET
    assert pipeline._povm_peak_bytes(tomo, most + 1) > pipeline._BUDGET
    n = 100_000
    path = tmp_path / "samples.npy"
    homodyne.save_samples(homodyne.SampleBatch(np.arange(n) * math.pi / n, np.zeros(n)), path)
    args = ["reconstruct", "--samples", str(path), "--out", str(tmp_path / "out")]
    assert main(args) == 2  # first-call imports outside the count
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot reconstruct from {path}: more than 8662 phases "
        "give a POVM too large to hold at recon_dim 8 within the 2 GiB budget"]
    assert peak < 4 * 2**20
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("phases, shots", [(1, 50), (3, 23)])
def test_sample_csv_is_the_sampled_batch_csv_for_any_worker_count(cpus, phases, shots, tmp_path):
    # each process draws the rows it writes, from its phases' streams moved to its first row;
    # 7-shot chunks give a worker to so few rows, and the range edges fall inside a phase,
    # off the four draws of a Philox step (rows 25; 16 and 33 of one phase of 50)
    args = ["--alpha", "0.53", "--phases", str(phases), "--samples-per-phase", str(shots),
            "--seed", "4242"]
    config = ExperimentConfig(alphas=(0.53,), n_phases=phases, samples_per_phase=shots, seed=4242)
    expected = tmp_path / "expected.csv"
    homodyne.save_samples(pipeline._sample(config, 0, 0.53)[0], expected)
    with mock.patch.object(_parts, "_usable_cpus", return_value=cpus), \
            mock.patch.object(homodyne, "_CHUNK_SHOTS", 7), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        assert main(["sample", *args, "--out", str(tmp_path / "out")]) == 0
    assert fork.call_count == cpus - 1
    written = tmp_path / "out" / "alpha_0.53" / "samples.csv"
    assert written.read_bytes() == expected.read_bytes()
    assert json.loads(written.with_name("samples_meta.json").read_text())["count"] == phases * shots


@pytest.mark.parametrize("cpus", [1, 2])
def test_sample_tabulates_each_phase_cdf_once(cpus, tmp_path):
    # the sample stage's CDFs stay on the sampler and the writers, forked after it, draw from
    # them: with 1000-shot chunks the first range, which this process writes, spans two
    # phases; a phase of as many shots as grid points keeps its CDF within its x column
    config = ExperimentConfig(alphas=(0.53,), n_phases=3, samples_per_phase=1201, seed=4242,
                              outdir=str(tmp_path))
    with mock.patch.object(_parts, "_usable_cpus", return_value=cpus), \
            mock.patch.object(homodyne, "_CHUNK_SHOTS", 1000), \
            mock.patch.object(homodyne, "_pdf", wraps=homodyne._pdf) as pdf, \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        assert pipeline.sample(config) == [3603]
    assert fork.call_count == cpus - 1
    assert pdf.call_count == config.n_phases


@pytest.mark.parametrize("n_phases, samples_per_phase, kept", [(12, 16667, 12), (600, 1, 0),
                                                               (5, 1201, 5), (5, 1200, 4)])
def test_sampler_keeps_cdfs_within_the_x_column(n_phases, samples_per_phase, kept):
    # keep_cdfs holds no more than the 8 bytes a shot that the sample path never holds, so
    # a schedule of many short phases is not admitted past its budget by them
    shots = homodyne._Shots(density_from_pure(basis_state(0, 4)),
                            homodyne.default_schedule(1, n_phases, samples_per_phase), 0.66)
    with mock.patch.object(homodyne, "_pdf", wraps=homodyne._pdf) as pdf:
        shots.keep_cdfs()
    assert pdf.call_count == n_phases and len(shots.kept) == kept
    assert sum(cdf.nbytes for cdf in shots.kept.values()) <= 8 * n_phases * samples_per_phase
    for index, cdf in shots.kept.items():
        assert shots.cdf(index) is cdf


_ON_EDGES = ExperimentConfig().tomography().bin_edges()


@settings(max_examples=30, deadline=None)
@given(
    runs=st.lists(st.tuples(st.sampled_from((0.0, -0.0, 0.5, 1.5, math.pi)), st.integers(1, 9)),
                  min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    interleaved=st.booleans(),
    suffix=st.sampled_from([".csv", ".npy"]),
    cpus=st.integers(1, 3),
    chunk=st.integers(1, 5),
    slice_bytes=st.integers(8, 200),
)
def test_reconstruct_file_bins_as_bin_samples_of_the_loaded_batch(
        runs, seed, interleaved, suffix, cpus, chunk, slice_bytes, tmp_path_factory):
    # each range bins its rows as it parses them, and the ranges' counts are added up by
    # theta; runs that repeat a theta, interleaved phases, 0.0 beside -0.0, values on and
    # beside every bin edge and far outside the grid, in ranges and slices of any size
    rng = np.random.default_rng(seed)
    thetas = np.repeat([t for t, _ in runs], [count for _, count in runs])
    if interleaved:
        thetas = rng.permutation(thetas)
    pool = np.concatenate([_ON_EDGES, np.nextafter(_ON_EDGES, -np.inf),
                           np.nextafter(_ON_EDGES, np.inf), [-1e300, 1e300], 4 * rng.normal(size=20)])
    path = tmp_path_factory.mktemp("samples") / f"samples{suffix}"
    homodyne.save_samples(homodyne.SampleBatch(thetas, rng.choice(pool, thetas.size)), path)
    config = ExperimentConfig(max_iterations=5, outdir=str(path.parent / "out"))
    reference = bin_samples(homodyne.load_samples(path)[0], config.tomography())
    binned = []
    reconstruct = pipeline._reconstruct

    def recorded(alpha, data, tomo, povm):
        binned.append(data)
        return reconstruct(alpha, data, tomo, povm)

    with mock.patch.object(_parts, "_usable_cpus", return_value=cpus), \
            mock.patch.object(homodyne, "_CHUNK_SHOTS", chunk), \
            mock.patch.object(homodyne, "_CSV_SLICE_BYTES", slice_bytes), \
            mock.patch.object(pipeline, "_reconstruct", recorded):
        if reference.total == 0:
            with pytest.raises(ConfigError, match="none inside"):
                pipeline.reconstruct_file(config, str(path))
            return
        pipeline.reconstruct_file(config, str(path))
    assert np.array_equal(binned[0].thetas, reference.thetas)
    assert np.array_equal(binned[0].counts, reference.counts)
    assert binned[0].out_of_range == reference.out_of_range


def test_sample_and_reconstruct_memory_does_not_grow_with_the_shots(tmp_path):
    # no shot column: one process draws and writes, then parses and bins, every row, and
    # both peak below the 8 MB x column of the larger file at 250,000 and 1,000,000 shots
    base = ExperimentConfig(alphas=(0.53,), max_iterations=50, outdir=str(tmp_path))
    path = str(tmp_path / "alpha_0.53" / "samples.csv")
    peaks = []
    with mock.patch.object(_parts, "_usable_cpus", return_value=1):
        pipeline.sample(dataclasses.replace(base, n_phases=2, samples_per_phase=10))  # imports
        pipeline.reconstruct_file(base, path)
        for shots in (250_000, 1_000_000):
            config = dataclasses.replace(base, samples_per_phase=shots // 12)
            for run in (pipeline.sample, functools.partial(pipeline.reconstruct_file, path=path)):
                tracemalloc.start()
                try:
                    run(config)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
    assert max(peaks) < 8 * 1_000_000, peaks


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("row", [1, 2])
@pytest.mark.parametrize("bad, error", [
    ("0.0,abc", "could not convert string 'abc' to float64 at data row {row}, column 2."),
    ("0.0,nan", "non-finite theta or x in data row {row}")], ids=["text", "nan"])
def test_sample_file_errors_name_the_data_row(cpus, row, bad, error, tmp_path, capsys):
    # a value that is not a number and a NaN are named by the same 1-based data row, header
    # excluded, whether one process or three parse the file, and by both readers
    rows = [f"{i * 0.25!r},{i / 7!r}" for i in range(60)]
    rows[row - 1] = bad
    path = tmp_path / "samples.csv"
    path.write_text("theta,x\r\n" + "\r\n".join(rows) + "\r\n", newline="")
    expected = error.format(row=row)
    with _workers(cpus), mock.patch.object(homodyne, "_CSV_SLICE_BYTES", 16):
        with pytest.raises(ValueError) as exc:
            homodyne.load_samples(path)
        assert str(exc.value) == expected
        assert main(["reconstruct", "--samples", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read samples from {path}: {expected}\n")


def test_python_m_kerrsim_runs_the_command_line():
    # python -m kerrsim from a source checkout, as the kerrsim script
    env = {**os.environ, "PYTHONPATH": str(Path(kerrsim.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-m", "kerrsim", "solve"], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["ns_success_probability"] > 0


def test_sample_holds_one_amplitude_at_a_time(tmp_path):
    # each amplitude's batch is let go after its emit: what sample returns is the counts
    config = ExperimentConfig(samples_per_phase=5000, outdir=str(tmp_path / "run"))
    pipeline.sample(dataclasses.replace(config, n_phases=2, samples_per_phase=10))  # imports
    tracemalloc.start()
    try:
        counts = pipeline.sample(config)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert counts == [12 * 5000] * 3
    assert held < 8 * 12 * 5000  # one amplitude's x column


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sample_csv_failure_is_the_same_for_any_worker_count(cpus, tmp_path, capsys,
                                                             monkeypatch):
    # rows 0..240,000 in 1, 2 or 3 ranges; the range that reaches row 200,000 fails, here or
    # in a child, and the failure is reported as one process reports it
    write_rows = homodyne._write_rows

    def failing(shots, lo, hi, fh):
        if hi > 200_000:
            raise ValueError("cannot format row 200000")
        write_rows(shots, lo, hi, fh)

    monkeypatch.setattr(homodyne, "_write_rows", failing)
    monkeypatch.setattr(_parts, "_usable_cpus", lambda: cpus)
    out = tmp_path / "out"
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        code = main(["sample", "--alpha", "0.53", "--samples-per-phase", "20000", "--out",
                     str(out)])
    assert (code, fork.call_count) == (3, cpus - 1)
    assert capsys.readouterr().err == "error: stage 'emit': cannot format row 200000\n"
    assert os.listdir(out / "alpha_0.53") == []


def test_cli_huge_amplitude_fails_in_forward_model(tmp_path, capsys):
    # alpha 1e25 gave NaN matrices and exit 0 (simulate) or blamed reconstruct (pipeline)
    for command in ("simulate", "pipeline"):
        out = tmp_path / command
        assert main([command, "--alpha", "1e25", "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: stage 'forward-model': "), err
        assert not list(tmp_path.rglob("*.json")) and not list(tmp_path.rglob("*.csv"))


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    code = main(
        ["simulate", "--alpha", "9.0", "--out", str(tmp_path / "x"), "--mode", "ideal"]
    )
    assert code == 3
    assert "forward-model" in capsys.readouterr().err


def test_cli_simulate_sample_reconstruct(tmp_path, capsys):
    out = str(tmp_path / "chain")
    base = ["--alpha", "0.53", "--phases", "6", "--samples-per-phase", "2000", "--out", out]
    assert main(["simulate"] + base) == 0
    assert os.path.exists(os.path.join(out, "alpha_0.53", "output_model.json"))

    assert main(["sample"] + base) == 0
    samples = os.path.join(out, "alpha_0.53", "samples.csv")
    assert os.path.exists(samples)
    with open(os.path.join(out, "alpha_0.53", "samples_meta.json")) as fh:
        meta = json.load(fh)
    assert meta["count"] == 12000 and "seed" in meta

    assert main(["reconstruct", "--samples", samples] + base) == 0
    rho = load_density_matrix(os.path.join(out, "reconstructed.json"))
    model = load_density_matrix(os.path.join(out, "alpha_0.53", "output_model.json"))
    assert fidelity(rho, model) >= 0.9
    capsys.readouterr()


def test_cli_config_file_and_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "alphas": [0.23],
                "mode": "ideal",
                "n_phases": 6,
                "samples_per_phase": 1500,
                "max_iterations": 200,
                "outdir": str(tmp_path / "from_file"),
            }
        )
    )
    override = str(tmp_path / "override")
    assert main(["pipeline", "--config", str(cfg_path), "--out", override, "--seed", "4"]) == 0
    with open(os.path.join(override, "report.json")) as fh:
        payload = json.load(fh)
    assert payload["config"]["outdir"] == override
    assert payload["config"]["seed"] == 4
    assert payload["config"]["samples_per_phase"] == 1500
    capsys.readouterr()


def test_cli_reconstruct_missing_samples(tmp_path, capsys):
    code = main(["reconstruct", "--samples", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert code == 2
    assert "cannot read samples" in capsys.readouterr().err
    # a header-only file, and one whose values all lie outside +-x_max
    for name, rows in (("empty.csv", ""), ("far.csv", "0.0,9.0\r\n0.5,-7.5\r\n")):
        path = tmp_path / name
        path.write_text("theta,x\r\n" + rows)
        assert main(["reconstruct", "--samples", str(path), "--out", str(tmp_path)]) == 2
        assert f"cannot reconstruct from {path}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "reconstructed.json")
    # a NaN or infinite value makes the file unusable, not an out-of-range sample
    for name, row in (("nan.csv", "nan,0.1"), ("inf.csv", "0.5,-inf")):
        path = tmp_path / name
        path.write_text(f"theta,x\r\n0.0,0.2\r\n{row}\r\n")
        assert main(["reconstruct", "--samples", str(path), "--out", str(tmp_path)]) == 2
        assert f"cannot read samples from {path}: non-finite" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "reconstructed.json")
    # an unusable .npy: unreadable, not the (N, 2) float64 array, or holding NaN or inf
    def saved(array, save=np.save):
        buf = io.BytesIO()
        save(buf, array, allow_pickle=True)
        return buf.getvalue()

    good = tmp_path / "good.npy"
    good.write_bytes(saved(np.array([[0.0, 0.2], [0.5, -0.1]])))
    raw = good.read_bytes()
    bad = {"empty.npy": b"", "header.npy": raw[:20], "body.npy": raw[:-8],
           "object.npy": saved(np.array([[0.0, "x"]], dtype=object)),
           "int32.npy": saved(np.array([[0, 1], [1, 2]], dtype=np.int32)),
           "three.npy": saved(np.zeros((2, 3))), "flat.npy": saved(np.zeros(4)),
           "swapped.npy": saved(np.zeros((3, 2), np.dtype(np.float64).newbyteorder())),
           "zip.npy": saved(np.zeros((2, 2)), save=np.savez),
           "nan.npy": saved(np.array([[0.0, 0.2], [math.nan, 0.1]])),
           "inf.npy": saved(np.array([[0.0, 0.2], [0.5, -math.inf]]))}
    errors = {}
    for name, data in bad.items():
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["reconstruct", "--samples", str(path), "--out", str(tmp_path)]) == 2, name
        errors[name] = capsys.readouterr().err
        assert f"cannot read samples from {path}: " in errors[name], name
        assert not os.path.exists(tmp_path / "reconstructed.json")
    # float64 in the other byte order is refused by a message that names both orders
    native = np.dtype(np.float64)
    assert (f": expected an (N, 2) float64 array in native byte order ({native.str!r}), got "
            f"{native.newbyteorder().str!r} of shape (3, 2)\n") in errors["swapped.npy"]
    # a usable file whose sidecar is unusable: not a JSON object, not JSON, not UTF-8,
    # nested too deep to parse, or an eta that is not a number in (0, 1]
    sidecar = tmp_path / "good_meta.json"
    etas = ("0.66", True, False, [0.66], 0, 1.5, -0.5, None, math.nan, math.inf)
    for text in (b"[1, 2]", b'{"eta": 0.66', b"\xff\xfe", b"[" * 100000,
                 *(json.dumps({"eta": eta}).encode() for eta in etas)):
        sidecar.write_bytes(text)
        assert main(["reconstruct", "--samples", str(good), "--out", str(tmp_path)]) == 2, text[:40]
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read samples from {good}: "
                              f"sidecar {sidecar} "), text[:40]
        assert len(err.splitlines()) == 1, text[:40]
        assert not os.path.exists(tmp_path / "reconstructed.json")


def test_cli_npy_ignores_the_sidecar_of_a_later_csv(tmp_path, capsys):
    # pipeline's samples.npy and sample's samples.csv share samples_meta.json
    out = str(tmp_path / "run")
    assert main(["pipeline", *SMALL, "--out", out]) == 0
    assert main(["sample", *SMALL, "--eta", "0.95", "--samples-per-phase", "100",
                 "--out", out]) == 0
    meta = json.loads(Path(out, "alpha_0.53", "samples_meta.json").read_text())
    assert (meta["file"], meta["count"], meta["eta"]) == ("samples.csv", 300, 0.95)
    capsys.readouterr()
    recon = str(tmp_path / "recon")
    samples = os.path.join(out, "alpha_0.53", "samples.npy")
    assert main(["reconstruct", *SMALL, "--samples", samples, "--out", recon]) == 0
    # no false eta=0.95 warning: the .npy's efficiency is unknown, said once
    assert capsys.readouterr().err.splitlines() == [f"warning: {samples}: {UNKNOWN_ETA}"]
    assert (Path(recon, "reconstructed.json").read_bytes()
            == Path(out, "alpha_0.53", "output_reconstructed.json").read_bytes())
    mine, theirs = (json.loads(Path(root, "reconstruction_diag.json").read_text())
                    for root in (recon, os.path.join(out, "alpha_0.53")))
    assert mine.pop("warnings") == theirs.pop("warnings") + [UNKNOWN_ETA]
    assert mine == theirs


def test_cli_reconstruct_takes_eta_only_from_its_own_sidecar(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert main(["sample", *SMALL, "--out", data]) == 0
    samples = os.path.join(data, "alpha_0.53", "samples.csv")
    meta_path = Path(data, "alpha_0.53", "samples_meta.json")
    meta = json.loads(meta_path.read_text())
    capsys.readouterr()
    # the seed is provenance that reconstruction does not read, so a null one is no problem;
    # a sidecar that names another file describes nothing here, whatever its eta
    for case, sidecar, warned in (
        ("recorded", meta, False),
        ("null-seed", {**meta, "seed": None}, False),
        ("no-eta", {k: v for k, v in meta.items() if k != "eta"}, True),
        ("foreign", {**meta, "file": "samples.npy", "eta": "0.66"}, True),
        ("missing", None, True),
    ):
        if sidecar is None:
            meta_path.unlink()
        else:
            meta_path.write_text(json.dumps(sidecar))
        out = str(tmp_path / case)
        assert main(["reconstruct", *SMALL, "--samples", samples, "--out", out]) == 0, case
        expected = [UNKNOWN_ETA] if warned else []
        assert capsys.readouterr().err.splitlines() == [f"warning: {samples}: {w}" for w in expected]
        assert json.loads(Path(out, "reconstruction_diag.json").read_text())["warnings"] == expected


def test_cli_reconstruct_ignores_a_sidecar_whose_count_is_stale(tmp_path, capsys):
    # rows appended after sample wrote the sidecar: its count, and so its eta, are stale
    data = str(tmp_path / "data")
    assert main(["sample", *SMALL, "--out", data]) == 0
    samples = os.path.join(data, "alpha_0.53", "samples.csv")
    with open(samples, "a", newline="") as fh:
        fh.write("0.0,0.25\r\n1.0471975511965976,-0.5\r\n")
    capsys.readouterr()
    out = str(tmp_path / "recon")
    assert main(["reconstruct", *SMALL, "--samples", samples, "--out", out]) == 0
    assert capsys.readouterr().err.splitlines() == [f"warning: {samples}: {UNKNOWN_ETA}"]
    assert json.loads(Path(out, "reconstruction_diag.json").read_text())["warnings"] == [
        UNKNOWN_ETA]


def test_sidecar_seed_is_the_schedule_seed(tmp_path, capsys):
    # each alpha's sidecar records the seed its schedule drew from: config.seed + index
    flags = ["--alpha", "0.53", "--alpha", "0", "--alpha", "0.23", "--phases", "6",
             "--samples-per-phase", "2000", "--seed", "7"]
    for command, name in (("pipeline", "samples.npy"), ("sample", "samples.csv")):
        out = tmp_path / command
        assert main([command, *flags, "--out", str(out)]) == 0
        for index, alpha in enumerate(("0.53", "0", "0.23")):
            meta = json.loads((out / f"alpha_{alpha}" / "samples_meta.json").read_text())
            assert (meta["file"], meta["seed"]) == (name, 7 + index), (command, alpha)
    capsys.readouterr()


def test_cli_prints_reconstruction_warnings(tmp_path, capsys):
    config = tmp_path / "capped.json"
    config.write_text(json.dumps({"alphas": [0.53], "n_phases": 6,
                                  "samples_per_phase": 2000, "max_iterations": 5}))
    out = str(tmp_path / "capped")
    capped = "no convergence after 5 iterations; best iterate returned"
    assert main(["pipeline", "--config", str(config), "--out", out]) == 0
    assert capsys.readouterr().err.splitlines() == [f"warning: alpha=0.53: {capped}"]
    samples = os.path.join(out, "alpha_0.53", "samples.npy")
    assert main(["reconstruct", "--config", str(config), "--samples", samples,
                 "--out", out]) == 0
    assert capsys.readouterr().err.splitlines() == [f"warning: {samples}: {capped}"]


def test_cli_reconstruct_reports_convergence_and_eta_mismatch(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert main(["sample", *SMALL, "--eta", "0.95", "--out", data]) == 0
    samples = os.path.join(data, "alpha_0.53", "samples.csv")
    capsys.readouterr()

    out = str(tmp_path / "default_eta")
    assert main(["reconstruct", *SMALL, "--samples", samples, "--out", out]) == 0
    captured = capsys.readouterr()
    mismatch = "samples were recorded at eta=0.95 but reconstructed with eta=0.66"
    diag = json.loads(Path(out, "reconstruction_diag.json").read_text())
    assert mismatch in diag["warnings"]
    assert f"warning: {samples}: {mismatch}" in captured.err.splitlines()
    assert captured.out.splitlines()[-1].endswith(
        f"({diag['iterations']} iterations, converged={diag['converged']}, "
        f"ml_gap={diag['ml_gap_nats']:.3g} nats)")

    out = str(tmp_path / "same_eta")
    assert main(["reconstruct", *SMALL, "--eta", "0.95", "--samples", samples, "--out", out]) == 0
    assert "recorded at eta" not in capsys.readouterr().err
    assert not [w for w in json.loads(Path(out, "reconstruction_diag.json").read_text())["warnings"]
                if "recorded at eta" in w]


def test_cli_steps_write_the_pipeline_artifacts(tmp_path, capsys):
    config = tmp_path / "fast.json"
    config.write_text(json.dumps({"alphas": [0.53, 0.0], "n_phases": 6, "seed": 7,
                                  "samples_per_phase": 2000, "max_iterations": 300}))
    full, steps = str(tmp_path / "full"), str(tmp_path / "steps")
    assert main(["pipeline", "--config", str(config), "--out", full]) == 0
    for command in ("simulate", "sample"):
        assert main([command, "--config", str(config), "--out", steps]) == 0
    capsys.readouterr()
    for alpha in ("alpha_0.53", "alpha_0"):
        for name in ("output_model.json", os.path.join("tables", "output_model.csv")):
            rel = os.path.join(alpha, name)
            assert Path(full, rel).read_bytes() == Path(steps, rel).read_bytes(), rel
        # the pipeline keeps its samples as .npy, sample exports CSV: the same float64 bits
        kept = np.load(Path(full, alpha, "samples.npy"), allow_pickle=False)
        exported = np.loadtxt(Path(steps, alpha, "samples.csv"), delimiter=",", skiprows=1,
                              ndmin=2)
        assert kept.dtype == np.float64 and kept.shape == exported.shape
        assert np.array_equal(kept.view(np.int64), exported.view(np.int64)), alpha
        kept_meta, exported_meta = (json.loads(Path(root, alpha, "samples_meta.json").read_text())
                                    for root in (full, steps))
        assert (kept_meta.pop("file"), exported_meta.pop("file")) == ("samples.npy", "samples.csv")
        assert kept_meta == exported_meta

    # reconstructing either file gives the pipeline's reconstruction files
    for alpha in ("alpha_0.53", "alpha_0"):
        for samples in (Path(full, alpha, "samples.npy"), Path(steps, alpha, "samples.csv")):
            recon = str(tmp_path / "recon" / alpha / samples.suffix[1:])
            assert main(["reconstruct", "--config", str(config), "--out", recon,
                         "--samples", str(samples)]) == 0
            for mine, theirs in (("reconstructed.json", "output_reconstructed.json"),
                                 ("reconstruction_diag.json", "reconstruction_diag.json")):
                assert Path(recon, mine).read_bytes() == Path(full, alpha, theirs).read_bytes()
    capsys.readouterr()

    # one serializer for the reconstruction diagnostics
    report = json.loads(Path(full, "report.json").read_text())
    for record in report["records"]:
        diag = json.loads(Path(full, f"alpha_{record['alpha']:g}",
                               "reconstruction_diag.json").read_text())
        del diag["schema_version"], diag["out_of_range"]
        assert record["reconstruction"] == diag

    # the benchmark's tracer wraps these module attributes by name
    tracing_path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", tracing_path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.WRAP_POINTS:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_public_names_resolve():
    # a stale __all__ entry would only surface in a star import; the package's
    # own re-exports are named imports, which fail when kerrsim is imported
    package = Path(kerrsim.__file__).parent
    modules = [kerrsim] + [importlib.import_module(f"kerrsim.{path.stem}")
                           for path in sorted(package.glob("*.py")) if path.stem != "__init__"]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_atomic_write_json(tmp_path):
    path = tmp_path / "artifact.json"
    write_json(path, {"value": 1})
    first = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(path, {"value": object()})
    assert path.read_bytes() == first
    assert list(tmp_path.iterdir()) == [path]
    write_json(path, {"value": 2})
    write_json(path, {"value": 3})
    assert json.loads(path.read_text()) == {"value": 3}
    umask = os.umask(0o022)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_atomic_open_binary(tmp_path):
    path = tmp_path / "artifact.bin"
    with atomic_open(path, binary=True) as fh:
        fh.write(b"\x93first")
    with pytest.raises(RuntimeError), atomic_open(path, binary=True) as fh:
        fh.write(b"partial")
        raise RuntimeError("interrupted")
    assert path.read_bytes() == b"\x93first"
    assert list(tmp_path.iterdir()) == [path]


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; the command line must not pull it in
    env = {**os.environ, "PYTHONPATH": str(Path(kerrsim.__file__).resolve().parents[1])}
    code = "import sys, kerrsim.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_cli_import_leaves_process_pools_unloaded():
    # the CSV workers are plain forks; a pool module would add to every command's start-up
    env = {**os.environ, "PYTHONPATH": str(Path(kerrsim.__file__).resolve().parents[1])}
    code = ("import sys, kerrsim.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'multiprocessing', 'concurrent'}))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_config_accepts_scalar_complex():
    config = ExperimentConfig.from_dict({"mode": "custom", "custom_a": 1.0, "custom_b": [0.0, 2.0]})
    assert config.custom_a == 1.0 + 0.0j
    assert config.custom_b == 2.0j


def test_cli_klm(tmp_path, capsys):
    out = str(tmp_path / "klm")
    assert main(["klm", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "klm_table.csv"))
    with open(os.path.join(out, "klm_table.json")) as fh:
        payload = json.load(fh)
    assert payload["schema_version"] == 1
    stdout = capsys.readouterr().out
    assert "ns_gate" in stdout
    # the CSV and the JSON hold the same table: one header, the same cells in column order
    with open(os.path.join(out, "klm_table.csv")) as fh:
        header, *lines = fh.read().splitlines()
    columns = header.split(",")
    assert columns == ["probe", "scheme", "detector", "eta", "fidelity", "success"]
    assert len(lines) == len(payload["rows"])
    for line, row in zip(lines, payload["rows"]):
        assert sorted(row) == sorted(columns)
        values = [row[k] for k in columns]
        assert line.split(",") == [repr(v) if isinstance(v, float) else v for v in values]
    assert payload["rows"][-1]["scheme"] == "ns_gate_settings"
    assert lines[-1].split(",")[3:5] == ["nan", "nan"]


SMALL = ["--alpha", "0.53", "--phases", "3", "--samples-per-phase", "200"]


@pytest.mark.parametrize("command", ["pipeline", "simulate", "sample", "reconstruct", "klm"])
def test_cli_unwritable_output_exit_code(tmp_path, capsys, command):
    extra = []
    if command == "reconstruct":
        assert main(["sample", *SMALL, "--out", str(tmp_path / "data")]) == 0
        extra = ["--samples", str(tmp_path / "data" / "alpha_0.53" / "samples.csv")]
    blocker = tmp_path / "plain_file"
    blocker.write_text("")
    out = str(blocker / "sub")
    capsys.readouterr()
    assert main([command, *SMALL, *extra, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write output: ")
    assert out in err[0]


def test_cli_emit_failure_names_the_stage(tmp_path, capsys, monkeypatch):
    # a failure while writing artifacts that is not an OSError is a failure of the emit stage
    def fail(*args, **kwargs):
        raise ValueError("not serialisable")

    monkeypatch.setattr(pipeline, "write_json", fail)
    assert main(["simulate", *SMALL, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.splitlines() == ["error: stage 'emit': not serialisable"]


# custom_a = 0 makes the operator's vacuum entry a*(0+1) + b*0 zero: vacuum in, zero out
_ZERO_OUTPUT = {"mode": "custom", "custom_a": 0, "custom_b": 1, "alphas": [0]}


@pytest.mark.parametrize("command", ["simulate", "sample", "pipeline"])
def test_cli_zero_output_state_exits_3_in_forward_model(tmp_path, capsys, command):
    config = tmp_path / "zero.json"
    config.write_text(json.dumps(_ZERO_OUTPUT))
    with pytest.warns(UserWarning, match="conditional output weight"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: stage 'forward-model': zero-norm state has no density matrix"]


_WEIGHTS = st.sampled_from((0.0, 1.0, -1.0, 1e-9, 3.0, -3.0 - math.sqrt(2.0)))


# the warning would otherwise become the exception, hiding the path the CLI takes
@pytest.mark.filterwarnings("ignore:conditional output weight:UserWarning")
@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["simulate", "sample", "pipeline"]),
    mode=st.sampled_from(MODES),
    custom_a=_WEIGHTS,
    custom_b=_WEIGHTS,
    alphas=st.lists(st.sampled_from((0.0, 0.1, 0.53, 1.2, 2.5)), min_size=1, max_size=3,
                    unique=True),
    eta=st.sampled_from((0.3, 0.66, 1.0)),
)
def test_cli_valid_config_never_raises(tmp_path_factory, command, mode, custom_a, custom_b,
                                       alphas, eta):
    # every failure of a run is an exit code, 2 for the config and 3 for a stage
    tmp = tmp_path_factory.mktemp("run")
    config = tmp / "config.json"
    config.write_text(json.dumps({
        "mode": mode, "custom_a": custom_a, "custom_b": custom_b, "alphas": alphas, "eta": eta,
        "n_phases": 3, "samples_per_phase": 100,
    }))
    assert main([command, "--config", str(config), "--out", str(tmp / "out")]) in (0, 2, 3)


_PER_ALPHA = ("forward-model", "truncate", "sample", "bin", "reconstruct", "validate", "compare",
              "emit")
VERBOSE_STAGES = {
    # one POVM for the schedule's phases serves every amplitude
    "pipeline": [("povm", None), *[(stage, alpha) for alpha in ("0.53", "0.23") for stage in _PER_ALPHA],
                 ("emit", None)],
    "simulate": [*[(stage, alpha) for alpha in ("0.53", "0.23")
                   for stage in ("forward-model", "truncate", "emit")],
                 ("emit", None)],
    # inside emit and load, one line names the CSV's rows and worker processes
    "sample": [(stage, None if stage == "csv written" else alpha) for alpha in ("0.53", "0.23")
               for stage in ("forward-model", "truncate", "sample", "csv written", "emit")],
    "reconstruct": [(stage, None) for stage in ("csv read", "load", "bin", "povm", "reconstruct",
                                                "emit")],
    "klm": [("klm", None), ("emit", None)],
}


@pytest.mark.parametrize("command", list(VERBOSE_STAGES))
def test_cli_verbose_logs_stage_timings(tmp_path, capsys, caplog, command):
    extra = []
    if command == "reconstruct":
        assert main(["sample", *SMALL, "--out", str(tmp_path / "data")]) == 0
        extra = ["--samples", str(tmp_path / "data" / "alpha_0.53" / "samples.csv")]
    out = Path(tmp_path, "run")
    args = [command, *SMALL, "--alpha", "0.23", *extra, "--out", str(out)]

    def artifacts():
        return {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    assert main(args) == 0
    quiet = artifacts()
    assert not [r for r in caplog.records if r.name == "kerrsim"]
    assert "kerrsim:" not in capsys.readouterr().err

    assert main(["--verbose", *args]) == 0
    assert artifacts() == quiet
    lines = [r.getMessage() for r in caplog.records if r.name == "kerrsim"]
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"kerrsim: {line}" for line in lines]

    # after each reconstruct stage, one line with the convergence its artifact records
    diags = {}
    if command == "pipeline":
        report = json.loads(Path(out, "report.json").read_text())
        diags = {f"{r['alpha']:g}": r["reconstruction"] for r in report["records"]}
        printed = [line for line in captured.out.splitlines() if line.startswith("alpha=")]
        assert [re.search(r" ml_gap=(\S+) nats ", line)[1] for line in printed] == [
            f"{diag['ml_gap_nats']:.3g}" for diag in diags.values()]
    elif command == "reconstruct":
        diags = {None: json.loads(Path(out, "reconstruction_diag.json").read_text())}
    logged, expected = [], []
    for stage, alpha in VERBOSE_STAGES[command]:
        expected.append((stage, alpha))
        if stage == "reconstruct":
            diag = diags[alpha]
            expected.append(("converged", alpha, diag["iterations"], diag["converged"],
                             f"{diag['ml_gap_nats']:.3g}"))
    for line in lines:
        timed = re.fullmatch(r"stage (\S+?)(?: alpha=(\S+))?: \d+\.\d{3} s", line)
        if timed:
            logged.append(timed.groups())
            continue
        # 3 phases x 200 samples, fewer rows than one worker process takes
        csv_rows = re.fullmatch(r"samples\.csv: 600 rows (written|read), 1 worker", line)
        if csv_rows:
            logged.append((f"csv {csv_rows[1]}", None))
            continue
        conv = re.fullmatch(r"reconstruct(?: alpha=(\S+))?: (\d+) iterations, "
                            r"converged=(True|False), ml_gap_nats=(\S+)", line)
        assert conv, line
        logged.append(("converged", conv[1], int(conv[2]), conv[3] == "True", conv[4]))
    assert logged == expected


_THREE = ["--alpha", "0.23", "--alpha", "0.53", "--alpha", "0.79", "--phases", "3",
          "--samples-per-phase", "200"]
# _THREE's phases and shots: few, as the patched _CHUNK_SHOTS = 1 samples them one by one
TINY = dict(FAST, n_phases=3, samples_per_phase=200)



def _workers(cpus):
    """Patches that give ``cpus`` usable CPUs and a worker for as few as one shot."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(_parts, "_usable_cpus", return_value=cpus))
    stack.enter_context(mock.patch.object(homodyne, "_CHUNK_SHOTS", 1))
    stack.enter_context(mock.patch.object(pipeline, "_CHUNK_SHOTS", 1))
    return stack


def _run_on(cpus, args, out, capsys, caplog):
    """``main(args)`` writing to ``out`` under ``_workers(cpus)``: the exit code, stdout, stderr
    and kerrsim log lines with every time masked, the artifacts, and the number of forks;
    ``out`` is masked in all of them."""
    caplog.clear()
    with _workers(cpus), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        code = main([*args, "--out", str(out)])
    captured = capsys.readouterr()

    def masked(text):
        return re.sub(r"\d+\.\d{3} s$", "<time>", text.replace(str(out), "<out>"), flags=re.M)

    files = {str(p.relative_to(out)): p.read_bytes().replace(str(out).encode(), b"<out>")
             for p in sorted(out.rglob("*")) if p.is_file()}
    logged = [masked(r.getMessage()) for r in caplog.records if r.name == "kerrsim"]
    return (code, masked(captured.out), masked(captured.err), logged), files, fork.call_count


@pytest.mark.parametrize("cpus", [2, 3])
def test_pipeline_workers_give_what_one_process_gives(cpus, tmp_path, capsys, caplog):
    # with two CPUs this process runs alpha 0.23 and one forked worker 0.53 and 0.79, with
    # three a worker each; the workers' stage lines are given here in amplitude order
    args = ["--verbose", "pipeline", *_THREE]
    one, one_files, one_forks = _run_on(1, args, tmp_path / "one", capsys, caplog)
    two, two_files, two_forks = _run_on(cpus, args, tmp_path / "two", capsys, caplog)
    assert (one_forks, two_forks) == (0, cpus - 1)
    assert two == one and two_files == one_files
    code, _, err, logged = two
    assert code == 0 and len(two_files) == 1 + 3 * 9  # report.json and 9 files per amplitude
    assert err.splitlines() == [f"kerrsim: {line}" for line in logged]
    stages = [m[1] for m in map(re.compile(r"stage (\S+ alpha=[^:]+)").match, logged) if m]
    assert stages == [f"{stage} alpha={alpha}" for alpha in ("0.23", "0.53", "0.79")
                      for stage in _PER_ALPHA]


def _failing_at(alphas, monkeypatch):
    """Make the forward-model stage fail at each of ``alphas``, in any process."""
    forward = pipeline.simulate_forward

    def failing(config, alpha):
        if alpha in alphas:
            raise ValueError(f"forced at alpha={alpha:g}")
        return forward(config, alpha)

    monkeypatch.setattr(pipeline, "simulate_forward", failing)


@pytest.mark.parametrize("failing", [(0.23,), (0.53,), (0.53, 0.79), (0.23, 0.79)])
def test_pipeline_failure_rule_is_the_same_for_any_worker_count(failing, tmp_path, capsys,
                                                                caplog, monkeypatch):
    # every amplitude runs and writes its artifacts if it succeeds, then the lowest-index
    # failure is raised and report.json is not written, in this process's range or a worker's
    _failing_at(failing, monkeypatch)
    one, one_files, _ = _run_on(1, ["pipeline", *_THREE], tmp_path / "one", capsys, caplog)
    two, two_files, forks = _run_on(2, ["pipeline", *_THREE], tmp_path / "two", capsys, caplog)
    assert forks == 1
    assert two == one and two_files == one_files
    code, out, err, _ = two
    assert code == 3 and out == ""
    assert err == f"error: stage 'forward-model': forced at alpha={failing[0]:g}\n"
    written = {Path(name).parts[0] for name in two_files}
    assert written == {f"alpha_{a:g}" for a in (0.23, 0.53, 0.79) if a not in failing}


def test_pipeline_worker_killed_exits_3(tmp_path, capsys, caplog, monkeypatch):
    parent = os.getpid()
    forward = pipeline.simulate_forward

    def killed(config, alpha):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return forward(config, alpha)

    monkeypatch.setattr(pipeline, "simulate_forward", killed)
    (code, out, err, _), files, forks = _run_on(2, ["pipeline", *_THREE], tmp_path / "run",
                                                capsys, caplog)
    assert code == 3 and out == "" and forks == 1
    assert err.splitlines() == [
        f"error: stage 'worker': a worker process failed (killed by signal {signal.SIGKILL})"]
    assert "report.json" not in files


def _killed_in_children(fn):
    """``fn`` that kills the process it runs in, but for this one."""
    parent = os.getpid()

    def killed(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fn(*args, **kwargs)
    return killed


def test_sample_worker_killed_exits_3_and_leaves_no_file(tmp_path, capsys, caplog,
                                                         monkeypatch):
    # a writing child that ends without its result fails stage worker, as in pipeline; no
    # samples.csv, part file or sidecar is left
    monkeypatch.setattr(homodyne, "_write_rows", _killed_in_children(homodyne._write_rows))
    args = ["sample", "--alpha", "0.53", *_THREE[6:]]
    (code, out, err, _), files, forks = _run_on(2, args, tmp_path / "run", capsys, caplog)
    assert (code, out, forks) == (3, "", 1)
    assert err.splitlines() == [
        f"error: stage 'worker': a worker process failed (killed by signal {signal.SIGKILL})"]
    assert files == {} and os.listdir(tmp_path / "run" / "alpha_0.53") == []


def test_reconstruct_worker_killed_exits_3_and_writes_nothing(tmp_path, capsys, caplog,
                                                              monkeypatch):
    # a reading child that ends without its result fails stage worker, not the sample file
    samples = tmp_path / "samples.csv"
    homodyne.save_samples(homodyne.SampleBatch(np.repeat([0.0, 1.5], 30),
                                               np.linspace(-2.0, 2.0, 60)), samples)
    monkeypatch.setattr(homodyne, "_parse_range", _killed_in_children(homodyne._parse_range))
    with mock.patch.object(homodyne, "_CSV_SLICE_BYTES", 16):
        (code, out, err, _), files, forks = _run_on(
            2, ["reconstruct", "--samples", str(samples)], tmp_path / "out", capsys, caplog)
    assert (code, out, forks) == (3, "", 1)
    assert err.splitlines() == [
        f"error: stage 'worker': a worker process failed (killed by signal {signal.SIGKILL})"]
    assert files == {} and sorted(os.listdir(tmp_path)) == ["samples.csv", "samples_meta.json"]


def test_pipeline_killed_worker_loses_no_other_failure_or_record(tmp_path, capsys, caplog,
                                                                monkeypatch):
    # three workers: alpha 0.23 here, 0.53 in the second, which fails, and 0.79 in the third,
    # which is killed; the killed worker's amplitude alone is lost, the lower-index failure
    # is raised, and the second worker's log lines are given here
    _failing_at((0.53,), monkeypatch)
    forward = pipeline.simulate_forward

    def forward_model(config, alpha):
        pipeline._log.info("forward model alpha=%g", alpha)
        if alpha == 0.79:
            os.kill(os.getpid(), signal.SIGKILL)
        return forward(config, alpha)

    monkeypatch.setattr(pipeline, "simulate_forward", forward_model)
    (code, out, err, logged), files, forks = _run_on(3, ["--verbose", "pipeline", *_THREE],
                                                     tmp_path / "run", capsys, caplog)
    assert (code, out, forks) == (3, "", 2)
    assert err.splitlines()[-1] == "error: stage 'forward-model': forced at alpha=0.53"
    assert {Path(name).parts[0] for name in files} == {"alpha_0.23"}
    assert [line for line in logged if line.startswith("forward model")] == [
        "forward model alpha=0.23", "forward model alpha=0.53"]
    assert "stage emit alpha=0.23: <time>" in logged


def test_pipeline_worker_that_cannot_start_fails_its_amplitudes(tmp_path, capsys):
    # no process to be had for the workers: this process still runs and writes alpha 0.23,
    # and the workers' amplitudes fail in stage worker
    out = tmp_path / "run"
    with _workers(3), mock.patch.object(os, "fork", side_effect=BlockingIOError(
            errno.EAGAIN, "Resource temporarily unavailable")) as fork:
        code = main(["pipeline", *_THREE, "--out", str(out)])
    assert (code, fork.call_count) == (3, 1)
    assert capsys.readouterr().err == (
        "error: stage 'worker': a worker process could not start "
        f"([Errno {errno.EAGAIN}] Resource temporarily unavailable)\n")
    assert sorted(p.name for p in out.iterdir()) == ["alpha_0.23"]


@pytest.mark.filterwarnings("ignore:conditional output weight:UserWarning")
def test_pipeline_worker_warnings_are_given_here(tmp_path, capsys, caplog):
    # the zero output at alpha 0 warns in the worker that runs it; the warning is raised
    # again here, under this process's filters
    config = tmp_path / "zero.json"
    config.write_text(json.dumps({**_ZERO_OUTPUT, "alphas": [0.5, 0], "n_phases": 3,
                                  "samples_per_phase": 200}))
    runs = []
    for cpus in (1, 2):
        with pytest.warns(UserWarning, match="conditional output weight") as caught:
            runs.append(_run_on(cpus, ["pipeline", "--config", str(config)],
                                tmp_path / f"cpus{cpus}", capsys, caplog))
        assert len(caught) == 1
    (one, one_files, _), (two, two_files, forks) = runs
    assert forks == 1 and two == one and two_files == one_files
    assert one[0] == 3


def test_pipeline_worker_warnings_repeat_as_in_one_process(tmp_path, monkeypatch):
    # under the default action a warning shows once per text and line, also when a worker
    # that forked before this process warned gives it again
    forward = pipeline.simulate_forward

    def warning(config, alpha):
        warnings.warn("the same warning at every amplitude")
        return forward(config, alpha)

    monkeypatch.setattr(pipeline, "simulate_forward", warning)
    for cpus in (1, 2):
        with warnings.catch_warnings(record=True) as caught, _workers(cpus):
            warnings.simplefilter("default")  # also forgets what an earlier run showed
            run_pipeline(ExperimentConfig(outdir=str(tmp_path / f"cpus{cpus}"), **TINY))
        assert [str(w.message) for w in caught] == ["the same warning at every amplitude"]


def test_pipeline_forks_nothing_where_the_blas_cannot_be_held(tmp_path, monkeypatch):
    # three CPUs and a worker for every shot, but no BLAS to hold: one usable CPU
    monkeypatch.setattr(_parts, "_openblas", lambda: None)
    with mock.patch.object(os, "sched_getaffinity", return_value={0, 1, 2}), \
            mock.patch.object(homodyne, "_CHUNK_SHOTS", 1), \
            mock.patch.object(pipeline, "_CHUNK_SHOTS", 1), \
            mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        assert _parts._usable_cpus() == 1
        report = run_pipeline(ExperimentConfig(outdir=str(tmp_path / "run"), **TINY))
    assert [r.alpha for r in report.records] == [0.23, 0.53, 0.79]


@pytest.mark.skipif(_parts._openblas() is None, reason="numpy's BLAS is not its own OpenBLAS")
@pytest.mark.parametrize("failing", [(), (0.79,)])
def test_pipeline_holds_the_blas_at_one_thread_then_restores_it(failing, tmp_path, caplog,
                                                                 monkeypatch):
    lib = _parts._openblas()
    before = lib.scipy_openblas_get_num_threads64_()
    forward = pipeline.simulate_forward

    def logged(config, alpha):
        pipeline._log.info("blas threads %d", lib.scipy_openblas_get_num_threads64_())
        return forward(config, alpha)

    monkeypatch.setattr(pipeline, "simulate_forward", logged)
    _failing_at(failing, monkeypatch)
    caplog.set_level("INFO", logger="kerrsim")
    config = ExperimentConfig(outdir=str(tmp_path / "run"), **TINY)
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        with _workers(2), pytest.raises(StageError) if failing else contextlib.nullcontext():
            run_pipeline(config)
        assert lib.scipy_openblas_get_num_threads64_() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
    held = [r.getMessage() for r in caplog.records if r.getMessage().startswith("blas")]
    assert held == ["blas threads 1"] * (3 - len(failing))


_FAILS_AT_ZERO = st.one_of(st.just(0.0), st.just(-0.0), st.just(math.nan))


@given(
    holds=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    data=st.data(),
    im01=st.floats(),
)
def test_vacuum_flip_needs_every_witness_clause(holds, data, im01):
    # the paper's sign change is Re rho01 < 0, Re rho02 < 0 and Re rho12 > 0; it is visible
    # only when all three hold, and a clause fails at either zero and at NaN too
    negative = st.floats(max_value=0.0, exclude_max=True, allow_nan=False)
    positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False)
    re01, re02 = (data.draw(negative if ok else st.one_of(positive, _FAILS_AT_ZERO))
                  for ok in holds[:2])
    re12 = data.draw(positive if holds[2] else st.one_of(negative, _FAILS_AT_ZERO))
    assert SignSummary(re01, re02, re12, im01).vacuum_flip_visible() is all(holds)
