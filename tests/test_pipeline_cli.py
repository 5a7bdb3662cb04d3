import contextlib
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
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import kerrsim
from kerrsim import homodyne, pipeline
from kerrsim.artifacts import atomic_open, write_json
from kerrsim.cli import main
from kerrsim.errors import ConfigError, StageError
from kerrsim.fock import basis_state, density_from_pure, fidelity
from kerrsim.pipeline import (
    BESTFIT_RATIO_MAGNITUDE,
    BESTFIT_RATIO_PHASE,
    MODES,
    ExperimentConfig,
    fix_global_phase,
    klm_compare,
    run_pipeline,
    simulate_forward,
    superposition_for_mode,
)
from kerrsim.tolerances import TOL
from kerrsim.tomography import BinnedData, load_density_matrix

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
    first = {rel: open(os.path.join(outdir, rel), "rb").read() for rel in files}
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
    # a phase count whose schedule (8 PB) cannot be held fails in the sample stage
    code = main(["sample", "--alpha", "0.53", "--phases", "1000000000000000", "--out", out])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: stage 'sample': ")
    assert not os.path.exists(os.path.join(out, "alpha_0.53", "samples.csv"))


def test_cli_admits_a_grid_by_arithmetic(tmp_path, capsys):
    # each grid's build_povm needs more than the 2 GiB budget: the stacks at recon_dim
    # 100000 (35 TiB), the dim^4 loss superoperators at recon_dim 150 (20 GB) or 3000
    # (3 PiB), a recon_dim no float holds, or the node tables of two bins 1e12 wide (19
    # PiB); each is refused, by arithmetic, before anything of its size is allocated
    out = str(tmp_path / "out")
    config = tmp_path / "big.json"
    for payload in ({"recon_dim": 100000, "sim_dim": 100000}, {"recon_dim": 3000, "sim_dim": 3000},
                    {"recon_dim": 150, "sim_dim": 150, "x_max": 20.0},
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
    # the sample stage of sim_dim 3000 would hold a 216 GB Kraus stack; it is refused,
    # naming the field, before anything of that size is allocated
    config = tmp_path / "big.json"
    for payload in ({"sim_dim": 3000}, {"sim_dim": 336}, {"sim_dim": 10**400}):
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
        assert err[0].endswith("too large to sample within the 2 GiB budget"), err
        assert peak < 4 * 2**20, payload
    assert ExperimentConfig(sim_dim=335).sim_dim == 335  # the largest admitted
    assert os.listdir(tmp_path) == ["big.json"]


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
           "zip.npy": saved(np.zeros((2, 2)), save=np.savez),
           "nan.npy": saved(np.array([[0.0, 0.2], [math.nan, 0.1]])),
           "inf.npy": saved(np.array([[0.0, 0.2], [0.5, -math.inf]]))}
    for name, data in bad.items():
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["reconstruct", "--samples", str(path), "--out", str(tmp_path)]) == 2, name
        assert f"cannot read samples from {path}: " in capsys.readouterr().err, name
        assert not os.path.exists(tmp_path / "reconstructed.json")
    # a usable file whose sidecar is unusable: not a JSON object, not JSON, not UTF-8,
    # nested too deep to parse, or an eta that is not a number in (0, 1]
    sidecar = tmp_path / "good_meta.json"
    etas = ("0.66", True, False, [0.66], 0, 1.5, -0.5, None, math.nan, math.inf)
    for text in (b"[1, 2]", b'{"eta": 0.66', b"\xff\xfe", b"[" * 100000,
                 *(json.dumps({"eta": eta}).encode() for eta in etas)):
        sidecar.write_bytes(text)
        assert main(["reconstruct", "--samples", str(good), "--out", str(tmp_path)]) == 2, text[:40]
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid configuration: cannot read samples from {good}: "
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


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _workers(cpus):
    """Patches that give ``cpus`` usable CPUs and a worker for as few as one shot."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(homodyne, "_usable_cpus", return_value=cpus))
    stack.enter_context(mock.patch.object(homodyne, "_CHUNK_SHOTS", 1))
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
    _assert_no_child_left()
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
    monkeypatch.setattr(pipeline, "_openblas", lambda: None)
    with _workers(2), mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        report = run_pipeline(ExperimentConfig(outdir=str(tmp_path / "run"), **TINY))
    assert [r.alpha for r in report.records] == [0.23, 0.53, 0.79]


@pytest.mark.skipif(pipeline._openblas() is None, reason="numpy's BLAS is not its own OpenBLAS")
@pytest.mark.parametrize("failing", [(), (0.79,)])
def test_pipeline_holds_the_blas_at_one_thread_then_restores_it(failing, tmp_path, caplog,
                                                                 monkeypatch):
    lib = pipeline._openblas()
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
