import dataclasses
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kerrsim import tomography
from kerrsim.channels import LossChannel, apply_loss, loss_adjoint_on_operator
from kerrsim.fock import (
    DensityMatrix,
    basis_state,
    coherent_state,
    density_from_pure,
    fidelity,
    truncate_density,
)
from kerrsim.gates import SuperpositionParams, apply_conditional, build_superposition_operator, solve_superposition
from kerrsim.homodyne import (
    PhaseSchedule,
    SampleBatch,
    default_schedule,
    sample_quadratures,
    wavefunction_table,
)
from kerrsim.pipeline import ExperimentConfig, simulate_forward
from kerrsim.tomography import (
    BinnedData,
    TomographyConfig,
    bin_samples,
    build_povm,
    load_density_matrix,
    loglikelihood,
    reconstruct,
    save_density_matrix,
)
from kerrsim.tolerances import TOL

THETAS_12 = np.arange(12) * math.pi / 12


def ideal_gate_output(alpha, dim=16):
    sol = solve_superposition()
    psi = coherent_state(alpha, dim)
    op = build_superposition_operator(SuperpositionParams(1.0, sol.ratio), dim)
    out, _ = apply_conditional(op, psi)
    return density_from_pure(out)


def _reconstruct(data, cfg):
    """reconstruct with the POVM for the data's own phases."""
    return reconstruct(data, cfg, build_povm(cfg, data.thetas))


def test_config_validation():
    cfg = TomographyConfig()
    assert cfg.n_bins == 240
    assert cfg.bin_edges()[0] == -6.0 and cfg.bin_edges()[-1] == 6.0
    # each range error shows the value it rejected
    with pytest.raises(ValueError, match=r"dim must be >= 3, got 2$"):
        TomographyConfig(dim=2)
    with pytest.raises(ValueError, match=r"eta must be in \(0, 1\], got 0.0$"):
        TomographyConfig(eta=0.0)
    with pytest.raises(ValueError, match=r"eta must be in \(0, 1\], got 1.5$"):
        TomographyConfig(eta=1.5)
    with pytest.raises(ValueError, match=r"max_iterations must be positive, got 0$"):
        TomographyConfig(max_iterations=0)
    with pytest.raises(ValueError, match="leaves no bin"):
        TomographyConfig(bin_width=100.0)  # rounds to zero bins on +-6


@pytest.mark.parametrize("bin_width", [0.07, 0.13, 0.3])
def test_povm_bins_are_the_histogram_bins(bin_width):
    # a width that does not tile +-x_max is rounded to the grid's spacing, and the
    # POVM integrates over exactly the bins bin_samples fills
    cfg = TomographyConfig(eta=1.0, bin_width=bin_width)
    povm = build_povm(cfg, [0.0])
    assert np.linalg.norm(povm[0].sum(axis=0) - np.eye(cfg.dim), ord=2) <= TOL.completeness
    # vacuum: Tr[|0><0| E_b] is the Gaussian mass of bin b, 0.5 (erf(hi) - erf(lo))
    edges = cfg.bin_edges()
    mass = [0.5 * (math.erf(hi) - math.erf(lo)) for lo, hi in zip(edges[:-1], edges[1:])]
    assert_allclose(povm[0, :, 0, 0].real, mass, atol=1e-10)


def _reference_povm(cfg, thetas):
    """Phase by phase: the rotated projectors integrated over every bin on the
    same Gauss-Legendre panels, pushed through the adjoint loss, then checked
    for completeness."""
    width = 2.0 * cfg.x_max / cfg.n_bins
    panels = max(1, math.ceil(width / tomography._MAX_PANEL_WIDTH))
    half = 0.5 * width / panels
    offsets = -0.5 * width + (2 * np.arange(panels) + 1) * half
    nodes = (offsets[:, None] + half * tomography._GL_NODES[None, :]).ravel()
    x = (cfg.bin_centers()[:, None] + nodes[None, :]).ravel()
    psi = wavefunction_table(cfg.dim, x).reshape(cfg.dim, cfg.n_bins, nodes.size)
    weights = np.tile(tomography._GL_WEIGHTS * half, panels)
    out = []
    for theta in thetas:
        w = np.exp(-1j * theta * np.arange(cfg.dim))[:, None, None] * psi
        raw = np.einsum("mbk,nbk,k->bmn", w, w.conj(), weights)
        povm = loss_adjoint_on_operator(raw, LossChannel(cfg.eta))
        assert np.linalg.norm(povm.sum(axis=0) - np.eye(cfg.dim), ord=2) <= TOL.completeness
        out.append(povm)
    return np.array(out)


@pytest.mark.parametrize("dim", [3, 8, 10])
@pytest.mark.parametrize("eta", [0.66, 1.0])
@pytest.mark.parametrize("bin_width", [0.05, 0.07, 0.3])
def test_povm_rotation_matches_per_phase_reference(bin_width, eta, dim):
    # the phase-0 elements rotated to each phase equal the projectors built at that
    # phase, in any phase order; x_max = 7 leaves dim 10 inside the completeness bound
    cfg = TomographyConfig(dim=dim, eta=eta, bin_width=bin_width, x_max=7.0)
    thetas = [2.1, 0.0, -0.7, math.pi, 0.4, 5.5]
    povm = build_povm(cfg, thetas)
    assert povm.shape == (len(thetas), cfg.n_bins, dim, dim)
    assert_allclose(povm, _reference_povm(cfg, thetas), rtol=0, atol=1e-15)


def test_bin_samples_basics():
    cfg = TomographyConfig()
    centers = cfg.bin_centers()
    batch = SampleBatch(np.array([0.0]), np.array([centers[10]]))
    data = bin_samples(batch, cfg)
    assert data.counts[0, 10] == 1.0
    assert data.total == 1.0
    assert data.out_of_range == 0


def test_bin_samples_totals_and_out_of_range():
    rng = np.random.default_rng(41)
    xs = rng.normal(size=500)
    xs[0] = 7.5  # outside the range
    batch = SampleBatch(np.zeros(500), xs)
    cfg = TomographyConfig()
    data = bin_samples(batch, cfg)
    assert data.total + data.out_of_range == 500
    assert data.out_of_range >= 1


def test_bin_edge_goes_to_upper_bin():
    cfg = TomographyConfig()
    edge = cfg.bin_edges()[5]  # interior edge between bins 4 and 5
    batch = SampleBatch(np.array([0.0]), np.array([float(edge)]))
    data = bin_samples(batch, cfg)
    assert data.counts[0, 5] == 1.0
    assert data.counts[0, 4] == 0.0


def test_bin_samples_empty_errors():
    with pytest.raises(ValueError):
        bin_samples(SampleBatch(np.array([]), np.array([])), TomographyConfig())


def test_povm_completeness_unit_efficiency():
    cfg = TomographyConfig(eta=1.0)
    povm = build_povm(cfg, THETAS_12[:3])
    eye = np.eye(cfg.dim)
    for i in range(3):
        assert np.linalg.norm(povm[i].sum(axis=0) - eye, ord=2) <= 1e-6


def test_povm_single_huge_bin_is_identity():
    cfg = TomographyConfig(eta=1.0, bin_width=12.0)
    povm = build_povm(cfg, [0.4])
    assert povm.shape == (1, 1, 8, 8)
    assert_allclose(povm[0, 0], np.eye(8), atol=1e-6)


def test_povm_build_cost_follows_the_size_at_dim_20():
    # 360 bins at dim 20 have dim^2 > n_bins, where einsum's own path search
    # falls back to the naive loop (seconds); the pinned path takes about 0.03 s
    start = time.perf_counter()
    povm = build_povm(TomographyConfig(dim=20, x_max=9.0), [0.0])
    assert time.perf_counter() - start < 1.0
    assert povm.shape == (1, 360, 20, 20)


def test_povm_elements_remain_valid_with_loss():
    cfg = TomographyConfig(eta=0.66)
    povm = build_povm(cfg, [0.0, 1.0])
    flat = povm.reshape(-1, 8, 8)
    sample = flat[:: max(1, flat.shape[0] // 40)]
    for e in sample:
        assert np.max(np.abs(e - e.conj().T)) <= 1e-9
        w = np.linalg.eigvalsh(e)
        assert w.min() >= -1e-9 and w.max() <= 1.0 + 1e-9


def test_loglikelihood_identity_element():
    rho = density_from_pure(basis_state(0, 8))
    povm = np.eye(8, dtype=complex).reshape(1, 1, 8, 8)
    data = BinnedData(np.array([0.0]), np.array([[250.0]]))
    assert_allclose(loglikelihood(rho, data, povm), 0.0, atol=1e-10)


def test_loglikelihood_order_invariance_and_comparison():
    cfg = TomographyConfig(eta=1.0)
    rho16 = ideal_gate_output(0.53)
    batch = sample_quadratures(rho16, default_schedule(3, n_phases=4, samples_per_phase=2000), eta=1.0)
    data = bin_samples(batch, cfg)
    povm = build_povm(cfg, data.thetas)

    rho8, _ = truncate_density(rho16, 8)
    mixed = DensityMatrix(8, np.eye(8, dtype=complex) / 8.0)
    assert loglikelihood(rho8, data, povm) > loglikelihood(mixed, data, povm)

    # reordering bins leaves the likelihood unchanged
    perm = np.random.default_rng(0).permutation(cfg.n_bins)
    data_perm = BinnedData(data.thetas, data.counts[:, perm])
    povm_perm = povm[:, perm]
    assert_allclose(
        loglikelihood(rho8, data_perm, povm_perm), loglikelihood(rho8, data, povm), rtol=1e-12
    )


def test_reconstruct_vacuum_closed_loop():
    cfg = TomographyConfig(eta=1.0)
    rho = density_from_pure(basis_state(0, 16))
    sched = PhaseSchedule(tuple((float(t), 8334) for t in THETAS_12), seed=7)
    batch = sample_quadratures(rho, sched, eta=1.0)
    rho_hat, diag = _reconstruct(bin_samples(batch, cfg), cfg)
    assert fidelity(rho_hat, density_from_pure(basis_state(0, 8))) >= 0.999
    gains = np.diff(diag.loglik_trace)
    assert np.all(gains >= 0.0)


def test_reconstruct_gate_output_with_efficiency_compensation():
    # eta-compensation recovers the pre-loss state, not the lossy one
    cfg = TomographyConfig(eta=0.66)
    rho16 = ideal_gate_output(0.53)
    sched = PhaseSchedule(tuple((float(t), 16667) for t in THETAS_12), seed=42)
    batch = sample_quadratures(rho16, sched, eta=0.66)
    rho_hat, diag = _reconstruct(bin_samples(batch, cfg), cfg)

    pre_loss, _ = truncate_density(rho16, 8)
    lossy, _ = truncate_density(apply_loss(rho16, LossChannel(0.66)), 8)
    f_pre = fidelity(rho_hat, pre_loss)
    f_lossy = fidelity(rho_hat, lossy)
    assert f_pre >= 0.98
    assert f_pre > f_lossy
    assert rho_hat.trace == pytest.approx(1.0, abs=1e-10)
    rho_hat.validate()
    assert diag.completeness_residual <= 1e-6


def test_reconstruct_output_always_physical():
    # junk data still yields a Hermitian PSD unit-trace estimate
    cfg = TomographyConfig(eta=0.66, max_iterations=50)
    counts = np.zeros((2, cfg.n_bins))
    counts[0, 3] = 17
    counts[1, 200] = 5
    counts[0, 120] = 1
    data = BinnedData(np.array([0.0, 1.0]), counts)
    rho_hat, _ = _reconstruct(data, cfg)
    rho_hat.validate()


def test_reconstruct_single_bin_concentrates():
    cfg = TomographyConfig(eta=1.0)
    centers = cfg.bin_centers()
    j = int(np.argmin(np.abs(centers - 1.0)))
    counts = np.zeros((1, cfg.n_bins))
    counts[0, j] = 1000.0
    data = BinnedData(np.array([0.0]), counts)
    povm = build_povm(cfg, data.thetas)
    rho_hat, diag = reconstruct(data, cfg, povm)
    assert any("single-phase" in w for w in diag.warnings)
    _, vecs = np.linalg.eigh(povm[0, j])
    top = vecs[:, -1]
    assert (top.conj() @ rho_hat.elems @ top).real >= 0.999
    assert np.all(np.diff(diag.loglik_trace) >= 0.0)


def test_reconstruct_fixed_point():
    cfg = TomographyConfig(eta=1.0, max_iterations=1)
    povm = build_povm(cfg, THETAS_12)

    # full-rank target state: dominant coherent component plus diagonal floor
    base = density_from_pure(coherent_state(0.5, 8)).elems * 0.9
    base += 0.1 * np.diag(np.linspace(0.4, 0.02, 8) / np.sum(np.linspace(0.4, 0.02, 8)))
    rho_star = base / np.trace(base).real
    assert np.linalg.eigvalsh(rho_star).min() > 1e-4

    born = np.einsum("pbmn,nm->pb", povm, rho_star, optimize=True).real
    counts = 1e5 * born
    data = BinnedData(THETAS_12, counts)

    # R(rho*) == I within the POVM tail, so R rho* R == rho* ...
    c = counts.reshape(-1)
    e = povm.reshape(-1, 8, 8)
    r_op = np.einsum("j,jmn->mn", c / born.reshape(-1), e, optimize=True) / c.sum()
    assert np.linalg.norm(r_op @ rho_star - rho_star, ord="fro") <= 1e-8

    # ... so the certified gap at rho* is already inside the stop rule and it barely moves
    rho_hat, _ = reconstruct(data, cfg, povm, initial=rho_star)
    assert np.linalg.norm(rho_hat.elems - rho_star, ord="fro") <= 1e-8


def test_reconstruct_requires_counts():
    cfg = TomographyConfig()
    data = BinnedData(np.array([0.0]), np.zeros((1, cfg.n_bins)))
    with pytest.raises(ValueError):
        _reconstruct(data, cfg)


def test_reconstruct_rejects_mismatched_povm():
    # same total size, 2 x 240 counts against 4 x 120 elements: not one element per count
    cfg = TomographyConfig(eta=1.0)
    rho = ideal_gate_output(0.53)
    data = bin_samples(sample_quadratures(rho, default_schedule(5, 2, 2000), eta=1.0), cfg)
    assert data.counts.shape == (2, 240)
    povm = build_povm(TomographyConfig(eta=1.0, bin_width=0.1), np.arange(4) * math.pi / 4)
    assert povm.shape == (4, 120, 8, 8)
    rho8, _ = truncate_density(rho, 8)
    for call in (lambda: reconstruct(data, cfg, povm), lambda: loglikelihood(rho8, data, povm)):
        with pytest.raises(ValueError, match=r"\(4, 120, 8, 8\).*\(2, 240\)"):
            call()
    # the right shape of counts with elements of the wrong dimension
    small = build_povm(TomographyConfig(dim=6, eta=1.0), data.thetas)
    with pytest.raises(ValueError, match=r"\(2, 240, 6, 6\).*\(8, 8\)"):
        reconstruct(data, cfg, small)


def test_nonconvergence_flagged():
    cfg = TomographyConfig(eta=1.0, max_iterations=3)
    rho = ideal_gate_output(0.53)
    batch = sample_quadratures(rho, default_schedule(5, n_phases=4, samples_per_phase=2000), eta=1.0)
    _, diag = _reconstruct(bin_samples(batch, cfg), cfg)
    assert not diag.converged
    assert any("no convergence" in w for w in diag.warnings)


def test_reconstruct_stops_when_no_step_helps(monkeypatch):
    # the gap is clamped at 0, so a negative tolerance is out of reach: the
    # backtracking runs out of step size from the last iterate, and the run ends
    # flagged well before the cap
    monkeypatch.setattr(tomography, "TOL", dataclasses.replace(TOL, ml_gap_nats=-1.0))
    cfg = TomographyConfig(eta=1.0, max_iterations=20000)
    rho = ideal_gate_output(0.53)
    batch = sample_quadratures(rho, default_schedule(5, n_phases=4, samples_per_phase=2000), eta=1.0)
    rho_hat, diag = _reconstruct(bin_samples(batch, cfg), cfg)
    assert diag.iterations < 1000
    assert not diag.converged
    assert diag.warnings == [f"no convergence after {diag.iterations} iterations; best iterate returned"]
    assert 0.0 <= diag.ml_gap_nats <= 1e-3
    assert np.all(np.diff(diag.loglik_trace) >= 0.0)
    rho_hat.validate()


@pytest.mark.parametrize("seed", [6, 7])
def test_reconstruct_stall_ends_the_run(monkeypatch, seed):
    # from the last iterate the backtracking can accept, through rounding alone, a
    # step that lowers L; that is a stall as well, and the run ends there rather
    # than recomputing the same rejected step until the cap
    monkeypatch.setattr(tomography, "TOL", dataclasses.replace(TOL, ml_gap_nats=-1.0))
    cfg = TomographyConfig(eta=1.0, max_iterations=20000)
    rho = ideal_gate_output(0.53)
    schedule = default_schedule(seed, n_phases=4, samples_per_phase=2000)
    rho_hat, diag = _reconstruct(bin_samples(sample_quadratures(rho, schedule, eta=1.0), cfg), cfg)
    assert diag.iterations < 1000
    assert not diag.converged
    assert 0.0 <= diag.ml_gap_nats <= 0.1
    assert np.all(np.diff(diag.loglik_trace) >= 0.0)
    rho_hat.validate()


def test_matrix_json_roundtrip(tmp_path):
    rho, _ = truncate_density(ideal_gate_output(0.53), 8)
    path = tmp_path / "rho.json"
    save_density_matrix(rho, path)
    loaded = load_density_matrix(path)
    assert loaded.dim == 8
    assert_allclose(loaded.elems, rho.elems, atol=0)
    import json

    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert payload["dim"] == 8
    assert len(payload["re"]) == 8 and len(payload["im"]) == 8


def _reference_simplex(w):
    """Euclidean projection of w onto {x >= 0, sum x = 1}: drop the smallest
    entries until the common shift leaves the rest positive (Michelot)."""
    active = np.ones(w.size, dtype=bool)
    while True:
        shift = (w[active].sum() - 1.0) / active.sum()
        low = active & (w - shift <= 0.0)
        if not low.any():
            return np.where(active, w - shift, 0.0)
        active &= ~low


def _reference_reconstruct(data, cfg, povm):
    """Accelerated projected gradient with restart written out with complex
    einsum contractions, as a check on the real flat map inside
    ``reconstruct``; same step rules and the same certified-gap stop."""
    counts = data.counts.reshape(-1)
    occupied = counts > 0
    c = counts[occupied]
    e = povm.reshape(-1, cfg.dim, cfg.dim)[occupied]
    total = c.sum()

    def born(mat):
        return np.einsum("jmn,nm->j", e, mat).real

    def r_of(p):
        return np.einsum("j,jmn->mn", c / p, e) / total

    def gap_of(p):
        return max(0.0, total * (np.linalg.eigvalsh(r_of(p))[-1] - 1.0))

    def project(mat):
        w, v = np.linalg.eigh(0.5 * (mat + mat.conj().T))
        out = v @ np.diag(_reference_simplex(w)) @ v.conj().T
        return 0.5 * (out + out.conj().T)

    rho = np.eye(cfg.dim, dtype=complex) / cfg.dim
    loglik = float(np.sum(c * np.log(born(rho))))
    trace = [loglik]
    gap = gap_of(born(rho))
    sigma, theta, step, iteration = rho, 1.0, 1.0, 0
    while gap > 0.1 and iteration < cfg.max_iterations:
        iteration += 1
        p_sigma = born(sigma)
        r_op = r_of(p_sigma)
        l_sigma = float(np.sum(c * np.log(p_sigma)))
        while True:
            cand = project(sigma + step * r_op)
            p_cand = born(cand)
            if np.all(p_cand > 0):
                l_cand = float(np.sum(c * np.log(p_cand)))
                delta = cand - sigma
                inner = np.trace(r_op @ delta).real
                if l_cand >= l_sigma + total * (inner - np.sum(np.abs(delta) ** 2) / (2 * step)):
                    break
            step /= 2
        if l_cand < loglik:
            sigma, theta = rho, 1.0
            continue
        theta_next = (1 + math.sqrt(1 + 4 * theta**2)) / 2
        sigma = cand + (theta - 1) / theta_next * (cand - rho)
        rho, loglik, theta = cand, l_cand, theta_next
        if np.any(born(sigma) <= 0):
            sigma, theta = rho, 1.0
        trace.append(loglik)
        step *= 1.5
        gap = gap_of(born(rho))
    return rho, iteration, gap <= 0.1, np.array(trace), gap


@pytest.mark.parametrize("eta, max_iterations", [(1.0, 2000), (0.66, 150)])
def test_reconstruct_matches_einsum_reference(eta, max_iterations):
    cfg = TomographyConfig(eta=eta, max_iterations=max_iterations)
    batch = sample_quadratures(
        ideal_gate_output(0.53), default_schedule(11, n_phases=4, samples_per_phase=1500), eta=eta
    )
    data = bin_samples(batch, cfg)
    povm = build_povm(cfg, data.thetas)
    rho_ref, iterations, converged, trace, gap = _reference_reconstruct(data, cfg, povm)
    rho_hat, diag = reconstruct(data, cfg, povm)

    assert diag.iterations == iterations
    assert diag.converged == converged
    assert_allclose(diag.loglik_trace, trace, rtol=1e-9, atol=0)
    assert_allclose(rho_hat.elems, rho_ref, atol=1e-10)
    assert_allclose(diag.final_loglik, loglikelihood(rho_hat, data, povm), rtol=1e-12)
    # the certified gap bounds L* - L(rho_hat) from above, so it is never negative
    assert diag.ml_gap_nats == pytest.approx(gap, rel=1e-6, abs=1e-9)
    assert diag.ml_gap_nats >= -1e-9 * data.total
    assert diag.to_dict()["ml_gap_nats"] == diag.ml_gap_nats


@pytest.mark.parametrize("seed", [20230, 4242])
def test_loglikelihood_is_final_loglik_exactly(seed):
    # one formula, c @ log p, so the two agree to the last digit at the pipeline's amplitudes
    config = ExperimentConfig(seed=seed)
    tomo = config.tomography()
    for index, alpha in enumerate(config.alphas):
        rho = density_from_pure(simulate_forward(config, alpha)[1])
        data = bin_samples(sample_quadratures(rho, config.schedule(index), config.eta), tomo)
        povm = build_povm(tomo, data.thetas)
        rho_hat, diag = reconstruct(data, tomo, povm)
        assert loglikelihood(rho_hat, data, povm) == diag.final_loglik


def _reference_bin_counts(samples, cfg):
    """Per-phase mask, digitize and np.add.at: the straightforward histogram."""
    edges = cfg.bin_edges()
    thetas = np.unique(samples.thetas)
    counts = np.zeros((thetas.size, cfg.n_bins))
    out_of_range = 0
    for i, theta in enumerate(thetas):
        idx = np.digitize(samples.xs[samples.thetas == theta], edges, right=False)
        in_range = (idx >= 1) & (idx <= cfg.n_bins)
        out_of_range += int(np.count_nonzero(~in_range))
        np.add.at(counts[i], idx[in_range] - 1, 1.0)
    return thetas, counts, out_of_range


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    bin_width=st.one_of(
        st.sampled_from([0.05, 0.03, 0.07, 0.1 / 3, 0.1, 1.0 / 7, 0.25, 0.3]), st.floats(0.01, 2.0)
    ),
    x_max=st.one_of(st.sampled_from([6.0, 5.0, 0.7, 3.3]), st.floats(0.5, 12.0)),
    n_phases=st.integers(1, 4),
    interleaved=st.booleans(),
    chunk=st.sampled_from([7, 64, tomography._CHUNK_SHOTS]),
)
def test_bin_samples_matches_per_phase_reference(seed, bin_width, x_max, n_phases, interleaved, chunk):
    cfg = TomographyConfig(bin_width=bin_width, x_max=x_max)
    rng = np.random.default_rng(seed)
    edges = cfg.bin_edges()
    # every edge and its neighbours on both sides, the range ends, far values and NaN
    special = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [-x_max, x_max, -1e300, 1e300, -np.inf, np.inf, np.nan, -0.0],
    ])
    phases = rng.uniform(0.0, math.pi, size=n_phases)
    xs = np.concatenate([np.tile(special, n_phases), x_max * rng.normal(size=300 * n_phases)])
    thetas = np.concatenate([np.repeat(phases, special.size), np.repeat(phases, 300)])
    if interleaved:
        order = rng.permutation(xs.size)
    else:  # one run per phase, and a rotation splits one of them in two
        order = np.roll(np.argsort(thetas, kind="stable"), rng.integers(xs.size))
    batch = SampleBatch(thetas[order], xs[order])

    with mock.patch.object(tomography, "_CHUNK_SHOTS", chunk):
        data = bin_samples(batch, cfg)
    ref_thetas, ref_counts, ref_out = _reference_bin_counts(batch, cfg)
    assert np.array_equal(data.thetas, ref_thetas)
    assert np.array_equal(data.counts, ref_counts)
    assert data.out_of_range == ref_out
    # per phase: x_max twice, the values just outside both ends, +-1e300, +-inf and NaN
    assert data.out_of_range >= 9 * n_phases
    assert data.total + data.out_of_range == xs.size


@settings(max_examples=200)
@given(
    log_x_max=st.floats(-322.0, 300.0),
    n_bins=st.integers(1, 200_000),
    jitter=st.floats(-0.4, 0.4),
)
def test_lower_bin_is_within_one_edge_on_any_grid(log_x_max, n_bins, jitter):
    # the guess is monotone in x, so it is the last edge <= x or the one before
    # for every x once that holds at each edge e_i and just below it
    x_max = 10.0**log_x_max
    bin_width = 2.0 * x_max / (n_bins + jitter)
    assume(bin_width > 0.0)
    cfg = TomographyConfig(bin_width=bin_width, x_max=x_max)
    edges = cfg.bin_edges()
    below = np.arange(edges.size) - 1
    assert np.all(tomography._lower_bin(edges, cfg) >= below)
    assert np.all(tomography._lower_bin(np.nextafter(edges, -np.inf), cfg) <= below)


def test_bin_samples_memory_is_bounded():
    # 2,000,004 samples in runs of 12 phases: the binning keeps no full-length
    # index array, only one bool per sample and bounded chunks
    n = 2_000_004
    rng = np.random.default_rng(8)
    batch = SampleBatch(np.repeat(THETAS_12, n // 12), rng.normal(size=n))
    tracemalloc.start()
    try:
        bin_samples(batch, TomographyConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n


def _random_density(rng, dim, rank):
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return DensityMatrix(dim, rho / np.trace(rho).real)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 8),
    scale=st.floats(0.01, 10.0),
    shift=st.floats(-5.0, 5.0),
)
def test_project_density_is_the_nearest_density_matrix(seed, dim, scale, shift):
    # a Hermitian input of any trace and sign, as a gradient step can leave
    rng = np.random.default_rng(seed)
    g = scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    mat = 0.5 * (g + g.conj().T) + shift * np.eye(dim)
    out = tomography._project_density(mat)
    assert np.max(np.abs(out - out.conj().T)) <= TOL.hermitian
    assert abs(np.trace(out).real - 1.0) <= TOL.norm_unit
    assert np.linalg.eigvalsh(out)[0] >= -TOL.psd_floor

    # a density matrix is its own projection
    for rank in range(1, dim + 1):
        rho = _random_density(rng, dim, rank).elems
        assert_allclose(tomography._project_density(rho), rho, rtol=0.0, atol=1e-12)

    # no density matrix is closer to the input: neither random states of every rank
    # nor states a small step from the output towards them
    distance = np.linalg.norm(out - mat)
    slack = 1e-12 * (1.0 + np.linalg.norm(mat))
    for rank in range(1, dim + 1):
        sigma = _random_density(rng, dim, rank).elems
        for rival in (sigma, out + 1e-3 * (sigma - out)):
            assert distance <= np.linalg.norm(rival - mat) + slack


@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(3, 6),
    n_phases=st.integers(1, 4),
    eta=st.floats(0.5, 1.0),
    cap=st.integers(1, 40),
)
def test_reconstruct_properties_on_random_binned_data(seed, dim, n_phases, eta, cap):
    # a coarse grid of 12 bins, sparse Poisson counts, a random iteration cap
    rng = np.random.default_rng(seed)
    cfg = TomographyConfig(dim=dim, eta=eta, bin_width=1.0, max_iterations=cap)
    means = rng.exponential(20.0, size=(n_phases, cfg.n_bins)) * (rng.random((n_phases, cfg.n_bins)) < 0.6)
    counts = rng.poisson(means).astype(float)
    counts[0, rng.integers(cfg.n_bins)] += 1.0  # never empty
    thetas = np.sort(rng.choice(12, size=n_phases, replace=False)) * math.pi / 12
    data = BinnedData(thetas, counts)
    povm = build_povm(cfg, thetas)

    rho_hat, diag = reconstruct(data, cfg, povm)
    rho_hat.validate()
    assert rho_hat.trace == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(diag.loglik_trace) >= 0.0)
    assert diag.ml_gap_nats >= 0.0
    assert diag.converged == (diag.ml_gap_nats <= TOL.ml_gap_nats)
    assert diag.final_loglik == diag.loglik_trace[-1]
    assert len(diag.loglik_trace) <= diag.iterations + 1 <= cap + 1

    # the certificate: no density matrix beats L(rho_hat) by more than the gap,
    # neither random states of every rank nor a reconstruction run to the stop rule
    best, _ = reconstruct(data, TomographyConfig(dim=dim, eta=eta, bin_width=1.0), povm)
    rivals = [best] + [_random_density(rng, dim, rank) for rank in (1, 2, dim)]
    slack = 1e-12 * abs(diag.final_loglik)  # rounding of the two sums of logs
    for sigma in rivals:
        assert loglikelihood(sigma, data, povm) <= diag.final_loglik + diag.ml_gap_nats + slack


def _random_hermitian(rng, *shape):
    g = rng.normal(size=(*shape, shape[-1])) + 1j * rng.normal(size=(*shape, shape[-1]))
    return 0.5 * (g + np.swapaxes(g.conj(), -1, -2))


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(3, 12),
    n_phases=st.integers(1, 3),
    n_bins=st.integers(1, 30),
)
def test_hermitian_coordinates_match_the_complex_contractions(seed, dim, n_phases, n_bins):
    # Born probabilities and weighted sums through the real design matrix are the
    # complex traces and sums, on any Hermitian stack and state, whatever the bins hold
    rng = np.random.default_rng(seed)
    povm = _random_hermitian(rng, n_phases, n_bins, dim)
    counts = rng.poisson(1.0, size=(n_phases, n_bins)).astype(float)
    counts[0, 0] += 1.0
    rho = _random_hermitian(rng, dim)
    c, design, index = tomography._design_matrix(BinnedData(np.arange(n_phases), counts), povm)
    e = povm.reshape(-1, dim, dim)[counts.reshape(-1) > 0]
    assert design.shape == (e.shape[0], dim * dim)
    assert np.array_equal(c, counts[counts > 0])

    born = tomography._born(design, rho, index)
    ref = np.einsum("jmn,nm->j", e, rho).real
    # relative to the size of the terms each sum adds, as cancellations can leave it near 0
    scale = np.einsum("jmn,nm->j", np.abs(e), np.abs(rho))
    assert np.all(np.abs(born - ref) <= 1e-12 * scale)

    w = rng.normal(size=e.shape[0])
    total = tomography._weighted_sum(w, design, index)
    ref = np.einsum("j,jmn->mn", w, e)
    assert np.all(np.abs(total - ref) <= 1e-12 * np.einsum("j,jmn->mn", np.abs(w), np.abs(e)))
    assert np.array_equal(total, total.conj().T)


_SPECIAL_THETAS = [0.0, -0.0, np.nan, -np.nan, 1.0, -1.0, np.inf, -np.inf, 5e-324, math.pi]


@given(
    picks=st.lists(st.integers(0, len(_SPECIAL_THETAS) - 1), min_size=1, max_size=80),
    others=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20),
    seed=st.integers(0, 2**32 - 1),
)
def test_sorted_distinct_is_np_unique_bit_for_bit(picks, others, seed):
    # -0.0 against 0.0 keeps whichever np.unique keeps, and repeated NaNs merge into one
    values = np.concatenate([np.take(_SPECIAL_THETAS, picks), np.asarray(others, dtype=np.float64)])
    values = np.random.default_rng(seed).permutation(values)
    ref = np.unique(values)
    out = tomography._sorted_distinct(values)
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))


def test_first_bin_samples_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call in a process (15-18 ms), which
    # a first binning would pay; a fresh interpreter shows whether it still does
    src = str(Path(tomography.__file__).resolve().parents[1])
    code = (
        "import sys, numpy as np\n"
        "from kerrsim.homodyne import SampleBatch\n"
        "from kerrsim.tomography import TomographyConfig, bin_samples\n"
        "assert 'numpy.ma' not in sys.modules, 'loaded at import'\n"
        "data = bin_samples(SampleBatch(np.repeat([0.5, 0.0, 0.5], 4), np.linspace(-1, 1, 12)),"
        " TomographyConfig())\n"
        "assert data.thetas.tolist() == [0.0, 0.5]\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"
