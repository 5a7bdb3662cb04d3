import contextlib
import csv
import dataclasses
import errno
import io
import json
import logging
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from kerrsim import _floatrepr, _parts, homodyne
from kerrsim.channels import LossChannel, apply_loss
from kerrsim.errors import NumericalError
from kerrsim.fock import DensityMatrix, basis_state, coherent_state, density_from_pure
from kerrsim.homodyne import (
    PhaseSchedule,
    SampleBatch,
    default_schedule,
    load_samples,
    projector_matrix,
    quadrature_pdf,
    quadrature_wavefunction,
    sample_quadratures,
    save_samples,
    wavefunction_table,
)

PI_QUARTER = 0.75112554446494248286  # pi^(-1/4)
INV_SQRT_PI = 0.56418958354775628695

# Gauss-Hermite quadrature integrates psi_m * psi_n exactly (polynomial x gaussian)
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(48)


def _gh_integrate(values_at_nodes):
    # integral f(x) dx with f = g(x) exp(-x^2) sampled as g at the GH nodes
    return float(np.sum(_GH_W * values_at_nodes))


def test_wavefunction_values():
    assert_allclose(quadrature_wavefunction(0, 0.0), PI_QUARTER, rtol=1e-14)
    assert_allclose(quadrature_wavefunction(1, 0.0), 0.0, atol=1e-14)
    with pytest.raises(ValueError):
        quadrature_wavefunction(-1, 0.0)


def test_wavefunction_orthonormality():
    table = wavefunction_table(8, _GH_X)
    gauss = np.exp(-_GH_X * _GH_X)
    for m in range(8):
        for n in range(8):
            integral = _gh_integrate(table[m] * table[n] / gauss)
            assert_allclose(integral, 1.0 if m == n else 0.0, atol=1e-8)


def test_wavefunction_high_order_stable():
    vals = wavefunction_table(33, np.linspace(-6, 6, 101))
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 2.0


def test_quadrature_helpers_return_1d_arrays():
    vac = density_from_pure(basis_state(0, 4))
    for x, shape in ((0.0, (1,)), ([0.0], (1,)), (np.linspace(-1.0, 1.0, 5), (5,))):
        for value in (quadrature_pdf(vac, 0.3, x), quadrature_wavefunction(2, x)):
            assert isinstance(value, np.ndarray) and value.shape == shape


def test_pdf_vacuum_and_single_photon():
    vac = density_from_pure(basis_state(0, 8))
    assert_allclose(quadrature_pdf(vac, 0.3, 0.0), INV_SQRT_PI, rtol=1e-13)
    one = density_from_pure(basis_state(1, 8))
    assert_allclose(quadrature_pdf(one, 0.0, 0.0), 0.0, atol=1e-14)


def test_pdf_coherent_mean_shift():
    rho = density_from_pure(coherent_state(0.53, 16))
    x = np.linspace(-6, 6, 2401)
    p = quadrature_pdf(rho, 0.0, x)
    mean = np.trapezoid(p * x, x)
    assert_allclose(mean, math.sqrt(2.0) * 0.53, atol=1e-9)
    # gaussian with vacuum variance around the shifted mean
    var = np.trapezoid(p * (x - mean) ** 2, x)
    assert_allclose(var, 0.5, atol=1e-9)


def test_pdf_normalization_and_nonnegativity():
    rng = np.random.default_rng(31)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = a @ a.conj().T
    rho = DensityMatrix(8, m / np.trace(m).real)
    x = np.linspace(-6, 6, 1201)
    for theta in (0.0, 0.4, 1.1):
        p = quadrature_pdf(rho, theta, x)
        assert np.all(p >= -1e-10)
        assert abs(np.trapezoid(p, x) - rho.trace) <= 1e-6


def test_pdf_phase_covariance():
    rng = np.random.default_rng(32)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m = a @ a.conj().T
    rho = DensityMatrix(6, m / np.trace(m).real)
    phi = 0.37
    rotation = np.exp(1j * phi * np.arange(6))
    rotated = DensityMatrix(6, rho.elems * np.outer(rotation, rotation.conj()))
    x = np.linspace(-5, 5, 301)
    assert_allclose(
        quadrature_pdf(rotated, 0.5, x), quadrature_pdf(rho, 0.5 + phi, x), atol=1e-10
    )


def test_projector_defining_identity():
    rng = np.random.default_rng(33)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = a @ a.conj().T
    rho = DensityMatrix(8, m / np.trace(m).real)
    for theta, x in ((0.0, 0.3), (0.9, -1.2), (2.5, 2.0)):
        e = projector_matrix(theta, x, 8)
        assert_allclose(e, e.conj().T, atol=0)
        assert_allclose(
            np.trace(rho.elems @ e).real, quadrature_pdf(rho, theta, x), atol=1e-12
        )


def test_projector_resolves_identity():
    gauss = np.exp(-_GH_X * _GH_X)
    total = np.zeros((6, 6), dtype=complex)
    for x, w, g in zip(_GH_X, _GH_W, gauss):
        total += (w / g) * projector_matrix(0.7, float(x), 6)
    assert_allclose(total, np.eye(6), atol=1e-6)


def test_schedule_validation():
    with pytest.raises(ValueError):
        PhaseSchedule(((0.0, 10), (0.0, 10)), seed=1)
    with pytest.raises(ValueError):
        PhaseSchedule(((0.0, 0),), seed=1)
    sched = default_schedule(seed=5, n_phases=12, samples_per_phase=10)
    assert sched.total == 120
    assert len({t for t, _ in sched.phases}) == 12


def test_sampling_vacuum_statistics():
    rho = density_from_pure(basis_state(0, 8))
    batch = sample_quadratures(rho, PhaseSchedule(((0.0, 100000),), seed=11), eta=1.0)
    se_var = math.sqrt(2.0 * 0.25 / 100000)
    assert abs(batch.xs.var() - 0.5) <= 4.0 * se_var


def test_sampling_coherent_mean():
    rho = density_from_pure(coherent_state(0.79, 16))
    batch = sample_quadratures(rho, PhaseSchedule(((0.0, 100000),), seed=12), eta=1.0)
    se = math.sqrt(0.5 / 100000)
    assert abs(batch.xs.mean() - math.sqrt(2.0) * 0.79) <= 3.0 * se


def test_sampling_deterministic():
    rho = density_from_pure(coherent_state(0.53, 12))
    sched = default_schedule(seed=77, n_phases=4, samples_per_phase=500)
    a = sample_quadratures(rho, sched, eta=0.66)
    b = sample_quadratures(rho, sched, eta=0.66)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.thetas, b.thetas)
    c = sample_quadratures(rho, default_schedule(seed=78, n_phases=4, samples_per_phase=500), eta=0.66)
    assert not np.array_equal(a.xs, c.xs)


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 10),
    counts=st.lists(st.integers(1, 40), min_size=1, max_size=5),
    eta=st.floats(0.0, 1.0),
)
def test_sampling_split_schedule(seed, dim, counts, eta):
    # each phase draws from its own stream keyed by (seed, its place in the schedule),
    # so a phase sampled without the others, in the same place, gives the joint block
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = DensityMatrix(dim, a @ a.conj().T / np.sum(np.abs(a) ** 2))
    thetas = np.sort(rng.uniform(0.0, math.pi, size=len(counts)))
    schedule = PhaseSchedule(tuple(zip(thetas.tolist(), counts)), seed)
    joint = sample_quadratures(rho, schedule, eta)
    blocks = np.split(joint.xs, np.cumsum(counts)[:-1])
    for k, (theta, count) in enumerate(schedule.phases):
        # the phases before k are replaced by one sample each at unrelated angles
        before = tuple((10.0 + i, 1) for i in range(k))
        alone = PhaseSchedule(before + ((theta, count),), seed)
        xs = sample_quadratures(rho, alone, eta).xs[k:]
        assert np.array_equal(xs, blocks[k])


def test_sampling_grid_deficit():
    rho = density_from_pure(coherent_state(0.79, 16))
    with mock.patch.object(homodyne, "GRID_HALFWIDTH", 0.5), pytest.raises(NumericalError):
        sample_quadratures(rho, PhaseSchedule(((0.0, 10),), seed=1), eta=1.0)


def _reference_samples(rho, schedule, eta):
    """Per phase, quadrature_pdf on the grid and np.interp of the uniforms: the plain sampler."""
    lossy = apply_loss(rho, LossChannel(eta))
    n_points = int(round(2.0 * homodyne.GRID_HALFWIDTH / homodyne.GRID_STEP)) + 1
    grid = np.linspace(-homodyne.GRID_HALFWIDTH, homodyne.GRID_HALFWIDTH, n_points)
    xs = []
    for index, (theta, count) in enumerate(schedule.phases):
        pdf = np.clip(quadrature_pdf(lossy, theta, grid), 0.0, None)
        cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))))
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=schedule.seed, spawn_key=(index,)))
        )
        xs.append(np.interp(rng.random(count), cdf / cdf[-1], grid))
    return np.concatenate(xs)


_CHUNK = homodyne._CHUNK_SHOTS


@settings(max_examples=20)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 12),
    eta=st.floats(0.0, 1.0, exclude_min=True),
    counts=st.lists(
        st.sampled_from([1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7]), min_size=1, max_size=3
    ),
)
def test_sampler_bit_identical_to_interp_reference(seed, dim, eta, counts):
    rng = np.random.default_rng(seed)
    # amplitudes falling off with n keep the state's mass inside the grid at every dim
    a = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) * 0.6 ** np.arange(dim)[:, None]
    rho = DensityMatrix(dim, a @ a.conj().T / np.sum(np.abs(a) ** 2))
    thetas = rng.uniform(0.0, math.pi, size=len(counts))
    schedule = PhaseSchedule(tuple(zip(thetas.tolist(), counts)), seed)
    batch = sample_quadratures(rho, schedule, eta)
    assert np.array_equal(batch.xs.view(np.int64), _reference_samples(rho, schedule, eta).view(np.int64))
    assert np.array_equal(batch.thetas, np.repeat(thetas, counts))


@settings(max_examples=40)
@given(counts=st.lists(st.integers(1, 40), min_size=1, max_size=3), chunk=st.integers(1, 9),
       data=st.data())
def test_shots_draw_any_rows_as_one_pass_draws_them(counts, chunk, data):
    # a phase's stream is moved to the first row by advance, four draws a step: rows that
    # start on a step or off it, and chunks that split phases, draw what the plain sampler does
    rho = density_from_pure(coherent_state(0.53, 8))
    thetas = (0.0, 1.0, 2.0)[:len(counts)]
    schedule = PhaseSchedule(tuple(zip(thetas, counts)), seed=7)
    reference = _reference_samples(rho, schedule, 0.66)
    lo = data.draw(st.integers(0, reference.size))
    hi = data.draw(st.integers(lo, reference.size))
    shots = homodyne._Shots(rho, schedule, 0.66)
    with mock.patch.object(homodyne, "_CHUNK_SHOTS", chunk):
        drawn = [(theta, x.copy()) for theta, x in shots.chunks(lo, hi)]
    assert all(0 < x.size <= chunk for _, x in drawn)
    xs = np.concatenate([np.empty(0), *(x for _, x in drawn)])
    assert np.array_equal(xs.view(np.int64), reference[lo:hi].view(np.int64))
    assert np.repeat([t for t, _ in drawn], [x.size for _, x in drawn]).tolist() == \
        np.repeat(thetas, counts)[lo:hi].tolist()


def _hand_built_cdfs():
    """(cdf, grid) pairs with flat runs, knots closer than a guide bucket and awkward grids."""
    k = homodyne._GUIDE_SIZE
    cdf = np.array([
        0.0, 0.0, 0.0,                           # flat head: u = 0 sits on three knots
        1e-9, 2e-9, 3e-9,                        # several knots in the first bucket
        0.25, 0.25, 0.25,                        # a plateau in the middle
        0.5, 0.5 + 2**-52,                       # a step far below the grid spacing
        0.75, 1.0 - 1.0 / k, 1.0 - 2**-40,       # knots inside the last bucket
        1.0, 1.0, 1.0,                           # flat tail
    ])
    even = np.linspace(-3.0, 3.0, cdf.size)
    # -0.0 on a knot: np.interp returns it, while slope * 0 + grid[j] would give +0.0
    signed = even.copy()
    signed[6] = -0.0
    # a huge step over a tiny rise overflows the slope to inf; on the knot, inf * 0 is NaN
    steep = even.copy()
    steep[10:] += 1e300
    return [(cdf, even), (cdf, signed), (cdf, steep)]


def test_inverse_cdf_lookup_matches_interp_on_hand_built_cdfs():
    k = homodyne._GUIDE_SIZE
    rng = np.random.default_rng(3)
    for cdf, grid in _hand_built_cdfs():
        knots = cdf[cdf < 1.0]
        buckets = np.arange(k) / k
        u = np.concatenate([
            knots,                                        # exactly on knots
            np.nextafter(knots, 1.0),
            np.nextafter(knots[knots > 0], 0.0),
            buckets, np.nextafter(buckets[1:], 0.0),      # bucket boundaries
            1.0 - rng.random(50) / k, [np.nextafter(1.0, 0.0)],   # the last bucket
            rng.random(2000),
        ])
        out = np.empty_like(u)
        homodyne._inverse_cdf(u, cdf, grid, out)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the plain formula would warn; np.interp does not
            expected = np.interp(u, cdf, grid)
        assert np.array_equal(out.view(np.int64), expected.view(np.int64))


def test_sampler_memory_is_bounded():
    # one 2 M-shot phase holds the batch's x column at full length; its uniforms are drawn,
    # and the lookup's temporaries made, one chunk at a time
    n = 2_000_004
    rho = density_from_pure(coherent_state(0.53, 16))
    tracemalloc.start()
    try:
        sample_quadratures(rho, PhaseSchedule(((0.4, n),), seed=3), eta=0.66)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n + 8 * 2**20


def test_sampled_batch_holds_8_bytes_a_shot():
    # x per shot and one theta per phase run: no per-shot theta column is kept
    n = 12 * 166667
    rho = density_from_pure(coherent_state(0.53, 16))
    schedule = default_schedule(seed=3, n_phases=12, samples_per_phase=166667)
    sample_quadratures(rho, default_schedule(1, 2, 2), eta=0.66)  # first-call imports
    tracemalloc.start()
    try:
        batch = sample_quadratures(rho, schedule, eta=0.66)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 8 * n + 2**16
    assert len(batch) == n and batch.run_thetas.size == 12


@pytest.mark.parametrize("n_phases, samples_per_phase", [(600, 1), (1, 2**17 + 3), (12, 16667)])
def test_shots_peak_bytes_bounds_the_sampler(n_phases, samples_per_phase):
    # the size rule admits the shot batch by this count, beside _sample_peak_bytes: many
    # phases, a phase of more than one lookup chunk, and the default schedule
    rho = density_from_pure(coherent_state(0.05, 4))
    sample_quadratures(rho, default_schedule(1, 2, 2), eta=0.66)  # first-call imports
    tracemalloc.start()
    try:
        sample_quadratures(rho, default_schedule(1, n_phases, samples_per_phase), eta=0.66)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= homodyne._sample_peak_bytes(4) + homodyne._shots_peak_bytes(
        n_phases, samples_per_phase)


def _theta_bits(value: float) -> int:
    return int(np.array(value).view(np.int64))


# signed zeros, infinities, a subnormal, and NaNs of several payloads and both signs, as bits
_SPECIAL_THETA_BITS = [_theta_bits(v) for v in (0.0, -0.0, math.inf, -math.inf, 5e-324, 1.5)] + [
    0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001, -0x0008000000000000,
    -0x0007FFFFFFFFFFFF]


@settings(max_examples=80)
@given(
    runs=st.lists(
        st.tuples(st.one_of(st.sampled_from(_SPECIAL_THETA_BITS), st.floats().map(_theta_bits)),
                  st.integers(1, 5)),
        max_size=12,
    ),
    distinct=st.integers(0, 40),
)
def test_sample_batch_thetas_round_trip_bit_for_bit(runs, distinct):
    # runs of bit-identical thetas, adjacent runs that repeat a value or differ only in
    # sign of zero or NaN payload, then ``distinct`` shots at all-distinct thetas
    bits = [b for b, count in runs for _ in range(count)]
    bits += (np.arange(distinct) + 0x3FF0000000000000).tolist()
    thetas = np.array(bits, dtype=np.int64).view(np.float64)
    xs = np.arange(thetas.size, dtype=np.float64)
    batch = SampleBatch(thetas, xs)
    assert len(batch) == thetas.size
    assert np.array_equal(batch.thetas.view(np.int64), thetas.view(np.int64))
    assert np.array_equal(batch.xs, xs)
    run_bits = batch.run_thetas.view(np.int64)
    assert np.all(run_bits[1:] != run_bits[:-1])  # each run as long as it can be
    assert batch.run_ends.size == np.count_nonzero(np.diff(thetas.view(np.int64))) + (thetas.size > 0)
    assert not batch.thetas.flags.writeable and not batch.xs.flags.writeable


def test_sample_batch_edge_shapes():
    empty = SampleBatch(np.array([]), np.array([]))
    assert len(empty) == 0 and empty.run_thetas.size == 0 and empty.thetas.size == 0
    one_run = SampleBatch(np.full(5, -0.0), np.arange(5.0))
    assert one_run.run_ends.tolist() == [5]
    assert one_run.thetas.view(np.int64).tolist() == [_theta_bits(-0.0)] * 5
    with pytest.raises(ValueError):
        SampleBatch(np.zeros(3), np.zeros(2))
    for ends in ([2, 2, 5], [2, 4], [0, 5], [6]):
        with pytest.raises(ValueError):
            SampleBatch.from_runs(np.zeros(len(ends)), ends, np.zeros(5))


def test_load_samples_rejects_foreign_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_samples(path)


def test_sample_roundtrip(tmp_path):
    rho = density_from_pure(coherent_state(0.3, 8))
    batch = sample_quadratures(rho, default_schedule(seed=9, n_phases=3, samples_per_phase=40), eta=1.0)
    # the batch carries samples alone: every field is an array of shots or of phase runs,
    # and its provenance (seed, eta, alpha) lives in the sidecar
    names = {f.name for f in dataclasses.fields(SampleBatch)}
    assert all(isinstance(getattr(batch, name), np.ndarray) for name in names)
    assert not names & {"seed", "eta", "alpha", "mode"}
    path = tmp_path / "samples.csv"
    save_samples(batch, path, meta={"alpha": 0.3, "seed": 9})
    # loading never warns: what the sidecar says, or that none describes the file, is the
    # caller's to report
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded, fields = load_samples(path)
        assert np.array_equal(loaded.xs, batch.xs)
        assert np.array_equal(loaded.thetas, batch.thetas)
        assert fields == {"schema_version": 1, "file": "samples.csv", "count": 120,
                          "alpha": 0.3, "seed": 9}
        meta_path = tmp_path / "samples_meta.json"
        meta = json.loads(meta_path.read_text())
        assert meta == fields
        del meta["file"]  # as written before sidecars named their file: still describes this one
        meta_path.write_text(json.dumps({**meta, "eta": 0.9}))
        assert load_samples(path)[1] == {**meta, "eta": 0.9}
        meta_path.write_text(json.dumps({**meta, "eta": 0.9, "file": "samples.npy"}))
        assert load_samples(path)[1] == {}
        os.remove(meta_path)
        unrecorded, fields = load_samples(path)
        assert fields == {} and np.array_equal(unrecorded.xs, batch.xs)


def test_load_samples_bit_identical_to_float_parsing(tmp_path):
    rng = np.random.default_rng(44)
    xs = np.concatenate([
        rng.normal(size=2000) * 10.0 ** rng.integers(-300, 300, size=2000),
        [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3],
    ])
    thetas = np.repeat(np.arange(3) * math.pi / 3, xs.size // 3 + 1)[: xs.size]
    path = tmp_path / "samples.csv"
    save_samples(SampleBatch(thetas, xs), path, meta={"seed": 4})
    # rows typed by hand, not by repr: short decimals, exponents, 17+ digits
    with open(path, "a", newline="") as fh:
        fh.write("0.5,1e-5\r\n2.0943951023931957,-3.14159265358979323846264\r\n1,7E+2\r\n")

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    expected_t = np.array([float(r[0]) for r in rows])
    expected_x = np.array([float(r[1]) for r in rows])
    loaded, fields = load_samples(path)
    assert fields == {}  # the appended rows leave the sidecar's count stale
    assert np.array_equal(loaded.thetas.view(np.int64), expected_t.view(np.int64))
    assert np.array_equal(loaded.xs.view(np.int64), expected_x.view(np.int64))
    assert np.array_equal(loaded.xs[: xs.size].view(np.int64), xs.view(np.int64))


def test_npy_samples_round_trip_bit_for_bit(tmp_path):
    rng = np.random.default_rng(45)
    xs = np.concatenate([
        rng.normal(size=2000) * 10.0 ** rng.integers(-300, 300, size=2000),
        [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3],
    ])
    thetas = np.repeat([0.0, -0.0, math.pi / 3], xs.size // 3 + 1)[: xs.size]
    path = tmp_path / "samples.npy"
    save_samples(SampleBatch(thetas, xs), path, meta={"seed": 4, "eta": 0.7})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded, fields = load_samples(path)
    assert (fields["seed"], fields["eta"]) == (4, 0.7)
    assert np.array_equal(loaded.thetas.view(np.int64), thetas.view(np.int64))
    assert np.array_equal(loaded.xs.view(np.int64), xs.view(np.int64))
    stored = np.load(path, allow_pickle=False)
    assert stored.dtype == np.float64 and stored.shape == (xs.size, 2)
    meta = json.loads((tmp_path / "samples_meta.json").read_text())
    assert (meta["file"], meta["count"]) == ("samples.npy", xs.size)


@pytest.mark.parametrize("fortran_order", [False, True])
@pytest.mark.parametrize("version", [(1, 0), (2, 0)])
def test_npy_reader_takes_any_layout_np_save_writes(fortran_order, version, tmp_path):
    # the rows are read a chunk at a time from the header's layout: a column-major table
    # (np.save of a transposed array) and a 2.0 header read as the row-major 1.0 file does
    rng = np.random.default_rng(6)
    table = np.column_stack([np.repeat([0.5, -0.0, 2.0], 7), rng.normal(size=21)])
    path = tmp_path / "samples.npy"
    with open(path, "wb") as fh:
        np.lib.format.write_array(
            fh, np.asfortranarray(table) if fortran_order else table, version=version)
    with mock.patch.object(homodyne, "_CHUNK_SHOTS", 4):
        loaded, _ = load_samples(path)
    assert np.array_equal(loaded.thetas.view(np.int64), table[:, 0].view(np.int64))
    assert np.array_equal(loaded.xs.view(np.int64), table[:, 1].view(np.int64))


@pytest.mark.parametrize("n", [0, 1, 5, 2**16, 2**16 + 1, 200_004])
def test_npy_samples_are_the_bytes_np_save_gives(n, tmp_path):
    # the header, then the rows a chunk at a time: the file np.save gives for the table
    rng = np.random.default_rng(n)
    thetas = np.repeat([0.3, -0.0, math.pi], [n // 3, n // 3, n - 2 * (n // 3)])
    batch = SampleBatch(thetas, rng.normal(size=n))
    reference = io.BytesIO()
    np.save(reference, np.column_stack([thetas, batch.xs]).reshape(n, 2), allow_pickle=False)
    assert _saved_bytes(batch, tmp_path / "samples.npy") == reference.getvalue()


def test_npy_writer_holds_one_chunk_of_rows(tmp_path):
    # 200,004 shots make a 3.2 MB table; the writer holds one 1 MiB chunk of rows instead
    batch = SampleBatch(np.repeat([0.0, 1.5], 100_002), np.linspace(-3.0, 3.0, 200_004))
    save_samples(SampleBatch([0.0], [0.0]), tmp_path / "warm.npy")  # first-call imports
    tracemalloc.start()
    try:
        save_samples(batch, tmp_path / "samples.npy")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * homodyne._CHUNK_SHOTS < 16 * len(batch)


def test_load_samples_header_only(tmp_path):
    path = tmp_path / "samples.csv"
    save_samples(SampleBatch(np.array([0.0]), np.array([0.1])), path, meta={"seed": 2})
    path.write_text("theta,x\r\n")  # the sidecar stays, but its count of 1 is stale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded, fields = load_samples(path)
    assert len(loaded) == 0 and fields == {}
    path.write_text("")
    with pytest.raises(ValueError, match="header"):
        load_samples(path)


def _reference_csv(batch):
    """The row-by-row writer save_samples replaced: two reprs per row, CRLF ends."""
    rows = zip(batch.thetas.tolist(), batch.xs.tolist())
    return ("theta,x\r\n" + "".join(f"{t!r},{x!r}\r\n" for t, x in rows)).encode()


def _saved_bytes(batch, path):
    save_samples(batch, path)
    return path.read_bytes()



_EDGE_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5, 9999999999999998.0,
                0.0001, math.pi, -1.5)


@given(
    runs=st.lists(
        st.tuples(
            st.one_of(st.sampled_from((0.0, -0.0)), st.sampled_from(_EDGE_FLOATS), st.floats()),
            st.integers(1, 7),
        ),
        max_size=12,
    ),
    xs_pool=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=20),
    chunk=st.integers(1, 5),
    cpus=st.integers(1, 4),
    worker_rows=st.integers(1, 9),
)
def test_save_samples_bytes_match_row_writer(runs, xs_pool, chunk, cpus, worker_rows,
                                             tmp_path_factory):
    # runs of equal theta of any length, adjacent runs may repeat a theta or
    # differ only in sign of zero; small chunks put chunk edges inside runs, and
    # up to 4 worker processes of at least worker_rows rows put range edges there
    thetas = np.array([t for t, count in runs for _ in range(count)], dtype=np.float64)
    xs = np.resize(np.array(xs_pool), thetas.size)
    batch = SampleBatch(thetas, xs)
    path = tmp_path_factory.mktemp("csv") / "samples.csv"
    with mock.patch.object(homodyne, "_CSV_CHUNK_ROWS", chunk), \
            mock.patch.object(homodyne, "_CHUNK_SHOTS", worker_rows), \
            mock.patch.object(_parts, "_usable_cpus", return_value=cpus):
        assert _saved_bytes(batch, path) == _reference_csv(batch)
    assert sorted(os.listdir(path.parent)) == ["samples.csv", "samples_meta.json"]


@pytest.mark.parametrize(
    "thetas, xs",
    [
        ([], []),
        ([0.5], [-0.25]),
        ([0.0, -0.0, 0.0, -0.0], [1.0, 2.0, 3.0, 4.0]),
        ([math.nan, math.nan, math.inf, -math.inf], [math.nan, math.inf, -math.inf, 0.0]),
        ([5e-324, 5e-324, -5e-324], [5e-324, -0.0, 1.7976931348623157e308]),
        ([1e16, 1e16, 1e-5, 1e-5], [1e16, 9999999999999998.0, 1e-5, 0.0001]),
        ([0.0, 1.0, 0.0, 1.0], [0.1, 0.2, 0.3, 0.4]),
    ],
    ids=["empty", "one-row", "signed-zero-runs", "nan-inf", "subnormal", "exponent-switch",
         "interleaved"],
)
def test_save_samples_edge_rows(thetas, xs, tmp_path):
    batch = SampleBatch(np.array(thetas, dtype=np.float64), np.array(xs, dtype=np.float64))
    assert _saved_bytes(batch, tmp_path / "samples.csv") == _reference_csv(batch)


def _repr_rows(prefix, xs):
    """The rows ``prefix + repr(x) + CRLF``, as the writer joined them before _format_rows."""
    prefix = prefix.decode()
    return (prefix + ("\r\n" + prefix).join(map(repr, xs.tolist())) + "\r\n").encode()


def test_format_rows_is_repr_bit_for_bit():
    # the edges of the formatter's array path: powers of two (ulp(x) is halved below them)
    # and of ten (the range, and an estimate of floor(log10|x|) one off), with their
    # neighbours; 1 + 2**-j, exact ties at 15 to 17 digits for some j; values repr formats
    # alone; then normal draws as the sampler gives, and draws spread over the range's decades
    powers = np.array([2.0**e for e in range(-16, 50)] + [10.0**e for e in range(-5, 16)])
    edges = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    ties = 1.0 + 2.0 ** -np.arange(1, 53)
    special = np.array([0.0, math.nan, math.inf, 5e-324, 1e-310, 2.2250738585072014e-308,
                        1.7976931348623157e308, 0.1, 0.5, 1.0, 123456.789, 99.99999999999999])
    listed = np.concatenate([edges, ties, special])
    rng = np.random.default_rng(20230)
    draws = rng.normal(0.0, 1.3, 10**6)
    spread = draws[:20_000] * 10.0 ** rng.integers(-5, 16, 20_000)
    for xs in (np.concatenate([listed, -listed]), draws, spread):
        for lo in range(0, xs.size, homodyne._CSV_CHUNK_ROWS):
            chunk = xs[lo:lo + homodyne._CSV_CHUNK_ROWS]
            assert _floatrepr.format_rows(b"0.5,", chunk) == _repr_rows(b"0.5,", chunk)
    assert _floatrepr.format_rows(b"-2.0943951023931957,", ties) == \
        _repr_rows(b"-2.0943951023931957,", ties)


# float64 bit patterns: any (NaN payloads, infinities, subnormals, every exponent), and a
# few ulps either side of the array path's edges, +-1e-4 and +-100
_EDGE_BITS = [int(np.float64(edge).view(np.uint64)) for edge in (1e-4, 100.0)]
_FLOAT_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.builds(lambda edge, ulps, sign: (edge + ulps) | sign, st.sampled_from(_EDGE_BITS),
              st.integers(-4, 4), st.sampled_from([0, 1 << 63])),
)


@given(st.lists(_FLOAT_BITS, min_size=1, max_size=64))
def test_format_rows_is_repr_for_any_float64(bits):
    xs = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _floatrepr.format_rows(b"0.5,", xs) == _repr_rows(b"0.5,", xs)


def test_formatter_is_loaded_by_a_csv_write_and_its_table_let_go(tmp_path):
    # `import kerrsim` does not compile the formatter, which raised its peak RSS; a process
    # that writes a CSV and then reconstructs does not hold the digit table at its peak
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(homodyne.__file__))}
    code = "import sys, kerrsim.cli; print('kerrsim._floatrepr' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"
    save_samples(SampleBatch(np.zeros(3), np.array([0.25, -1.5, 3e-7])), tmp_path / "s.csv")
    assert _floatrepr.digit_words.cache_info().currsize == 0


def _two_column_piece(text, before):
    """_parse_piece's table or error message, parsed on both columns."""
    with mock.patch.object(homodyne, "_one_phase", return_value=None):
        try:
            return homodyne._parse_piece(text, before)
        except ValueError as exc:
            return str(exc)


@pytest.mark.parametrize("piece, x_only", [
    ("0.5,1.0\r\n0.5,-2.5\r\n0.5,3e-7", True), ("0.50,1.0\r\n0.50,-2.5\r\n", False),
    (" 0.5,1.0\r\n 0.5,-2.5\r\n", False), ("5e-1,1.0\r\n5e-1,-2.5\r\n", False),
    ("0.5,1.0\r\n0.50,-2.5\r\n", False), ("0.5,1.0\r\n0.25,-2.5\r\n", False),
    ("0.5,1.0\r\n-0.5,-2.5\r\n", False), ("0.5,1.0\r\n0.5,abc\r\n", False),
    ("0.5,1.0\r\n0.5,\r\n", False), ("0.5,1.0\r\n0.5\r\n", False),
    ("0.5,1.0\r0.5,-2.5\r\n", False), ("0.5,1.0\r\n\r\n0.5,-2.5\r\n", False),
    ("0.5,1.0\r\n# note\r\n", False), ("0.5,1.0\r\n0.5,-2.5,7\r\n", True),
    ("nan,1.0\r\nnan,2.0\r\n", True), ("0.5,nan\r\n", True),
], ids=["one-phase", "trailing-zero", "space", "exponent", "mixed-text", "two-phases",
        "signed", "bad-x", "missing-x", "no-comma", "lone-cr", "blank-line", "comment",
        "third-column", "nan-theta", "nan-x"])
def test_parse_piece_is_the_two_column_parse(piece, x_only):
    # a piece parsed on its x column alone gives the table the two-column parse gives, bit
    # for bit; any other falls through to that parse, and raises its error
    expected = _two_column_piece(piece, 7)
    try:
        got = homodyne._parse_piece(piece, 7)
    except ValueError as exc:
        got = str(exc)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert (homodyne._one_phase(piece) is not None) == x_only


def test_sampled_csv_takes_the_x_only_parse(tmp_path):
    # every piece of the sampler's CSV that holds one phase is parsed on its x column alone
    rho = density_from_pure(coherent_state(0.53, 16))
    schedule = default_schedule(seed=4242, n_phases=12, samples_per_phase=5000)
    batch = sample_quadratures(rho, schedule, eta=0.66)
    path = tmp_path / "samples.csv"
    save_samples(batch, path)
    one_phase, parsed = homodyne._one_phase, []

    def recorded(text):
        table = one_phase(text)
        parsed.append((table is not None, len({line.split(",")[0] for line in text.splitlines()})))
        return table

    with mock.patch.object(_parts, "_usable_cpus", return_value=1), \
            mock.patch.object(homodyne, "_CSV_SLICE_BYTES", 2**14), \
            mock.patch.object(homodyne, "_one_phase", recorded):
        loaded, _ = load_samples(path)
    # a piece that straddles a phase edge is parsed on both columns, and no other
    assert len(parsed) > 100 and all(x_only == (phases == 1) for x_only, phases in parsed)
    assert sum(phases == 2 for _, phases in parsed) == 11
    assert np.array_equal(loaded.xs.view(np.int64), batch.xs.view(np.int64))
    assert np.array_equal(loaded.thetas.view(np.int64), batch.thetas.view(np.int64))


@pytest.mark.parametrize("dim", [3, 8, 16, 40, 96, 200])
def test_sample_peak_bytes_bounds_the_sampler(dim):
    # the size rule admits sim_dim by this count, so it must cover what sampling holds
    # beside its few shots, and stay within twice that; its leading term, the tables on
    # the sampling grid, dominates at every admitted dim
    rho = density_from_pure(coherent_state(0.05, dim))
    schedule = default_schedule(seed=1, n_phases=2, samples_per_phase=10)
    sample_quadratures(rho, schedule, eta=0.66)  # first-call imports outside the count
    tracemalloc.start()
    try:
        sample_quadratures(rho, schedule, eta=0.66)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= homodyne._sample_peak_bytes(dim) <= 2 * peak


def test_save_samples_default_batch_bytes(tmp_path):
    rho = density_from_pure(coherent_state(0.53, 16))
    schedule = default_schedule(seed=20230, n_phases=12, samples_per_phase=16667)
    batch = sample_quadratures(rho, schedule, eta=0.66)
    assert len(batch) == 12 * 16667
    # 200k rows give every usable CPU up to three a range of its own
    workers = _parts._worker_count(len(batch) // homodyne._CHUNK_SHOTS)
    assert workers == min(_parts._usable_cpus(), 3)
    path = tmp_path / "samples.csv"
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        assert _saved_bytes(batch, path) == _reference_csv(batch)
        assert fork.call_count == workers - 1
        loaded, _ = load_samples(path)
        assert fork.call_count == 2 * (workers - 1)
    assert np.array_equal(loaded.xs.view(np.int64), batch.xs.view(np.int64))
    assert np.array_equal(loaded.thetas.view(np.int64), batch.thetas.view(np.int64))


def test_csv_forks_no_worker_while_another_thread_runs(tmp_path, caplog):
    # a forked child inherits every lock another thread holds, and Python 3.12 warns of
    # fork() in a threaded process; with a live thread the CSV is one process's work
    rho = density_from_pure(coherent_state(0.53, 16))
    batch = sample_quadratures(rho, default_schedule(seed=20230, n_phases=12, samples_per_phase=16667),
                               eta=0.66)
    forked = tmp_path / "forked.csv"
    save_samples(batch, forked)
    forked_load, _ = load_samples(forked)
    release = threading.Event()
    helper = threading.Thread(target=release.wait)
    helper.start()
    try:
        assert _parts._worker_count(len(batch) // homodyne._CHUNK_SHOTS) == 1
        path = tmp_path / "threaded.csv"
        with caplog.at_level("INFO", logger="kerrsim"), \
                mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
            save_samples(batch, path)
            loaded, _ = load_samples(path)
    finally:
        release.set()
        helper.join(timeout=10)
    assert not helper.is_alive()
    assert [r.getMessage() for r in caplog.records] == [
        "threaded.csv: 200004 rows written, 1 worker", "threaded.csv: 200004 rows read, 1 worker"]
    assert path.read_bytes() == forked.read_bytes()
    for got in (loaded, forked_load):
        assert np.array_equal(got.xs.view(np.int64), batch.xs.view(np.int64))
        assert np.array_equal(got.thetas.view(np.int64), batch.thetas.view(np.int64))


def _whole_file_loadtxt(path):
    """One np.loadtxt over everything after the header: the reader load_samples splits in ranges."""
    with open(path, newline="") as fh:
        fh.readline()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return np.loadtxt(fh, delimiter=",", usecols=(0, 1), ndmin=2)


def _as_data_row(message):
    """np.loadtxt's error for the whole body, its row named as load_samples names a bad row: the
    1-based data row (np.loadtxt counts from 0 where a value is not a number, from 1 where one
    is missing)."""
    shift = message.startswith("could not convert")
    return re.sub(r"\bat row (\d+)", lambda m: f"at data row {int(m[1]) + shift}", message, count=1)


def _in_ranges(cpus, slice_bytes):
    """Patches that split even a small CSV over ``cpus`` processes, slice by slice."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(homodyne, "_CHUNK_SHOTS", 1))
    stack.enter_context(mock.patch.object(_parts, "_usable_cpus", return_value=cpus))
    stack.enter_context(mock.patch.object(homodyne, "_CSV_SLICE_BYTES", slice_bytes))
    return stack


# rows typed by hand, not by repr: short decimals, exponents, 17+ digits; a blank line, a
# comment line, and a row of spaces, which np.loadtxt rejects
_TYPED_ROWS = ("0.5,1e-5", "2.0943951023931957,-3.14159265358979323846264", "1,7E+2",
               "-0.0,5e-324", "0.1,1.7976931348623157e308", "", "# comment", "   ")


@settings(max_examples=60)
@given(
    rows=st.lists(
        st.one_of(
            st.sampled_from(_TYPED_ROWS),
            st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                      st.floats(allow_nan=False, allow_infinity=False)).map(
                lambda r: f"{r[0]!r},{r[1]!r}"),
        ),
        max_size=40,
    ),
    ends=st.sampled_from(["\r\n", "\n"]),
    last_end=st.booleans(),
    cpus=st.integers(2, 4),
    slice_bytes=st.integers(1, 64),
)
def test_load_samples_in_ranges_matches_whole_file_loadtxt(rows, ends, last_end, cpus, slice_bytes,
                                                           tmp_path_factory):
    # slices of a few bytes put the range edges at arbitrary lines; the last row
    # may lack its line end, and a file of blank rows or none is header-only
    text = "theta,x\r\n" + ends.join(rows) + (ends if rows and last_end else "")
    path = tmp_path_factory.mktemp("csv") / "samples.csv"
    path.write_bytes(text.encode())
    try:
        expected = _whole_file_loadtxt(path)
    except ValueError as exc:  # a row of spaces is not a blank line
        with _in_ranges(cpus, slice_bytes), pytest.raises(ValueError) as ranged:
            load_samples(path)
        assert str(ranged.value) == _as_data_row(str(exc))
        return
    with _in_ranges(cpus, slice_bytes):
        loaded, _ = load_samples(path)
    assert np.array_equal(loaded.thetas.view(np.int64), expected[:, 0].view(np.int64))
    assert np.array_equal(loaded.xs.view(np.int64), expected[:, 1].view(np.int64))


@pytest.mark.parametrize("bad_row", ["1.0,abc", "2.0", "0.5,", "1.0;2.0"])
def test_load_samples_bad_row_in_last_range_raises_the_whole_file_error(bad_row, tmp_path):
    path = tmp_path / "samples.csv"
    rows = [f"{i * 0.25!r},{i / 7!r}" for i in range(60)] + [bad_row, "0.5,0.5"]
    path.write_text("theta,x\r\n" + "\r\n".join(rows) + "\r\n", newline="")
    with pytest.raises(ValueError) as whole:
        _whole_file_loadtxt(path)
    for cpus in (2, 3):
        with _in_ranges(cpus, 16), mock.patch.object(os, "fork", wraps=os.fork) as fork:
            with pytest.raises(ValueError) as ranged:
                load_samples(path)
        assert fork.call_count == cpus - 1
        assert str(ranged.value) == _as_data_row(str(whole.value))
        assert "at data row 61" in str(ranged.value)


_PHASES = (0.0, -0.0, math.pi / 12, 1.5, 1e-300)


@settings(max_examples=40)
@given(
    counts=st.lists(st.integers(0, 30), min_size=len(_PHASES), max_size=len(_PHASES)),
    seed=st.integers(0, 2**32 - 1),
    shuffled=st.booleans(),
    cpus=st.integers(1, 3),
    slice_bytes=st.integers(1, 96),
)
def test_csv_round_trip_of_shuffled_batch_matches_per_shot_reference(counts, seed, shuffled, cpus,
                                                                       slice_bytes, tmp_path_factory):
    # shuffled shots make runs of one or a few rows, whose edges fall on every range and
    # slice edge; the reference is the per-shot columns the batch was built from
    rng = np.random.default_rng(seed)
    thetas = np.repeat(np.array(_PHASES), counts)
    xs = rng.normal(size=thetas.size) * 10.0 ** rng.integers(-5, 5, size=thetas.size)
    if shuffled:
        order = rng.permutation(thetas.size)
        thetas, xs = thetas[order], xs[order]
    batch = SampleBatch(thetas, xs)
    path = tmp_path_factory.mktemp("csv") / "samples.csv"
    with _in_ranges(cpus, slice_bytes):
        save_samples(batch, path)
        loaded, fields = load_samples(path)
    assert path.read_bytes() == ("theta,x\r\n" + "".join(
        f"{t!r},{x!r}\r\n" for t, x in zip(thetas.tolist(), xs.tolist()))).encode()
    assert fields["count"] == thetas.size
    assert np.array_equal(loaded.thetas.view(np.int64), thetas.view(np.int64))
    assert np.array_equal(loaded.xs.view(np.int64), xs.view(np.int64))
    run_bits = loaded.run_thetas.view(np.int64)
    assert np.all(run_bits[1:] != run_bits[:-1])  # runs split at a range or slice edge are joined


@pytest.mark.parametrize("suffix", [".csv", ".npy"])
@pytest.mark.parametrize("cpus", [1, 3])
def test_load_samples_names_the_first_bad_row_of_theta_or_x(suffix, cpus, tmp_path):
    # a NaN theta run after an infinite x, and an infinite x after a NaN theta run: the
    # error names whichever bad row comes first
    thetas = np.repeat([0.0, 0.5, 1.0], 20)
    for bad_x, bad_theta_run in ((7, 1), (45, 1), (0, 2), (59, 0)):
        t, x = thetas.copy(), np.linspace(-1.0, 1.0, thetas.size)
        x[bad_x] = -math.inf
        t[t == t[20 * bad_theta_run]] = math.nan
        path = tmp_path / f"samples{suffix}"
        with _in_ranges(cpus, 16):
            save_samples(SampleBatch(t, x), path)
            with pytest.raises(ValueError) as exc:
                load_samples(path)
        first = min(bad_x, 20 * bad_theta_run) + 1
        assert str(exc.value) == f"non-finite theta or x in data row {first}"


def _failing_in_children(fn, failure):
    """``fn`` that runs ``failure(*args)`` instead in every process but this one."""
    parent = os.getpid()

    def wrapped(*args, **kwargs):
        if os.getpid() != parent:
            failure(*args)
        return fn(*args, **kwargs)
    return wrapped


def _raise(exc):
    def failure(*_):
        raise exc
    return failure


def _killed(*_):
    os.kill(os.getpid(), signal.SIGKILL)


_SMALL_BATCH = SampleBatch(np.repeat([0.0, -0.0, 1.5], 20), np.linspace(-2.0, 2.0, 60))


@pytest.mark.parametrize(
    "failure, raised",
    [(_raise(OSError(errno.ENOSPC, "No space left on device", "samples.csv.part")), OSError),
     (_raise(RuntimeError("formatter broke")), RuntimeError),
     (_killed, ChildProcessError)],
    ids=["oserror", "exception", "killed"],
)
def test_save_samples_child_failure_raises_and_leaves_nothing(failure, raised, tmp_path):
    # a child's exception is raised here as this process would raise it, errno and filename
    # included; a child that ends without its result is a ChildProcessError
    path = tmp_path / "samples.csv"
    write_rows = _failing_in_children(homodyne._write_rows, failure)
    with _in_ranges(3, 16), mock.patch.object(homodyne, "_write_rows", write_rows):
        with pytest.raises(raised) as exc:
            save_samples(_SMALL_BATCH, path)
    if raised is OSError:
        assert (exc.value.errno, exc.value.filename) == (errno.ENOSPC, "samples.csv.part")
    elif raised is RuntimeError:
        assert str(exc.value) == "formatter broke"
    assert os.listdir(tmp_path) == []


def test_csv_children_log_and_warn_as_one_process(tmp_path, caplog):
    # each range logs and warns where it runs; the children's records and warnings are
    # given here after this process's own, in range order, and the children show none
    write_rows = homodyne._write_rows

    def noisy(batch, lo, hi, fh):
        logging.getLogger("kerrsim").info("rows %d..%d", lo, hi)
        warnings.warn(f"rows {lo}..{hi}")
        write_rows(batch, lo, hi, fh)

    caplog.set_level("INFO", logger="kerrsim")
    with _in_ranges(3, 16), mock.patch.object(homodyne, "_write_rows", noisy), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        save_samples(_SMALL_BATCH, tmp_path / "samples.csv")
    ranges = ["rows 0..20", "rows 20..40", "rows 40..60"]
    assert [str(w.message) for w in caught] == ranges
    assert [r.getMessage() for r in caplog.records] == [
        *ranges, "samples.csv: 60 rows written, 3 workers"]
    assert (tmp_path / "samples.csv").read_bytes() == _reference_csv(_SMALL_BATCH)


def test_save_samples_failure_here_kills_and_reaps_the_children(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_bytes(b"previous")
    parent = os.getpid()

    def write_rows(batch, lo, hi, fh):
        if os.getpid() != parent:
            time.sleep(60)  # a child that would outlive the test unless killed
        raise OSError(errno.EIO, "Input/output error")

    start = time.monotonic()
    with _in_ranges(3, 16), mock.patch.object(homodyne, "_write_rows", write_rows):
        with pytest.raises(OSError):
            save_samples(_SMALL_BATCH, path)
    assert time.monotonic() - start < 30
    assert os.listdir(tmp_path) == ["samples.csv"] and path.read_bytes() == b"previous"


@pytest.mark.parametrize(
    "failure, raised",
    [(_raise(RuntimeError("parser broke")), "parser broke"),
     (_killed, f"a worker process failed (killed by signal {signal.SIGKILL})")],
    ids=["exception", "killed"],
)
def test_load_samples_child_failure_is_raised(failure, raised, tmp_path):
    # a reading child's failure is raised here as a writing child's is: its exception, or a
    # ChildProcessError for a child that ends without its result; no range is parsed again
    path = tmp_path / "samples.csv"
    save_samples(_SMALL_BATCH, path)
    parse_range = _failing_in_children(homodyne._parse_range, failure)
    with _in_ranges(3, 16), \
            mock.patch.object(homodyne, "_parse_range", wraps=parse_range) as here, \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        with pytest.raises(ChildProcessError if failure is _killed else RuntimeError) as exc:
            load_samples(path)
    assert (fork.call_count, here.call_count) == (2, 1)
    assert str(exc.value) == raised
    assert sorted(os.listdir(tmp_path)) == ["samples.csv", "samples_meta.json"]


def test_load_samples_bad_row_in_last_range_parses_each_range_once(tmp_path):
    # the range that holds the bad row names it as the file's data row, as one process
    # would; no process parses the file, or a range, a second time
    path = tmp_path / "samples.csv"
    rows = [f"{i * 0.25!r},{i / 7!r}" for i in range(60)] + ["1.0,abc"]
    path.write_text("theta,x\r\n" + "\r\n".join(rows) + "\r\n", newline="")
    with pytest.raises(ValueError) as whole:
        _whole_file_loadtxt(path)
    calls, parse_range = tmp_path / "calls", homodyne._parse_range

    def recorded(path, lo, hi, *args):
        with open(calls, "a") as fh:  # one small append a call, from any process
            fh.write(f"{lo} {hi}\n")
        return parse_range(path, lo, hi, *args)

    with _in_ranges(3, 16), mock.patch.object(homodyne, "_parse_range", recorded):
        offsets = homodyne._csv_ranges(path, len("theta,x\r\n"))
        with pytest.raises(ValueError) as ranged:
            load_samples(path)
    assert len(offsets) == 4 and offsets[2] < path.read_bytes().index(b"1.0,abc")
    assert sorted(tuple(map(int, line.split())) for line in calls.read_text().splitlines()) == \
        list(zip(offsets, offsets[1:]))
    assert str(ranged.value) == _as_data_row(str(whole.value))
    assert str(ranged.value) == "could not convert string 'abc' to float64 at data row 61, column 2."


@pytest.mark.parametrize("irregular", ["", "# note", "0.5,0.5\r0.75,0.5"],
                         ids=["blank", "comment", "lone-cr"])
def test_load_samples_irregular_file_parses_each_range_once(irregular, tmp_path):
    # a blank, comment or lone-CR line in the first range gives it other than a row a line;
    # the rows are numbered once every range is parsed, so no range, and not the file, is
    # parsed again, and the last range's bad row is named as one np.loadtxt of the file names it
    path = tmp_path / "samples.csv"
    rows = [f"{i * 0.25!r},{i / 7!r}" for i in range(60)] + ["1.0,abc"]
    rows.insert(3, irregular)
    path.write_text("theta,x\r\n" + "\r\n".join(rows) + "\r\n", newline="")
    with pytest.raises(ValueError) as whole:
        _whole_file_loadtxt(path)
    calls, parse_range = tmp_path / "calls", homodyne._parse_range

    def recorded(path, lo, hi, *args):
        with open(calls, "a") as fh:  # one small append a call, from any process
            fh.write(f"{lo} {hi}\n")
        return parse_range(path, lo, hi, *args)

    with _in_ranges(3, 16), mock.patch.object(homodyne, "_parse_range", recorded):
        offsets = homodyne._csv_ranges(path, len("theta,x\r\n"))
        with pytest.raises(ValueError) as ranged:
            load_samples(path)
    text = path.read_bytes()
    assert len(offsets) == 4
    assert offsets[1] > text.index(rows[4].encode()) and offsets[2] < text.index(b"1.0,abc")
    assert sorted(tuple(map(int, line.split())) for line in calls.read_text().splitlines()) == \
        list(zip(offsets, offsets[1:]))
    assert str(ranged.value) == _as_data_row(str(whole.value))
    assert str(ranged.value) == ("could not convert string 'abc' to float64 at data row "
                                 f"{61 + irregular.count(',')}, column 2.")


@pytest.mark.parametrize("cpus", [1, 3])
def test_load_samples_peak_is_16_bytes_a_row(cpus, tmp_path):
    # each range returns its x values in pieces, and this process joins them into the
    # batch's column: 8 bytes a row each, traced in every process, with no shared column;
    # the rest measured 0.05-0.42 MiB at 200,004 and 2,000,004 rows, on 1 and 3 ranges
    rho = density_from_pure(coherent_state(0.53, 16))
    schedule = default_schedule(seed=4242, n_phases=12, samples_per_phase=16667)
    path = tmp_path / "samples.csv"
    save_samples(sample_quadratures(rho, schedule, eta=0.66), path)
    with mock.patch.object(_parts, "_usable_cpus", return_value=cpus), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        load_samples(path)  # first-call imports outside the count
        tracemalloc.start()
        try:
            batch, _ = load_samples(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert fork.call_count == 2 * (cpus - 1)
    assert len(batch) == 200_004
    assert peak < 16 * len(batch) + 2**20


def test_one_usable_cpu_never_forks(tmp_path):
    path = tmp_path / "samples.csv"
    with mock.patch.object(homodyne, "_CHUNK_SHOTS", 1), \
            mock.patch.object(os, "sched_getaffinity", return_value={0}), \
            mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        assert _parts._worker_count(len(_SMALL_BATCH) // homodyne._CHUNK_SHOTS) == 1
        save_samples(_SMALL_BATCH, path)
        loaded, _ = load_samples(path)
    assert path.read_bytes() == _reference_csv(_SMALL_BATCH)
    assert np.array_equal(loaded.xs, _SMALL_BATCH.xs)


def test_sidecar_beside_extensionless_path_in_dotted_dir(tmp_path):
    batch = SampleBatch(np.array([0.0, 0.5]), np.array([0.1, -0.2]))
    rundir = tmp_path / "run.v2"
    rundir.mkdir()
    save_samples(batch, rundir / "samples", meta={"alpha": 0.53})
    assert sorted(os.listdir(tmp_path)) == ["run.v2"]
    assert sorted(os.listdir(rundir)) == ["samples", "samples_meta.json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_samples(rundir / "samples")[1]["alpha"] == 0.53
    save_samples(batch, rundir / "samples.csv")  # a .csv path keeps its sidecar name
    assert sorted(os.listdir(rundir)) == ["samples", "samples.csv", "samples_meta.json"]
