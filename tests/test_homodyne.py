import contextlib
import csv
import dataclasses
import errno
import json
import math
import os
import signal
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from kerrsim import homodyne
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
    # one 2 M-shot phase holds the batch (thetas and xs) and the phase's uniforms at
    # full length; the lookup's temporaries stay within a few chunks
    n = 2_000_004
    rho = density_from_pure(coherent_state(0.53, 16))
    tracemalloc.start()
    try:
        sample_quadratures(rho, PhaseSchedule(((0.4, n),), seed=3), eta=0.66)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n + 8 * 2**20


def test_load_samples_rejects_foreign_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_samples(path)


def test_sample_roundtrip(tmp_path):
    rho = density_from_pure(coherent_state(0.3, 8))
    batch = sample_quadratures(rho, default_schedule(seed=9, n_phases=3, samples_per_phase=40), eta=1.0)
    assert [f.name for f in dataclasses.fields(SampleBatch)] == ["thetas", "xs"]
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


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
            mock.patch.object(homodyne, "_usable_cpus", return_value=cpus):
        assert _saved_bytes(batch, path) == _reference_csv(batch)
    assert sorted(os.listdir(path.parent)) == ["samples.csv", "samples_meta.json"]
    _assert_no_child_left()


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


def test_save_samples_default_batch_bytes(tmp_path):
    rho = density_from_pure(coherent_state(0.53, 16))
    schedule = default_schedule(seed=20230, n_phases=12, samples_per_phase=16667)
    batch = sample_quadratures(rho, schedule, eta=0.66)
    assert len(batch) == 12 * 16667
    # 200k rows give every usable CPU up to three a range of its own
    workers = homodyne._worker_count(len(batch))
    assert workers == min(homodyne._usable_cpus(), 3)
    path = tmp_path / "samples.csv"
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        assert _saved_bytes(batch, path) == _reference_csv(batch)
        assert fork.call_count == workers - 1
        loaded, _ = load_samples(path)
        assert fork.call_count == 2 * (workers - 1)
    assert np.array_equal(loaded.xs.view(np.int64), batch.xs.view(np.int64))
    assert np.array_equal(loaded.thetas.view(np.int64), batch.thetas.view(np.int64))
    _assert_no_child_left()


def _whole_file_loadtxt(path):
    """One np.loadtxt over everything after the header: the reader load_samples splits in ranges."""
    with open(path, newline="") as fh:
        fh.readline()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return np.loadtxt(fh, delimiter=",", usecols=(0, 1), ndmin=2)


def _in_ranges(cpus, slice_bytes):
    """Patches that split even a small CSV over ``cpus`` processes, slice by slice."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(homodyne, "_CHUNK_SHOTS", 1))
    stack.enter_context(mock.patch.object(homodyne, "_usable_cpus", return_value=cpus))
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
        assert str(ranged.value) == str(exc)
        return
    with _in_ranges(cpus, slice_bytes):
        loaded, _ = load_samples(path)
    assert np.array_equal(loaded.thetas.view(np.int64), expected[:, 0].view(np.int64))
    assert np.array_equal(loaded.xs.view(np.int64), expected[:, 1].view(np.int64))
    _assert_no_child_left()


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
        assert str(ranged.value) == str(whole.value)
        _assert_no_child_left()


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
    [(_raise(OSError(errno.ENOSPC, "No space left on device")), OSError),
     (_raise(RuntimeError("formatter broke")), ChildProcessError),
     (_killed, ChildProcessError)],
    ids=["oserror", "exception", "killed"],
)
def test_save_samples_child_failure_raises_and_leaves_nothing(failure, raised, tmp_path):
    path = tmp_path / "samples.csv"
    write_rows = _failing_in_children(homodyne._write_rows, failure)
    with _in_ranges(3, 16), mock.patch.object(homodyne, "_write_rows", write_rows):
        with pytest.raises(raised) as exc:
            save_samples(_SMALL_BATCH, path)
    if raised is OSError:
        assert exc.value.errno == errno.ENOSPC
    assert os.listdir(tmp_path) == []
    _assert_no_child_left()


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
    _assert_no_child_left()


@pytest.mark.parametrize("failure", [_raise(RuntimeError("parser broke")), _killed],
                         ids=["exception", "killed"])
def test_load_samples_child_failure_falls_back_to_one_reader(failure, tmp_path):
    # a range that fails for a reason other than its rows is parsed again by the
    # whole-file reader, which gives the result or the error of a bad row
    path = tmp_path / "samples.csv"
    save_samples(_SMALL_BATCH, path)
    parse_range = _failing_in_children(homodyne._parse_range, failure)
    with _in_ranges(3, 16), mock.patch.object(homodyne, "_parse_range", parse_range), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        loaded, fields = load_samples(path)
    assert fork.call_count == 2
    assert np.array_equal(loaded.xs, _SMALL_BATCH.xs) and fields["count"] == 60
    assert sorted(os.listdir(tmp_path)) == ["samples.csv", "samples_meta.json"]
    _assert_no_child_left()


def test_one_usable_cpu_never_forks(tmp_path):
    path = tmp_path / "samples.csv"
    with mock.patch.object(homodyne, "_CHUNK_SHOTS", 1), \
            mock.patch.object(os, "sched_getaffinity", return_value={0}), \
            mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        assert homodyne._worker_count(len(_SMALL_BATCH)) == 1
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
