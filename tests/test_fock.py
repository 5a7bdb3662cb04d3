import cmath
import math
import pickle
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from kerrsim.fock import (
    DensityMatrix,
    FockVector,
    apply_annihilation,
    apply_creation,
    apply_diagonal,
    basis_state,
    coherent_state,
    density_from_pure,
    fidelity,
    inner_product,
    truncate_density,
)
from kerrsim.gates import DiagonalOperator, SuperpositionParams, build_superposition_operator
from kerrsim.errors import TruncationOverflowError
from kerrsim.tolerances import TOL

# frozen from the closed form c_n = exp(-|a|^2/2) a^n / sqrt(n!) at 40 digits
C0_023 = 0.97389673745505716401
C1_023 = 0.22399624961466314772
IP_023_053 = 0.95599748183309990701


def test_vector_invariants():
    v = coherent_state(0.23, 8)
    assert v.dim == 8
    assert v.amps.shape == (8,)
    assert abs(v.norm**2 - np.sum(np.abs(v.amps) ** 2)) <= 1e-12 * v.norm**2
    with pytest.raises(ValueError):
        FockVector(4, np.zeros(3))


def test_coherent_vacuum():
    v = coherent_state(0.0, 8)
    assert_allclose(v.amps, np.eye(8)[0], atol=0)


def test_coherent_closed_form():
    v = coherent_state(0.23, 8)
    assert_allclose(v.amps[0].real, C0_023, rtol=1e-14)
    assert_allclose(v.amps[1].real, C1_023, rtol=1e-14)
    assert abs(v.amps[1] - 0.23 * v.amps[0]) < 1e-15


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan, complex("inf"),
                                   complex(0.5, math.inf), complex(math.nan, 0.0)])
def test_coherent_rejects_non_finite_amplitude(alpha):
    with pytest.raises(ValueError, match="finite"):
        coherent_state(alpha, 8)


@given(
    magnitude=st.one_of(st.floats(0.0, 6.0), st.floats(0.0, 1e300)),
    kind=st.sampled_from(("real", "imaginary", "complex")),
    angle=st.floats(-math.pi, math.pi),
    dim=st.integers(1, 32),
)
def test_coherent_state_is_finite_or_raises(magnitude, kind, angle, dim):
    # every finite alpha gives finite amplitudes within the tail bound or a
    # TruncationOverflowError, and neither path warns
    sign = 1.0 if angle >= 0 else -1.0
    alpha = {"real": sign * magnitude, "imaginary": 1j * sign * magnitude,
             "complex": cmath.rect(magnitude, angle)}[kind]
    # the Poisson weight above level dim - 1 is 1 - Q(dim, |alpha|^2)
    exact_tail = 1.0 - scipy.special.gammaincc(dim, magnitude**2) if magnitude < 1e100 else 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            v = coherent_state(alpha, dim)
        except TruncationOverflowError:
            assert exact_tail > TOL.tail - 1e-12
            return
    assert np.all(np.isfinite(v.amps))
    assert 1.0 - np.sum(np.abs(v.amps) ** 2) <= TOL.tail
    assert exact_tail <= TOL.tail + 1e-12


@pytest.mark.parametrize("alpha, dim", [(1e25, 16), (1e200, 16), (complex(1.7e308, 1.7e308), 16),
                                        (38.0, 3000)])
def test_coherent_large_amplitude_raises_without_warning(alpha, dim):
    # these gave NaN amplitudes, an overflow warning or a bare OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationOverflowError, match=f"at dim={dim}"):
            coherent_state(alpha, dim)


def test_coherent_tail_bound():
    v = coherent_state(0.79, 8)
    assert np.sum(np.abs(v.amps) ** 2) >= 1.0 - 1e-6


def test_coherent_rejects_small_dim():
    with pytest.raises(TruncationOverflowError):
        coherent_state(2.5, 4)


def test_creation_ladder():
    assert_allclose(apply_creation(basis_state(0, 6)).amps, basis_state(1, 6).amps, atol=0)
    out = apply_creation(basis_state(1, 6))
    assert_allclose(out.amps[2], math.sqrt(2.0), rtol=1e-15)


def test_creation_norm_on_coherent():
    v = coherent_state(0.53, 12)
    out = apply_creation(v)
    assert_allclose(out.norm**2, 1.2809, atol=1e-6)


def test_creation_overflow_errors():
    state = FockVector(4, [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(TruncationOverflowError):
        apply_creation(state)


def test_annihilation():
    assert_allclose(apply_annihilation(basis_state(1, 6)).amps, basis_state(0, 6).amps, atol=0)
    assert apply_annihilation(basis_state(0, 6)).norm == 0.0


def test_annihilation_coherent_eigenvector():
    alpha = 0.53
    v = coherent_state(alpha, 12)
    out = apply_annihilation(v)
    # kept levels agree elementwise; the top level is a truncation artifact
    # bounded by the discarded amplitude c_{D-1}
    assert_allclose(out.normalized().amps[:-1], v.normalized().amps[:-1], atol=1e-8)
    assert abs(out.normalized().amps[-1] - v.normalized().amps[-1]) <= abs(v.amps[-1]) + 1e-15
    # norm of (a - alpha)|alpha> is bounded by the discarded-level amplitude
    diff = out.amps - alpha * v.amps
    assert np.linalg.norm(diff) <= abs(alpha * v.amps[-1]) + 1e-15


def test_apply_diagonal():
    dim = 8
    ident = DiagonalOperator(dim, np.ones(dim))
    v = coherent_state(0.53, dim)
    assert_allclose(apply_diagonal(ident, v).amps, v.amps, atol=0)
    number = DiagonalOperator(dim, np.arange(dim))
    assert_allclose(apply_diagonal(number, basis_state(2, dim)).amps[2], 2.0, atol=0)
    parity = DiagonalOperator(dim, np.exp(1j * np.pi * np.arange(dim)))
    flipped = apply_diagonal(parity, coherent_state(0.4, dim))
    assert_allclose(flipped.amps, coherent_state(-0.4, dim).amps, atol=1e-10)
    with pytest.raises(ValueError):
        apply_diagonal(DiagonalOperator(4, np.ones(4)), v)


def test_inner_product():
    assert inner_product(basis_state(0, 4), basis_state(0, 4)) == 1.0
    assert inner_product(basis_state(0, 4), basis_state(1, 4)) == 0.0
    a = coherent_state(0.23, 12)
    b = coherent_state(0.53, 12)
    assert_allclose(inner_product(a, b).real, IP_023_053, atol=1e-6)
    with pytest.raises(ValueError):
        inner_product(basis_state(0, 4), basis_state(0, 5))


def test_ladder_commutator_on_basis():
    dim = 8
    for n in range(dim - 2):
        ket = basis_state(n, dim)
        forward = apply_annihilation(apply_creation(ket))
        backward = apply_creation(apply_annihilation(ket))
        diff = forward.amps - backward.amps
        assert_allclose(diff, ket.amps, rtol=1e-14, atol=1e-14)
    # add-then-remove gives (n+1)|n> one level further, up to n = D-2
    for n in range(dim - 1):
        ket = basis_state(n, dim)
        forward = apply_annihilation(apply_creation(ket))
        assert_allclose(forward.amps[n], n + 1.0, rtol=1e-14)


def test_density_from_pure():
    rho = density_from_pure(basis_state(0, 4))
    assert rho.elems[0, 0] == 1.0
    assert np.count_nonzero(rho.elems) == 1

    plus = FockVector(4, [1.0, 1.0, 0.0, 0.0])
    rho = density_from_pure(plus)
    assert_allclose(rho.elems[:2, :2], 0.5 * np.ones((2, 2)), atol=1e-15)
    assert abs(rho.trace - 1.0) <= 1e-12

    scaled = density_from_pure(FockVector(4, [0.0, 2.0, 0.0, 0.0]))
    assert_allclose(scaled.elems, density_from_pure(basis_state(1, 4)).elems, atol=0)

    with pytest.raises(ValueError):
        density_from_pure(FockVector(4, np.zeros(4)))


def _oracle_fidelity(rho, sigma):
    # independent path: Schur-based matrix square roots from scipy
    s = scipy.linalg.sqrtm(rho)
    inner = scipy.linalg.sqrtm(s @ sigma @ s)
    return float(np.trace(inner).real ** 2)


def test_fidelity_basics():
    vac = density_from_pure(basis_state(0, 8))
    one = density_from_pure(basis_state(1, 8))
    assert_allclose(fidelity(vac, vac), 1.0, atol=1e-9)
    assert_allclose(fidelity(vac, one), 0.0, atol=1e-12)


def test_fidelity_against_sqrtm_oracle():
    alpha = 0.53
    rho = density_from_pure(coherent_state(alpha, 8))
    gate = build_superposition_operator(
        SuperpositionParams(1.0, -3.0 - math.sqrt(2.0)), 8
    )
    psi = coherent_state(alpha, 8)
    sigma = density_from_pure(FockVector(8, gate.values * psi.amps))
    expected = _oracle_fidelity(rho.elems, sigma.elems)
    assert_allclose(fidelity(rho, sigma), expected, atol=1e-8)
    assert_allclose(fidelity(sigma, rho), fidelity(rho, sigma), atol=1e-10)


def test_fidelity_pure_target_is_the_overlap():
    rng = np.random.default_rng(11)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    mixed = g @ g.conj().T
    mixed = DensityMatrix(6, mixed / np.trace(mixed).real)
    amps = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi = amps / np.linalg.norm(amps)
    pure = density_from_pure(FockVector(6, amps))
    overlap = float((psi.conj() @ mixed.elems @ psi).real)
    assert fidelity(mixed, pure) == pytest.approx(overlap, rel=0, abs=1e-15)
    assert fidelity(pure, mixed) == pytest.approx(overlap, rel=0, abs=1e-15)
    # two mixed states keep the Uhlmann form
    h = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    other = h @ h.conj().T
    other = DensityMatrix(6, other / np.trace(other).real)
    expected = _oracle_fidelity(mixed.elems, other.elems)
    assert_allclose(fidelity(mixed, other), expected, atol=1e-8)
    assert abs(fidelity(mixed, other) - float(np.vdot(mixed.elems, other.elems).real)) > 1e-3


def test_fidelity_global_phase_invariant():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi = FockVector(6, amps)
    rotated = FockVector(6, amps * np.exp(1j * 0.7))
    other = density_from_pure(coherent_state(0.4, 6))
    f1 = fidelity(density_from_pure(psi), other)
    f2 = fidelity(density_from_pure(rotated), other)
    assert_allclose(f1, f2, atol=1e-12)


def test_fidelity_rejects_non_psd():
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        fidelity(DensityMatrix(4, bad), density_from_pure(basis_state(0, 4)))


def test_density_matrix_validate():
    good = density_from_pure(coherent_state(0.5, 6))
    good.validate()
    lop = np.zeros((6, 6), dtype=complex)
    lop[0, 1] = 1.0
    with pytest.raises(ValueError):
        DensityMatrix(6, lop).validate()


def test_truncate_density():
    rho = density_from_pure(coherent_state(0.79, 16))
    small, tail = truncate_density(rho, 8)
    assert small.dim == 8
    assert abs(small.trace - 1.0) <= 1e-12
    assert 0.0 < tail < 1e-4
    with pytest.raises(ValueError):
        truncate_density(small, 16)
    empty = DensityMatrix(4, np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))
    with pytest.raises(ValueError):
        truncate_density(empty, 2)


def test_states_pickle_as_read_only_values():
    # a record that comes back from a worker process keeps its arrays locked
    vector = coherent_state(0.53, 8)
    for state, array in ((vector, "amps"), (density_from_pure(vector), "elems")):
        again = pickle.loads(pickle.dumps(state))
        assert type(again) is type(state) and again.dim == state.dim
        assert np.array_equal(getattr(again, array), getattr(state, array))
        assert not getattr(again, array).flags.writeable


def test_state_arrays_cannot_be_made_writeable_again():
    # amps and elems are views of a locked private copy: numpy refuses to unlock a view of a
    # read-only base, so no holder can change a state, unpickled copies included
    vector = coherent_state(0.5, 8)
    rho = density_from_pure(vector)
    for state, array in ((vector, "amps"), (rho, "elems")):
        for copy in (state, pickle.loads(pickle.dumps(state))):
            with pytest.raises(ValueError):
                getattr(copy, array).setflags(write=True)
    with pytest.raises(ValueError):
        rho.elems[0, 0] = 7.0
    assert abs(rho.trace - 1.0) <= 1e-12


def test_fidelity_checks_one_target_once(monkeypatch):
    # a state that passed validate cannot change, so repeated fidelities against it run its
    # eigenvalue check once; each fresh state is still checked
    target = density_from_pure(coherent_state(0.5, 8))
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(mat):
        calls.append(np.array_equal(mat, 0.5 * (target.elems + target.elems.conj().T)))
        return eigvalsh(mat)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for alpha in (0.1, 0.2, 0.3, 0.4):
        fidelity(target, density_from_pure(coherent_state(alpha, 8)))
    assert sum(calls) == 1
    assert len(calls) == 5


def test_a_failing_state_fails_validate_every_time():
    # only a check that passed is remembered
    lop = np.zeros((6, 6), dtype=complex)
    lop[0, 1] = 1.0
    for bad in (DensityMatrix(6, lop), DensityMatrix(4, np.diag([1.5, -0.5, 0.0, 0.0]))):
        for _ in range(3):
            with pytest.raises(ValueError):
                bad.validate()
        with pytest.raises(ValueError):
            fidelity(bad, bad)
