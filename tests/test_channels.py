import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import kerrsim
from kerrsim.channels import (
    LossChannel,
    _kraus_diagonals,
    apply_loss,
    loss_adjoint_on_operator,
    loss_kraus,
)
from kerrsim.fock import (
    DensityMatrix,
    basis_state,
    coherent_state,
    density_from_pure,
    truncate_density,
)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(dim, m / np.trace(m).real)


def random_effect(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(h)
    u = (w - w.min()) / (w.max() - w.min())  # eigenvalues into [0, 1]
    return (v * u) @ v.conj().T


@st.composite
def states(draw, max_dim=10):
    """Random density matrices of every rank; low ranks sit on the PSD boundary."""
    dim = draw(st.integers(1, max_dim))
    rank = draw(st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return DensityMatrix(dim, m / np.trace(m).real)


def assert_density_matrix(rho, atol=1e-12):
    assert np.max(np.abs(rho.elems - rho.elems.conj().T)) <= atol
    assert abs(rho.trace - 1.0) <= atol
    assert np.linalg.eigvalsh(rho.elems)[0] >= -atol


ETA = st.floats(0.0, 1.0)


def test_channel_validation():
    with pytest.raises(ValueError):
        LossChannel(-0.1)
    with pytest.raises(ValueError):
        LossChannel(1.1)


def test_kraus_trace_preserving():
    for eta in (0.0, 0.3, 0.66, 1.0):
        ops = loss_kraus(LossChannel(eta), 10)
        total = np.einsum("kba,kbc->ac", ops, ops)
        assert_allclose(total, np.eye(10), atol=1e-13)


def test_identity_and_total_loss():
    rho = density_from_pure(coherent_state(0.53, 10))
    assert_allclose(apply_loss(rho, LossChannel(1.0)).elems, rho.elems, atol=1e-14)
    dumped = apply_loss(rho, LossChannel(0.0))
    expected = np.zeros((10, 10), dtype=complex)
    expected[0, 0] = 1.0
    assert_allclose(dumped.elems, expected, atol=1e-14)


def test_single_photon_mix():
    rho = density_from_pure(basis_state(1, 6))
    out = apply_loss(rho, LossChannel(0.66))
    assert_allclose(out.elems[1, 1].real, 0.66, rtol=1e-14)
    assert_allclose(out.elems[0, 0].real, 0.34, rtol=1e-13)
    assert_allclose(out.trace, 1.0, atol=1e-12)


def test_trace_and_positivity_preserved():
    rng = np.random.default_rng(21)
    for _ in range(20):
        rho = random_density(rng, 8)
        out = apply_loss(rho, LossChannel(0.66))
        assert abs(out.trace - rho.trace) <= 1e-10
        assert np.linalg.eigvalsh(out.elems).min() >= -1e-9


def test_semigroup():
    rng = np.random.default_rng(22)
    for _ in range(10):
        rho = random_density(rng, 8)
        chained = apply_loss(apply_loss(rho, LossChannel(0.9)), LossChannel(0.7))
        direct = apply_loss(rho, LossChannel(0.63))
        assert_allclose(chained.elems, direct.elems, atol=1e-9)


def test_adjoint_unital_and_identity():
    eye = np.eye(8, dtype=complex)
    for eta in (0.2, 0.66, 1.0):
        assert_allclose(loss_adjoint_on_operator(eye, LossChannel(eta)), eye, atol=1e-12)
    rng = np.random.default_rng(23)
    e = random_effect(rng, 8)
    assert_allclose(loss_adjoint_on_operator(e, LossChannel(1.0)), e, atol=1e-13)


def test_adjoint_preserves_bounds():
    rng = np.random.default_rng(24)
    channel = LossChannel(0.66)
    for _ in range(20):
        e = random_effect(rng, 8)
        out = loss_adjoint_on_operator(e, channel)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-10
        w = np.linalg.eigvalsh(out)
        assert w.min() >= -1e-10 and w.max() <= 1.0 + 1e-10


def test_adjoint_duality_identity():
    rng = np.random.default_rng(25)
    channel = LossChannel(0.66)
    for _ in range(100):
        rho = random_density(rng, 8)
        e = random_effect(rng, 8)
        lhs = np.trace(rho.elems @ loss_adjoint_on_operator(e, channel)).real
        rhs = np.trace(apply_loss(rho, channel).elems @ e).real
        assert abs(lhs - rhs) <= 1e-10


def test_adjoint_rejects_malformed():
    channel = LossChannel(0.66)
    with pytest.raises(ValueError):
        loss_adjoint_on_operator(np.ones((3, 4)), channel)
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError):
        loss_adjoint_on_operator(skew, channel)
    with pytest.raises(ValueError):
        loss_adjoint_on_operator(2.0 * np.eye(4), channel)


@given(
    seed=st.integers(0, 2**32 - 1),
    eta=st.floats(0.0, 1.0),
    shape=st.sampled_from([(1,), (5,), (2, 3), (3, 1, 2)]),
    dim=st.integers(2, 9),
)
def test_adjoint_stack_matches_per_matrix(seed, eta, shape, dim):
    rng = np.random.default_rng(seed)
    channel = LossChannel(eta)
    stack = np.array([random_effect(rng, dim) for _ in range(int(np.prod(shape)))])
    stack = stack.reshape(*shape, dim, dim)
    out = loss_adjoint_on_operator(stack, channel)
    assert out.shape == stack.shape
    for index in np.ndindex(*shape):
        assert np.max(np.abs(out[index] - loss_adjoint_on_operator(stack[index], channel))) <= 1e-13


@pytest.mark.parametrize("dim", [1, 3, 8, 16, 24])
@pytest.mark.parametrize("eta", [0.0, 0.1, 0.66, 0.97, 1.0])
def test_loss_maps_match_the_dense_kraus_reference(dim, eta):
    # the maps go by the Kraus operators' diagonals; the dense stack contracted by einsum
    # (the Kraus pair first for the adjoint) sums the same products in another order, so
    # they agree to rounding: 1e-15 on entries of magnitude at most 1 (2.2e-16 measured)
    rng = np.random.default_rng(dim)
    channel = LossChannel(eta)
    ops = loss_kraus(channel, dim)
    rho = random_density(rng, dim)
    forward = np.einsum("kab,bc,kdc->ad", ops, rho.elems, ops,
                        optimize=["einsum_path", (0, 1), (0, 1)])
    assert_allclose(apply_loss(rho, channel).elems, forward, rtol=0, atol=1e-15)
    stack = np.stack([random_effect(rng, dim) if dim > 1 else np.full((1, 1), 0.5)
                      for _ in range(4)])
    adjoint = np.einsum("kba,...bc,kcd->...ad", ops, stack, ops,
                        optimize=["einsum_path", (0, 2), (0, 1)])
    assert_allclose(loss_adjoint_on_operator(stack, channel), adjoint, rtol=0, atol=1e-15)


@pytest.mark.parametrize("dim", [3, 16, 100, 1030])
def test_kraus_diagonals_take_math_comb_binomials(dim):
    # the binomials come from an exact integer recurrence, one step an entry, and are
    # rounded by float(), so every c_k is bit for bit what float(math.comb(m, k)) gives;
    # at 1030, the largest sim_dim admitted, a few rows, the largest binomial's among them,
    # and at 1031 that binomial passes float64's range
    eta = 0.66
    rows = range(dim) if dim <= 100 else (0, 1, 2, (dim - 1) // 2, dim // 2, dim - 2, dim - 1)
    diagonals = list(_kraus_diagonals(eta, dim))
    for k in rows:
        binom = np.array([float(math.comb(m, k)) for m in range(k, dim)])
        expected = np.sqrt(binom) * eta ** (np.arange(dim - k) / 2.0) * (1.0 - eta) ** (k / 2.0)
        assert np.array_equal(diagonals[k], expected), k
    if dim == 1030:
        with pytest.raises(OverflowError):
            list(_kraus_diagonals(eta, dim + 1))


def test_no_contraction_path_search_in_the_package():
    # every einsum names its path: numpy's search caps intermediates at the largest
    # input, so its choice, and a stage's cost, jumps with the shapes (seconds for
    # the POVM at dim 20); parsed, not searched as text, as comments name the keyword
    found = []
    for path in sorted(Path(kerrsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.keyword) and node.arg == "optimize"
                    and isinstance(node.value, ast.Constant) and node.value.value not in (False, None)):
                found.append(f"{path.name}:{node.value.lineno}: optimize={node.value.value!r}")
            elif isinstance(node, ast.Call) and "einsum_path" in (
                    getattr(node.func, "attr", None), getattr(node.func, "id", None)):
                found.append(f"{path.name}:{node.lineno}: einsum_path(...)")
    assert not found


def test_adjoint_stack_rejects_one_bad_element():
    rng = np.random.default_rng(26)
    channel = LossChannel(0.66)
    stack = np.array([random_effect(rng, 6) for _ in range(12)]).reshape(3, 4, 6, 6)
    loss_adjoint_on_operator(stack, channel)  # a valid stack passes

    skew = stack.copy()
    skew[2, 1, 0, 3] += 1e-6j
    with pytest.raises(ValueError, match="not Hermitian"):
        loss_adjoint_on_operator(skew, channel)

    # random_effect spans eigenvalues [0, 1] exactly
    too_big = stack.copy()
    too_big[1, 3] *= 1.01
    with pytest.raises(ValueError, match="bounds violated"):
        loss_adjoint_on_operator(too_big, channel)

    negative = stack.copy()
    negative[0, 0] -= 0.01 * np.eye(6)
    with pytest.raises(ValueError, match="bounds violated"):
        loss_adjoint_on_operator(negative, channel)

    with pytest.raises(ValueError):
        loss_adjoint_on_operator(np.zeros((2, 3, 4)), channel)


@given(rho=states(), eta1=ETA, eta2=ETA)
def test_loss_semigroup_property(rho, eta1, eta2):
    chained = apply_loss(apply_loss(rho, LossChannel(eta2)), LossChannel(eta1))
    direct = apply_loss(rho, LossChannel(eta1 * eta2))
    assert np.max(np.abs(chained.elems - direct.elems)) <= 1e-12


@given(rho=states(), seed=st.integers(0, 2**32 - 1), eta=ETA)
def test_loss_duality_property(rho, seed, eta):
    # Tr[L(rho) E] = Tr[rho L+(E)] for an effect 0 <= E <= I with random spectrum
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rho.dim, rho.dim)) + 1j * rng.normal(size=(rho.dim, rho.dim))
    v = np.linalg.qr(a)[0]
    effect = (v * rng.uniform(size=rho.dim)) @ v.conj().T
    effect = 0.5 * (effect + effect.conj().T)
    channel = LossChannel(eta)
    lhs = np.trace(apply_loss(rho, channel).elems @ effect).real
    rhs = np.trace(rho.elems @ loss_adjoint_on_operator(effect, channel)).real
    assert abs(lhs - rhs) <= 1e-12


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 10),
    eta=ETA,
    theta=st.floats(-2.0 * np.pi, 2.0 * np.pi),
)
def test_adjoint_commutes_with_phase_rotation(seed, dim, eta, theta):
    # L+(U E U^dag) = U L+(E) U^dag for U = diag(exp(-i n theta)): loss keeps the
    # photon-number difference m - n of every element, so one POVM at phase 0 serves all
    effect = random_effect(np.random.default_rng(seed), dim)
    u = np.exp(-1j * theta * np.arange(dim))
    channel = LossChannel(eta)
    rotated = loss_adjoint_on_operator(u[:, None] * effect * u.conj()[None, :], channel)
    expected = u[:, None] * loss_adjoint_on_operator(effect, channel) * u.conj()[None, :]
    assert np.max(np.abs(rotated - expected)) <= 1e-13


@given(rho=states(), eta=ETA)
def test_apply_loss_keeps_a_density_matrix(rho, eta):
    assert_density_matrix(apply_loss(rho, LossChannel(eta)))


@given(rho=states(), data=st.data())
def test_truncate_density_keeps_a_density_matrix(rho, data):
    dim = data.draw(st.integers(1, rho.dim))
    block, tail = truncate_density(rho, dim)
    assert_density_matrix(block)
    assert_allclose(tail, 1.0 - np.trace(rho.elems[:dim, :dim]).real, atol=1e-15)
    assert -1e-12 <= tail < 1.0
