import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kerrsim.errors import SubspaceSupportError
from kerrsim.fock import (
    FockVector,
    apply_annihilation,
    apply_creation,
    apply_diagonal,
    basis_state,
    coherent_state,
)
from kerrsim.gates import (
    DiagonalOperator,
    SuperpositionParams,
    amplified_sign_target,
    apply_conditional,
    build_superposition_operator,
    ideal_kerr,
    noiseless_amplify,
    noiseless_attenuate,
    nonlinear_sign_target,
    solve_superposition,
)

SQRT2 = math.sqrt(2.0)
_COMPLEX = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def random_three_level(rng, dim=8):
    amps = np.zeros(dim, dtype=complex)
    amps[:3] = rng.normal(size=3) + 1j * rng.normal(size=3)
    return FockVector(dim, amps / np.linalg.norm(amps))


def test_solve_superposition_values():
    sol = solve_superposition()
    assert_allclose(sol.ratio, -3.0 - SQRT2, rtol=1e-15)
    assert_allclose(sol.gain, 1.0 + SQRT2, rtol=1e-15)


def test_solve_superposition_defining_equations():
    sol = solve_superposition()
    v = build_superposition_operator(SuperpositionParams(1.0, sol.ratio), 4).values
    assert abs(v[1] / v[0] + sol.gain) <= 1e-12
    assert abs(v[2] / v[1] - sol.gain) <= 1e-12


def test_solve_superposition_rejected_branch():
    # quadratic-formula oracle on r^2 + 6r + 7 = 0
    roots = np.roots([1.0, 6.0, 7.0])
    rejected = roots[np.argmax(roots)]  # -3 + sqrt(2)
    assert_allclose(sorted(roots), sorted([-3.0 - SQRT2, -3.0 + SQRT2]), rtol=1e-12)
    assert -(2.0 + rejected) < 0  # its gain 1 - sqrt(2) is negative
    accepted = roots[np.argmin(roots)]
    assert_allclose(accepted, solve_superposition().ratio, rtol=1e-12)


def test_build_superposition_operator():
    pure_add = build_superposition_operator(SuperpositionParams(1.0, 0.0), 6)
    assert_allclose(pure_add.values.real, np.arange(1, 7), atol=0)

    ideal = build_superposition_operator(SuperpositionParams(1.0, -3.0 - SQRT2), 6)
    expected = [1.0, -(1.0 + SQRT2), -(3.0 + 2.0 * SQRT2), -(5.0 + 3.0 * SQRT2)]
    assert_allclose(ideal.values[:4].real, expected, rtol=1e-14)
    assert_allclose(ideal.values[2] / ideal.values[1], 1.0 + SQRT2, rtol=1e-13)

    bestfit = build_superposition_operator(
        SuperpositionParams(1.0, 5.97 * np.exp(1j * (math.pi - math.pi / 7.0))), 6
    )
    assert np.abs(bestfit.values.imag[1:]).min() > 0

    with pytest.raises(ValueError):
        build_superposition_operator(SuperpositionParams(1.0, 0.0), 2)
    with pytest.raises(ValueError):
        SuperpositionParams(0.0, 0.0)


def test_ideal_kerr():
    assert_allclose(ideal_kerr(0.0, 8).values, np.ones(8), atol=0)
    half_pi = ideal_kerr(math.pi / 2.0, 8)
    # sign pattern follows n(n-1) mod 4
    expected = np.array([1, 1, -1, -1, 1, 1, -1, -1], dtype=float)
    assert_allclose(half_pi.values.real, expected, atol=1e-12)
    assert_allclose(half_pi.values.imag, 0.0, atol=1e-12)
    for phi in (0.1, 0.9, 2.0):
        vals = ideal_kerr(phi, 8).values
        assert vals[0] == 1.0 and vals[1] == 1.0


def test_amplify_attenuate():
    assert_allclose(noiseless_amplify(1.0, 5).values, np.ones(5), atol=0)
    t = 1.0 / (1.0 + SQRT2)
    att = noiseless_attenuate(t, 5)
    assert_allclose(att.values[2].real, 3.0 - 2.0 * SQRT2, rtol=1e-13)
    g = 1.0 + SQRT2
    product = noiseless_attenuate(1.0 / g, 8).values * noiseless_amplify(g, 8).values
    assert_allclose(product, np.ones(8), atol=1e-12)
    with pytest.raises(ValueError):
        noiseless_amplify(0.5, 4)
    with pytest.raises(ValueError):
        noiseless_attenuate(1.5, 4)


def test_apply_conditional_identity_and_vacuum():
    dim = 8
    ident = DiagonalOperator(dim, np.ones(dim))
    psi = coherent_state(0.53, dim)
    out, weight = apply_conditional(ident, psi)
    assert_allclose(weight, 1.0, rtol=1e-12)
    assert_allclose(out.amps, psi.amps, atol=0)

    v = build_superposition_operator(SuperpositionParams(0.7 + 0.1j, -3.0 - SQRT2), dim)
    out, weight = apply_conditional(v, basis_state(0, dim))
    assert_allclose(out.amps[0], 0.7 + 0.1j, rtol=1e-15)
    assert_allclose(weight, abs(0.7 + 0.1j) ** 2, rtol=1e-12)


def test_apply_conditional_three_level_content():
    # restricted to span{0,1,2} the output is the amplified sign-flip target
    sol = solve_superposition()
    psi = coherent_state(0.53, 16)
    v = build_superposition_operator(SuperpositionParams(1.0, sol.ratio), 16)
    out, _ = apply_conditional(v, psi)
    restricted = out.amps[:3] / np.linalg.norm(out.amps[:3])
    target = np.array(
        [-psi.amps[0], sol.gain * psi.amps[1], sol.gain**2 * psi.amps[2]]
    )
    target /= np.linalg.norm(target)
    overlap = abs(np.vdot(target, restricted)) ** 2
    assert 1.0 - overlap <= 2e-2


def test_apply_conditional_zero_warning():
    dim = 4
    killer = DiagonalOperator(dim, np.zeros(dim))
    with pytest.warns(UserWarning):
        _, weight = apply_conditional(killer, basis_state(0, dim))
    assert weight == 0.0


def test_apply_conditional_checks_dimensions_first():
    # a mismatched operator is reported before the zero state it meets
    with pytest.raises(ValueError, match="dimension mismatch: operator 4, state 3"):
        apply_conditional(DiagonalOperator(4, np.ones(4)), FockVector(3, np.zeros(3)))
    with pytest.raises(ValueError, match="zero state"):
        apply_conditional(DiagonalOperator(3, np.ones(3)), FockVector(3, np.zeros(3)))


def test_nonlinear_sign_target():
    assert_allclose(nonlinear_sign_target(basis_state(0, 3)).amps[0], -1.0, atol=0)
    assert_allclose(nonlinear_sign_target(basis_state(1, 3)).amps[1], 1.0, atol=0)
    flat = FockVector(3, np.ones(3) / math.sqrt(3.0))
    out = nonlinear_sign_target(flat)
    assert_allclose(out.amps, np.array([-1.0, 1.0, 1.0]) / math.sqrt(3.0), atol=1e-15)


def test_amplified_sign_target():
    g = 1.0 + SQRT2
    reduced = amplified_sign_target(FockVector(3, [1.0, 0.0, 0.0]), 1.0)
    assert_allclose(reduced.amps, [-1.0, 0.0, 0.0], atol=0)
    two = amplified_sign_target(FockVector(3, [0.0, 0.0, 1.0]), g)
    assert_allclose(two.amps[2].real, 3.0 + 2.0 * SQRT2, rtol=1e-14)
    rng = np.random.default_rng(1)
    psi = random_three_level(rng)
    assert_allclose(
        amplified_sign_target(psi, 1.0).amps, nonlinear_sign_target(psi).amps, atol=1e-15
    )
    with pytest.raises(SubspaceSupportError):
        amplified_sign_target(coherent_state(0.53, 8), g)


def test_kerr_equivalence_chain():
    # kerr(pi/2) then linear pi phase equals -1 x vacuum sign flip on span{0,1,2}
    rng = np.random.default_rng(7)
    dim = 8
    kerr = ideal_kerr(math.pi / 2.0, dim)
    linear = DiagonalOperator(dim, np.exp(1j * math.pi * np.arange(dim)))
    for _ in range(100):
        psi = random_three_level(rng, dim)
        chained = apply_diagonal(linear, apply_diagonal(kerr, psi))
        target = nonlinear_sign_target(psi)
        assert_allclose(chained.amps, -target.amps, atol=1e-12)


def test_amplified_gate_identity():
    # v(n) with ideal parameters equals -1 x amplified target on span{0,1,2}
    sol = solve_superposition()
    dim = 8
    v = build_superposition_operator(SuperpositionParams(1.0, sol.ratio), dim)
    rng = np.random.default_rng(11)
    for _ in range(50):
        psi = random_three_level(rng, dim)
        out, _ = apply_conditional(v, psi)
        target = amplified_sign_target(psi, sol.gain)
        assert_allclose(out.amps, -target.amps, atol=1e-12)


def test_attenuation_closure():
    sol = solve_superposition()
    dim = 8
    att = noiseless_attenuate(1.0 / sol.gain, dim)
    rng = np.random.default_rng(13)
    for _ in range(50):
        psi = random_three_level(rng, dim)
        amplified = amplified_sign_target(psi, sol.gain)
        assert_allclose(
            apply_diagonal(att, amplified).amps,
            nonlinear_sign_target(psi).amps,
            atol=1e-12,
        )


def test_diagonal_operators_commute():
    dim = 8
    sol = solve_superposition()
    v = build_superposition_operator(SuperpositionParams(1.0, sol.ratio), dim)
    kerr = ideal_kerr(math.pi / 2.0, dim)
    psi = coherent_state(0.53, dim)
    ab = apply_diagonal(kerr, apply_diagonal(v, psi))
    ba = apply_diagonal(v, apply_diagonal(kerr, psi))
    assert_allclose(ab.amps, ba.amps, atol=1e-12)


@given(weights=st.tuples(_COMPLEX, _COMPLEX).filter(lambda ab: ab != (0, 0)),
       amps=st.integers(3, 19).flatmap(lambda dim: st.lists(_COMPLEX, min_size=dim - 1,
                                                               max_size=dim - 1)))
def test_superposition_operator_is_its_ladder_definition(weights, amps):
    # v(n) = a (n + 1) + b n is the diagonal of a a a^dag + b a^dag a; the top level of
    # psi is empty, so a^dag keeps it inside the truncated space
    a, b = weights
    psi = FockVector(len(amps) + 1, np.append(amps, 0.0))
    ordered = apply_annihilation(apply_creation(psi)).amps
    reversed_order = apply_creation(apply_annihilation(psi)).amps
    v = build_superposition_operator(SuperpositionParams(a, b), psi.dim)
    assert_allclose(apply_diagonal(v, psi).amps, a * ordered + b * reversed_order,
                    rtol=0, atol=1e-13)
