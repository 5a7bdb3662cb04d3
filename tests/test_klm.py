import dataclasses
import math
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import optimize

from kerrsim import klm
from kerrsim.fock import FockVector, basis_state, density_from_pure, fidelity
from kerrsim.gates import nonlinear_sign_target
from kerrsim.klm import (
    DetectorModel,
    _detector_weight,
    _heralded_lambdas,
    beam_splitter,
    run_ns_gate,
    solve_ns_transmittances,
    transfer_matrix,
    transition_amplitude,
)
from kerrsim.pipeline import klm_compare

SQRT2 = math.sqrt(2.0)
# three-mode occupations by total photon number, up to the gate's three photons
SECTORS = [[occ for occ in product(range(s + 1), repeat=3) if sum(occ) == s] for s in range(4)]
UNIT = st.floats(0.0, 1.0)
ANGLE = st.floats(0.0, 2.0 * math.pi)


def assert_norm_and_photon_number_preserved(m):
    assert_allclose(m @ m.conj().T, np.eye(3), atol=1e-12)
    # every input with <= 3 photons spreads its whole norm over its own sector
    for sector in SECTORS:
        for inp in sector:
            total = sum(abs(transition_amplitude(m, out, inp)) ** 2 for out in sector)
            assert abs(total - 1.0) <= 1e-12


def test_state_validation():
    with pytest.raises(ValueError):
        beam_splitter(0, 0, 0.5)
    with pytest.raises(ValueError):
        beam_splitter(0, 1, 1.5)
    with pytest.raises(ValueError):
        DetectorModel("weird")
    with pytest.raises(ValueError):
        DetectorModel("pnr", 0.0)


def test_beam_splitter_identity():
    m = beam_splitter(0, 1, 1.0)
    assert_allclose(m, np.eye(3), atol=1e-14)
    for sector in SECTORS:
        for inp in sector:
            for out in sector:
                assert_allclose(transition_amplitude(m, out, inp), float(out == inp), atol=1e-14)


def test_beam_splitter_balanced_single_photon():
    m = beam_splitter(0, 1, 1.0 / SQRT2)
    amp = {out: transition_amplitude(m, out, (1, 0, 0)) for out in SECTORS[1]}
    assert_allclose(abs(amp[(1, 0, 0)]) ** 2, 0.5, rtol=1e-12)
    assert_allclose(abs(amp[(0, 1, 0)]) ** 2, 0.5, rtol=1e-12)
    assert_allclose(sum(abs(a) ** 2 for a in amp.values()), 1.0, rtol=1e-12)


def test_beam_splitter_hong_ou_mandel():
    # permanent oracle: amplitude (1,1)->(1,1) equals perm([[t, -r e^-iphi],[r e^iphi, t]])
    for t, phi in ((1.0 / SQRT2, 0.0), (0.6, 0.4), (0.8, 1.3)):
        r = math.sqrt(1.0 - t * t)
        amp11 = transition_amplitude(beam_splitter(0, 1, t, phi), (1, 1, 0), (1, 1, 0))
        permanent = t * t + (-r * np.exp(-1j * phi)) * (r * np.exp(1j * phi))
        assert_allclose(amp11, permanent, atol=1e-13)
    # balanced splitter: exact two-photon interference
    amp11 = transition_amplitude(beam_splitter(0, 1, 1.0 / SQRT2), (1, 1, 0), (1, 1, 0))
    assert abs(amp11) <= 1e-15


def test_transition_amplitude_matches_two_mode_closed_form():
    # reference: binomial expansion of (t a+ - r e^-iphi b+)^m (r e^iphi a+ + t b+)^n
    t, phi = 0.61, 0.7
    r = math.sqrt(1.0 - t * t)
    m_bs = beam_splitter(0, 1, t, phi)
    for s in range(4):
        for m in range(s + 1):
            n = s - m
            for p in range(s + 1):
                acc = sum(
                    math.comb(m, k) * math.comb(n, p - k) * (-1.0) ** (m - k)
                    * t ** (n - p + 2 * k) * r ** (m + p - 2 * k)
                    for k in range(max(0, p - n), min(m, p) + 1)
                )
                scale = math.sqrt(
                    math.factorial(p) * math.factorial(s - p) / (math.factorial(m) * math.factorial(n))
                )
                expected = acc * scale * np.exp(1j * phi * (p - m))
                got = transition_amplitude(m_bs, (p, s - p, 0), (m, n, 0))
                assert_allclose(got, expected, atol=1e-13)


@given(t=UNIT, phi=ANGLE, pair=st.sampled_from([(0, 1), (1, 2), (0, 2), (2, 1)]))
def test_beam_splitter_preserves_norm_and_photon_number(t, phi, pair):
    assert_norm_and_photon_number_preserved(beam_splitter(*pair, t, phi))


@given(t1=UNIT, t2=UNIT, t3=UNIT)
def test_transfer_matrix_preserves_norm_and_photon_number(t1, t2, t3):
    assert_norm_and_photon_number_preserved(transfer_matrix(t1, t2, t3))


def test_beam_splitter_inverse_composition():
    spec = beam_splitter(0, 2, 0.73, 0.9)
    inverse = beam_splitter(2, 0, 0.73, -0.9)
    assert_allclose(inverse @ spec, np.eye(3), atol=1e-12)
    # amplitudes compose like the matrices: sum over the intermediate occupation
    for inp in SECTORS[3]:
        for out in SECTORS[3]:
            amp = sum(
                transition_amplitude(inverse, out, mid) * transition_amplitude(spec, mid, inp)
                for mid in SECTORS[3]
            )
            assert_allclose(amp, float(out == inp), atol=1e-12)


def test_mode_phase():
    # all splitters transmitting leave only the folding-mirror pi phase on the signal
    m = transfer_matrix(1.0, 1.0, 1.0)
    assert_allclose(transition_amplitude(m, (1, 0, 0), (1, 0, 0)), -1.0, atol=1e-12)
    assert_allclose(transition_amplitude(m, (2, 1, 0), (2, 1, 0)), 1.0, atol=1e-12)
    assert_allclose(transition_amplitude(m, (0, 1, 0), (0, 1, 0)), 1.0, atol=1e-12)


def test_herald_pnr_exact():
    ideal = DetectorModel("pnr", 1.0)
    weights = [_detector_weight(ideal, 1, n) for n in range(4)]
    assert_allclose(weights, [0.0, 1.0, 0.0, 0.0], rtol=1e-12)


def test_herald_on_off_examples():
    # an on-off reading of 1 is a click
    assert _detector_weight(DetectorModel("on_off", 1.0), 1, 0) == 0.0
    two = _detector_weight(DetectorModel("on_off", 0.66), 1, 2)
    assert_allclose(two, 1.0 - 0.34**2, rtol=1e-12)


def test_herald_pnr_binomial_smearing():
    # two photons seen through a lossy counter: P(read 1) = C(2,1) eta (1-eta)
    weight = _detector_weight(DetectorModel("pnr", 0.66), 1, 2)
    assert_allclose(weight, 2.0 * 0.66 * 0.34, rtol=1e-12)


def test_herald_and_phase_invalid_modes():
    with pytest.raises(ValueError):
        beam_splitter(0, 7, 0.5)
    with pytest.raises(ValueError):
        beam_splitter(-1, 1, 0.5)


def test_herald_partition_sums_to_one():
    for eta in (0.66, 1.0):
        pnr, onoff = DetectorModel("pnr", eta), DetectorModel("on_off", eta)
        for n in range(4):
            total = sum(_detector_weight(pnr, k, n) for k in range(4))
            assert_allclose(total, 1.0, atol=1e-10)
            total = _detector_weight(onoff, 1, n) + _detector_weight(onoff, 0, n)
            assert_allclose(total, 1.0, atol=1e-10)


def test_solve_transmittances_conditions():
    sol = solve_ns_transmittances()
    assert max(sol.residuals) <= 1e-10
    lam = sol.lambdas
    assert_allclose(lam[1] / lam[0], 1.0, atol=1e-10)
    assert_allclose(lam[2] / lam[0], -1.0, atol=1e-10)
    assert_allclose(sol.success_probability, 0.25, atol=1e-9)
    for t in sol.transmittances:
        assert 0.0 < t < 1.0


def test_solve_transmittances_match_closed_form():
    sol = solve_ns_transmittances()
    cos_pi_8 = math.cos(math.pi / 8.0)
    assert sol.transmittances == (cos_pi_8, SQRT2 - 1.0, cos_pi_8)
    assert max(sol.residuals) <= 1e-15
    assert abs(sol.success_probability - 0.25) <= 1e-15


def _scipy_reference_solution():
    """Numeric reference for the closed form: the most probable point on the ratio conditions.

    For each t1, a root solve puts (t2, t3) on lambda_1/lambda_0 = 1 and
    lambda_2/lambda_0 = -1; a bounded scalar search then maximizes |lambda_0|^2
    over t1.  Returns (success probability, t1, t2, t3).
    """
    def conditions(t1, t2, t3):
        lam = _heralded_lambdas(t1, t2, t3)
        return np.array([(lam[1] - lam[0]).real, (lam[2] + lam[0]).real])

    def solve_pair(t1):
        # angle variables keep the probed transmittances inside [-1, 1]
        sol = optimize.root(
            lambda v: conditions(t1, math.cos(v[0]), math.cos(v[1])),
            x0=np.array([math.acos(0.45), math.acos(min(t1, 0.98))]),
            method="hybr",
            tol=1e-13,
        )
        t2, t3 = math.cos(sol.x[0]), math.cos(sol.x[1])
        if not sol.success or not (0.0 < t2 < 1.0 and 0.0 < t3 < 1.0):
            return None
        return t2, t3

    def negative_success(t1):
        pair = solve_pair(t1)
        return 0.0 if pair is None else -float(abs(_heralded_lambdas(t1, *pair)[0]) ** 2)

    best = optimize.minimize_scalar(
        negative_success, bounds=(0.75, 0.99), method="bounded", options={"xatol": 1e-12}
    )
    t1 = float(best.x)
    pair = solve_pair(t1)
    assert pair is not None, "root solve failed at the best t1"
    return -float(best.fun), t1, *pair


def test_closed_form_matches_scipy_reference():
    success, t1, t2, t3 = _scipy_reference_solution()
    sol = solve_ns_transmittances()
    assert success <= 0.25 + 1e-9
    assert abs(t1 - math.cos(math.pi / 8.0)) <= 1e-6
    assert_allclose((t1, t2, t3), sol.transmittances, atol=1e-6)
    assert_allclose(success, sol.success_probability, atol=1e-12)


def test_solution_splitters_reproduce_network():
    # the documented network (mirror + three splitters) gives the same heralded diagonal
    sol = solve_ns_transmittances()
    t1, t2, t3 = sol.transmittances
    network = (
        beam_splitter(1, 2, t3, math.pi)
        @ beam_splitter(0, 1, t2)
        @ beam_splitter(1, 2, t1)
        @ np.diag([-1.0, 1.0, 1.0])
    )
    assert_allclose(transfer_matrix(t1, t2, t3), network, atol=1e-15)
    for n in range(3):
        amp = transition_amplitude(network, (n, 1, 0), (n, 1, 0))
        assert_allclose(amp, sol.lambdas[n], atol=1e-12)


def test_solve_transmittances_sensitivity():
    sol = solve_ns_transmittances()
    t1, t2, t3 = sol.transmittances
    lam = _heralded_lambdas(t1, t2 + 0.01, t3)
    assert abs(lam[2] / lam[0] + 1.0) > 1e-3


def test_success_probability_against_grid_oracle():
    # coarse feasibility grid: no feasible point beats the solver's probability
    sol = solve_ns_transmittances()
    best_feasible = 0.0
    grid = np.linspace(0.05, 0.99, 20)
    for t1 in grid:
        for t2 in grid:
            for t3 in grid:
                lam = _heralded_lambdas(t1, t2, t3)
                if abs(lam[0]) < 1e-6:
                    continue
                if abs(lam[1] / lam[0] - 1.0) > 5e-2 or abs(lam[2] / lam[0] + 1.0) > 5e-2:
                    continue
                best_feasible = max(best_feasible, abs(lam[0]) ** 2)
    assert best_feasible <= sol.success_probability + 5e-3


def test_run_ns_gate_pnr_perfect():
    psi = FockVector(3, np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0))
    res = run_ns_gate(psi, DetectorModel("pnr", 1.0))
    assert_allclose(res.fidelity, 1.0, atol=1e-9)
    assert_allclose(res.probability, 0.25, atol=1e-9)
    # output exactly proportional to the vacuum sign flip
    assert len(res.branches) == 1
    out = res.branches[0][1]
    target = nonlinear_sign_target(psi)
    overlap = abs(np.vdot(target.amps, out.amps)) / (
        np.linalg.norm(target.amps) * np.linalg.norm(out.amps)
    )
    assert_allclose(overlap, 1.0, atol=1e-12)


def test_run_ns_gate_vacuum_input():
    vac = basis_state(0, 3)
    for detector in (DetectorModel("pnr", 1.0), DetectorModel("on_off", 1.0)):
        res = run_ns_gate(vac, detector)
        assert_allclose(abs(res.output.elems[0, 0]), 1.0, atol=1e-10)
        assert_allclose(res.fidelity, 1.0, atol=1e-9)


def test_run_ns_gate_on_off_degrades():
    # extra photons can reach the click herald, so fidelity strictly drops
    psi = FockVector(3, np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0))
    perfect = run_ns_gate(psi, DetectorModel("pnr", 1.0))
    onoff = run_ns_gate(psi, DetectorModel("on_off", 1.0))
    assert onoff.fidelity < perfect.fidelity - 1e-3
    assert_allclose(perfect.fidelity, 1.0, atol=1e-9)


def test_run_ns_gate_proportional_for_random_inputs():
    rng = np.random.default_rng(55)
    detector = DetectorModel("pnr", 1.0)
    for _ in range(20):
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi = FockVector(3, amps / np.linalg.norm(amps))
        res = run_ns_gate(psi, detector)
        assert_allclose(res.probability, 0.25, atol=1e-9)
        target = density_from_pure(nonlinear_sign_target(psi))
        assert_allclose(fidelity(res.output, target), 1.0, atol=1e-9)


def test_run_ns_gate_detector_pair():
    psi = FockVector(3, np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0))
    res = run_ns_gate(psi, (DetectorModel("pnr", 1.0), DetectorModel("on_off", 1.0)))
    assert 0.0 < res.probability < 1.0


def test_run_ns_gate_input_validation():
    with pytest.raises(ValueError):
        run_ns_gate(basis_state(0, 2), DetectorModel("pnr", 1.0))
    bad = FockVector(5, np.array([1.0, 0.0, 0.0, 0.5, 0.0]))
    with pytest.raises(ValueError):
        run_ns_gate(bad, DetectorModel("pnr", 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
def test_run_ns_gate_refuses_a_non_finite_norm_without_a_warning(bad):
    # NaN and inf amplitudes, and 1e200 whose squared norm overflows
    state = FockVector(3, np.array([bad, 1.0, 1.0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="norm"):
            run_ns_gate(state, DetectorModel("pnr", 1.0))
    assert caught == []


def _reference_branches(state, det_one, det_zero):
    """run_ns_gate's branches with every amplitude a fresh permanent of the solved network."""
    network = transfer_matrix(*solve_ns_transmittances().transmittances)
    signal_in = state.amps[:3] / state.norm
    phase = np.exp(1j * math.pi * np.arange(state.dim))
    branches = []
    for n_zero in range(4):
        for n_one in range(4 - n_zero):
            weight = _detector_weight(det_zero, 0, n_zero) * _detector_weight(det_one, 1, n_one)
            if weight == 0.0:
                continue
            amps = np.zeros(state.dim, dtype=np.complex128)
            for n in range(max(0, n_one + n_zero - 1), 3):
                m = n + 1 - n_one - n_zero
                amps[m] = signal_in[n] * transition_amplitude(network, (m, n_one, n_zero), (n, 1, 0))
            mass = float(np.vdot(amps, amps).real)
            if mass:
                branches.append((weight * mass, phase * amps / math.sqrt(mass)))
    return branches


# a state on levels {0, 1, 2} with a zero tail up to dim 6, not too close to zero
_SIGNAL = st.tuples(
    st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
             min_size=3, max_size=3).filter(lambda a: np.linalg.norm(a) > 1e-3),
    st.integers(3, 6),
).map(lambda p: FockVector(p[1], np.concatenate((p[0], np.zeros(p[1] - 3)))))
_ETA = st.floats(0.01, 1.0)


@given(psi=_SIGNAL, eta=_ETA)
def test_ns_gate_pnr_heralds_give_the_sign_flip_at_one_quarter(psi, eta):
    perfect = run_ns_gate(psi, DetectorModel("pnr", 1.0))
    assert abs(perfect.probability - 0.25) <= 1e-9
    assert abs(perfect.fidelity - 1.0) <= 1e-9
    # a click cannot tell one photon from several, so it heralds no better than a count
    for eta_heralds in (1.0, eta):
        pnr = run_ns_gate(psi, DetectorModel("pnr", eta_heralds))
        onoff = run_ns_gate(psi, DetectorModel("on_off", eta_heralds))
        assert onoff.fidelity <= pnr.fidelity + 1e-9


@given(psi=_SIGNAL, eta_one=_ETA, eta_zero=_ETA,
       kinds=st.tuples(st.sampled_from(("pnr", "on_off")), st.sampled_from(("pnr", "on_off"))))
def test_run_ns_gate_equals_the_permanents_bit_for_bit(psi, eta_one, eta_zero, kinds):
    # the solve's herald table must give exactly what a permanent per branch gives
    det_one, det_zero = DetectorModel(kinds[0], eta_one), DetectorModel(kinds[1], eta_zero)
    result = run_ns_gate(psi, (det_one, det_zero))
    expected = _reference_branches(psi, det_one, det_zero)
    assert len(result.branches) == len(expected)
    for (weight, vec), (ref_weight, ref_amps) in zip(result.branches, expected):
        assert weight == ref_weight
        assert np.array_equal(vec.amps, ref_amps)
    probability = sum(weight for weight, _ in expected)
    rho = sum(weight * np.outer(amps, amps.conj()) for weight, amps in expected)
    assert result.probability == probability
    assert np.array_equal(result.output.elems, rho / probability)


def test_klm_compare_computes_each_herald_amplitude_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1:])
        return transition_amplitude(*args)

    monkeypatch.setattr(klm, "transition_amplitude", counted)
    solve_ns_transmittances.cache_clear()
    klm_compare()
    table = solve_ns_transmittances().herald_amplitudes
    assert len(calls) == sum(len(entries) for _, entries in table) == 10
    assert len(set(calls)) == len(calls)
    klm_compare()
    assert len(calls) == 10
    hash(solve_ns_transmittances())  # the frozen solution, table included, stays hashable


def _assert_is_reference(result, psi, det_one, det_zero):
    expected = _reference_branches(psi, det_one, det_zero)
    assert len(result.branches) == len(expected)
    for (weight, vec), (ref_weight, ref_amps) in zip(result.branches, expected):
        assert weight == ref_weight
        assert np.array_equal(vec.amps, ref_amps)
    probability = sum(weight for weight, _ in expected)
    rho = sum(weight * np.outer(amps, amps.conj()) for weight, amps in expected)
    assert result.probability == probability
    assert np.array_equal(result.output.elems, rho / probability)
    target = density_from_pure(nonlinear_sign_target(psi.normalized()))
    assert result.fidelity == fidelity(result.output, target)


def test_klm_compare_builds_each_probes_branches_once():
    klm._heralded_branches.cache_clear()
    klm_compare()
    info = klm._heralded_branches.cache_info()
    assert (info.misses, info.hits) == (3, 9)  # three probes, four detector settings each


def test_run_ns_gate_memo_follows_the_state():
    pnr, on_off = DetectorModel("pnr", 0.66), DetectorModel("on_off", 0.8)
    first = FockVector(3, np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0))
    second = FockVector(3, np.array([1.0, 0.5j, -2.0]) / math.sqrt(5.25))
    for psi in (first, second, first, second):
        for dets in ((pnr, pnr), (pnr, on_off), (on_off, pnr)):
            _assert_is_reference(run_ns_gate(psi, dets), psi, *dets)


def test_run_ns_gate_memo_follows_the_solution(monkeypatch):
    psi = FockVector(3, np.array([1.0, 1.0, 2.0]) / math.sqrt(6.0))
    detector = DetectorModel("on_off", 0.66)
    solved = run_ns_gate(psi, detector)
    # the same table, built by the same entries, on another network
    settings = (0.9, 0.6, 0.8)
    network = transfer_matrix(*settings)
    other = dataclasses.replace(
        solve_ns_transmittances(),
        transmittances=settings,
        herald_amplitudes=tuple(
            (pattern, klm._herald_entries(network, *pattern)) for pattern in klm._HERALD_PATTERNS
        ),
    )
    monkeypatch.setattr(klm, "solve_ns_transmittances", lambda: other)
    monkeypatch.setitem(globals(), "solve_ns_transmittances", lambda: other)  # the reference's
    result = run_ns_gate(psi, detector)
    assert result.probability != solved.probability
    _assert_is_reference(result, psi, detector, detector)


def test_run_ns_gate_branches_and_cached_projectors_are_read_only():
    psi = FockVector(4, np.array([1.0, -1.0j, 1.0, 0.0]) / math.sqrt(3.0))
    result = run_ns_gate(psi, DetectorModel("on_off", 0.66))
    heralded, target = klm._heralded_branches(
        solve_ns_transmittances(), psi.dim, psi.amps.tobytes()
    )
    assert len(heralded) == len(result.branches) > 1
    for _, vec in result.branches:
        assert not vec.amps.flags.writeable
    for _, _, vec, projector in heralded:
        assert not vec.amps.flags.writeable
        assert not projector.flags.writeable
        with pytest.raises(ValueError):
            projector[0, 0] = 0.0
    assert not target.elems.flags.writeable
