"""Register dynamics: Hamiltonian structure, dephasing model, state handling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sivreg.register import (DephasingModel, DriveSpec, ID2, RegisterParams,
                             RegisterState, SX, SY, SZ, dephase_electron,
                             hamiltonian, initialize_electron, measure, op_at,
                             repump_electron)
from sivreg.sequences import Engine

HYP1 = (621.75027e3, 140.1041e3)
HYP2 = (50.0e3, 101.19309e3)


def params(n_nuclei=1, detuning=0.0):
    hyp = (HYP1, HYP2)[:n_nuclei]
    return RegisterParams(detuning=detuning, hyperfine=hyp, n_nuclei=n_nuclei)


def test_hamiltonian_matches_direct_kron_construction():
    p = params(2, detuning=3e6)
    # independent construction with raw numpy kron, electron slowest
    def k3(a, b, c):
        return np.kron(np.kron(a, b), c)
    h_ref = p.detuning / 2 * k3(SZ, ID2, ID2)
    for i, (a_par, a_perp) in enumerate(p.hyperfine):
        ops = [ID2, ID2, ID2]
        ops[1 + i] = SZ
        h_ref = h_ref + p.larmor_n / 2 * k3(*ops)
        opx = [ID2, ID2, ID2]
        opx[1 + i] = SX
        h_ref = h_ref + k3(SZ, ID2, ID2) @ (a_par / 4 * k3(*ops) + a_perp / 4 * k3(*opx))
    np.testing.assert_allclose(hamiltonian(p), 2 * math.pi * h_ref, atol=1e-3)


def test_hamiltonian_block_diagonal_without_drive():
    h = hamiltonian(params(2))
    half = 4
    assert np.abs(h[:half, half:]).max() == 0.0    # no electron-flip terms


def test_drive_adds_transverse_term():
    p = params(1)
    d = DriveSpec(rabi=8.97e6, phase=math.pi / 2)
    h = hamiltonian(p, d) - hamiltonian(p)
    expected = 2 * math.pi * d.rabi / 2 * op_at(SY, 0, 2)
    np.testing.assert_allclose(h, expected, atol=1e-6)


def test_pi_pulse_inverts_electron():
    p = RegisterParams(hyperfine=((0.0, 0.0),), n_nuclei=1)
    st0 = initialize_electron(1.0, n_nuclei=1)
    rabi = 1.0 / (2 * 55.715e-9)
    flipped = RegisterState(Engine(p).pulse(st0.rho, rabi, 0.0, 55.715e-9), 1)
    assert measure(flipped, "electron_up") == pytest.approx(1.0, abs=1e-9)


def test_mixed_electron_reads_half():
    st0 = initialize_electron(0.5, n_nuclei=1)
    assert measure(st0, "electron_up") == pytest.approx(0.5, abs=1e-9)
    rotated = RegisterState(Engine(params(1)).pulse(st0.rho, 8.97e6, 0.3, 30e-9), 1)
    assert measure(rotated, "electron_up") == pytest.approx(0.5, abs=1e-9)


def test_initialization_population_convention():
    st0 = initialize_electron(0.84, n_nuclei=1)
    assert measure(st0, "electron_down") == pytest.approx(0.84, rel=1e-12)
    sz = np.real(np.trace(st0.rho @ op_at(SZ, 0, 2)))
    assert sz == pytest.approx(-0.68, abs=1e-12)


@pytest.mark.parametrize("fidelity", [0.4, 1.1, -0.2])
def test_fidelity_range_enforced(fidelity):
    with pytest.raises(ValueError):
        initialize_electron(fidelity)
    with pytest.raises(ValueError):
        repump_electron(initialize_electron(0.9), fidelity)


def test_free_evolution_preserves_trace_and_positivity():
    p = params(2)
    st0 = initialize_electron(0.9, n_nuclei=2)
    eng = Engine(p)
    out = RegisterState(eng.wait(eng.pulse(st0.rho, 8.97e6, 0.0, 28e-9), 1.7e-6), 2)
    assert np.trace(out.rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(out.rho).min() > -1e-12


def test_free_evolution_rejects_negative_time():
    with pytest.raises(ValueError):
        Engine(params(1)).wait(initialize_electron(1.0).rho, -1e-9)


@pytest.mark.parametrize("duration", [-1e-9, math.nan])
def test_pulse_rejects_negative_duration(duration):
    eng = Engine(params(1))
    with pytest.raises(ValueError):
        eng.pulse(initialize_electron(1.0).rho, 8.97e6, 0.0, duration)


# --- dephasing ---------------------------------------------------------------

def test_dephasing_factor_definition():
    m = DephasingModel(t_c=4.0e-6, beta=1.7)
    t = 1.3e-6
    assert m.factor(t) == pytest.approx(math.exp(-((t / 4.0e-6) ** 1.7)), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(beta=st.floats(min_value=0.5, max_value=3.0),
       t1=st.floats(min_value=1e-8, max_value=5e-6),
       t2=st.floats(min_value=1e-8, max_value=5e-6))
def test_dephasing_divisible_only_for_exponential(beta, t1, t2):
    m = DephasingModel(t_c=2.0e-6, beta=beta)
    combined = m.factor(t1 + t2)
    split = m.factor(t1) * m.factor(t2)
    if abs(beta - 1.0) < 1e-9:
        assert combined == pytest.approx(split, rel=1e-9)
    else:
        # sub/super-exponential envelopes are not segment-divisible
        ratio = combined / split
        assert ratio != pytest.approx(1.0, abs=1e-12) or t1 < 1e-30 or t2 < 1e-30


def test_dephasing_acts_only_on_electron_coherences():
    p = params(1)
    st0 = initialize_electron(1.0, n_nuclei=1)
    # build a state with coherences everywhere
    rho = Engine(p).pulse(st0.rho, 8.97e6, 0.0, 30e-9)
    rho[0, 1] = rho[1, 0] = 0.01      # nuclear coherence inside the down block
    factor = 0.3
    out = dephase_electron(rho, factor, 1)
    np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-15)
    assert out[0, 1] == pytest.approx(0.01, abs=1e-15)       # untouched
    np.testing.assert_allclose(out[:2, 2:], factor * rho[:2, 2:], atol=1e-15)


def test_dephasing_model_validation():
    with pytest.raises(ValueError):
        DephasingModel(t_c=0.0, beta=2.0)
    with pytest.raises(ValueError):
        DephasingModel(t_c=1e-6, beta=4.0)
    with pytest.raises(ValueError):
        DephasingModel(t_c=math.inf, beta=2.0)


# --- repump and state validation ---------------------------------------------

def test_repump_keeps_nuclear_marginal():
    p = params(1)
    st0 = initialize_electron(0.9, n_nuclei=1)
    eng = Engine(p)
    evolved = RegisterState(eng.wait(eng.pulse(st0.rho, 8.97e6, 0.1, 40e-9), 0.8e-6), 1)
    half = 2
    marginal_before = evolved.rho[:half, :half] + evolved.rho[half:, half:]
    out = repump_electron(evolved, 0.81)
    marginal_after = out.rho[:half, :half] + out.rho[half:, half:]
    np.testing.assert_allclose(marginal_after, marginal_before, atol=1e-12)
    assert measure(out, "electron_down") == pytest.approx(0.81, abs=1e-12)


def test_state_validation_rejects_garbage():
    with pytest.raises(ValueError):
        RegisterState(np.eye(4, dtype=complex), 1)            # trace 4
    with pytest.raises(ValueError):
        RegisterState(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), 1)
    bad = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    bad[0, 1] = 0.3                                            # not Hermitian
    with pytest.raises(ValueError):
        RegisterState(bad, 1)


def test_register_params_validation():
    with pytest.raises(ValueError):
        RegisterParams(hyperfine=(HYP1,), n_nuclei=3)
    with pytest.raises(ValueError):
        RegisterParams(hyperfine=(HYP1, HYP2), n_nuclei=1)
    with pytest.raises(ValueError):
        RegisterParams(hyperfine=(HYP1,), n_nuclei=1, larmor_n=0.0)


def test_measure_errors():
    st0 = initialize_electron(1.0, n_nuclei=1)
    with pytest.raises(ValueError):
        measure(st0, "nuclear_sigma_z", index=1)
    with pytest.raises(ValueError):
        measure(st0, "bogus")


def test_larmor_period():
    p = params(1)
    assert p.larmor_period == pytest.approx(1.0 / 3.5857929e6, rel=1e-12)
    assert p.larmor_period * 1e9 == pytest.approx(278.8783, rel=1e-5)


def test_pulse_is_unitary_conjugation():
    st0 = initialize_electron(0.8, n_nuclei=1)
    eng = Engine(params(1))
    u = eng.u_pulse(8.97e6, 0.3, 30e-9)
    np.testing.assert_array_equal(eng.pulse(st0.rho, 8.97e6, 0.3, 30e-9),
                                  u @ st0.rho @ u.conj().T)
    # a pi pulse on the bare electron is the hard flip sigma_x (up to a global phase)
    bare = Engine(RegisterParams(hyperfine=((0.0, 0.0),), n_nuclei=1))
    rabi = 1.0 / (2 * 55.715e-9)
    out = RegisterState(bare.pulse(st0.rho, rabi, 0.0, 55.715e-9), 1)
    flip = op_at(SX, 0, 2)
    np.testing.assert_allclose(out.rho, flip @ st0.rho @ flip, atol=1e-12)
    assert measure(out, "electron_up") == pytest.approx(0.8, rel=1e-12)
