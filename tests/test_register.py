"""Register dynamics: Hamiltonian structure, dephasing model, state handling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sivreg.register import (DephasingModel, DriveSpec, ID2, RegisterParams,
                             RegisterState, SX, SY, SZ, dephase_electron, electron_mixture,
                             electron_up_population, hamiltonian, nuclear_sigma_z, op_at,
                             populations, product_state, repump_electron)
from sivreg.sequences import Engine, _joint_populations

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


def _op_at_hamiltonian(p, d=None):
    """The Hamiltonian with every operator embedded by op_at at each call."""
    n = 1 + p.n_nuclei
    sz_e = op_at(SZ, 0, n)
    h = p.detuning / 2.0 * sz_e
    if d is not None and d.rabi != 0.0:
        h = h + d.rabi / 2.0 * (math.cos(d.phase) * op_at(SX, 0, n)
                                + math.sin(d.phase) * op_at(SY, 0, n))
    for i, (a_par, a_perp) in enumerate(p.hyperfine):
        sz_n = op_at(SZ, 1 + i, n)
        sx_n = op_at(SX, 1 + i, n)
        h = h + p.larmor_n / 2.0 * sz_n
        h = h + sz_e @ (a_par / 4.0 * sz_n + a_perp / 4.0 * sx_n)
    return 2.0 * math.pi * h


@pytest.mark.parametrize("n_nuclei", [1, 2])
@pytest.mark.parametrize("drive", [None, DriveSpec(0.0, 1.0)]
                         + [DriveSpec(8.97e6, phase)
                            for phase in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 0.7)])
def test_hamiltonian_from_precomputed_operators_equals_the_op_at_form(n_nuclei, drive):
    p = params(n_nuclei, detuning=-0.37e6)
    np.testing.assert_array_equal(hamiltonian(p, drive), _op_at_hamiltonian(p, drive))


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
    st0 = RegisterState(product_state(electron_mixture(1.0), n_nuclei=1))
    rabi = 1.0 / (2 * 55.715e-9)
    eng = Engine(p)
    flipped = RegisterState(eng.evolve(st0.rho, [eng.u_pulse(rabi, 0.0, 55.715e-9)]))
    assert electron_up_population(flipped.rho) == pytest.approx(1.0, abs=1e-9)


def test_mixed_electron_reads_half():
    st0 = RegisterState(product_state(electron_mixture(0.5), n_nuclei=1))
    assert electron_up_population(st0.rho) == pytest.approx(0.5, abs=1e-9)
    eng = Engine(params(1))
    rotated = RegisterState(eng.evolve(st0.rho, [eng.u_pulse(8.97e6, 0.3, 30e-9)]))
    assert electron_up_population(rotated.rho) == pytest.approx(0.5, abs=1e-9)


def test_initialization_population_convention():
    st0 = RegisterState(product_state(electron_mixture(0.84), n_nuclei=1))
    assert populations(st0.rho)[0].sum() == pytest.approx(0.84, rel=1e-12)
    sz = np.real(np.trace(st0.rho @ op_at(SZ, 0, 2)))
    assert sz == pytest.approx(-0.68, abs=1e-12)


@pytest.mark.parametrize("fidelity", [0.4, 1.1, -0.2])
def test_fidelity_range_enforced(fidelity):
    with pytest.raises(ValueError):
        RegisterState(product_state(electron_mixture(fidelity)))
    with pytest.raises(ValueError):
        repump_electron(RegisterState(product_state(electron_mixture(0.9))), fidelity)


def test_free_evolution_preserves_trace_and_positivity():
    p = params(2)
    st0 = RegisterState(product_state(electron_mixture(0.9), n_nuclei=2))
    eng = Engine(p)
    out = RegisterState(eng.evolve(st0.rho, [eng.u_pulse(8.97e6, 0.0, 28e-9)]
                                    + eng.free_segments(1.7e-6)))
    assert np.trace(out.rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(out.rho).min() > -1e-12


def test_free_evolution_rejects_negative_time():
    with pytest.raises(ValueError):
        eng = Engine(params(1))
        eng.evolve(product_state(electron_mixture(1.0)), eng.free_segments(-1e-9))


@pytest.mark.parametrize("duration", [-1e-9, math.nan])
def test_pulse_rejects_negative_duration(duration):
    eng = Engine(params(1))
    with pytest.raises(ValueError):
        eng.evolve(product_state(electron_mixture(1.0)),
                   [eng.u_pulse(8.97e6, 0.0, duration)])


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
    st0 = RegisterState(product_state(electron_mixture(1.0), n_nuclei=1))
    # build a state with coherences everywhere
    eng = Engine(p)
    rho = eng.evolve(st0.rho, [eng.u_pulse(8.97e6, 0.0, 30e-9)])
    rho[0, 1] = rho[1, 0] = 0.01      # nuclear coherence inside the down block
    factor = 0.3
    out = dephase_electron(rho, factor)
    np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-15)
    assert out[0, 1] == pytest.approx(0.01, abs=1e-15)       # untouched
    np.testing.assert_allclose(out[:2, 2:], factor * rho[:2, 2:], atol=1e-15)


@pytest.mark.parametrize("n_nuclei", [1, 2])
def test_stacked_readouts_and_dephasing_act_per_density_matrix(n_nuclei):
    """A (3, d, d) stack reads and dephases as its three matrices do one at a time."""
    eng = Engine(params(n_nuclei, detuning=1e6))
    rho0 = product_state(electron_mixture(0.9), [(0.8, 0.2)], n_nuclei)
    stack = np.array([eng.evolve(rho0, [eng.u_pulse(8e6, 0.3, t)] + eng.free_segments(u))
                      for t, u in ((10e-9, 0.2e-6), (40e-9, 0.0), (70e-9, 1.1e-6))])
    model = DephasingModel(t_c=1e-6, beta=1.5)
    times = np.array([0.0, 0.4e-6, 2e-6])
    factors = model.factor(times)
    np.testing.assert_allclose(factors, [model.factor(float(t)) for t in times],
                               rtol=1e-15, atol=0)
    dephased = dephase_electron(stack, factors)
    assert populations(stack).shape == (3,) + (2,) * (1 + n_nuclei)
    for k, rho in enumerate(stack):
        np.testing.assert_array_equal(dephased[k], dephase_electron(rho, factors[k]))
        np.testing.assert_array_equal(populations(stack)[k], populations(rho))
        assert electron_up_population(stack)[k] == pytest.approx(
            electron_up_population(rho), rel=0, abs=1e-15)
        for i in range(n_nuclei):
            assert nuclear_sigma_z(stack, i)[k] == pytest.approx(
                nuclear_sigma_z(rho, i), rel=0, abs=1e-15)


def test_dephasing_factor_underflows_to_zero():
    # (t / t_c) ** beta beyond the float range: full dephasing, not an OverflowError
    assert DephasingModel(t_c=1e-300, beta=2.0).factor(1e-7) == 0.0
    assert DephasingModel(t_c=1e-300, beta=3.0).factor(1e300) == 0.0


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
    st0 = RegisterState(product_state(electron_mixture(0.9), n_nuclei=1))
    eng = Engine(p)
    evolved = RegisterState(eng.evolve(st0.rho, [eng.u_pulse(8.97e6, 0.1, 40e-9)]
                                       + eng.free_segments(0.8e-6)))
    half = 2
    marginal_before = evolved.rho[:half, :half] + evolved.rho[half:, half:]
    out = repump_electron(evolved, 0.81)
    marginal_after = out.rho[:half, :half] + out.rho[half:, half:]
    np.testing.assert_allclose(marginal_after, marginal_before, atol=1e-12)
    assert populations(out.rho)[0].sum() == pytest.approx(0.81, abs=1e-12)


def test_state_validation_rejects_garbage():
    with pytest.raises(ValueError):
        RegisterState(np.eye(4, dtype=complex))                # trace 4
    with pytest.raises(ValueError):
        RegisterState(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
    bad = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    bad[0, 1] = 0.3                                            # not Hermitian
    with pytest.raises(ValueError):
        RegisterState(bad)
    for side in (2, 16):                                       # neither 1 nor 2 nuclei
        with pytest.raises(ValueError, match="expected \\(4, 4\\) or \\(8, 8\\)"):
            RegisterState(np.eye(side, dtype=complex) / side)


def test_register_params_validation():
    with pytest.raises(ValueError):
        RegisterParams(hyperfine=(HYP1,), n_nuclei=3)
    with pytest.raises(ValueError):
        RegisterParams(hyperfine=(HYP1, HYP2), n_nuclei=1)
    with pytest.raises(ValueError):
        RegisterParams(hyperfine=(HYP1,), n_nuclei=1, larmor_n=0.0)


def test_nuclear_sigma_z_rejects_an_invalid_index():
    # -1 is a valid array axis, the electron's, so it needs the explicit check
    for n_nuclei in (1, 2):
        rho = product_state(electron_mixture(1.0), n_nuclei=n_nuclei)
        for index in (-1, n_nuclei):
            with pytest.raises(ValueError, match="invalid nucleus index"):
                nuclear_sigma_z(rho, index)


def test_larmor_period():
    p = params(1)
    assert p.larmor_period == pytest.approx(1.0 / 3.5857929e6, rel=1e-12)
    assert p.larmor_period * 1e9 == pytest.approx(278.8783, rel=1e-5)


def test_pulse_is_unitary_conjugation():
    st0 = RegisterState(product_state(electron_mixture(0.8), n_nuclei=1))
    eng = Engine(params(1))
    u = eng.u_pulse(8.97e6, 0.3, 30e-9)
    np.testing.assert_array_equal(eng.evolve(st0.rho, [eng.u_pulse(8.97e6, 0.3, 30e-9)]),
                                  u @ st0.rho @ u.conj().T)
    # a pi pulse on the bare electron is the hard flip sigma_x (up to a global phase)
    bare = Engine(RegisterParams(hyperfine=((0.0, 0.0),), n_nuclei=1))
    rabi = 1.0 / (2 * 55.715e-9)
    out = RegisterState(bare.evolve(st0.rho, [bare.u_pulse(rabi, 0.0, 55.715e-9)]))
    flip = op_at(SX, 0, 2)
    np.testing.assert_allclose(out.rho, flip @ st0.rho @ flip, atol=1e-12)
    assert electron_up_population(out.rho) == pytest.approx(0.8, rel=1e-12)


# --- diagonal readouts ---------------------------------------------------------

def random_state(rng, n_nuclei):
    """Random full-rank density matrix with coherences everywhere."""
    dim = 2 ** (1 + n_nuclei)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return RegisterState(rho / np.trace(rho).real)


@pytest.mark.parametrize("n_nuclei", [1, 2])
def test_diagonal_readouts_match_projector_traces(n_nuclei):
    """Each readout equals its definition trace(rho . op_at(...)) to 1e-15."""
    rng = np.random.default_rng(40 + n_nuclei)
    n = 1 + n_nuclei
    down = np.diag([1.0, 0.0]).astype(complex)
    up = np.diag([0.0, 1.0]).astype(complex)
    for _ in range(5):
        state = random_state(rng, n_nuclei)

        def expectation(op):
            return np.real(np.trace(state.rho @ op))

        assert populations(state.rho).shape == (2,) * n
        e_up = expectation(op_at(up, 0, n))
        assert abs(electron_up_population(state.rho) - e_up) <= 1e-15
        assert abs(populations(state.rho)[0].sum() - expectation(op_at(down, 0, n))) <= 1e-15
        for i in range(n_nuclei):
            sz = expectation(op_at(SZ, 1 + i, n))
            assert abs(nuclear_sigma_z(state.rho, i) - sz) <= 1e-15
        joint = [expectation(op_at(e, 0, n) @ op_at(m, 1, n))
                 for e in (down, up) for m in (down, up)]
        np.testing.assert_allclose(_joint_populations(state.rho), joint, rtol=0, atol=1e-15)
