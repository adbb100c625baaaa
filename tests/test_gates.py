"""Nuclear initialization gate, two-qubit gates, transfer matrices,
randomized benchmarking."""

import math

import numpy as np
import pytest

from sivreg import sequences
from sivreg.linalg import hermitian_eig, propagator_from_eig
from sivreg.register import (DephasingModel, RegisterParams, RegisterState,
                             dephase_electron, electron_mixture, hamiltonian,
                             nuclear_sigma_z, product_state)
from sivreg.sequences import (XY8_PHASES, Engine, GateSpec, InvalidGate,
                              T_PI_DEFAULT, TransferMatrix, UncalibratedGate,
                              _adjoint, _transfer_segments,
                              calibrate_cenotn, calibrate_cnnote,
                              calibrate_quarter_rotation,
                              calibrate_transfer_wait, gate_segments,
                              nuclear_init_gate, run_randomized_benchmarking,
                              transfer_matrix, ui_probe_signal)

HYP1 = (621.75027e3, 140.1041e3)
HYP2 = (50.0e3, 101.19309e3)
A_PAR = HYP1[0]
F_IE = 0.805946119102144


def one_nucleus():
    return RegisterParams(hyperfine=(HYP1,), n_nuclei=1)


def two_nuclei():
    return RegisterParams(hyperfine=(HYP1, HYP2), n_nuclei=2)


def ui_gate(p, tau=81.5e-9, n_pulses=42):
    g = GateSpec(kind="UI", tau=tau, n_pulses=n_pulses)
    wait = calibrate_transfer_wait(p, g)
    return GateSpec(kind="UI", tau=tau, n_pulses=n_pulses, wait=wait)


# --- nuclear initialization ----------------------------------------------------

def test_init_gate_ideal_limit_polarizes_nucleus():
    # tau exactly on the nuclear resonance, pulse number recalibrated
    p = one_nucleus()
    tau_res = 0.5 * p.larmor_period - T_PI_DEFAULT
    n = calibrate_quarter_rotation(p, tau_res, force_even=True)
    state = nuclear_init_gate(p, None, ui_gate(p, tau=tau_res, n_pulses=n), f_ie=1.0)
    assert abs(nuclear_sigma_z(state.rho)) > 0.95


def test_init_gate_two_nuclei_reference_polarization():
    p = two_nuclei()
    state = nuclear_init_gate(p, None, ui_gate(p), f_ie=F_IE)
    sz = nuclear_sigma_z(state.rho, 0)
    fidelity = 0.5 * (1.0 + abs(sz))
    assert fidelity == pytest.approx(0.647, abs=0.03)


def test_init_gate_flip_inverts_polarization_exactly():
    p = two_nuclei()
    g = ui_gate(p)
    plain = nuclear_init_gate(p, None, g, f_ie=F_IE)
    flipped = nuclear_init_gate(p, None, g, f_ie=F_IE, flip_first=True)
    sz0 = nuclear_sigma_z(plain.rho, 0)
    sz1 = nuclear_sigma_z(flipped.rho, 0)
    assert sz1 == pytest.approx(-sz0, abs=1e-6)


def test_init_gate_unpolarized_electron_transfers_nothing():
    p = one_nucleus()
    state = nuclear_init_gate(p, None, ui_gate(p), f_ie=0.5)
    assert nuclear_sigma_z(state.rho) == pytest.approx(0.0, abs=1e-9)


def test_single_nucleus_probe_overestimates_contrast():
    # modeling only the target nucleus roughly doubles the apparent transfer
    p1, p2 = one_nucleus(), two_nuclei()
    contrasts = []
    for p in (p1, p2):
        g = ui_gate(p)
        s0 = ui_probe_signal(p, None, g, F_IE, flip_first=False)
        s1 = ui_probe_signal(p, None, g, F_IE, flip_first=True)
        contrasts.append(abs(s1 - s0))
    assert contrasts[0] / contrasts[1] == pytest.approx(2.0, abs=0.4)


def _coherent_state(eng, n_nuclei):
    """Initialized register rotated so it carries electron and nuclear coherences."""
    rho = product_state(electron_mixture(0.9), n_nuclei=n_nuclei)
    return eng.evolve(rho, [eng.u_rotation(1.1, 0.4)]
                      + eng.dd_block_segments(0.3e-6, 1, (0.7,)))


def test_transfer_segments_reverse_pass_undoes_forward_pass():
    p = two_nuclei()
    g = GateSpec(kind="UI", tau=81.5e-9, n_pulses=42, wait=0.1e-6)
    eng = Engine(p)
    rho = _coherent_state(eng, 2)
    segments = _transfer_segments(eng, g, g.wait)
    back = eng.evolve(eng.evolve(rho, segments), _adjoint(segments))
    np.testing.assert_allclose(back, rho, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_pulses", [6, 42])
def test_transfer_segments_reverse_pass_dephases_after_each_free_segment(n_pulses):
    p = one_nucleus()
    g = GateSpec(kind="UI", tau=81.5e-9, n_pulses=n_pulses, wait=0.1e-6)
    deph = DephasingModel(t_c=4e-6, beta=2.0)
    eng = Engine(p, deph, g.t_pi)

    def undo(rho, u, t=0.0):
        rho = u.conj().T @ rho @ u
        return dephase_electron(rho, deph.factor(t)) if t else rho

    def u_free(t):   # the lab-frame free propagator
        return propagator_from_eig(hermitian_eig(hamiltonian(p)), t)

    def undo_block(rho):
        half = u_free(g.tau / 2.0)
        for k in reversed(range(g.n_pulses)):
            pi_u = eng.u_rotation(math.pi, XY8_PHASES[k % 8])
            rho = undo(undo(undo(rho, half, g.tau / 2.0), pi_u), half, g.tau / 2.0)
        return rho

    rho = _coherent_state(eng, 1)
    expected = undo_block(rho)
    expected = undo(expected, u_free(g.wait), g.wait)
    expected = undo(expected, eng.u_rotation(math.pi / 2, 0.0))
    expected = undo_block(expected)
    expected = undo(expected, eng.u_rotation(math.pi / 2, math.pi / 2))
    got = eng.evolve(rho, _adjoint(_transfer_segments(eng, g, g.wait)))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_init_gate_rejects_other_kinds():
    p = one_nucleus()
    g = GateSpec(kind="identity")
    with pytest.raises(InvalidGate):
        nuclear_init_gate(p, None, g, f_ie=1.0)


# --- two-qubit gates ----------------------------------------------------------------

@pytest.fixture(scope="module")
def cenotn():
    return calibrate_cenotn(one_nucleus())


def test_cenotn_calibration_is_even(cenotn):
    assert cenotn.n_pulses % 2 == 0 and cenotn.uncond_n % 2 == 0
    assert cenotn.n_pulses == 42 and cenotn.uncond_n == 154


def test_cnnote_truth_table():
    p = one_nucleus()
    g = calibrate_cnnote(p)
    assert g.rabi == pytest.approx(A_PAR / math.sqrt(3.0), rel=1e-12)
    eng, segments = gate_segments(p, None, g)
    # electron flips when the nucleus is down, returns when the nucleus is up
    lo = np.diag([1.0, 0, 0, 0]).astype(complex)
    hi = np.diag([0, 1.0, 0, 0]).astype(complex)
    out_lo = eng.evolve(lo, segments)
    out_hi = eng.evolve(hi, segments)
    assert np.real(out_lo[2, 2]) >= 0.99
    assert np.real(out_hi[1, 1]) >= 0.99


def test_cnnote_accepts_reference_calibration_period():
    # measured-period calibration (2.8706 us) instead of the analytic power
    p = one_nucleus()
    g = GateSpec(kind="CnNOTe", rabi=1.0 / 2.8706e-6)
    eng, segments = gate_segments(p, None, g)
    lo = np.diag([1.0, 0, 0, 0]).astype(complex)
    hi = np.diag([0, 1.0, 0, 0]).astype(complex)
    assert np.real(eng.evolve(lo, segments)[2, 2]) >= 0.99
    assert np.real(eng.evolve(hi, segments)[1, 1]) >= 0.99


def test_cenotn_is_involution_on_nuclear_axis(cenotn):
    p = one_nucleus()
    eng, segments = gate_segments(p, None, cenotn)
    state = RegisterState(np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex))
    twice = RegisterState(eng.evolve(eng.evolve(state.rho, segments), segments))
    assert nuclear_sigma_z(twice.rho) == pytest.approx(
        nuclear_sigma_z(state.rho), abs=0.02)


def test_gate_segments_validation(cenotn):
    p = one_nucleus()
    with pytest.raises(UncalibratedGate):
        gate_segments(p, None, GateSpec(kind="CeNOTn", tau=cenotn.tau,
                                        n_pulses=cenotn.n_pulses))
    with pytest.raises(UncalibratedGate):
        gate_segments(p, None, GateSpec(kind="CnNOTe"))
    with pytest.raises(InvalidGate):
        gate_segments(p, None, GateSpec(kind="UI", tau=81.5e-9, n_pulses=42))


def test_gate_segments_identity_is_noop():
    p = one_nucleus()
    eng, segments = gate_segments(p, None, GateSpec(kind="identity"))
    state = RegisterState(np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex))
    np.testing.assert_allclose(eng.evolve(state.rho, segments), state.rho, atol=1e-15)


# --- transfer matrices --------------------------------------------------------------

def test_identity_transfer_matrix_is_exact():
    p = one_nucleus()
    tm = transfer_matrix(p, None, GateSpec(kind="identity"), f_ie=0.9, f_in=0.8)
    np.testing.assert_allclose(tm.matrix, np.eye(4), atol=1e-12)


def test_cenotn_transfer_matrix_is_its_permutation(cenotn):
    p = one_nucleus()
    tm = transfer_matrix(p, None, cenotn, f_ie=1.0, f_in=1.0)
    # nuclear flip conditioned on electron down
    perm = np.zeros((4, 4))
    perm[1, 0] = perm[0, 1] = perm[2, 2] = perm[3, 3] = 1.0
    assert np.abs(tm.matrix - perm).max() < 0.02
    assert tm.labels == ("down_Down", "down_Up", "up_Down", "up_Up")


def test_cenotn_transfer_referencing_removes_preparation_errors(cenotn):
    p = one_nucleus()
    ideal = transfer_matrix(p, None, cenotn, f_ie=1.0, f_in=1.0)
    faulty = transfer_matrix(p, None, cenotn, f_ie=0.84, f_in=0.9)
    np.testing.assert_allclose(faulty.matrix, ideal.matrix, atol=1e-9)
    perm = np.zeros((4, 4))
    perm[1, 0] = perm[0, 1] = perm[2, 2] = perm[3, 3] = 1.0
    inferred = float(np.sum(faulty.matrix * perm) / 4.0)
    assert inferred > 0.9


@pytest.mark.parametrize("params", [one_nucleus, two_nuclei], ids=["1", "2"])
@pytest.mark.parametrize("kind, n_drives", [("CeNOTn", 3), ("CnNOTe", 1), ("identity", 0)])
def test_transfer_matrix_solves_each_drive_once(monkeypatch, cenotn, params, kind, n_drives):
    """One eigensolve per distinct drive over all four preparations, the free
    Hamiltonian as a stack of its two electron blocks.

    A CeNOTn has the free drive and the X and Y pi drives, a CnNOTe its one
    drive, and the identity gate none.
    """
    p = params()
    g = {"CeNOTn": cenotn, "CnNOTe": calibrate_cnnote(p),
         "identity": GateSpec(kind="identity")}[kind]
    solves = []
    eig = sequences.hermitian_eig

    def counting(h):
        solves.append(h.shape)
        return eig(h)

    monkeypatch.setattr(sequences, "hermitian_eig", counting)
    transfer_matrix(p, DephasingModel(t_c=4e-6, beta=2.0), g, f_ie=0.9, f_in=0.8)
    d = 2 ** (1 + p.n_nuclei)
    n_free = int(kind == "CeNOTn")   # the free drive: its two electron blocks as one stack
    assert sorted(solves) == [(2, d // 2, d // 2)] * n_free + [(d, d)] * (n_drives - n_free)


def test_transfer_matrix_validation():
    with pytest.raises(ValueError):
        TransferMatrix(np.eye(3))
    with pytest.raises(ValueError):
        TransferMatrix(np.eye(4) * 1.2)


# --- randomized benchmarking ----------------------------------------------------------

def rb_params():
    return RegisterParams(hyperfine=((0.0, 0.0),), n_nuclei=1)


def test_rb_noiseless_fidelity_is_unity():
    res = run_randomized_benchmarking(rb_params(), None, [1, 4, 8, 16, 32],
                                      n_random=8, seed=3)
    assert res.gate_fidelity == pytest.approx(1.0, abs=1e-3)


def test_rb_depolarizing_noise_maps_to_gate_fidelity():
    q = 0.02
    res = run_randomized_benchmarking(rb_params(), None, [1, 4, 8, 16, 32, 64],
                                      n_random=8, gate_fidelity_noise=q, seed=5)
    deficit = 1.0 - res.gate_fidelity
    assert deficit == pytest.approx(q / 2.0, rel=0.05)


def test_rb_reference_scale():
    res = run_randomized_benchmarking(rb_params(), None, [1, 8, 24, 48, 96],
                                      n_random=6, gate_fidelity_noise=0.0103,
                                      seed=1)
    assert res.gate_fidelity == pytest.approx(0.99485, abs=2e-4)


def test_rb_reproducible_from_seed():
    p = RegisterParams(hyperfine=(HYP1,), n_nuclei=1)
    kw = dict(n_random=4, gate_fidelity_noise=0.01, f_ie=0.95)
    a = run_randomized_benchmarking(p, None, [1, 4, 8], seed=11, **kw)
    b = run_randomized_benchmarking(p, None, [1, 4, 8], seed=11, **kw)
    c = run_randomized_benchmarking(p, None, [1, 4, 8], seed=12, **kw)
    np.testing.assert_array_equal(a.sweep.signal, b.sweep.signal)
    assert not np.array_equal(a.sweep.signal, c.sweep.signal)


def test_rb_starts_at_initialization_contrast():
    res = run_randomized_benchmarking(rb_params(), None, [1, 2, 4], n_random=6,
                                      f_ie=0.9, seed=7)
    sig = np.asarray(res.sweep.signal)
    assert np.all(sig <= 0.9 + 1e-9) and np.all(sig >= 0.5 - 1e-9)
