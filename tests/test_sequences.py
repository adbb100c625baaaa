"""Pulse-sequence experiments: Rabi, Ramsey, dynamical decoupling, spin lock,
conditional nuclear rotations."""

import math

import numpy as np
import pytest

from sivreg import fitting
from sivreg.register import (DephasingModel, RegisterParams, RegisterState,
                             initialize_electron)
from sivreg.sequences import (Engine, GateSpec, SweepResult, T_PI_DEFAULT,
                              calibrate_quarter_rotation, composite_gate,
                              extract_full_rotation, nuclear_init_gate,
                              run_dd, run_nuclear_rotation, run_rabi,
                              run_ramsey, run_randomized_benchmarking,
                              run_spin_lock, ui_probe_signal)

HYP1 = (621.75027e3, 140.1041e3)
HYP2 = (50.0e3, 101.19309e3)
LARMOR_N = 3.5857929e6
A_PAR, A_PERP = HYP1


def bare_params(detuning=0.0):
    """Electron only (hyperfine switched off)."""
    return RegisterParams(detuning=detuning, hyperfine=((0.0, 0.0),), n_nuclei=1)


def one_nucleus(detuning=0.0):
    return RegisterParams(detuning=detuning, hyperfine=(HYP1,), n_nuclei=1)


def pure_state(electron_up, nuclear_up):
    rho = np.zeros((4, 4), dtype=complex)
    rho[2 * electron_up + nuclear_up, 2 * electron_up + nuclear_up] = 1.0
    return RegisterState(rho, 1)


# --- Rabi ---------------------------------------------------------------------

def test_rabi_zero_drive_is_flat_at_initialization_level():
    sweep = run_rabi(bare_params(), None, 0.0, np.linspace(0, 1e-6, 21), f_ie=0.9)
    np.testing.assert_allclose(sweep.signal, 0.1, atol=1e-12)


def test_rabi_period_is_inverse_drive():
    omega = 10e6
    taus = np.array([0.0, 25e-9, 50e-9, 100e-9])
    sweep = run_rabi(bare_params(), None, omega, taus)
    expected = np.sin(math.pi * omega * taus) ** 2
    np.testing.assert_allclose(sweep.signal, expected, atol=1e-9)


def test_rabi_mixed_electron_stays_half():
    sweep = run_rabi(one_nucleus(), None, 8e6, np.linspace(0, 0.4e-6, 31), f_ie=0.5)
    np.testing.assert_allclose(sweep.signal, 0.5, atol=1e-9)


def test_rabi_low_power_two_tone_beat():
    # drive resonant with the nuclear-down line at the conditional-pulse power:
    # the two nuclear manifolds respond at frequencies Omega and exactly 2*Omega
    omega = A_PAR / math.sqrt(3.0)
    p = one_nucleus(detuning=A_PAR / 2.0)
    taus = np.linspace(0, 12e-6, 481)
    f_fit = []
    for nuclear_up in (False, True):
        sweep = run_rabi(p, None, omega, taus, initial=pure_state(False, nuclear_up))
        model = fitting.rabi_beat_model(1)
        res = fitting.least_squares(
            model, taus, np.asarray(sweep.signal),
            init={"a1": -0.5, "f1": omega * (2.0 if nuclear_up else 1.0),
                  "phi1": math.pi / 2, "t1": 1.0, "c": 0.5},
            fixed={"t1": 1.0})
        f_fit.append(abs(res["f1"]))
    assert f_fit[1] / f_fit[0] == pytest.approx(2.0, rel=1e-4)
    # mixed nucleus shows both tones
    beat = run_rabi(p, None, omega, taus)
    spec = np.abs(np.fft.rfft(np.asarray(beat.signal) - np.mean(beat.signal)))
    freqs = np.fft.rfftfreq(taus.size, taus[1] - taus[0])
    top = freqs[np.argsort(spec)[::-1][:4]]
    assert any(abs(f - omega) < 5e4 for f in top)
    assert any(abs(f - 2 * omega) < 5e4 for f in top)


# --- Ramsey --------------------------------------------------------------------

def test_ramsey_resonant_bare_electron_is_constant():
    sweep = run_ramsey(bare_params(), None, 0.0, np.linspace(0, 5e-6, 41))
    np.testing.assert_allclose(sweep.signal, sweep.signal[0], atol=1e-9)


def test_ramsey_hyperfine_beat_recovers_parallel_coupling():
    p = one_nucleus(detuning=A_PAR / 2.0)
    taus = np.linspace(0, 6e-6, 361)
    sweep = run_ramsey(p, DephasingModel(t_c=8e-6, beta=2.0), A_PAR / 2.0, taus)
    model = fitting.get_model("ramsey")
    res = fitting.least_squares(model, taus, np.asarray(sweep.signal))
    assert abs(res["f"]) == pytest.approx(A_PAR, rel=1e-2)


def test_nuclear_ramsey_branches_split_by_parallel_coupling():
    p = one_nucleus()
    taus = np.linspace(0, 2.0e-6, 241)
    freqs = []
    for electron_up in (False, True):
        sweep = run_ramsey(p, None, 0.0, taus, target="nuclear",
                           electron_up=electron_up)
        model = fitting.damped_sine_sum_model(1)
        guess = LARMOR_N + (A_PAR / 2.0 if electron_up else -A_PAR / 2.0)
        res = fitting.least_squares(
            model, taus, np.asarray(sweep.signal),
            init={"a1": 0.5, "f1": guess, "phi1": math.pi / 2,
                  "t1": 1.0, "beta1": 1.0, "c": 0.5},
            fixed={"t1": 1.0, "beta1": 1.0})
        freqs.append(abs(res["f1"]))
        assert "nuclear_sigma_z" in (sweep.aux or {})
    assert freqs[1] - freqs[0] == pytest.approx(A_PAR, rel=2e-2)


# --- dynamical decoupling --------------------------------------------------------

def test_dd_per_segment_envelope_closed_form():
    t_c, beta = 2e-6, 2.0
    p = bare_params()
    for n in (1, 4, 16):
        taus = np.linspace(1e-8, 4e-6 / math.sqrt(n), 25)
        sweep = run_dd(p, DephasingModel(t_c=t_c, beta=beta), "XY", n, taus)
        envelope = np.abs(2.0 * np.asarray(sweep.signal) - 1.0)
        expected = np.exp(-2.0 * n * (taus / (2 * t_c)) ** beta)
        np.testing.assert_allclose(envelope, expected, atol=1e-9)


def test_dd_coherence_time_scales_with_pulse_number():
    # with beta = 2 the per-segment model gives T2 proportional to N^1/2
    t_c = 2e-6
    p = bare_params()
    ns = np.array([1, 2, 4, 8, 16])
    t2s = []
    for n in ns:
        taus = np.linspace(1e-8, 8e-6 / math.sqrt(n), 40)
        sweep = run_dd(p, DephasingModel(t_c=t_c, beta=2.0), "CPMG", int(n), taus)
        total = n * taus
        envelope = np.abs(2.0 * np.asarray(sweep.signal) - 1.0)
        res = fitting.least_squares(fitting.get_model("stretched_exp"),
                                    total, envelope)
        t2s.append(res["t"])
    res = fitting.least_squares(fitting.get_model("power_scaling"),
                                ns.astype(float), np.asarray(t2s))
    assert res["gamma"] == pytest.approx(0.5, rel=2e-2)


def test_dd_collapse_at_nuclear_resonance():
    p = one_nucleus()
    taus = np.linspace(55e-9, 115e-9, 121)
    sweep = run_dd(p, None, "XY", 84, taus)
    resonance = 0.5 * p.larmor_period - T_PI_DEFAULT
    dip = taus[np.argmin(sweep.signal)]
    assert dip == pytest.approx(resonance, abs=2e-9)
    assert min(sweep.signal) < 0.2


def test_dd_zero_pulses_degenerates_to_ramsey():
    p = one_nucleus(detuning=0.4e6)
    taus = np.linspace(0, 3e-6, 31)
    dd = run_dd(p, None, "CPMG", 0, taus)
    ram = run_ramsey(p, None, 0.4e6, taus)
    np.testing.assert_allclose(dd.signal, ram.signal, atol=1e-9)


@pytest.mark.parametrize("kind,n", [("CPMG", 2), ("CPMG", 4), ("CPMG", 8),
                                    ("XY", 4), ("XY", 8), ("XY", 16)])
def test_dd_even_pulses_vanishing_tau_equals_ramsey(kind, n):
    p = bare_params()
    dd = run_dd(p, None, kind, n, [0.0])
    ram = run_ramsey(p, None, 0.0, [0.0])
    assert dd.signal[0] == pytest.approx(ram.signal[0], abs=1e-9)


def test_dd_rejects_unknown_kind():
    with pytest.raises(ValueError):
        run_dd(bare_params(), None, "UDD", 4, [1e-7])


# --- spin lock -------------------------------------------------------------------

def test_spin_lock_far_detuned_is_flat():
    sweep = run_spin_lock(bare_params(), None, 10e6,
                          tau_sl=np.linspace(0, 3e-5, 31))
    np.testing.assert_allclose(sweep.signal, 1.0, atol=1e-9)


def test_spin_lock_resonant_flip_flop_rate():
    p = one_nucleus()
    taus = np.linspace(0, 4e-5, 801)
    sweep = run_spin_lock(p, None, LARMOR_N, tau_sl=taus)
    sig = np.asarray(sweep.signal)
    spec = np.abs(np.fft.rfft(sig - sig.mean()))
    freqs = np.fft.rfftfreq(taus.size, taus[1] - taus[0])
    peak = freqs[1:][np.argmax(spec[1:])]
    assert peak == pytest.approx(A_PERP / 2.0, rel=0.12)


def test_spin_lock_amplitude_sweep_minimum_at_nuclear_larmor():
    p = one_nucleus()
    amps = np.linspace(2.6e6, 4.6e6, 41)
    sweep = run_spin_lock(p, None, 0.0, amplitudes=amps, tau_fixed=2e-5)
    dip = amps[np.argmin(sweep.signal)]
    assert dip == pytest.approx(LARMOR_N, abs=amps[1] - amps[0])


def test_spin_lock_argument_validation():
    with pytest.raises(ValueError):
        run_spin_lock(bare_params(), None, 1e6)
    with pytest.raises(ValueError):
        run_spin_lock(bare_params(), None, 1e6, tau_sl=[1e-6], amplitudes=[1e6])


# --- conditional nuclear rotation -------------------------------------------------

@pytest.fixture(scope="module")
def rotation_trace():
    p = one_nucleus()
    tau_rot = 0.5 * p.larmor_period - T_PI_DEFAULT
    return run_nuclear_rotation(p, None, tau_rot, np.arange(0, 201))


def test_conditional_rotation_period(rotation_trace):
    ns = rotation_trace.axis
    sz = np.asarray(rotation_trace.aux["nuclear_sigma_z"])
    n_star = extract_full_rotation(ns, sz)
    assert n_star == 167                       # pinned simulated value
    assert abs(n_star - 169) <= 15             # documented band
    assert sz[0] == pytest.approx(-1.0, abs=1e-9)
    assert sz[int(n_star)] == pytest.approx(-1.0, abs=5e-3)


def test_conditional_rotation_rate_arithmetic(rotation_trace):
    p = one_nucleus()
    rate = 1.0 / (169 * 0.5 * p.larmor_period)
    assert rate == pytest.approx(42.4e3, abs=0.4e3)


def test_quarter_rotation_calibration(rotation_trace):
    p = one_nucleus()
    tau_rot = 0.5 * p.larmor_period - T_PI_DEFAULT
    n_quarter = calibrate_quarter_rotation(p, tau_rot)
    assert n_quarter == 42
    sz = np.asarray(rotation_trace.aux["nuclear_sigma_z"])
    assert abs(sz[n_quarter]) < 0.05
    n_even = calibrate_quarter_rotation(p, tau_rot, force_even=True)
    assert n_even % 2 == 0


def test_nuclear_rotation_zero_pulses_leaves_nucleus(rotation_trace):
    sz = np.asarray(rotation_trace.aux["nuclear_sigma_z"])
    assert sz[0] == pytest.approx(-1.0, abs=1e-9)


def test_extract_full_rotation_requires_full_span():
    ns = np.arange(0, 30)
    sz = np.cos(np.pi * ns / 160.0) * -1.0      # far from completing a cycle
    with pytest.raises(ValueError):
        extract_full_rotation(ns, sz)


# --- sweep container invariants ---------------------------------------------------

def test_sweep_results_bounded():
    p = one_nucleus()
    sweeps = [
        run_rabi(p, None, 8e6, np.linspace(0, 0.5e-6, 41)),
        run_ramsey(p, DephasingModel(2e-6, 1.3), 1e6, np.linspace(0, 4e-6, 41)),
        run_dd(p, None, "XY", 8, np.linspace(5e-8, 2e-7, 21)),
    ]
    for sweep in sweeps:
        sig = np.asarray(sweep.signal)
        assert np.all(sig >= -1e-9) and np.all(sig <= 1 + 1e-9)


def test_sweep_result_validation():
    with pytest.raises(ValueError):
        SweepResult(np.arange(3.0), np.array([0.1, 0.2]))          # length mismatch
    with pytest.raises(ValueError):
        SweepResult(np.arange(2.0), np.array([0.5, 1.4]))          # out of range
    with pytest.raises(ValueError):
        SweepResult(np.arange(2.0), np.array([0.5, math.nan]))     # non-finite signal
    with pytest.raises(ValueError):
        SweepResult(np.array([0.0, math.inf]), np.array([0.5, 0.5]))  # non-finite axis
    with pytest.raises(ValueError):
        SweepResult(np.arange(2.0), np.array([0.5, 0.5]),
                    aux={"extra": np.arange(3.0)})                  # aux mismatch


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec(kind="UI", tau=81.5e-9, n_pulses=41)               # odd pulse count
    with pytest.raises(ValueError):
        GateSpec(kind="UI", tau=0.0, n_pulses=42)                   # no spacing
    with pytest.raises(ValueError):
        GateSpec(kind="bogus")


@pytest.mark.parametrize("q", [-0.1, 1.5, 2.0, math.nan])
def test_rb_rejects_noise_outside_unit_interval(q):
    with pytest.raises(ValueError):
        run_randomized_benchmarking(bare_params(), None, [1, 2], n_random=1,
                                    gate_fidelity_noise=q)


# --- the one pi time ----------------------------------------------------------

@pytest.mark.parametrize("t_pi", [0.0, -1e-9, math.nan])
def test_engine_rejects_nonpositive_pi_time(t_pi):
    with pytest.raises(ValueError, match="t_pi"):
        Engine(one_nucleus(), None, t_pi)


def test_every_rotation_pulse_runs_at_the_engine_pi_time(monkeypatch):
    """All pi/2, DD pi and Clifford pulses use Rabi rate 1/(2 t_pi) of the caller's t_pi."""
    t_pi = 1e-7
    pulses = []
    u_pulse = Engine.u_pulse

    def recording(eng, rabi, phase, duration):
        pulses.append((rabi, duration))
        return u_pulse(eng, rabi, phase, duration)

    monkeypatch.setattr(Engine, "u_pulse", recording)
    p = RegisterParams(larmor_n=LARMOR_N, hyperfine=(HYP1,), n_nuclei=1)
    tau_rot = 0.5 * p.larmor_period - t_pi
    taus = [0.0, 1e-6]
    runs = {
        "ramsey": lambda: run_ramsey(p, None, 1e6, taus, t_pi=t_pi),
        "nuclear ramsey": lambda: run_ramsey(p, None, 0.0, taus, target="nuclear",
                                             t_pi=t_pi),
        "dd": lambda: run_dd(p, None, "XY", 8, [1e-7, 2e-7], t_pi=t_pi),
        "nuclear rotation": lambda: run_nuclear_rotation(p, None, tau_rot, [0, 3],
                                                         t_pi=t_pi),
        "rb": lambda: run_randomized_benchmarking(p, None, [1, 3, 5, 8], n_random=2,
                                                  t_pi=t_pi),
    }
    ui = GateSpec(kind="UI", tau=81.5e-9, n_pulses=6, t_pi=t_pi)
    runs["UI gate"] = lambda: nuclear_init_gate(p, None, ui, 0.9)
    runs["UI probe"] = lambda: ui_probe_signal(p, None, ui, 0.9)
    cenotn = GateSpec(kind="CeNOTn", tau=tau_rot, n_pulses=2, t_pi=t_pi,
                      uncond_tau=2 * tau_rot, uncond_n=2)
    runs["CeNOTn"] = lambda: composite_gate(p, None, cenotn).apply(initialize_electron(0.9))
    for name, run in runs.items():
        pulses.clear()
        run()
        assert pulses, name
        for rabi, duration in pulses:
            assert rabi == pytest.approx(1.0 / (2.0 * t_pi), rel=1e-12), name
            assert min(abs(duration - t_pi), abs(duration - t_pi / 2)) < 1e-12 * t_pi, name
