"""Driven damped optical two-level dynamics, phase control, lifetime fits."""

import math
import re

import numpy as np
import pytest

from sivreg import fitting, optics
from sivreg.optics import (GROUND, RABI_MAX, FitFailed, OpticalParams,
                           OpticalPulseTrain, StepTooLarge, evolve_lindblad,
                           extract_lifetime,
                           extract_optical_decoherence, fit_damped_rabi,
                           fluorescence_decay, gamma_phi_from_t2,
                           lifetime_ensemble, max_stable_step,
                           run_optical_rabi, run_phase_control)

T1 = 1.6535e-9
EXCITED = np.diag([0.0, 1.0]).astype(complex)


def test_maximum_calibrated_drive_value():
    assert RABI_MAX == 1.14422658e9


def test_undriven_excited_state_decays_at_lifetime():
    p = OpticalParams(t1=T1)
    for t in (0.5 * T1, T1, 3.0 * T1):
        rho = evolve_lindblad(EXCITED, p, (0.0, 0.0), t)
        assert rho[1, 1].real == pytest.approx(math.exp(-t / T1), abs=1e-6)


def test_undamped_resonant_drive_matches_closed_form():
    # lifetime pushed out so the dynamics are purely coherent
    p = OpticalParams(detuning=0.0, t1=1e3, gamma_phi=0.0)
    amplitude = 0.5
    omega = amplitude * RABI_MAX
    for t in np.linspace(0.2e-9, 4e-9, 7):
        rho = evolve_lindblad(GROUND, p, (amplitude, 0.0), float(t))
        expected = math.sin(math.pi * omega * t) ** 2
        assert rho[1, 1].real == pytest.approx(expected, abs=1e-6)


def test_integrator_fourth_order_convergence():
    p = OpticalParams(t1=T1)
    t, amplitude = 2e-9, 0.5
    limit = max_stable_step(p, amplitude)

    def pop(dt):
        return evolve_lindblad(GROUND, p, (amplitude, 0.0), t, dt)[1, 1].real

    ref = pop(limit / 64)
    ratio = abs(pop(limit / 2) - ref) / abs(pop(limit / 4) - ref)
    assert 10.0 < ratio < 22.0


def test_trace_and_positivity_preserved():
    p = OpticalParams(t1=T1, gamma_phi=2e8)
    rho = GROUND
    for _ in range(5):
        rho = evolve_lindblad(rho, p, (0.5, 0.3), 1e-9)
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert abs(np.trace(rho).imag) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_step_limit_enforced():
    p = OpticalParams(t1=T1)
    limit = max_stable_step(p, 1.0)
    assert limit == pytest.approx(1.0 / (20.0 * RABI_MAX))
    assert max_stable_step(p, 0.0) == pytest.approx(T1 / 20.0)
    with pytest.raises(StepTooLarge):
        evolve_lindblad(GROUND, p, (1.0, 0.0), 1e-9, dt=1.05 * limit)
    evolve_lindblad(GROUND, p, (1.0, 0.0), 1e-10, dt=0.95 * limit)
    with pytest.raises(ValueError):
        evolve_lindblad(GROUND, p, (1.0, 0.0), -1e-9)


def test_params_validation():
    with pytest.raises(ValueError):
        OpticalParams(t1=0.0)
    with pytest.raises(ValueError):
        OpticalParams(t1=T1, gamma_phi=-1.0)
    with pytest.raises(ValueError):
        OpticalPulseTrain(((0.5, 0.0),))
    with pytest.raises(ValueError):
        OpticalPulseTrain(((0.5, 0.0, -1e-9),))
    with pytest.raises(ValueError):
        OpticalPulseTrain(((0.5, 0.0, 1e-9),), buffer=-1.0)


# --------------------------------------------------------------------------
# Rabi sweeps


def test_zero_amplitude_gives_no_population():
    p = OpticalParams(t1=T1)
    sweep = run_optical_rabi(p, 0.0, np.linspace(0.0, 3e-9, 16))
    assert np.max(np.abs(sweep.signal)) < 1e-12


def test_fitted_rabi_frequency_linear_in_amplitude():
    p = OpticalParams(t1=T1)
    times = np.linspace(0.0, 3.5e-9, 121)
    for amplitude in (0.3, 0.6, 0.9):
        f, _ = fit_damped_rabi(run_optical_rabi(p, amplitude, times))
        assert f / amplitude == pytest.approx(RABI_MAX, rel=0.02)


def test_decoherence_rate_at_fourier_limit():
    p = OpticalParams(t1=T1)
    sweep = run_optical_rabi(p, 0.6, np.linspace(0.0, 5e-9, 161))
    gamma2 = extract_optical_decoherence(p, sweep)
    assert gamma2 == pytest.approx(1.0 / (2.0 * math.pi * T1), rel=1e-4)
    assert gamma2 == pytest.approx(96.2510e6, rel=1e-3)


def test_decoherence_rate_with_pure_dephasing():
    p = OpticalParams(t1=T1, gamma_phi=3e8)
    sweep = run_optical_rabi(p, 0.6, np.linspace(0.0, 5e-9, 161))
    gamma2 = extract_optical_decoherence(p, sweep)
    expected = (1.0 / T1 + 3e8) / (2.0 * math.pi)
    assert gamma2 == pytest.approx(expected, rel=1e-3)
    # always at or above the Fourier limit
    assert gamma2 >= 96.25e6


# --------------------------------------------------------------------------
# relative-phase pulse control


def test_phase_control_composes_half_pulses():
    p = OpticalParams(detuning=0.0, t1=1e3, gamma_phi=0.0)
    amplitude = 0.5
    t_quarter = 1.0 / (4.0 * amplitude * RABI_MAX)
    train = OpticalPulseTrain(((amplitude, 0.0, t_quarter),
                               (amplitude, 0.0, t_quarter)), buffer=0.2e-9)
    sweep = run_phase_control(p, train, [0.0, math.pi / 2.0, math.pi])
    assert sweep.signal[0] == pytest.approx(1.0, abs=1e-6)
    assert sweep.signal[1] == pytest.approx(0.5, abs=1e-6)
    assert sweep.signal[2] == pytest.approx(0.0, abs=1e-6)


@pytest.fixture(scope="module")
def damped_phase_sweep():
    gamma_phi = gamma_phi_from_t2(1.18e-9, T1)
    p = OpticalParams(t1=T1, gamma_phi=gamma_phi)
    amplitude = 1.0 / (4.0 * 0.35e-9 * RABI_MAX)
    train = OpticalPulseTrain(((amplitude, 0.0, 0.35e-9),
                               (amplitude, 0.0, 0.35e-9)), buffer=0.8e-9)
    phases = np.linspace(0.0, 4.0 * math.pi, 81)
    return p, train, phases, run_phase_control(p, train, phases)


def test_phase_control_period_is_two_pi_under_damping(damped_phase_sweep):
    _, _, phases, sweep = damped_phase_sweep
    signal = np.asarray(sweep.signal)
    model = fitting.rabi_beat_model(1)
    res = fitting.least_squares(
        model, phases, signal,
        init={"a1": np.ptp(signal) / 2.0, "f1": 1.0 / (2.0 * math.pi),
              "phi1": math.pi / 2.0, "c": signal.mean()},
        fixed={"t1": 1e9})
    assert 1.0 / res["f1"] == pytest.approx(2.0 * math.pi, rel=1e-3)
    assert res.residual_norm < 1e-3 * np.ptp(signal)
    # buffer decay costs contrast but not the sinusoidal shape
    assert 0.1 < np.ptp(signal) < 1.0


def test_phase_control_invariant_under_global_pulse_phase(damped_phase_sweep):
    p, train, phases, sweep = damped_phase_sweep
    (a, _, t_seg), _ = train.segments
    shifted = OpticalPulseTrain(((a, 0.7, t_seg), (a, 0.7, t_seg)),
                                buffer=train.buffer)
    again = run_phase_control(p, shifted, phases[:9])
    assert np.allclose(again.signal, np.asarray(sweep.signal)[:9], atol=1e-12)


def test_phase_control_requires_two_segments():
    p = OpticalParams(t1=T1)
    with pytest.raises(ValueError):
        run_phase_control(p, OpticalPulseTrain(((0.5, 0.0, 1e-9),)), [0.0])


# --------------------------------------------------------------------------
# exact sweep propagation against the RK4 reference


def _rk4(rho, p, drive, t):
    return evolve_lindblad(rho, p, drive, t, dt=max_stable_step(p, drive[0]) / 64)


def test_liouvillian_matches_the_rk4_derivative():
    p = OpticalParams(detuning=3e8, t1=T1, gamma_phi=2e8)
    amplitude, phase = 0.4, 0.7
    rho = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]])
    h = 2.0 * math.pi * (0.5 * p.detuning * optics.SZ + 0.5 * amplitude * RABI_MAX
                         * (math.cos(phase) * optics.SX + math.sin(phase) * optics.SY))
    expected = optics._derivative(rho, h, 1.0 / T1, p.gamma_phi).reshape(4)
    got = optics._liouvillian(p, amplitude, phase) @ rho.reshape(4)
    assert np.allclose(got, expected, rtol=0.0, atol=1e-15 * np.abs(expected).max())


@pytest.mark.parametrize("gamma_phi", [0.0, 2e8])
@pytest.mark.parametrize("detuning", [0.0, 3e8])
def test_exact_rabi_sweep_matches_fine_rk4(gamma_phi, detuning):
    p = OpticalParams(detuning=detuning, t1=T1, gamma_phi=gamma_phi)
    amplitude = 0.5
    times = np.array([0.0, 0.45e-9, 1.3e-9, 3e-9])
    sweep = run_optical_rabi(p, amplitude, times)
    for t, value in zip(times, sweep.signal):
        reference = _rk4(GROUND, p, (amplitude, 0.0), float(t))[1, 1].real
        assert abs(value - reference) < 1e-11


@pytest.mark.parametrize("detuning", [0.0, 3e8])
def test_exact_phase_sweep_matches_fine_rk4(detuning):
    p = OpticalParams(detuning=detuning, t1=T1, gamma_phi=gamma_phi_from_t2(1.18e-9, T1))
    amplitude = 1.0 / (4.0 * 0.35e-9 * RABI_MAX)
    train = OpticalPulseTrain(((amplitude, 0.0, 0.35e-9), (amplitude, 0.3, 0.35e-9)),
                              buffer=0.8e-9)
    phases = np.array([0.0, 1.1, 2.5, 4.0])
    sweep = run_phase_control(p, train, phases)
    for rel, value in zip(phases, sweep.signal):
        rho = _rk4(GROUND, p, (amplitude, 0.0), 0.35e-9)
        rho = _rk4(rho, p, (0.0, 0.0), 0.8e-9)
        rho = _rk4(rho, p, (amplitude, 0.3 + rel), 0.35e-9)
        assert abs(value - rho[1, 1].real) < 1e-11


def test_exact_sweep_holds_at_the_exceptional_point():
    # Omega = gamma/4: the damped resonant Liouvillian is defective there
    p = OpticalParams(t1=T1)
    amplitude = 1.0 / (8.0 * math.pi * T1 * RABI_MAX)
    vectors = np.linalg.eig(optics._liouvillian(p, amplitude, 0.0))[1]
    assert np.linalg.cond(vectors) > 1e7
    times = np.array([0.3e-9, 2e-9, 6e-9])
    sweep = run_optical_rabi(p, amplitude, times)
    for t, value in zip(times, sweep.signal):
        reference = _rk4(GROUND, p, (amplitude, 0.0), float(t))[1, 1].real
        assert abs(value - reference) < 1e-12


@pytest.mark.parametrize("gamma_phi", [0.0, 2e8])
@pytest.mark.parametrize("detuning", [0.0, 3e8])
def test_long_sweep_reaches_the_analytic_steady_state(gamma_phi, detuning):
    # rho_ee = sat / (2 (1 + sat)), sat = Omega^2 / (Gamma gamma_2 (1 + Delta^2 / gamma_2^2))
    p = OpticalParams(detuning=detuning, t1=T1, gamma_phi=gamma_phi)
    omega = 2.0 * math.pi * 0.5 * RABI_MAX
    gamma_2 = 0.5 / T1 + gamma_phi
    sat = omega ** 2 * T1 / gamma_2 / (1.0 + (2.0 * math.pi * detuning / gamma_2) ** 2)
    sweep = run_optical_rabi(p, 0.5, [1e-7, 1e-2, 1.0, 1e100])
    assert np.abs(sweep.signal - 0.5 * sat / (1.0 + sat)).max() < 1e-12


def test_exact_propagation_keeps_a_physical_state():
    p = OpticalParams(detuning=3e8, t1=T1, gamma_phi=2e8)
    times = np.linspace(0.0, 8e-9, 201)
    rhos = optics._propagate(optics._liouvillian(p, 0.7, 0.4)[None], times,
                             GROUND.reshape(4)).reshape(-1, 2, 2)
    traces = np.trace(rhos, axis1=1, axis2=2)
    assert np.abs(traces - 1.0).max() < 1e-12
    assert np.abs(rhos - rhos.conj().transpose(0, 2, 1)).max() < 1e-12
    hermitian = 0.5 * (rhos + rhos.conj().transpose(0, 2, 1))
    assert np.linalg.eigvalsh(hermitian).min() > -1e-12


def test_negative_sweep_time_rejected():
    p = OpticalParams(t1=T1)
    with pytest.raises(ValueError):
        run_optical_rabi(p, 0.5, [0.0, -1e-9, 1e-9])
    with pytest.raises(ValueError):   # the pulse train rejects it before the sweep runs
        run_phase_control(p, OpticalPulseTrain(((0.5, 0.0, -1e-9), (0.5, 0.0, 1e-9))),
                          [0.0])
    with pytest.raises(ValueError):
        optics._propagate(optics._liouvillian(p, 0.5, 0.0), -1e-9, GROUND.reshape(4))


# --------------------------------------------------------------------------
# fluorescence lifetime


def test_fluorescence_decay_is_exact_exponential():
    p = OpticalParams(t1=T1)
    times = np.linspace(0.0, 8e-9, 50)
    trace = fluorescence_decay(p, times, p_e0=0.9)
    assert np.allclose(trace, 0.9 * np.exp(-times / T1), rtol=1e-12)


def test_extract_lifetime_exact_on_clean_trace():
    times = np.linspace(0.0, 8e-9, 200)
    t1_fit, amp = extract_lifetime((times, 0.9 * np.exp(-times / T1)))
    assert t1_fit == pytest.approx(T1, rel=1e-6)
    assert amp == pytest.approx(0.9, rel=1e-6)


def test_extract_lifetime_rejects_bad_traces():
    times = np.linspace(0.0, 8e-9, 50)
    with pytest.raises(ValueError):
        extract_lifetime((times, np.ones(10)))
    with pytest.raises(ValueError):
        extract_lifetime((times[:3], np.ones(3)))
    with pytest.raises(FitFailed):
        extract_lifetime((times, 1.0 - np.exp(-times / T1)))  # rising
    with pytest.raises(FitFailed):
        extract_lifetime((times, np.sin(times / 2e-10)))


def test_lifetime_ensemble_recovers_distribution():
    rng = np.random.default_rng(12)
    times = np.linspace(0.0, 8e-9, 40)
    truths = np.clip(rng.normal(1.6535e-9, 0.377e-9, 400), 0.3e-9, None)
    traces = [(times, np.exp(-times / t1_i)
               * (1.0 + 0.005 * rng.standard_normal(times.size)))
              for t1_i in truths]
    mean, std = lifetime_ensemble(traces)
    assert mean == pytest.approx(1.6535e-9, rel=0.05)
    assert std == pytest.approx(0.377e-9, rel=0.05)
    with pytest.raises(ValueError):
        lifetime_ensemble([])


def test_lifetime_ensemble_raises_what_extract_lifetime_raises_at_the_first_bad_trace():
    times = np.linspace(0.0, 8e-9, 50)
    good = (times, 0.9 * np.exp(-times / T1))
    rising = (times, 1.0 - np.exp(-times / T1))
    ringing = (times, np.sin(times / 2e-10))
    short = (times[:3], np.ones(3))
    for traces in ([good, rising, ringing], [good, ringing, rising], [good, short, rising],
                   [good, rising, short]):
        first_bad = next(tr for tr in traces if tr is not good)
        with pytest.raises(Exception) as alone:
            extract_lifetime(first_bad)
        with pytest.raises(type(alone.value), match="^%s$" % re.escape(str(alone.value))):
            lifetime_ensemble(traces)


def test_fourier_limit_arithmetic():
    assert 1.0 / (2.0 * math.pi * T1) == pytest.approx(96.26e6, rel=1e-3)
    assert 1.0 / (2.0 * math.pi * T1) == pytest.approx(96.2510e6, rel=1e-3)


def test_dephasing_rate_from_coherence_time():
    rate = gamma_phi_from_t2(1.18e-9, T1)
    assert rate == pytest.approx(1.0 / 1.18e-9 - 0.5 / T1, rel=1e-12)
    assert gamma_phi_from_t2(2.0 * T1, T1) == 0.0
    # tiny negative excesses are clamped, real violations rejected
    assert gamma_phi_from_t2(2.0 * T1 * (1.0 + 1e-13), T1) == 0.0
    with pytest.raises(ValueError):
        gamma_phi_from_t2(4.0 * T1, T1)
