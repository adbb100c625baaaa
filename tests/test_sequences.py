"""Pulse-sequence experiments: Rabi, Ramsey, dynamical decoupling, spin lock,
conditional nuclear rotations."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sivreg import fitting
from sivreg.linalg import hermitian_eig, propagator_from_eig
from sivreg.register import (DephasingModel, RegisterParams, RegisterState,
                             dephase_electron, electron_mixture, electron_up_population,
                             hamiltonian, nuclear_sigma_z, populations, product_state)
from sivreg.sequences import (CPMG_PHASES, XY8_PHASES, Engine, FreeSegment, GateSpec,
                              SweepResult, T_PI_DEFAULT, _CLIFFORDS, _adjoint,
                              _clifford_picks, _depolarize_electron,
                              _ideal_unitary, _initial_rho, _transfer_head,
                              calibrate_cenotn, calibrate_cnnote, calibrate_quarter_rotation,
                              calibrate_transfer_wait, gate_segments,
                              extract_full_rotation, nuclear_init_gate,
                              run_dd, run_nuclear_rotation, run_rabi,
                              run_ramsey, run_randomized_benchmarking,
                              run_spin_lock, transfer_matrix, ui_probe_signal)

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
    return RegisterState(rho)


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


@pytest.mark.parametrize("kwargs", [{"f_ie": 0.5}, {"f_ie": 0.4}, {"f_ie": 1.1},
                                    {"f_ie": math.nan}, {"n_random": 0}])
def test_rb_rejects_flat_signal_and_empty_sequence_sets(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        run_randomized_benchmarking(bare_params(), None, [1, 2], **{"n_random": 1, **kwargs})


@pytest.mark.parametrize("n_list,match", [
    ([-1, 5, 10], "n_list entry -1 is not"), ([1, 2.7, 4], "n_list entry 2.7 is not"),
    ([1, math.nan], "n_list entry nan is not"), ([1, math.inf], "n_list entry inf is not"),
    ([], r"n_list \[\] holds fewer than two distinct lengths"),
    ([5], r"n_list \[5\] holds fewer than two distinct lengths"),
    ([5, 5], r"n_list \[5, 5\] holds fewer than two distinct lengths"),
], ids=["negative", "2.7", "nan", "inf", "empty", "one-length", "one-distinct-length"])
def test_rb_rejects_a_bad_length_list_before_any_walk(n_list, match, monkeypatch):
    """A negative, non-integral or non-finite length, or fewer than the two distinct
    lengths the decay fit needs, is a ValueError naming n_list; no sequence is walked."""
    def walk(*args):
        raise AssertionError("a sequence was walked")

    monkeypatch.setattr(Engine, "evolve", walk)
    with pytest.raises(ValueError, match=match):
        run_randomized_benchmarking(bare_params(), None, n_list, n_random=1)


@pytest.mark.parametrize("run,match", [
    (lambda p: run_nuclear_rotation(p, None, 0.2e-6, [0, 2.5, 4]), "n_sweep entry 2.5 is not"),
    (lambda p: run_nuclear_rotation(p, None, 0.2e-6, [3, -1]), "n_sweep entry -1 is not"),
    (lambda p: run_nuclear_rotation(p, None, 0.2e-6, [1, math.nan]), "n_sweep entry nan is not"),
    (lambda p: run_nuclear_rotation(p, None, 0.2e-6, []), "n_sweep holds no pulse number"),
    (lambda p: run_dd(p, None, "XY", 2.5, [1e-7]), "n_pulses 2.5 is not"),
    (lambda p: run_dd(p, None, "CPMG", -1, [1e-7]), "n_pulses -1 is not"),
    (lambda p: run_dd(p, None, "XY", math.inf, [1e-7]), "n_pulses inf is not"),
], ids=["nucrot-2.5", "nucrot-negative", "nucrot-nan", "nucrot-empty", "dd-2.5",
        "dd-negative", "dd-inf"])
def test_pulse_numbers_must_be_non_negative_integers(run, match):
    """A bad pulse number is named in the wording RB uses for n_list, never truncated."""
    with pytest.raises(ValueError, match=match):
        run(one_nucleus())


def test_rb_takes_integral_floats_as_their_lengths():
    kw = dict(n_random=3, gate_fidelity_noise=0.01, seed=4)
    np.testing.assert_array_equal(
        run_randomized_benchmarking(bare_params(), None, [1.0, 3.0, 6.0], **kw).sweep.signal,
        run_randomized_benchmarking(bare_params(), None, [1, 3, 6], **kw).sweep.signal)


def test_rb_memory_stays_within_one_bounded_walk():
    """300 randomizations of 20 lengths walk in stacks of max(n_random, 128) rows, so
    the peak allocation stays well below one stack of the whole sweep."""
    p, n_list, n_random = two_nuclei(), list(range(1, 21)), 300
    run_randomized_benchmarking(p, None, [1, 2], n_random=1)   # first-call caches aside
    tracemalloc.start()
    try:
        run_randomized_benchmarking(p, None, n_list, n_random=n_random,
                                    gate_fidelity_noise=0.01, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    whole_sweep = n_random * len(n_list) * 8 * 8 * np.dtype(complex).itemsize
    assert peak < whole_sweep / 3


@pytest.mark.parametrize("omega", [-1.0, -5e6, math.nan])
def test_rabi_rejects_negative_drive(omega):
    with pytest.raises(ValueError, match="omega"):
        run_rabi(bare_params(), None, omega, [0.0, 1e-7])


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

    def cenotn_gate():
        eng, segments = gate_segments(p, None, cenotn)
        return eng.evolve(product_state(electron_mixture(0.9)), segments)

    runs["CeNOTn"] = cenotn_gate
    for name, run in runs.items():
        pulses.clear()
        run()
        assert pulses, name
        for rabi, duration in pulses:
            assert rabi == pytest.approx(1.0 / (2.0 * t_pi), rel=1e-12), name
            assert min(abs(duration - t_pi), abs(duration - t_pi / 2)) < 1e-12 * t_pi, name


# --- segment lists and state invariants ---------------------------------------

def two_nuclei():
    return RegisterParams(larmor_n=LARMOR_N, hyperfine=(HYP1, HYP2), n_nuclei=2)


@pytest.mark.parametrize("pattern", [XY8_PHASES, CPMG_PHASES], ids=["XY8", "CPMG"])
def test_dd_block_segments_equal_successive_units(pattern):
    """A block is its units in order, all in one eigenframe stretch: it evolves bit
    for bit as the units stepped one evolve at a time between one W^dag and one W."""
    eng = Engine(two_nuclei(), DephasingModel(t_c=4e-6, beta=2.0))
    rho0 = eng.evolve(product_state(electron_mixture(0.9), n_nuclei=2),
                      [eng.u_rotation(math.pi / 2, 0.0)])
    tau, n_pulses = 0.3e-6, 11
    _, w, w_dag = eng.frame()
    stepped = eng.evolve(rho0, [w_dag])
    for k in range(n_pulses):
        stepped = eng.evolve(stepped, eng._dd_units(tau, 1, (pattern[k % len(pattern)],)))
    stepped = eng.evolve(stepped, [w])
    np.testing.assert_array_equal(
        eng.evolve(rho0, eng.dd_block_segments(tau, n_pulses, pattern)), stepped)


def _state_evolves(monkeypatch, seen):
    """Patch Engine.evolve to call seen(eng, rho, segments, out) on every evolve of states.

    Engine._fold_steps builds a map by evolving the matrix units, which are not
    states, so the evolves inside it are not passed on.
    """
    evolve, fold_steps = Engine.evolve, Engine._fold_steps
    building = []

    def folding(eng, steps):
        building.append(steps)
        try:
            return fold_steps(eng, steps)
        finally:
            building.pop()

    def watched(eng, rho, segments):
        out = evolve(eng, rho, segments)
        if not building:
            seen(eng, rho, segments, out)
        return out

    monkeypatch.setattr(Engine, "_fold_steps", folding)
    monkeypatch.setattr(Engine, "evolve", watched)


def _is_folded_map(u, d):
    return u.shape[-2:] == (d * d, d * d)


def test_every_evolved_state_is_a_valid_density_matrix(monkeypatch):
    """Every rho that Engine.evolve returns has trace 1, is Hermitian and positive.

    Engine.evolve is the only way an experiment moves a state, so wrapping it
    checks the state invariants of every experiment on its raw arrays, one
    matrix at a time when it returns a stack, folded DD blocks included.
    """
    calls = []

    def checked(eng, rho, segments, out):
        d = 2 ** (1 + eng.p.n_nuclei)
        assert out.shape[-2:] == (d, d)
        for single in out.reshape((-1,) + out.shape[-2:]):
            RegisterState(single).validate()
        calls.append((out.shape, any(_is_folded_map(u, d) for u in segments
                                     if not isinstance(u, FreeSegment))))

    _state_evolves(monkeypatch, checked)
    p = two_nuclei()
    deph = DephasingModel(t_c=4e-6, beta=2.0)
    taus = [0.0, 0.4e-6, 1.3e-6]
    tau_rot = 0.5 * p.larmor_period - T_PI_DEFAULT
    ui = GateSpec(kind="UI", tau=81.5e-9, n_pulses=6)   # wait=None: the gate runs the scan
    runs = {
        "rabi": lambda: run_rabi(p, deph, 5e6, taus, f_ie=0.9),
        "ramsey": lambda: run_ramsey(p, deph, 1e6, taus, f_ie=0.9),
        "nuclear ramsey": lambda: run_ramsey(p, deph, 0.0, taus, target="nuclear"),
        "dd XY": lambda: run_dd(p, deph, "XY", 8, [1e-7, 2e-7], f_ie=0.9),
        "dd CPMG": lambda: run_dd(p, deph, "CPMG", 4, [1e-7, 2e-7], f_ie=0.9),
        "spin lock time": lambda: run_spin_lock(p, deph, LARMOR_N, tau_sl=taus, f_ie=0.9),
        "spin lock amplitude": lambda: run_spin_lock(p, deph, LARMOR_N,
                                                     amplitudes=[1e6, 3e6], tau_fixed=1e-6),
        "nuclear rotation": lambda: run_nuclear_rotation(p, deph, tau_rot, [0, 5, 12],
                                                         f_ie=0.9),
        "UI gate": lambda: nuclear_init_gate(p, deph, ui, 0.9),
        "UI probe": lambda: ui_probe_signal(p, deph, ui, 0.9),
        "CeNOTn transfer matrix": lambda: transfer_matrix(p, deph, calibrate_cenotn(p),
                                                          0.9, 0.9),
        "CnNOTe transfer matrix": lambda: transfer_matrix(p, deph, calibrate_cnnote(p),
                                                          0.9, 0.9),
        "rb": lambda: run_randomized_benchmarking(p, deph, [1, 3, 5, 8], n_random=2,
                                                  gate_fidelity_noise=0.01),
    }
    folding = ("nuclear ramsey", "nuclear rotation", "UI gate", "UI probe",
               "CeNOTn transfer matrix")
    for name, run in runs.items():
        before = len(calls)
        run()
        assert len(calls) > before, name
        shapes = {shape for shape, _ in calls[before:]}
        if name == "UI gate":   # every rho of the coarse and the fine wait stack was checked
            assert {(48, 4, 4), (33, 4, 4)} <= shapes
        # the DD blocks of these runs apply as folded maps, and their states were checked
        assert any(folded for _, folded in calls[before:]) == (name in folding), name


# --- stacked sweeps against their per-point references -------------------------
#
# The sweeps and RB evolve one stack of density matrices.  The loops below are
# the per-point forms they replaced: every point (every RB sequence) evolves
# its own 2-D rho through Engine.evolve, and a zero free time adds no segment.

DEPH = DephasingModel(t_c=4e-6, beta=2.0)


def _register(n_nuclei, detuning=0.0):
    return one_nucleus(detuning) if n_nuclei == 1 else replace(two_nuclei(), detuning=detuning)


def _reference_rabi(p, dephasing, omega, durations, f_ie):
    eng = Engine(p, dephasing)
    rho0 = _initial_rho(p, f_ie)
    drive = ((lambda t: [eng.u_pulse(omega, 0.0, t)]) if omega > 0
             else eng.free_segments)
    return [electron_up_population(eng.evolve(rho0, drive(float(t)))) for t in durations]


def _reference_ramsey(p, dephasing, delta, taus, target, f_ie, electron_up):
    params = replace(p, detuning=delta)
    eng = Engine(params, dephasing)
    if target == "electron":
        half_pi = [eng.u_rotation(math.pi / 2, 0.0)]
        rho0 = eng.evolve(_initial_rho(params, f_ie), half_pi)
        return [electron_up_population(eng.evolve(rho0, eng.free_segments(float(tau))
                                                   + half_pi)) for tau in taus]
    tau_rot = params.larmor_period / 2.0 - T_PI_DEFAULT
    block = eng.dd_block_segments(tau_rot, calibrate_quarter_rotation(params, tau_rot))
    rho0 = product_state((0.0, 1.0) if electron_up else (1.0, 0.0), [(1.0, 0.0)],
                         params.n_nuclei)
    rho0 = eng.evolve(rho0, block)
    return [nuclear_sigma_z(eng.evolve(rho0, eng.free_segments(float(tau)) + block))
            for tau in taus]


def _reference_dd(p, dephasing, kind, n_pulses, taus, f_ie):
    pattern = CPMG_PHASES if kind == "CPMG" else XY8_PHASES
    eng = Engine(p, dephasing)
    half_pi = [eng.u_rotation(math.pi / 2, 0.0)]
    rho0 = eng.evolve(_initial_rho(p, f_ie), half_pi)

    def block(tau):
        if n_pulses == 0:
            return eng.free_segments(tau)
        return eng.dd_block_segments(tau, n_pulses, pattern)

    return [electron_up_population(eng.evolve(rho0, block(float(tau)) + half_pi))
            for tau in taus]


def _reference_spin_lock(p, dephasing, drives, f_ie):
    eng = Engine(p, dephasing)
    half_pi = [eng.u_rotation(math.pi / 2, 0.0)]
    rho0 = eng.evolve(_initial_rho(p, f_ie), half_pi)
    return [electron_up_population(eng.evolve(
        rho0, [eng.u_pulse(rabi, math.pi / 2, duration)] + half_pi))
        for rabi, duration in drives]


def _reference_rb(p, dephasing, n_list, n_random, q, seed, f_ie):
    """Per-sequence RB: mean signal per length, the picks (n_random, n) of each length
    and the inversion element of each sequence (index into _CLIFFORDS, len for I)."""
    eng = Engine(p, dephasing)
    up = np.array([0.0, 1.0], dtype=complex)
    down = np.array([1.0, 0.0], dtype=complex)
    candidates = _CLIFFORDS + (("I", 0.0, 0.0),)
    signal, picks_at, inversions_at = [], [], []
    for i_n, n_cliff in enumerate(n_list):
        acc = 0.0
        picks_at.append([])
        inversions_at.append([])
        for i_r in range(n_random):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(i_n, i_r)))
            picks = rng.integers(0, len(_CLIFFORDS), size=n_cliff)
            rho = _initial_rho(p, f_ie)
            ideal = np.eye(2, dtype=complex)
            for k in picks:
                _, angle, phase = _CLIFFORDS[k]
                rho = eng.evolve(rho, [eng.u_rotation(angle, phase)])
                rho = _depolarize_electron(rho, q)
                ideal = _ideal_unitary(angle, phase) @ ideal
            best, best_overlap = None, -1.0
            vec = ideal @ down
            for c, (_, angle, phase) in enumerate(candidates):
                overlap = abs(np.vdot(up, _ideal_unitary(angle, phase) @ vec)) ** 2
                if overlap > best_overlap + 1e-12:
                    best, best_overlap = c, overlap
            _, angle, phase = candidates[best]
            if angle > 0.0:
                rho = eng.evolve(rho, [eng.u_rotation(angle, phase)])
            acc += electron_up_population(rho)
            picks_at[-1].append(picks)
            inversions_at[-1].append(best)
        signal.append(acc / n_random)
    return signal, [np.array(picks) for picks in picks_at], inversions_at


def _assert_matches(stacked, reference):
    stacked = np.asarray(stacked, dtype=float)
    assert stacked.shape == (len(reference),)
    np.testing.assert_allclose(stacked, reference, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_nuclei", [1, 2])
@pytest.mark.parametrize("omega", [5e6, 0.0])
def test_stacked_rabi_matches_the_per_point_reference(n_nuclei, omega):
    p = _register(n_nuclei, detuning=0.3e6)
    durations = np.linspace(0.0, 1.2e-6, 13)
    sweep = run_rabi(p, DEPH, omega, durations, f_ie=0.9)
    _assert_matches(sweep.signal, _reference_rabi(p, DEPH, omega, durations, 0.9))


@pytest.mark.parametrize("n_nuclei", [1, 2])
@pytest.mark.parametrize("target,electron_up", [("electron", False), ("nuclear", False),
                                                ("nuclear", True)])
def test_stacked_ramsey_matches_the_per_point_reference(n_nuclei, target, electron_up):
    p = _register(n_nuclei)
    taus = np.linspace(0.0, 2e-6, 11)
    sweep = run_ramsey(p, DEPH, 0.8e6, taus, target=target, f_ie=0.9,
                       electron_up=electron_up)
    reference = _reference_ramsey(p, DEPH, 0.8e6, taus, target, 0.9, electron_up)
    if target == "nuclear":
        _assert_matches(sweep.aux["nuclear_sigma_z"], reference)
        reference = [0.5 * (1.0 + sz) for sz in reference]
    _assert_matches(sweep.signal, reference)


@pytest.mark.parametrize("n_nuclei", [1, 2])
@pytest.mark.parametrize("kind,n_pulses", [("CPMG", 4), ("XY", 8), ("XY", 0)])
def test_stacked_dd_matches_the_per_point_reference(n_nuclei, kind, n_pulses):
    p = _register(n_nuclei, detuning=0.2e6)
    taus = np.linspace(0.0, 1e-6, 11)
    sweep = run_dd(p, DEPH, kind, n_pulses, taus, f_ie=0.9)
    _assert_matches(sweep.signal, _reference_dd(p, DEPH, kind, n_pulses, taus, 0.9))


@pytest.mark.parametrize("n_nuclei", [1, 2])
@pytest.mark.parametrize("mode", ["tau", "amplitude"])
def test_stacked_spin_lock_matches_the_per_point_reference(n_nuclei, mode):
    p = _register(n_nuclei)
    if mode == "tau":
        axis = np.linspace(0.0, 2e-5, 11)
        sweep = run_spin_lock(p, DEPH, LARMOR_N, tau_sl=axis, f_ie=0.9)
        drives = [(LARMOR_N, float(tau)) for tau in axis]
    else:
        axis = np.linspace(2.6e6, 4.6e6, 11)
        sweep = run_spin_lock(p, DEPH, 0.0, amplitudes=axis, tau_fixed=1e-5, f_ie=0.9)
        drives = [(float(omega), 1e-5) for omega in axis]
    _assert_matches(sweep.signal, _reference_spin_lock(p, DEPH, drives, 0.9))


@pytest.mark.parametrize("n_nuclei", [1, 2])
@pytest.mark.parametrize("a_perp", [0.0, A_PERP], ids=["A0", "Aperp"])
def test_free_stack_at_a_cross_block_degeneracy_keeps_the_electron(n_nuclei, a_perp):
    """At Delta = 0 and A_par = 0 every level of the electron-down block is degenerate
    with one of the electron-up block (A_perp only turns the nuclear axes, differently
    in the two blocks).  The eigenframe, one eigensolve per block, cannot mix them: a
    free tau stack started electron-down keeps electron_up_population exactly 0,
    matches the lab-frame propagator walk to 1e-13, and reads the walk's nuclear
    sigma_z once it has left the frame."""
    p = RegisterParams(detuning=0.0, larmor_n=LARMOR_N, hyperfine=((0.0, a_perp),) * n_nuclei,
                       n_nuclei=n_nuclei)
    eng = Engine(p, DEPH)
    taus = np.linspace(0.0, 3e-6, 31)
    x_up = np.full((2, 2), 0.5, dtype=complex)   # nucleus along +x
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    for _ in range(n_nuclei):
        rho0 = np.kron(rho0, x_up)
    out = eng.evolve(rho0, eng.free_segments(taus))
    assert np.all(electron_up_population(out) == 0.0)
    walked = _lab_walk(eng, rho0, [_lab_free(eng, taus)])
    np.testing.assert_allclose(out, walked, rtol=0, atol=1e-13)
    for index in range(n_nuclei):
        np.testing.assert_allclose(nuclear_sigma_z(out, index), nuclear_sigma_z(walked, index),
                                   rtol=0, atol=1e-13)


def _clifford_index(eng, stack):
    """Index into _CLIFFORDS of each unitary of a stack, by exact equality."""
    table = np.array([eng.u_rotation(angle, phase) for _, angle, phase in _CLIFFORDS])
    match = np.all(stack[:, None] == table[None], axis=(-2, -1))
    assert np.all(match.sum(axis=1) == 1)
    return match.argmax(axis=1)


@pytest.mark.parametrize("n_nuclei", [1, 2])
@pytest.mark.parametrize("q", [0.0, 0.01])
def test_stacked_rb_matches_the_per_sequence_reference(monkeypatch, n_nuclei, q):
    """Same picks and inversion elements as the per-sequence loop, same signal to 1e-12."""
    p = _register(n_nuclei)
    n_list, n_random, seed = [0, 1, 3, 8, 15], 6, 5
    signal, picks_at, inversions_at = _reference_rb(p, DEPH, n_list, n_random, q, seed, 0.9)

    applied = []   # Clifford indices of every stacked evolve, in call order
    evolve = Engine.evolve

    def recording(eng, rho, segments):
        for u in segments:
            applied.append(_clifford_index(eng, u))
        return evolve(eng, rho, segments)

    monkeypatch.setattr(Engine, "evolve", recording)
    res = run_randomized_benchmarking(p, DEPH, n_list, n_random=n_random,
                                      gate_fidelity_noise=q, seed=seed, f_ie=0.9)
    _assert_matches(res.sweep.signal, signal)
    # all sequences walk as one stack, longest first: stack row j is sequence
    # order[j], sequence i_r of length n_list[i_n] being i_n * n_random + i_r; step k
    # moves the rows longer than k, then one evolve applies the inversion elements
    order = np.argsort(-np.repeat(n_list, n_random), kind="stable")
    steps, applied = applied[:max(n_list)], applied[max(n_list):]
    walked = np.full((len(order), max(n_list)), -1)
    for k, step in enumerate(steps):
        walked[order[:len(step)], k] = step
    for i_n, (n_cliff, picks) in enumerate(zip(n_list, picks_at)):
        rows = walked[i_n * n_random:(i_n + 1) * n_random]
        np.testing.assert_array_equal(rows[:, :n_cliff], picks)
        assert np.all(rows[:, n_cliff:] == -1)
    inverted = [c for c in (inversions_at[r // n_random][r % n_random] for r in order)
                if c < len(_CLIFFORDS)]
    if inverted:
        np.testing.assert_array_equal(applied.pop(0), inverted)
    assert applied == []


def _picks_oracle_seeds():
    """Edge seeds, then 50 drawn ones of 1 to 6 32-bit words: any non-negative int is a
    valid RB seed, so multi-word entropy reaches the picks."""
    rng = np.random.default_rng(2024)
    seeds = [0, 1, 2 ** 31 - 1, 2 ** 32, 2 ** 64 + 1, 2 ** 130 + 7]
    for n_words in rng.integers(1, 7, size=50):
        words = rng.integers(0, 2 ** 32, size=n_words, dtype=np.uint64)
        seeds.append(sum(int(w) << 32 * i for i, w in enumerate(words)))
    return seeds


@pytest.mark.parametrize("seed", _picks_oracle_seeds())
def test_clifford_picks_equal_numpy_per_sequence_streams(seed):
    """Row i of the one vectorised draw is numpy's own per-sequence stream,
    default_rng(SeedSequence(seed, spawn_key=(i_n, i_r))).integers(0, 8, size=length),
    so a numpy that changes SeedSequence, PCG64 or integers fails here."""
    rng = np.random.default_rng(seed % 2 ** 32)
    i_n = np.concatenate(([0, 0, 1, 6, 2 ** 32 - 1], rng.integers(0, 2 ** 32, size=5)))
    i_r = np.concatenate(([0, 59, 0, 2 ** 31, 2 ** 32 - 1], rng.integers(0, 300, size=5)))
    lengths = np.concatenate(([1, 2, 3, 101, 0], rng.integers(1, 64, size=5)))
    picks = _clifford_picks(seed, (i_n, i_r), lengths)
    assert picks.shape[1] >= lengths.max()
    for row, (a, b, n) in enumerate(zip(i_n.tolist(), i_r.tolist(), lengths.tolist())):
        expected = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(a, b))).integers(0, len(_CLIFFORDS), size=n)
        np.testing.assert_array_equal(picks[row, :n], expected, err_msg=str((a, b, n)))


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_rb_rejects_a_seed_that_is_not_a_non_negative_int(seed):
    with pytest.raises((ValueError, TypeError)):
        run_randomized_benchmarking(bare_params(), None, [1, 2], n_random=1, seed=seed)


# --- stacked transfer-wait scan, transfer matrix and rotation branches ----------
#
# Each loop below is the form the stacked code replaced, one rho per wait, per
# preparation or per branch; the stacked form must give the same bits.

def _reference_transfer_wait(p, g):
    """Per-wait scan: the coarse scores, the fine scores and the chosen wait."""
    coarse, fine = 48, 33
    single = replace(p, hyperfine=p.hyperfine[:1], n_nuclei=1)
    eng = Engine(single, None, g.t_pi)
    period = single.larmor_period
    block = eng.dd_block(g.tau, g.n_pulses)
    rho_head = eng.evolve(_initial_rho(single, 1.0), _transfer_head(eng, g))

    def transferred(wait):
        return abs(nuclear_sigma_z(eng.evolve(rho_head, eng.free_segments(wait) + block)))

    waits = [period * i / coarse for i in range(coarse)]
    scores = [transferred(w) for w in waits]
    best = int(np.argmax(scores))
    lo = waits[best] - period / coarse
    hi = waits[best] + period / coarse
    fine_grid = [lo + (hi - lo) * i / (fine - 1) for i in range(fine)]
    fine_scores = [transferred(max(w, 0.0)) for w in fine_grid]
    return scores, fine_scores, max(fine_grid[int(np.argmax(fine_scores))], 0.0)


def _recording_evolve(monkeypatch):
    """Patch Engine.evolve to record every returned rho (or stack) of states; return the
    record."""
    outputs = []
    _state_evolves(monkeypatch, lambda eng, rho, segments, out: outputs.append(out))
    return outputs


@pytest.mark.parametrize("n_nuclei", [1, 2])
@pytest.mark.parametrize("tau,n_pulses", [(81.5e-9, 42), (81.5e-9, 6), (0.2e-6, 10)])
def test_stacked_transfer_wait_scan_matches_the_per_wait_reference(monkeypatch, n_nuclei,
                                                                   tau, n_pulses):
    """Same coarse and fine scores bit for bit, same wait, from three evolves:
    the wait-independent head, the coarse stack and the fine stack."""
    p = _register(n_nuclei)
    g = GateSpec(kind="UI", tau=tau, n_pulses=n_pulses)
    scores, fine_scores, wait = _reference_transfer_wait(p, g)
    outputs = _recording_evolve(monkeypatch)
    assert calibrate_transfer_wait(p, g) == wait
    assert len(outputs) == 3
    np.testing.assert_array_equal(np.abs(nuclear_sigma_z(outputs[1])), scores)
    np.testing.assert_array_equal(np.abs(nuclear_sigma_z(outputs[2])), fine_scores)


def _reference_transfer_matrix(p, dephasing, g, f_ie, f_in):
    """Per-preparation transfer matrix, one column per evolved preparation."""
    eng, segments = gate_segments(p, dephasing, g)
    m_gate = np.zeros((4, 4))
    m_id = np.zeros((4, 4))
    for col, (e_up, n_up) in enumerate([(False, False), (False, True),
                                        (True, False), (True, True)]):
        rho = product_state(electron_mixture(f_ie, e_up), [electron_mixture(f_in, n_up)],
                            p.n_nuclei)
        m_gate[:, col] = populations(eng.evolve(rho, segments)).reshape(4, -1).sum(axis=1)
        m_id[:, col] = populations(rho).reshape(4, -1).sum(axis=1)
    return np.clip(m_gate @ np.linalg.inv(m_id), 0.0, 1.0)


@pytest.fixture(scope="module")
def matrix_gates():
    """The CeNOTn, CnNOTe and identity GateSpec of each register size."""
    return {n: [calibrate_cenotn(_register(n)), calibrate_cnnote(_register(n)),
                GateSpec(kind="identity")] for n in (1, 2)}


@pytest.mark.parametrize("n_nuclei", [1, 2])
@pytest.mark.parametrize("dephasing", [None, DEPH], ids=["ideal", "dephasing"])
@pytest.mark.parametrize("f_ie,f_in", [(1.0, 1.0), (0.9, 0.8)])
def test_stacked_transfer_matrix_matches_the_per_preparation_reference(
        monkeypatch, matrix_gates, n_nuclei, dephasing, f_ie, f_in):
    """Same matrix bit for bit for every gate, the four preparations in one evolve."""
    p = _register(n_nuclei)
    gates = matrix_gates[n_nuclei]
    references = [_reference_transfer_matrix(p, dephasing, g, f_ie, f_in) for g in gates]
    outputs = _recording_evolve(monkeypatch)
    for g, reference in zip(gates, references):
        outputs.clear()
        tm = transfer_matrix(p, dephasing, g, f_ie, f_in)
        np.testing.assert_array_equal(tm.matrix, reference, err_msg=g.kind)
        assert len(outputs) == 1 and outputs[0].shape[0] == 4, g.kind


def _reference_nuclear_rotation(p, dephasing, tau_rot, n_sweep, f_ie):
    """The two branches one after the other, each N from scratch through the folded
    XY-8 cycle and the folded first N % 8 units: the signal and sigma_z per N."""
    eng = Engine(p, dephasing)
    half_pi = [eng.u_rotation(math.pi / 2, 0.0)]
    branches = [eng.evolve(_initial_rho(p, f_ie), half_pi),
                product_state((f_ie, 1.0 - f_ie), [(1.0, 0.0)], p.n_nuclei)]
    at = []
    for rho in branches:
        at.append([])
        for n in n_sweep:
            cycled = rho
            for _ in range(n // 8):
                cycled = eng.evolve(cycled, eng.dd_block(tau_rot, 8))
            at[-1].append(eng.evolve(cycled, eng.dd_block(tau_rot, n % 8)))
    return ([electron_up_population(eng.evolve(rho, half_pi)) for rho in at[0]],
            [nuclear_sigma_z(rho) for rho in at[1]])


@pytest.mark.parametrize("n_nuclei", [1, 2])
@pytest.mark.parametrize("dephasing", [None, DEPH], ids=["ideal", "dephasing"])
@pytest.mark.parametrize("f_ie", [1.0, 0.9])
@pytest.mark.parametrize("n_sweep", [[0, 5, 3, 12, 5, 30], [4, 9, 17]], ids=["from0", "from4"])
def test_stacked_nuclear_rotation_matches_the_two_branch_reference(
        monkeypatch, n_nuclei, dephasing, f_ie, n_sweep):
    """Same signal and sigma_z bit for bit; one evolve per cycle step and per residue
    N % 8, plus the initial pi/2 and the one stacked readout."""
    p = _register(n_nuclei)
    tau_rot = 0.5 * p.larmor_period - T_PI_DEFAULT
    signal, sigma_z = _reference_nuclear_rotation(p, dephasing, tau_rot, n_sweep, f_ie)
    outputs = _recording_evolve(monkeypatch)
    sweep = run_nuclear_rotation(p, dephasing, tau_rot, n_sweep, f_ie=f_ie)
    np.testing.assert_array_equal(sweep.signal, signal)
    np.testing.assert_array_equal(sweep.aux["nuclear_sigma_z"], sigma_z)
    assert len(outputs) == 2 + max(n_sweep) // 8 + len({n % 8 for n in n_sweep})


# --- folded DD blocks against the segment walk ----------------------------------
#
# A folded block must act as walking its segments one by one: forward, and
# backwards by the adjoints.  The reference walk below is the lab-frame one the
# eigenframe replaced: propagators of the full free Hamiltonian from
# propagator_from_eig, each half gap dephased on its own.

def _lab_walk(eng, rho, steps, reverse=False):
    """(unitary, free time) steps applied as U rho U^dag, each free step then dephased
    (reverse: walked backwards, each step by its adjoint and then its dephasing)."""
    if reverse:
        steps = [(u.conj().swapaxes(-1, -2), t) for u, t in reversed(steps)]
    for u, t in steps:
        rho = u @ rho @ u.conj().swapaxes(-1, -2)
        if eng.deph is not None and (isinstance(t, np.ndarray) or t):
            rho = dephase_electron(rho, eng.deph.factor(t))
    return rho


def _lab_free(eng, t):
    """The lab-frame free step: exp(-i H t) of the full free Hamiltonian, and t."""
    return (propagator_from_eig(hermitian_eig(hamiltonian(eng.p)), t), t)


def _lab_dd_block(eng, tau, n_pulses, pattern=XY8_PHASES):
    """dd_block_segments(tau, n_pulses, pattern) as lab-frame steps."""
    half = _lab_free(eng, tau / 2.0)
    return [step for k in range(n_pulses)
            for step in (half, (eng.u_rotation(math.pi, pattern[k % len(pattern)]), 0.0), half)]


def _coherent_stack(eng, n_states):
    """Initialized registers rotated by different pulses, so each carries coherences."""
    rho = product_state(electron_mixture(0.9), [(0.8, 0.2)], eng.p.n_nuclei)
    return np.array([eng.evolve(rho, [eng.u_rotation(0.3 + 0.4 * k, 0.2 * k)]
                                + eng.dd_block_segments(0.21e-6, 1, (0.5 * k,)))
                     for k in range(n_states)])


@pytest.mark.parametrize("n_nuclei", [1, 2])
@pytest.mark.parametrize("dephasing", [None, DEPH], ids=["ideal", "dephasing"])
@pytest.mark.parametrize("n_pulses", [1, 7, 8, 16, 17, 23, 42])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_folded_block_matches_the_segment_walk(n_nuclei, dephasing, n_pulses, reverse):
    p = _register(n_nuclei, detuning=0.1e6)
    eng = Engine(p, dephasing)
    tau = 0.5 * p.larmor_period - T_PI_DEFAULT
    steps = _lab_dd_block(eng, tau, n_pulses)
    block = eng.dd_block(tau, n_pulses)
    assert eng.dd_block(tau, n_pulses) is block
    d = 2 ** (1 + n_nuclei)
    if dephasing is None:
        assert len(block) == 1 and block[0].shape == (d, d)
    else:   # the cycle map stepped, then the rest; every segment a d^2 x d^2 map
        assert len(block) == n_pulses // 8 + (n_pulses % 8 > 0)
        assert all(_is_folded_map(u, d) for u in block)
    walked = _adjoint(block) if reverse else block
    # one state, and stacks below and above the rows of one single-threaded product
    for rho in (_coherent_stack(eng, 1)[0], _coherent_stack(eng, 3), _coherent_stack(eng, 40)):
        np.testing.assert_allclose(eng.evolve(rho, walked), _lab_walk(eng, rho, steps, reverse),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("pattern", [XY8_PHASES, CPMG_PHASES], ids=["XY8", "CPMG"])
def test_dd_block_segments_match_the_unit_by_unit_lab_walk(pattern):
    """The block against the lab-frame walk, each half gap dephased on its own, and
    against the one-unit blocks stepped one evolve at a time (each one entering and
    leaving the eigenframe): to 1e-12, since the frame changes the rounding."""
    eng = Engine(two_nuclei(), DephasingModel(t_c=4e-6, beta=2.0))
    rho0 = eng.evolve(product_state(electron_mixture(0.9), n_nuclei=2),
                      [eng.u_rotation(math.pi / 2, 0.0)])
    tau, n_pulses = 0.3e-6, 11
    block = eng.evolve(rho0, eng.dd_block_segments(tau, n_pulses, pattern))
    np.testing.assert_allclose(block, _lab_walk(eng, rho0, _lab_dd_block(eng, tau, n_pulses,
                                                                          pattern)),
                               rtol=0, atol=1e-12)
    stepped = rho0
    for k in range(n_pulses):
        stepped = eng.evolve(stepped, eng.dd_block_segments(tau, 1, (pattern[k % len(pattern)],)))
    np.testing.assert_allclose(block, stepped, rtol=0, atol=1e-12)


def _walked_nuclear_rotation(p, dephasing, tau_rot, n_sweep, f_ie):
    """The two branches stepped unit by unit through the segment walk: the signal and
    sigma_z per N."""
    eng = Engine(p, dephasing)
    half_pi = [eng.u_rotation(math.pi / 2, 0.0)]
    rho_sig = eng.evolve(_initial_rho(p, f_ie), half_pi)
    rho_rot = product_state((f_ie, 1.0 - f_ie), [(1.0, 0.0)], p.n_nuclei)
    sig_at, sz_at = {}, {}
    for n in range(max(n_sweep) + 1):
        if n > 0:
            unit = eng.dd_block_segments(tau_rot, 1, (XY8_PHASES[(n - 1) % 8],))
            rho_sig = eng.evolve(rho_sig, unit)
            rho_rot = eng.evolve(rho_rot, unit)
        sig_at[n] = electron_up_population(eng.evolve(rho_sig, half_pi))
        sz_at[n] = nuclear_sigma_z(rho_rot)
    return [sig_at[n] for n in n_sweep], [sz_at[n] for n in n_sweep]


@pytest.mark.parametrize("n_nuclei", [1, 2])
@pytest.mark.parametrize("dephasing", [None, DEPH], ids=["ideal", "dephasing"])
def test_nuclear_rotation_matches_the_unit_walk(n_nuclei, dephasing):
    p = _register(n_nuclei)
    tau_rot = 0.5 * p.larmor_period - T_PI_DEFAULT
    n_sweep = list(range(0, 60)) + [63, 64, 65, 97, 170]
    signal, sigma_z = _walked_nuclear_rotation(p, dephasing, tau_rot, n_sweep, 0.9)
    sweep = run_nuclear_rotation(p, dephasing, tau_rot, n_sweep, f_ie=0.9)
    np.testing.assert_allclose(sweep.signal, signal, rtol=0, atol=1e-12)
    np.testing.assert_allclose(sweep.aux["nuclear_sigma_z"], sigma_z, rtol=0, atol=1e-12)


def _walked_quarter_rotation(p, tau_rot, n_max=400, t_pi=T_PI_DEFAULT, force_even=False):
    """The quarter-rotation search stepped unit by unit through the segment walk."""
    eng = Engine(replace(p, hyperfine=p.hyperfine[:1], n_nuclei=1), None, t_pi)
    rho = product_state((1.0, 0.0), [(1.0, 0.0)])
    trace = [nuclear_sigma_z(rho)]
    for n in range(1, n_max + 1):
        rho = eng.evolve(rho, eng.dd_block_segments(tau_rot, 1, (XY8_PHASES[(n - 1) % 8],)))
        trace.append(nuclear_sigma_z(rho))
        if trace[-1] >= 0.0:
            if force_even:
                lo = n - 2 + (n % 2)
                hi = lo + 2
                if hi > n_max or lo < 1:
                    break
                rho = eng.evolve(rho, eng.dd_block_segments(tau_rot, 1, (XY8_PHASES[n % 8],)))
                trace.append(nuclear_sigma_z(rho))
                return lo if abs(trace[lo]) <= abs(trace[hi]) else hi
            return n if abs(trace[n]) <= abs(trace[n - 1]) else n - 1
    raise ValueError("no quarter rotation found below n_max; check tau_rot")


def _quarter_rotations(p, tau_rot, n_max, force_even):
    """(walked, calibrated) N, or the ValueError each raised."""
    results = []
    for calibrate in (_walked_quarter_rotation, calibrate_quarter_rotation):
        try:
            results.append(calibrate(p, tau_rot, n_max=n_max, force_even=force_even))
        except ValueError as error:
            results.append(str(error))
    return results


@pytest.mark.parametrize("force_even", [False, True], ids=["any", "even"])
@pytest.mark.parametrize("a_par", [A_PAR, 0.95 * A_PAR])
def test_quarter_rotation_returns_the_n_of_the_unit_walk(force_even, a_par):
    """The same N over the CeNOTn delays, detuned and higher-order ones, and the same N
    or the same ValueError at every n_max around the crossing."""
    p = RegisterParams(larmor_n=LARMOR_N, hyperfine=((a_par, A_PERP),), n_nuclei=1)
    gate = calibrate_cenotn(p)
    t_l = p.larmor_period
    taus = (gate.tau, gate.uncond_tau, 0.99 * gate.tau, 1.01 * gate.tau,
            1.5 * t_l - T_PI_DEFAULT, 2.0 * t_l - T_PI_DEFAULT, 0.5 * gate.tau)
    found = 0
    for tau_rot in taus:
        walked, calibrated = _quarter_rotations(p, tau_rot, 900, force_even)
        assert calibrated == walked, tau_rot
        if isinstance(walked, int):
            found += 1
            for n_max in range(walked - 3, walked + 4):
                walked_at, calibrated_at = _quarter_rotations(p, tau_rot, n_max, force_even)
                assert calibrated_at == walked_at, (tau_rot, n_max)
    assert found == len(taus) - 1   # 0.5 tau_c is off every resonance: no crossing
    assert (gate.n_pulses, gate.uncond_n) == tuple(
        _walked_quarter_rotation(p, tau, n_max=900, force_even=True)
        for tau in (gate.tau, gate.uncond_tau))
