"""Top-level acceptance checks of the package's headline results.

Each test exercises one capability end to end and prints a single
[PASS]/[FAIL] line with the measured numbers (run with ``-s`` to see them).
"""

import math
import time

import numpy as np

from sivreg import electronic, fitting, optics, readout, sequences
from sivreg.linalg import hermitian_eig
from sivreg.register import (DephasingModel, RegisterParams, RegisterState,
                             nuclear_sigma_z)
from sivreg.sequences import GateSpec, T_PI_DEFAULT

from test_fitting import RECOVERY_CASES

LARMOR = 3.5857929e6
HYPERFINE = ((621.75027e3, 140.1041e3), (50.0e3, 101.19309e3))
DOWN = np.diag([1.0, 0.0]).astype(complex)
UP = np.diag([0.0, 1.0]).astype(complex)


def _verdict(number, label, failures, detail):
    status = "FAIL" if failures else "PASS"
    print("[%s] acceptance %d (%s): %s" % (status, number, label, detail))
    assert not failures, "; ".join(failures)


def test_01_strain_parameter_estimation():
    targets = (9.431e9, 254.654e6, 1110.755e9, 816.285)
    start = time.perf_counter()
    res = electronic.estimate_parameters(targets)
    elapsed = time.perf_counter() - start
    eps, alpha, theta = res.strain.epsilon, res.strain.alpha, res.theta
    failures = []
    if not abs(eps - 392e9) <= 8e9:
        failures.append("epsilon=%.2f GHz outside 392+-8" % (eps / 1e9))
    if not abs(alpha - 0.68) <= 0.03:
        failures.append("alpha=%.4f outside 0.68+-0.03" % alpha)
    if not abs(theta - 28.0) <= 2.0:
        failures.append("theta=%.3f deg outside 28+-2" % theta)
    names = ("omega_L_e", "delta_ss", "delta_gs", "cyclicity")
    for name, got, want in zip(names, res.observables.as_tuple(), targets):
        if not abs(got - want) <= 0.01 * want:
            failures.append("%s off by %.2f%%" % (name, 100 * abs(got - want) / want))
    if not elapsed < 60.0:
        failures.append("runtime %.1f s >= 60 s" % elapsed)
    _verdict(1, "strain-parameter estimation", failures,
             "epsilon=%.1f GHz, alpha=%.3f, theta=%.2f deg, forward "
             "observables within 1%%, %.1f s" % (eps / 1e9, alpha, theta, elapsed))


def test_02_zero_field_splitting_closed_form():
    start = time.perf_counter()
    failures = []
    for eps in (50e9, 100e9, 200e9, 392e9, 700e9, 1000e9):
        h = electronic.build_hamiltonian(electronic.StrainField(eps, 0.68),
                                         electronic.FieldConfig(0.0, 0.0))
        levels = np.sort(hermitian_eig(h).values) / (2.0 * math.pi)
        split = 0.5 * (levels[2] + levels[3]) - 0.5 * (levels[0] + levels[1])
        closed = electronic.delta_gs_zero_field(eps)
        if not abs(split - closed) <= 1e-9 * closed:
            failures.append("eps=%.0f GHz rel=%.1e" % (eps / 1e9, abs(split - closed) / closed))
    headline = electronic.delta_gs_zero_field(392e9)
    if not abs(headline - 1109.9e9) <= 0.05e9:
        failures.append("value at 392 GHz is %.4f GHz, not 1109.9" % (headline / 1e9))
    elapsed = time.perf_counter() - start
    if not elapsed < 1.0:
        failures.append("runtime %.2f s >= 1 s" % elapsed)
    _verdict(2, "zero-field splitting closed form", failures,
             "diagonalization matches sqrt(lambda_g^2 + 8 eps^2) to 1e-9; "
             "392 GHz -> %.1f GHz, %.2f s" % (headline / 1e9, elapsed))


def test_03_conditional_electron_gate_frequencies():
    a_par = HYPERFINE[0][0]
    omega = a_par / math.sqrt(3.0)
    times = np.linspace(0.0, 12e-6, 1600)
    p = RegisterParams(detuning=0.5 * a_par, hyperfine=((a_par, 0.0),),
                       n_nuclei=1, larmor_n=LARMOR)
    model = fitting.rabi_beat_model(1)
    start = time.perf_counter()
    fitted = {}
    for label, nucleus, near in (("res", DOWN, omega), ("off", UP, 2.0 * omega)):
        initial = RegisterState(np.kron(DOWN, nucleus))
        signal = np.asarray(sequences.run_rabi(p, None, omega, times,
                                               initial=initial).signal)
        fit = fitting.least_squares(
            model, times, signal,
            init={"a1": np.ptp(signal) / 2.0, "f1": near,
                  "phi1": -math.pi / 2.0, "c": signal.mean()},
            fixed={"t1": 1e9})
        fitted[label] = abs(fit["f1"])
    ratio = fitted["off"] / fitted["res"]

    # two-tone beat when the nucleus starts thermal instead of pure; the
    # window keeps the strong tone's sidelobes off the weak one
    beat = np.asarray(sequences.run_rabi(p, None, omega, times).signal)
    tapered = (beat - beat.mean()) * np.hanning(beat.size)
    spectrum = np.abs(np.fft.rfft(tapered, n=2 ** 18))
    axis = np.fft.rfftfreq(2 ** 18, times[1] - times[0])
    main = int(np.argmax(spectrum))
    away = np.abs(axis - axis[main]) > 0.6 * axis[main]
    second = int(np.argmax(np.where(away, spectrum, 0.0)))
    tone_ratio = max(axis[main], axis[second]) / min(axis[main], axis[second])
    weight = spectrum[second] / spectrum[main]
    elapsed = time.perf_counter() - start

    failures = []
    if not abs(ratio - 2.0) <= 1e-6:
        failures.append("frequency ratio %.9f" % ratio)
    if not abs(tone_ratio - 2.0) <= 0.02:
        failures.append("beat tones at ratio %.3f" % tone_ratio)
    if not weight >= 0.1:
        failures.append("second tone only %.2f of main" % weight)
    if not elapsed < 10.0:
        failures.append("runtime %.1f s >= 10 s" % elapsed)
    _verdict(3, "conditional electron gate", failures,
             "off-resonant/resonant = %.7f, beat tones %.0f/%.0f kHz "
             "(weight %.2f), %.1f s" % (ratio, axis[main] / 1e3,
                                        axis[second] / 1e3, weight, elapsed))


def test_04_conditional_nuclear_rotation():
    larmor = 3.58579e6
    t_pi = 55.715e-9
    half_period = 0.5 / larmor
    p = RegisterParams(hyperfine=((621.75027e3, 140.1e3),), n_nuclei=1,
                       larmor_n=larmor)
    sweep = sequences.run_nuclear_rotation(p, None, half_period - t_pi,
                                           range(0, 211), t_pi=t_pi)
    n_star = sequences.extract_full_rotation(sweep.axis,
                                             sweep.aux["nuclear_sigma_z"])
    rate = 1.0 / (169 * half_period)
    failures = []
    if not abs(n_star - 169) <= 15:
        failures.append("full rotation at N=%d, outside 169+-15" % n_star)
    if not abs(rate - 42.4e3) <= 0.4e3:
        failures.append("rotation rate %.2f kHz outside 42.4+-0.4" % (rate / 1e3))
    if not abs(rate - 42.3e3) <= 0.4e3:
        failures.append("rotation rate %.2f kHz does not reproduce 42.3" % (rate / 1e3))
    _verdict(4, "conditional nuclear rotation", failures,
             "full rotation at N=%d, 1/(169 T_L/2) = %.2f kHz "
             "(reference 42.3 kHz)" % (n_star, rate / 1e3))


def test_05_nuclear_initialization_and_probe_bias():
    p_two = RegisterParams(hyperfine=HYPERFINE, n_nuclei=2, larmor_n=LARMOR)
    p_one = RegisterParams(hyperfine=(HYPERFINE[0],), n_nuclei=1, larmor_n=LARMOR)
    gate = GateSpec(kind="UI", tau=81.5e-9, n_pulses=42, t_pi=T_PI_DEFAULT)
    f_ie = 0.806
    state = sequences.nuclear_init_gate(p_two, None, gate, f_ie)
    sigma_z = nuclear_sigma_z(state.rho, 0)
    polarization = 0.5 * (1.0 - sigma_z)   # population of the pumped level

    def contrast(params):
        return (sequences.ui_probe_signal(params, None, gate, f_ie)
                - sequences.ui_probe_signal(params, None, gate, f_ie,
                                            flip_first=True))

    ratio = contrast(p_one) / contrast(p_two)
    failures = []
    if not abs(polarization - 0.647) <= 0.05:
        failures.append("polarization %.4f outside 0.647+-0.05" % polarization)
    if not abs(ratio - 2.0) <= 0.4:
        failures.append("single-nucleus probe bias %.3f outside 2.0+-0.4" % ratio)
    _verdict(5, "nuclear initialization", failures,
             "target polarization %.3f (sigma_z=%.3f), single-nucleus probe "
             "overestimates by %.2fx" % (polarization, sigma_z, ratio))


def test_06_cpmg_time_scaling():
    p = RegisterParams(hyperfine=((0.0, 0.0),), n_nuclei=1, larmor_n=LARMOR)
    dephasing = DephasingModel(t_c=4.67e-6, beta=2.0)
    pulse_counts = (4, 8, 16, 32, 64)
    coherence_times = []
    for n in pulse_counts:
        scale = 2.0 * dephasing.t_c / math.sqrt(2.0 * n)
        taus = scale * np.linspace(0.15, 2.2, 40)
        sweep = sequences.run_dd(p, dephasing, "CPMG", n, taus)
        envelope = np.abs(2.0 * np.asarray(sweep.signal) - 1.0)
        fit = fitting.least_squares(fitting.get_model("stretched_exp"),
                                    n * taus, envelope)
        coherence_times.append(fit["t"])
    power = fitting.least_squares(fitting.get_model("power_scaling"),
                                  np.asarray(pulse_counts, float),
                                  np.asarray(coherence_times))
    exponent = power["gamma"]
    failures = []
    if not abs(exponent - 0.5) <= 0.03:
        failures.append("T2(N) exponent %.4f outside 0.5+-0.03" % exponent)
    _verdict(6, "decoupling time scaling", failures,
             "fitted T2(N) ~ N^%.4f with per-segment beta=2 dephasing "
             "(T2 at N=4: %.1f us)" % (exponent, coherence_times[0] / 1e-6))


def test_07_single_shot_readout():
    start = time.perf_counter()
    cfg = readout.SsrConfig(seed=0)
    record = readout.simulate_ssr(cfg, initial_nuclear="alternate", n_shots=10000)
    res = readout.classify_threshold(record, cfg.threshold)
    bright = readout.simulate_ssr(cfg, initial_nuclear="bright", n_shots=10000)
    loss = float(np.mean(bright.final_state == readout.DARK))
    elapsed = time.perf_counter() - start
    failures = []
    if not abs(res.posterior_bright - 0.925) <= 0.05:
        failures.append("bright fidelity %.4f outside 0.925+-0.05" % res.posterior_bright)
    if not abs(res.posterior_dark - 0.91) <= 0.05:
        failures.append("dark fidelity %.4f outside 0.91+-0.05" % res.posterior_dark)
    if not abs(loss - 0.07) <= 0.01:
        failures.append("bright polarization loss %.4f outside 0.07+-0.01" % loss)
    if not elapsed < 60.0:
        failures.append("runtime %.1f s >= 60 s" % elapsed)
    _verdict(7, "single-shot readout", failures,
             "classification fidelities %.3f/%.3f, bright polarization loss "
             "%.3f over 10^4 shots, %.1f s" % (res.posterior_bright,
                                               res.posterior_dark, loss, elapsed))


def test_08_optical_link():
    p_free = optics.OpticalParams(detuning=0.0, t1=1e3, gamma_phi=0.0)
    amplitude = 0.5
    drive = amplitude * optics.RABI_MAX
    worst = 0.0
    for t in np.linspace(0.2e-9, 4e-9, 7):
        rho = optics.evolve_lindblad(optics.GROUND, p_free, (amplitude, 0.0),
                                     float(t))
        worst = max(worst, abs(rho[1, 1].real - math.sin(math.pi * drive * t) ** 2))

    fourier = 1.0 / (2.0 * math.pi * 1.6535e-9)

    t1 = 1.6535e-9
    p_damped = optics.OpticalParams(t1=t1,
                                    gamma_phi=optics.gamma_phi_from_t2(1.18e-9, t1))
    seg_t = 0.35e-9
    seg_a = 1.0 / (4.0 * seg_t * optics.RABI_MAX)
    train = optics.OpticalPulseTrain(((seg_a, 0.0, seg_t), (seg_a, 0.0, seg_t)),
                                     buffer=0.8e-9)
    phases = np.linspace(0.0, 4.0 * math.pi, 81)
    signal = np.asarray(optics.run_phase_control(p_damped, train, phases).signal)
    fit = fitting.least_squares(
        fitting.rabi_beat_model(1), phases, signal,
        init={"a1": np.ptp(signal) / 2.0, "f1": 1.0 / (2.0 * math.pi),
              "phi1": math.pi / 2.0, "c": signal.mean()},
        fixed={"t1": 1e9})
    period = 1.0 / fit["f1"]

    failures = []
    if not worst <= 1e-6:
        failures.append("undamped drive off closed form by %.1e" % worst)
    if not abs(fourier - 96.2510e6) <= 1e-3 * 96.2510e6:
        failures.append("Fourier limit %.4f MHz vs 96.2510" % (fourier / 1e6))
    if not abs(period - 2.0 * math.pi) <= 1e-3 * 2.0 * math.pi:
        failures.append("phase-sweep period %.6f" % period)
    if not fit.residual_norm <= 1e-3 * abs(fit["a1"]):
        failures.append("phase-sweep residual %.1e vs amplitude %.3f"
                        % (fit.residual_norm, abs(fit["a1"])))
    _verdict(8, "optical link", failures,
             "undamped drive within %.1e of sin^2; 1/(2 pi 1.6535 ns) = "
             "%.4f MHz; phase sweep period %.6f (residual %.1e)"
             % (worst, fourier / 1e6, period, fit.residual_norm))


def test_09_fit_registry_recovery():
    worst, worst_name = 0.0, ""
    failures = []
    for name in sorted(RECOVERY_CASES):
        model = fitting.get_model(name)
        x, draw, fixed_names = RECOVERY_CASES[name]
        true = draw(np.random.default_rng(1000))
        y = model(x, [true[n] for n in model.param_names])
        result = fitting.least_squares(model, x, y,
                                       fixed={n: true[n] for n in fixed_names},
                                       max_iterations=500)
        for n in model.param_names:
            if n in fixed_names:
                continue
            rel = abs(result[n] - true[n]) / max(abs(true[n]), 1e-300)
            if rel > worst:
                worst, worst_name = rel, "%s.%s" % (name, n)
    if not worst <= 1e-8:
        failures.append("worst zero-noise recovery %s at %.1e" % (worst_name, worst))

    model = fitting.get_model("orbach_offset")
    temperatures = np.linspace(2.6, 10.0, 25)
    true = {"gamma0": 300.0, "a": 2.2e-31, "alpha": 1.543, "delta": 1110.755e9}
    clean = model(temperatures, [true[n] for n in model.param_names])
    noisy = clean * (1.0 + 0.01 * np.random.default_rng(5).standard_normal(25))
    fit = fitting.least_squares(model, temperatures, noisy,
                                fixed={"delta": true["delta"]})
    alpha = fit["alpha"]
    if not abs(alpha - 1.543) <= 0.05 * 1.543:
        failures.append("relaxation exponent scale %.4f off 1.543 by >5%%" % alpha)
    _verdict(9, "fit registry", failures,
             "worst zero-noise recovery %.1e (%s); relaxation fit at 1%% "
             "noise gives alpha=%.4f (true 1.543)" % (worst, worst_name, alpha))


def test_10_randomized_benchmarking():
    p = RegisterParams(hyperfine=((0.0, 0.0),), n_nuclei=1, larmor_n=LARMOR)
    depths = [1, 5, 10, 20, 40, 70, 100, 150]
    noiseless = sequences.run_randomized_benchmarking(p, None, depths,
                                                      n_random=20, seed=1)
    q = 0.0103
    noisy = sequences.run_randomized_benchmarking(p, None, depths, n_random=20,
                                                  gate_fidelity_noise=q, seed=1)
    expected = 1.0 - q / 2.0
    failures = []
    if not abs(noiseless.gate_fidelity - 1.0) <= 1e-3:
        failures.append("noiseless F_G=%.6f" % noiseless.gate_fidelity)
    if not abs(noisy.gate_fidelity - expected) <= 0.05 * expected:
        failures.append("depolarized F_G=%.6f vs %.6f"
                        % (noisy.gate_fidelity, expected))
    _verdict(10, "randomized benchmarking", failures,
             "noiseless F_G=%.6f; q=%.4f gives F_G=%.6f (1 - q/2 = %.6f)"
             % (noiseless.gate_fidelity, q, noisy.gate_fidelity, expected))
