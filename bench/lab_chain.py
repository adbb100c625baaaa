"""Workload ``lab_chain``: the paper's measurement-and-analysis chain, round robin.

One pass runs every operation kind once.  The eight register kinds alternate
between one and two nuclei (dimension 4 and 8) from kind to kind, the same
way in every pass, so every pass costs about the same.  The two optical Rabi
sweeps run without and with pure dephasing.  The seed jitters the detuning,
t_c, a_par and the drive amplitudes.  ``electronic`` does none of this work.
"""

import math

import numpy as np

from harness import Op, require, require_close, require_finite, require_sweep

LARMOR_N = 3.5857929e6
A_PAR = 621.75027e3
A_PERP = 140.1041e3
A_PAR2, A_PERP2 = 50.0e3, 101.19309e3
UI_TAU, UI_PULSES = 81.5e-9, 42

# sizes per scale: sweep points, RB randomizations, SSR shots, optical points
SIZES = {
    "full": {"rabi": 201, "ramsey": 400, "nramsey": 61, "dd": 251, "spinlock": 201,
             "nucrot": 300, "rb_random": 60, "shots": 60000, "orabi": 25,
             "phase": 21, "lifetimes": 20},
    "tiny": {"rabi": 101, "ramsey": 200, "nramsey": 11, "dd": 11, "spinlock": 21,
             "nucrot": 200, "rb_random": 4, "shots": 1000, "orabi": 9,
             "phase": 5, "lifetimes": 3},
}

REGISTER_KINDS = ("rabi", "ramsey", "nuclear_ramsey", "dd", "spinlock", "nucrot",
                  "gates", "rb")


def warm_up():
    """One small untimed call into each layer this workload uses."""
    from sivreg import fitting, optics, readout, sequences
    p = _register(1, 0.0, A_PAR)
    sweep = sequences.run_rabi(p, None, 5e6, np.linspace(0.0, 1e-6, 21))
    fitting.least_squares(fitting.rabi_beat_model(1), sweep.axis, sweep.signal)
    readout.simulate_ssr(readout.SsrConfig(), "alternate", 10)
    optics.run_optical_rabi(optics.OpticalParams(), 0.5, [0.0, 1e-10])


def _register(n_nuclei, detuning, a_par):
    from sivreg.register import RegisterParams
    hyperfine = ((a_par, A_PERP),) if n_nuclei == 1 else ((a_par, A_PERP), (A_PAR2, A_PERP2))
    return RegisterParams(detuning=detuning, larmor_n=LARMOR_N, hyperfine=hyperfine,
                          n_nuclei=n_nuclei)


def make_pass(seed, index, ctx):
    from sivreg import fitting, optics, readout, sequences
    from sivreg.register import DephasingModel

    size = SIZES[ctx.scale]
    rng = np.random.default_rng([seed, index])
    detuning = float(rng.uniform(-50e3, 50e3))
    a_par = float(A_PAR * rng.uniform(0.95, 1.05))
    t_c = float(rng.uniform(4.0e-6, 6.0e-6))
    omega = float(rng.uniform(4.0e6, 6.0e6))
    delta_ramsey = float(1.0e6 * rng.uniform(0.9, 1.1))
    omega_sl = float(LARMOR_N * rng.uniform(0.9, 1.1))
    q = float(rng.uniform(0.005, 0.02))
    amplitude = float(0.5 * rng.uniform(0.98, 1.02))
    gamma_phi = float(rng.uniform(1e8, 3e8))
    ssr_seed = int(rng.integers(2 ** 31))
    rb_seed = int(rng.integers(2 ** 31))
    noise_seed = int(rng.integers(2 ** 31))

    deph = DephasingModel(t_c, 2.0)
    params = {}
    for i, kind in enumerate(REGISTER_KINDS):
        n = 1 + i % 2
        params[kind] = (_register(n, detuning, a_par), n)
    where = {"seed": seed, "pass": index}
    register_in = dict(where, detuning=detuning, a_par=a_par, t_c=t_c)

    def inputs(kind, **extra):
        return dict(register_in, n_nuclei=params[kind][1], **extra)

    ops = []

    # -- register and sequences --------------------------------------------
    p = params["rabi"][0]

    def rabi(p=p):
        sweep = sequences.run_rabi(p, None, omega, np.linspace(0.0, 1e-6, size["rabi"]))
        fit = fitting.least_squares(fitting.rabi_beat_model(1), sweep.axis, sweep.signal)
        return sweep, fit

    def check_rabi(out):
        sweep, fit = out
        require_sweep(sweep, "rabi")
        require_finite(fit.params, "rabi fit")
        require_close(abs(fit["f1"]), omega, 0.01, "fitted Rabi frequency")

    ops.append(Op("rabi", inputs("rabi", omega=omega), rabi, check_rabi))

    p = params["ramsey"][0]

    def ramsey(p=p):
        sweep = sequences.run_ramsey(p, deph, delta_ramsey,
                                     np.linspace(0.0, 8e-6, size["ramsey"]))
        fit = fitting.least_squares(fitting.rabi_beat_model(2), sweep.axis, sweep.signal)
        return sweep, fit

    def check_ramsey(out):
        sweep, fit = out
        require_sweep(sweep, "ramsey")
        require_finite(fit.params, "ramsey fit")
        lo, hi = sorted((abs(fit["f1"]), abs(fit["f2"])))
        require_close(lo, delta_ramsey - a_par / 2.0, 0.01, "lower Ramsey beat")
        require_close(hi, delta_ramsey + a_par / 2.0, 0.01, "upper Ramsey beat")

    ops.append(Op("ramsey", inputs("ramsey", delta_ramsey=delta_ramsey), ramsey,
                  check_ramsey))

    p = params["nuclear_ramsey"][0]
    ops.append(Op(
        "nuclear_ramsey", inputs("nuclear_ramsey"),
        lambda p=p: sequences.run_ramsey(p, None, 0.0,
                                         np.linspace(0.0, 2e-6, size["nramsey"]),
                                         target="nuclear"),
        lambda sweep: require_sweep(sweep, "nuclear ramsey")))

    p = params["dd"][0]
    ops.append(Op(
        "dd", inputs("dd"),
        lambda p=p: sequences.run_dd(p, deph, "XY", 16,
                                     np.linspace(1e-7, 1e-5, size["dd"])),
        lambda sweep: require_sweep(sweep, "dd")))

    p = params["spinlock"][0]
    ops.append(Op(
        "spinlock", inputs("spinlock", omega_sl=omega_sl),
        lambda p=p: sequences.run_spin_lock(p, deph, omega_sl,
                                            tau_sl=np.linspace(0.0, 5e-5, size["spinlock"])),
        lambda sweep: require_sweep(sweep, "spinlock")))

    p = params["nucrot"][0]

    def nucrot(p=p):
        tau_rot = 0.5 / LARMOR_N - sequences.T_PI_DEFAULT
        sweep = sequences.run_nuclear_rotation(p, deph, tau_rot, range(size["nucrot"] + 1))
        full = sequences.extract_full_rotation(sweep.axis, sweep.aux["nuclear_sigma_z"])
        return sweep, full

    def check_nucrot(out):
        sweep, full = out
        require_sweep(sweep, "nucrot")
        require(0 < full <= size["nucrot"], "full rotation N = %r outside the sweep" % full)

    ops.append(Op("nucrot", inputs("nucrot"), nucrot, check_nucrot))

    p = params["gates"][0]

    def gates(p=p):
        cenotn = sequences.calibrate_cenotn(p)
        matrix = sequences.transfer_matrix(p, deph, cenotn, 1.0, 1.0)
        ui = sequences.GateSpec(kind="UI", tau=UI_TAU, n_pulses=UI_PULSES)
        wait = sequences.calibrate_transfer_wait(p, ui)
        ui = sequences.GateSpec(kind="UI", tau=UI_TAU, n_pulses=UI_PULSES, wait=wait)
        probes = [sequences.ui_probe_signal(p, deph, ui, 0.95, flip_first=flip)
                  for flip in (False, True)]
        return matrix, wait, probes

    def check_gates(out):
        matrix, wait, probes = out
        require_finite(matrix.matrix, "transfer matrix")
        require_finite([wait] + probes, "UI wait and probe")
        require(all(0.0 <= v <= 1.0 for v in probes), "UI probe outside [0, 1]")

    ops.append(Op("gates", inputs("gates"), gates, check_gates))

    p = params["rb"][0]
    n_list = [1, 10, 20, 40, 60, 80, 100]

    def check_rb(res):
        require_sweep(res.sweep, "rb")
        require_finite(res.fit.params, "rb fit")
        require(abs(res.gate_fidelity - (1.0 - q / 2.0)) <= 0.005,
                "RB fidelity %r, expected %r within 0.005" % (res.gate_fidelity, 1 - q / 2))

    ops.append(Op(
        "rb", inputs("rb", q=q, rb_seed=rb_seed),
        lambda p=p: sequences.run_randomized_benchmarking(
            p, None, n_list, n_random=size["rb_random"], gate_fidelity_noise=q,
            seed=rb_seed),
        check_rb))

    # -- readout -------------------------------------------------------------
    def ssr():
        cfg = readout.SsrConfig(seed=ssr_seed)
        record = readout.simulate_ssr(cfg, "alternate", size["shots"])
        cls = readout.classify_threshold(record, cfg.threshold)
        mix = readout.fit_photon_histogram(record.counts)
        return record, cls, mix

    def check_ssr(out):
        record, cls, mix = out
        require_finite(record.counts, "SSR counts")
        fids = [cls.fidelity_bright, cls.fidelity_dark]
        require_finite(fids + [cls.posterior_bright, cls.posterior_dark], "SSR fidelities")
        require(all(0.5 < f <= 1.0 for f in fids), "SSR fidelities %r outside (0.5, 1]" % fids)
        require_finite(list(mix.weights) + list(mix.means) + list(mix.widths)
                       + [mix.residual_norm], "histogram fit")

    ops.append(Op("ssr", dict(where, ssr_seed=ssr_seed, n_shots=size["shots"]), ssr, check_ssr))

    # -- optics --------------------------------------------------------------
    times = np.linspace(0.0, 4e-9, size["orabi"])
    for gp in (0.0, gamma_phi):
        op_params = optics.OpticalParams(gamma_phi=gp)

        def optical_rabi(op_params=op_params):
            sweep = optics.run_optical_rabi(op_params, amplitude, times)
            return sweep, optics.extract_optical_decoherence(op_params, sweep)

        def check_optical_rabi(out, op_params=op_params):
            sweep, rate = out
            require_sweep(sweep, "optical rabi")
            expected = (1.0 / op_params.t1 + op_params.gamma_phi) / (2.0 * math.pi)
            require_close(rate, expected, 0.05, "optical decoherence rate")

        ops.append(Op("optical_rabi", dict(where, amplitude=amplitude, gamma_phi=gp),
                      optical_rabi, check_optical_rabi))

    op_params = optics.OpticalParams()
    t_pulse = 0.25 / (op_params.rabi_per_volt * amplitude)
    train = optics.OpticalPulseTrain(((amplitude, 0.0, t_pulse), (amplitude, 0.0, t_pulse)))
    ops.append(Op(
        "optical_phase", dict(where, amplitude=amplitude),
        lambda: optics.run_phase_control(op_params, train,
                                         np.linspace(0.0, 2 * math.pi, size["phase"])),
        lambda sweep: require_sweep(sweep, "optical phase")))

    decay_t = np.linspace(0.0, 8e-9, 101)
    clean = np.exp(-decay_t / op_params.t1)
    noise = np.random.default_rng(noise_seed).normal(0.0, 0.01, (size["lifetimes"], decay_t.size))
    traces = [(decay_t, clean + row) for row in noise]

    def check_lifetime(out):
        mean, std = out
        require_finite([mean, std], "lifetime ensemble")
        require_close(mean, op_params.t1, 0.02, "mean fitted T1")

    ops.append(Op("lifetime", dict(where, noise_seed=noise_seed),
                  lambda: optics.lifetime_ensemble(traces), check_lifetime))
    return ops
