"""Command line front end.

Dispatches exactly one experiment per invocation and writes a CSV artifact
whose header comment block records the fully resolved configuration and the
seed, so identical invocations produce byte-identical files.

Configuration is resolved in three layers (later wins):

    built-in defaults  <  flat JSON config file (--config)  <  command flags

The config file is a single flat JSON object holding strings and numbers
only.  Keys mirror the field names of the underlying module types.  Unknown
or ill-typed keys, non-finite numbers, values outside the key's domain in
_DOMAINS (which --help prints) and breaches of the rules over several keys
are rejected with the key name.  Exit codes: 0 success, 2 configuration
error, 3 experiment error.

The environment variable SIVREG_OUTPUT_DIR sets the directory for relative
output paths (default: current directory).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import electronic, fitting, optics, readout, sequences
from .register import DephasingModel, RegisterParams, nuclear_sigma_z
from .sequences import GateSpec, T_PI_DEFAULT

TWO_PI = 2.0 * math.pi

UNITS_LINE = ("frequencies in Hz (plain, not angular); times in s; "
              "magnetic field in T; angles in degrees unless a column "
              "states otherwise")


class ConfigError(ValueError):
    """Missing, unknown or ill-typed configuration key."""


class ExperimentError(RuntimeError):
    """Failure propagated from a physics/analysis module."""


# ---------------------------------------------------------------------------
# configuration schema and resolution


@dataclass(frozen=True)
class RunConfig:
    """One resolved experiment invocation: name + flat key/value document."""

    experiment: str
    values: dict

    @property
    def output(self):
        return self.values.get("output", "")


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    group: str            # "" for top-level subcommands, "run" for run group
    defaults: dict        # key -> default value (type inferred)
    runner: object        # cfg values dict -> (columns, rows, extras)
    help: str = ""
    rules: tuple = ()     # cfg values dict -> None, run after _DOMAINS; raise ConfigError
    required: dict = field(default_factory=dict)   # key -> type (no default; must be provided)

    def schema(self):
        keys = dict(self.required)
        for k, v in self.defaults.items():
            keys[k] = type(v)
        return keys


_COMMON = {"seed": 0, "output": ""}

_REGISTER_DEFAULTS = {
    "delta": 0.0,              # electron detuning (Hz)
    "a_par": 621.75027e3,      # secular hyperfine, nucleus 1 (Hz)
    "a_perp": 140.1041e3,      # transverse hyperfine, nucleus 1 (Hz)
    "a_par2": 50.0e3,          # nucleus 2 (used when n_nuclei = 2)
    "a_perp2": 101.19309e3,
    "n_nuclei": 1,
    "t_c": 0.0,                # electron coherence time (s); 0 disables dephasing
    "beta_deph": 2.0,          # stretching exponent of the dephasing envelope
    "f_ie": 1.0,               # electron initialization fidelity
    "t_pi": T_PI_DEFAULT,      # electron pi time (s) of every nominal rotation
}


def _sweep_defaults(start, stop, points):
    return {"sweep_start": float(start), "sweep_stop": float(stop),
            "sweep_points": int(points), "sweep_scale": "linear"}


@dataclass(frozen=True)
class Interval:
    """The numbers from lo to hi, or up from lo when hi is None, with the ends written
    as in interval notation: "[)" is lo <= v < hi and "()" is lo < v < hi.

    The note says what a value at a bound means; the unit follows the bounds."""

    lo: float
    hi: float = None
    ends: str = "[)"
    note: str = ""
    unit: str = ""

    def __str__(self):
        if self.hi is None:
            text = "%s %g" % (">" if self.ends[0] == "(" else ">=", self.lo)
        else:
            text = "in %s%g, %g%s" % (self.ends[0], self.lo, self.hi, self.ends[1])
        return text + (" " + self.unit if self.unit else "")

    def help(self):
        return "%s; %s" % (self, self.note) if self.note else str(self)

    def check(self, key, value):
        above = value > self.lo if self.ends[0] == "(" else value >= self.lo
        below = self.hi is None or (value < self.hi if self.ends[1] == ")" else value <= self.hi)
        if not (above and below):
            note = " (%s)" % self.note if self.note else ""
            raise ConfigError("%s must %s %s%s"
                              % (key, "be" if self.hi is None else "lie", self, note))


@dataclass(frozen=True)
class Choices:
    """One value out of a fixed set, matched exactly."""

    options: tuple

    def help(self):
        return " | ".join(map(str, self.options))

    def check(self, key, value):
        if value not in self.options:
            *head, last = map(repr, self.options)
            raise ConfigError("ill-typed value for key '%s' (expected %s or %s)"
                              % (key, ", ".join(head), last))


# The domain of each key, looked up as (experiment, key) first, then as the key: one
# entry serves every experiment that shares the key, and None leaves a key to its rules.
_DOMAINS = {
    "larmor_n": Interval(0.0, ends="()"),
    "n_nuclei": Choices((1, 2)),
    "t_c": Interval(0.0, note="0 disables dephasing"),
    "f_ie": Interval(0.5, 1.0, "[]"),
    "t_pi": Interval(0.0, ends="()"),
    # sweep keys: an axis of durations, delays, drive amplitudes or counts
    "sweep_start": Interval(0.0),
    "sweep_stop": Interval(0.0),
    "sweep_points": Interval(2, 10 ** 5, "[]"),
    "sweep_scale": Choices(("linear", "log")),
    # the optical axis is a phase in mode 'phase', so a rule checks it by mode
    ("optical", "sweep_start"): None,
    ("optical", "sweep_stop"): None,
    "epsilon": Interval(0.0),
    "alpha": Interval(0.0, ends="()"),
    "btheta": Interval(0.0, 90.0, "[]", unit="degrees"),
    "b": Interval(0.0),
    ("estimate", "b"): Interval(0.0, note="0 derives it from larmor_n"),
    "wl": Interval(0.0, ends="()"),
    "dss": Interval(0.0, ends="()"),
    "dgs": Interval(0.0, ends="()"),
    "eta": Interval(0.0, ends="()"),
    "omega": Interval(0.0, note="0 is free evolution"),
    "target": Choices(("electron", "nuclear")),
    "kind": Choices(("CPMG", "XY")),
    ("dd", "n_pulses"): Interval(0),
    ("spinlock", "mode"): Choices(("tau", "amplitude")),
    "omega_sl": Interval(0.0),
    "tau_fixed": Interval(0.0),
    "f_in": Interval(0.5, 1.0, "(]"),
    "q": Interval(0.0, 1.0, "[]"),
    "n_random": Interval(1),
    # seeded randomness takes a non-negative integer entropy
    ("rb", "seed"): Interval(0),
    ("ssr", "seed"): Interval(0),
    "initial": Choices(("bright", "dark", "alternate")),
    "n_blocks": Interval(1),
    "t_block": Interval(0.0, ends="()"),
    "p_offres": Interval(0.0, 1.0, "[)"),
    "t_pol_n": Interval(0.0, ends="()"),
    "threshold": Interval(0),
    "n_shots": Interval(1, 10 ** 6, "[]"),
    ("optical", "mode"): Choices(("rabi", "phase", "decay")),
    "t1": Interval(0.0, ends="()"),
    "gamma_phi": Interval(0.0),
    "buffer": Interval(0.0),
    "p_e0": Interval(0.0, 1.0, "[]"),
    "x_col": Interval(0),
    "y_col": Interval(0),
}


def _domain(experiment, key):
    return _DOMAINS.get((experiment, key), _DOMAINS.get(key))


def _coerce(key, value, expected):
    """Coerce a JSON config value to the expected scalar type: float, int or str."""
    if isinstance(value, bool):
        raise ConfigError(f"ill-typed value for key '{key}' (expected {expected.__name__})")
    if expected is float:
        if isinstance(value, (int, float)):
            return float(value)
    elif expected is int:
        if isinstance(value, int):
            return int(value)
        if isinstance(value, float) and value.is_integer():   # False for inf and nan
            return int(value)
    elif expected is str:
        if isinstance(value, str):
            return value
    raise ConfigError(f"ill-typed value for key '{key}' (expected {expected.__name__})")


def resolve_config(spec: ExperimentSpec, config_path, flag_values: dict) -> RunConfig:
    """defaults < config file < flags; validate presence, types, finiteness, the domain
    of each key and then the rules of the experiment."""
    schema = spec.schema()
    values = dict(spec.defaults)

    if config_path:
        try:
            with open(config_path) as fh:
                document = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(document, dict):
            raise ConfigError("config file must hold a flat JSON object")
        for key, raw in document.items():
            if key not in schema:
                raise ConfigError(f"unknown config key '{key}' for experiment '{spec.name}'")
            values[key] = _coerce(key, raw, schema[key])

    for key, val in flag_values.items():
        if key in schema:
            values[key] = val

    for key in spec.required:
        if key not in values:
            raise ConfigError(f"missing required key '{key}' for experiment '{spec.name}'")
    for key, val in values.items():
        if isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(f"non-finite value {val!r} for key '{key}'")

    for key in schema:
        domain = _domain(spec.name, key)
        if domain is not None:
            domain.check(key, values[key])
    for rule in (_log_sweep, _dephasing_exponent, *spec.rules):
        rule(values)
    return RunConfig(spec.name, values)


def _sweep_axis(v):
    if v["sweep_scale"] == "log":
        return np.geomspace(v["sweep_start"], v["sweep_stop"], v["sweep_points"])
    return np.linspace(v["sweep_start"], v["sweep_stop"], v["sweep_points"])


def _int_axis(v):
    return np.unique(np.rint(_sweep_axis(v)).astype(int))


def _register_params(v):
    hyperfine = [(v["a_par"], v["a_perp"])]
    if v["n_nuclei"] == 2:
        hyperfine.append((v["a_par2"], v["a_perp2"]))
    return RegisterParams(detuning=v["delta"], hyperfine=tuple(hyperfine),
                          n_nuclei=v["n_nuclei"], larmor_n=v["larmor_n"])


def _dephasing(v):
    if v["t_c"] <= 0.0:
        return None
    return DephasingModel(t_c=v["t_c"], beta=v["beta_deph"])


# ---------------------------------------------------------------------------
# rules over more than one key, or over a mode: values dict -> None, or ConfigError
# naming the key; resolve_config runs the shared two, where their keys are present,
# and then an experiment's own rules, after the domain table


def _log_sweep(v):
    if v.get("sweep_scale") == "log" and (v["sweep_start"] <= 0 or v["sweep_stop"] <= 0):
        raise ConfigError("log sweep requires positive sweep_start and sweep_stop")


def _dephasing_exponent(v):
    if v.get("t_c", 0.0) > 0.0 and not 0.5 <= v["beta_deph"] <= 3.0:
        raise ConfigError("beta_deph must lie in [0.5, 3] when t_c > 0")


def _half_period_delay(v):
    """A CeNOTn gate, and nucrot at its default tau_rot <= 0, wait T_L/2 - t_pi derived
    from larmor_n, which must stay positive."""
    waits = v.get("gate", "").lower() == "cenotn" or v.get("tau_rot", 1.0) <= 0.0
    if waits and not 0.5 / v["larmor_n"] - v["t_pi"] > 0.0:
        raise ConfigError("t_pi must be < 1/(2 larmor_n) = %r s: the delay T_L/2 - t_pi "
                          "derived from it is not positive" % (0.5 / v["larmor_n"]))


def _gate(v):
    """The gate name matches without regard to case; the UI gate runs its own DD block,
    the others give a transfer matrix referenced to the initialization fidelity."""
    gate = v["gate"].lower()
    if gate not in ("ui", "cenotn", "cnnote", "identity"):
        raise ConfigError("ill-typed value for key 'gate' "
                          "(expected 'UI', 'CeNOTn', 'CnNOTe' or 'identity')")
    if gate == "ui":
        if v["n_pulses"] <= 0 or v["n_pulses"] % 2:
            raise ConfigError("n_pulses must be even and > 0 for gate 'UI'")
        if not v["tau"] > 0.0:
            raise ConfigError("tau must be > 0 for gate 'UI'")
    elif not v["f_ie"] > 0.5:
        raise ConfigError("f_ie must lie in (0.5, 1] for a referenced transfer matrix")


def _rb(v):
    if not v["f_ie"] > 0.5:
        raise ConfigError("f_ie must lie in (0.5, 1] for randomized benchmarking: "
                          "at 0.5 the signal is flat")
    if _int_axis(v).size < 2:
        raise ConfigError("sweep_points over sweep_start..sweep_stop give < 2 distinct "
                          "Clifford counts")


def _ssr_means(v):
    if not v["mean_bright"] > v["mean_dark"] or v["mean_dark"] < 0:
        raise ConfigError("need mean_bright > mean_dark >= 0")


def _optical(v):
    if v["mode"] != "phase":   # the rabi and decay axes are times; a phase may be negative
        for key in ("sweep_start", "sweep_stop"):
            _DOMAINS[key].check(key, v[key])
    if v["mode"] == "decay" and v["sweep_points"] < 4:
        raise ConfigError("sweep_points must be >= 4 for the lifetime fit of mode 'decay'")
    if (v["mode"] == "phase" and v["t_pulse"] <= 0.0   # t_pulse <= 0 derives it from them
            and v["rabi_per_volt"] * v["amplitude"] == 0.0):
        raise ConfigError("amplitude * rabi_per_volt must be nonzero to derive t_pulse")


# ---------------------------------------------------------------------------
# runners: values dict -> (columns, rows, extras)


def _sweep_table(sweep, **extras):
    """A sweep as (columns, rows, extras): axis, signal, then the aux series by name."""
    cols = [sweep.axis_label or "axis", "signal"]
    arrays = [np.asarray(sweep.axis, float), np.asarray(sweep.signal, float)]
    for key in sorted(sweep.aux or {}):
        cols.append(key)
        arrays.append(np.asarray(sweep.aux[key], float))
    return cols, list(zip(*arrays)), extras


def _run_structure(v):
    obs = electronic.observables_at(v["epsilon"], v["alpha"], v["btheta"], v["b"])
    cols = ["omega_l_e_hz", "delta_ss_hz", "delta_gs_hz", "cyclicity"]
    return cols, [obs.as_tuple()], {}


def _run_estimate(v):
    targets = (v["wl"], v["dss"], v["dgs"], v["eta"])
    b_field = v["b"] if v["b"] > 0 else None
    res = electronic.estimate_parameters(targets, b_field=b_field,
                                         larmor_n=v["larmor_n"])
    cols = ["epsilon_hz", "alpha", "btheta_deg", "cost",
            "omega_l_e_hz", "delta_ss_hz", "delta_gs_hz", "cyclicity"]
    row = (res.strain.epsilon, res.strain.alpha, res.theta, res.cost,
           *res.observables.as_tuple())
    return cols, [row], {"converged": res.converged}


def _run_rabi(v):
    return _sweep_table(sequences.run_rabi(_register_params(v), _dephasing(v), v["omega"],
                                           _sweep_axis(v), f_ie=v["f_ie"]))


def _run_ramsey(v):
    return _sweep_table(sequences.run_ramsey(
        _register_params(v), _dephasing(v), v["delta_ramsey"], _sweep_axis(v),
        target=v["target"], f_ie=v["f_ie"], t_pi=v["t_pi"]))


def _run_dd(v):
    return _sweep_table(sequences.run_dd(
        _register_params(v), _dephasing(v), v["kind"], v["n_pulses"], _sweep_axis(v),
        f_ie=v["f_ie"], t_pi=v["t_pi"]))


def _run_spinlock(v):
    kwargs = {"f_ie": v["f_ie"], "t_pi": v["t_pi"]}
    if v["mode"] == "tau":
        kwargs["tau_sl"] = _sweep_axis(v)
    else:
        kwargs["amplitudes"] = _sweep_axis(v)
        kwargs["tau_fixed"] = v["tau_fixed"]
    return _sweep_table(sequences.run_spin_lock(_register_params(v), _dephasing(v),
                                                v["omega_sl"], **kwargs))


def _run_nucrot(v):
    tau_rot = v["tau_rot"]
    if tau_rot <= 0.0:   # default: half a nuclear Larmor period minus the pi time
        tau_rot = 0.5 / v["larmor_n"] - v["t_pi"]
    sweep = sequences.run_nuclear_rotation(_register_params(v), _dephasing(v),
                                           tau_rot, _int_axis(v), f_ie=v["f_ie"],
                                           t_pi=v["t_pi"])
    return _sweep_table(sweep, tau_rot=tau_rot)


def _run_gates(v):
    p = _register_params(v)
    dephasing = _dephasing(v)
    gate = v["gate"].lower()
    if gate == "ui":
        g = GateSpec(kind="UI", tau=v["tau"], n_pulses=v["n_pulses"], t_pi=v["t_pi"])
        g = replace(g, wait=v["wait"] if v["wait"] >= 0
                    else sequences.calibrate_transfer_wait(p, g))
        state = sequences.nuclear_init_gate(p, dephasing, g, v["f_ie"])
        rows = [(i, nuclear_sigma_z(state.rho, i)) for i in range(p.n_nuclei)]
        extras = {"wait": g.wait,
                  "probe_signal": sequences.ui_probe_signal(p, dephasing, g, v["f_ie"])}
        return ["nucleus", "sigma_z"], rows, extras
    if gate == "cenotn":
        g = sequences.calibrate_cenotn(p, t_pi=v["t_pi"])
        extras = {"tau": g.tau, "n_pulses": g.n_pulses,
                  "uncond_tau": g.uncond_tau, "uncond_n": g.uncond_n}
    elif gate == "cnnote":
        g = sequences.calibrate_cnnote(p, t_pi=v["t_pi"])
        extras = {"rabi": g.rabi}
    else:
        g = GateSpec(kind="identity")
        extras = {}
    tm = sequences.transfer_matrix(p, dephasing, g, v["f_ie"], v["f_in"])
    cols = ["output_state"] + ["in_" + lab for lab in tm.labels]
    rows = [(tm.labels[i], *tm.matrix[i]) for i in range(4)]
    return cols, rows, extras


def _run_rb(v):
    res = sequences.run_randomized_benchmarking(
        _register_params(v), _dephasing(v), _int_axis(v),
        n_random=v["n_random"], gate_fidelity_noise=v["q"], seed=v["seed"],
        f_ie=v["f_ie"], t_pi=v["t_pi"])
    return _sweep_table(res.sweep, gate_fidelity=res.gate_fidelity,
                        decay_base=res.fit["f_g"], decay_base_sigma=res.fit.error("f_g"),
                        fit_converged=res.fit.converged)


def _run_ssr(v):
    cfg = readout.SsrConfig(n_blocks=v["n_blocks"], t_block=v["t_block"],
                            mean_bright=v["mean_bright"], mean_dark=v["mean_dark"],
                            p_offres=v["p_offres"], t_pol_n=v["t_pol_n"],
                            threshold=v["threshold"], seed=v["seed"])
    record = readout.simulate_ssr(cfg, initial_nuclear=v["initial"],
                                  n_shots=v["n_shots"])
    res = readout.classify_threshold(record, cfg.threshold)
    bright0 = record.initial_state == "bright"
    loss = float(np.mean(record.final_state[bright0] == "dark")) if bright0.any() else 0.0
    cols = ["shot", "counts", "initial_state", "final_state", "label"]
    rows = list(zip(range(len(record)), record.counts.tolist(), record.initial_state.tolist(),
                    record.final_state.tolist(), res.labels.tolist()))
    rates = {"fidelity_bright": res.fidelity_bright,
             "fidelity_dark": res.fidelity_dark,
             "posterior_bright": res.posterior_bright,
             "posterior_dark": res.posterior_dark}
    # a rate with no shot behind it (no shot prepared or labelled in that class) is left out
    extras = {key: rate for key, rate in rates.items() if not math.isnan(rate)}
    extras.update(equal_threshold=res.equal_threshold, bright_survival_loss=loss)
    return cols, rows, extras


def _run_optical(v):
    p = optics.OpticalParams(rabi_per_volt=v["rabi_per_volt"], detuning=v["detuning"],
                             t1=v["t1"], gamma_phi=v["gamma_phi"])
    mode = v["mode"]
    if mode == "rabi":
        return _sweep_table(optics.run_optical_rabi(p, v["amplitude"], _sweep_axis(v)))
    if mode == "phase":
        t_pulse = v["t_pulse"]
        if t_pulse <= 0.0:   # default: a pi/2 area at the configured amplitude
            t_pulse = 0.25 / (p.rabi_per_volt * v["amplitude"])
        train = optics.OpticalPulseTrain(
            segments=((v["amplitude"], 0.0, t_pulse), (v["amplitude"], 0.0, t_pulse)),
            buffer=v["buffer"])
        return _sweep_table(optics.run_phase_control(p, train, _sweep_axis(v)),
                            t_pulse=t_pulse)
    times = _sweep_axis(v)
    trace = optics.fluorescence_decay(p, times, p_e0=v["p_e0"])
    t1_fit, amp_fit = optics.extract_lifetime((times, trace))
    rows = list(zip(times, trace))
    return ["time (s)", "excited_population"], rows, {
        "t1_fit": t1_fit, "amplitude_fit": amp_fit}


def _read_xy(path, x_col, y_col):
    """Read two numeric columns from a CSV, skipping comments and one header."""
    xs, ys = [], []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                try:
                    x, y = float(parts[x_col]), float(parts[y_col])
                except IndexError:
                    raise ExperimentError(
                        f"data file lacks column {max(x_col, y_col)}: {path}")
                except ValueError:
                    if xs:
                        raise ExperimentError(f"non-numeric data row in {path}")
                    continue   # column-name header line
                xs.append(x)
                ys.append(y)
    except OSError as exc:
        raise ExperimentError(f"cannot read data file: {exc}")
    if len(xs) < 2:
        raise ExperimentError(f"fewer than two data rows in {path}")
    return np.asarray(xs), np.asarray(ys)


def _run_fit(v):
    model = fitting.get_model(v["model"])
    x, y = _read_xy(v["data"], v["x_col"], v["y_col"])
    res = fitting.least_squares(model, x, y)
    cols = ["parameter", "value", "sigma"]
    rows = [(name, res.params[i], res.sigma[i])
            for i, name in enumerate(res.param_names)]
    extras = {"residual_norm": res.residual_norm, "converged": res.converged,
              "n_points": len(x)}
    return cols, rows, extras


# ---------------------------------------------------------------------------
# experiment table

EXPERIMENTS = {}


def _register(spec: ExperimentSpec):
    """Add the keys every spec shares: _COMMON, and for the run group the register model."""
    if spec.group == "run":
        spec = replace(spec, required={"larmor_n": float, **spec.required},
                       defaults={**_REGISTER_DEFAULTS, **spec.defaults})
    EXPERIMENTS[spec.name] = replace(spec, defaults={**_COMMON, **spec.defaults})


_register(ExperimentSpec(
    "structure", "",
    required={"epsilon": float, "alpha": float, "btheta": float, "b": float},
    defaults={},
    runner=_run_structure,
    help="derived observables of the 8-level electronic model at one working point"))

_register(ExperimentSpec(
    "estimate", "",
    defaults={"wl": 9.431e9, "dss": 254.654e6, "dgs": 1110.755e9,
              "eta": 816.285, "b": 0.0, "larmor_n": 3.5857929e6},
    runner=_run_estimate,
    help="fit (epsilon, alpha, btheta) to measured observables"))

_register(ExperimentSpec(
    "rabi", "run",
    defaults={"omega": 5.0e6, **_sweep_defaults(0.0, 1.0e-6, 201)},
    runner=_run_rabi,
    help="electron Rabi oscillation vs pulse duration"))

_register(ExperimentSpec(
    "ramsey", "run",
    defaults={"delta_ramsey": 1.0e6, "target": "electron",
              **_sweep_defaults(0.0, 5.0e-6, 201)},
    runner=_run_ramsey,
    help="electron or nuclear Ramsey fringes vs free-evolution time"))

_register(ExperimentSpec(
    "dd", "run",
    defaults={"kind": "XY", "n_pulses": 8, **_sweep_defaults(1.0e-7, 1.0e-5, 101)},
    runner=_run_dd,
    help="dynamical-decoupling signal vs inter-pulse spacing"))

_register(ExperimentSpec(
    "spinlock", "run",
    defaults={"omega_sl": 3.5857929e6, "mode": "tau", "tau_fixed": 2.0e-5,
              **_sweep_defaults(0.0, 5.0e-5, 101)},
    runner=_run_spinlock,
    help="spin-locking sweep over lock duration or drive amplitude"))

_register(ExperimentSpec(
    "nucrot", "run",
    defaults={"tau_rot": 0.0, **_sweep_defaults(0.0, 200.0, 201)},
    runner=_run_nucrot,
    help="conditional nuclear rotation vs pulse number",
    rules=(_half_period_delay,)))

_register(ExperimentSpec(
    "gates", "run",
    defaults={"gate": "UI", "tau": 81.5e-9, "n_pulses": 42, "wait": -1.0, "f_in": 1.0},
    runner=_run_gates,
    help="nuclear initialization or two-qubit gate characterization",
    rules=(_gate, _half_period_delay)))

_register(ExperimentSpec(
    "rb", "run",
    defaults={"a_par": 0.0, "a_perp": 0.0, "n_random": 20, "q": 0.0,
              **_sweep_defaults(1.0, 100.0, 8)},
    runner=_run_rb,
    help="randomized benchmarking of the electron Clifford set",
    rules=(_rb,)))

_register(ExperimentSpec(
    "ssr", "",
    defaults={"n_blocks": 280, "t_block": 3.0e-3 / 280,
              "mean_bright": 32.0, "mean_dark": 10.0, "p_offres": 0.07,
              "t_pol_n": 41.6178057e-3, "threshold": 21, "n_shots": 1000,
              "initial": "alternate"},
    runner=_run_ssr,
    help="Monte-Carlo single-shot readout windows and threshold classification",
    rules=(_ssr_means,)))

_register(ExperimentSpec(
    "optical", "",
    defaults={"mode": "rabi", "amplitude": 0.5, "detuning": 0.0,
              "t1": 1.6535e-9, "gamma_phi": 0.0,
              "rabi_per_volt": optics.RABI_MAX, "t_pulse": 0.0,
              "buffer": 0.8e-9, "p_e0": 1.0,
              **_sweep_defaults(0.0, 5.0e-9, 201)},
    runner=_run_optical,
    help="driven-dissipative optical dynamics: Rabi, phase control or decay",
    rules=(_optical,)))

_register(ExperimentSpec(
    "fit", "",
    required={"model": str, "data": str},
    defaults={"x_col": 0, "y_col": 1},
    runner=_run_fit,
    help="least-squares fit of a registry model to a two-column CSV"))


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# _fmt of every value of one exact type, as one C-level call per cell
_TRUE_FALSE = {True: "true", False: "false"}.__getitem__
_COLUMN_FMT = {float: float.__repr__, np.float64: float.__repr__, int: int.__repr__,
               str: str, bool: _TRUE_FALSE, np.bool_: _TRUE_FALSE}


def _fmt_column(values):
    """_fmt of each value, dispatched once when every value has the same type."""
    kinds = set(map(type, values))
    fmt = _COLUMN_FMT.get(kinds.pop()) if len(kinds) == 1 else None
    return list(map(fmt or _fmt, values))


def _output_path(cfg: RunConfig):
    name = cfg.output or (cfg.experiment + ".csv")
    if not os.path.isabs(name):
        name = os.path.join(os.environ.get("SIVREG_OUTPUT_DIR", "."), name)
    return name


def write_csv(path, cfg: RunConfig, columns, rows, extras):
    lines = ["# sivreg %s" % cfg.experiment,
             "# units: %s" % UNITS_LINE]
    for key in sorted(cfg.values):
        lines.append("# config %s=%s" % (key, _fmt(cfg.values[key])))
    for key in sorted(extras):
        lines.append("# result %s=%s" % (key, _fmt(extras[key])))
    lines.append(",".join(columns))
    # rows have one cell per column: format column by column, join row by row
    lines.extend(map(",".join, zip(*map(_fmt_column, zip(*rows)))))
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def dispatch(cfg: RunConfig):
    """Run the configured experiment and write its CSV artifact."""
    spec = EXPERIMENTS[cfg.experiment]
    try:
        columns, rows, extras = spec.runner(cfg.values)
    except ExperimentError:   # raised here with its message already worded
        raise
    except (ValueError, KeyError, RuntimeError, ArithmeticError) as exc:
        raise ExperimentError("%s: %s" % (type(exc).__name__, exc))
    path = _output_path(cfg)
    write_csv(path, cfg, columns, rows, extras)
    for key in sorted(extras):
        print("%s = %s" % (key, _fmt(extras[key])))
    print("wrote %s" % path)
    return path


# ---------------------------------------------------------------------------
# argument parsing

_HELP = {
    "epsilon": "orbital strain splitting parameter (Hz)",
    "alpha": "excited/ground strain susceptibility ratio",
    "btheta": "magnetic field polar angle (deg)",
    "b": "magnetic field magnitude (T)",
    "larmor_n": "nuclear Larmor frequency (Hz)",
    "t_pi": "electron pi time (s) of every pi/2, DD pi and Clifford pulse",
    "seed": "64-bit seed for stochastic experiments",
    "output": "output CSV path (relative paths land in SIVREG_OUTPUT_DIR)",
    "sweep_start": "sweep axis start",
    "sweep_stop": "sweep axis stop",
    "sweep_points": "number of sweep points",
    "sweep_scale": "sweep spacing",
    "tau_rot": "inter-pulse gap (s) of the DD block; <= 0 derives T_L/2 - t_pi "
               "from larmor_n",
    "t_pulse": "duration (s) of each phase-mode pulse; <= 0 derives a pi/2 area, "
               "0.25 / (rabi_per_volt * amplitude)",
    "wait": "transfer wait (s) of the UI gate; < 0 calibrates it by a wait scan",
    "beta_deph": "stretching exponent of the dephasing envelope; in [0.5, 3] when t_c > 0",
    "gate": "UI, CeNOTn, CnNOTe or identity, in any case; CeNOTn, CnNOTe and identity "
            "need f_ie > 0.5",
    "n_pulses": "number of DD pi pulses; even and > 0 for gate 'UI'",
    "tau": "inter-pulse spacing (s) of the UI gate's DD block; > 0 for gate 'UI'",
    "mean_bright": "mean window count of a bright nucleus; > mean_dark",
    "mean_dark": "mean window count of a dark nucleus; >= 0 and < mean_bright",
}


def _add_flags(parser, spec: ExperimentSpec):
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="flat JSON config file (flags override it)")
    for key, typ in sorted(spec.schema().items()):
        domain = _domain(spec.name, key)
        note = [_HELP.get(key, ""), "(%s)" % domain.help() if domain is not None else "",
                "(required)" if key in spec.required
                else "(default: %s)" % _fmt(spec.defaults[key])]
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=typ,
                            default=argparse.SUPPRESS, help=" ".join(filter(None, note)))
    parser.set_defaults(experiment=spec.name)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sivreg",
        description="simulation and estimation toolkit for a strained "
                    "electron-nuclear spin register")
    top = parser.add_subparsers(dest="command", required=True)
    run_parser = None
    for name, spec in EXPERIMENTS.items():
        if spec.group == "run":
            if run_parser is None:
                run_parser = top.add_parser("run", help="pulse-sequence experiments")
                run_sub = run_parser.add_subparsers(dest="run_experiment", required=True)
            sub = run_sub.add_parser(name, help=spec.help)
        else:
            sub = top.add_parser(name, help=spec.help)
        _add_flags(sub, spec)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flag_values = {k: v for k, v in vars(args).items()
                   if k not in ("command", "run_experiment", "experiment", "config")}
    spec = EXPERIMENTS[args.experiment]
    try:
        cfg = resolve_config(spec, args.config, flag_values)
        dispatch(cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except ExperimentError as exc:
        print("experiment error: %s" % exc, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
