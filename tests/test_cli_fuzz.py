"""Property test of the command line over drawn configurations.

Every invocation ends in one of the documented exit codes (0 success, 2
configuration error, 3 experiment error), never in an uncaught exception.
No experiment error comes from a float overflow or from a fit handed a sweep
too short for it.  A value drawn outside the domain of f_ie, f_in, q,
p_offres, n_blocks, omega, n_random, mean_dark, t1, gamma_phi, buffer, p_e0,
tau_fixed, the dd kind and n_pulses or the Ramsey target, and a negative
sweep of durations, delays, amplitudes or counts, is a configuration error.
A successful one writes a CSV whose numeric cells are all finite, apart from
the documented non-finite outputs: a fit sigma is nan when the fit covariance
is singular, and the cyclicity is inf when the spin-flip channel is dark.
Its signal and excited-population cells are probabilities: they lie in [0, 1]
to within 1e-9.
"""

import contextlib
import io
import math
import os
import tempfile

from hypothesis import event, example, given, settings, strategies as st

from sivreg import cli


def _flags(**values):
    return ["--%s=%s" % (key.replace("_", "-"), value) for key, value in values.items()]


def _mostly(valid, *bad):
    """Values from the valid range, with about one draw in ten from the bad or extreme ones."""
    return st.sampled_from(range(10)).flatmap(
        lambda i: st.sampled_from(bad) if i == 0 else valid)


def _sweep(stop_max):
    valid = st.fixed_dictionaries({
        "sweep_start": st.floats(0.0, 0.5 * stop_max),
        "sweep_stop": st.floats(0.0, stop_max),
        "sweep_points": st.integers(1, 9),
    })
    return _mostly(valid, {"sweep_start": -0.1 * stop_max, "sweep_stop": -0.05 * stop_max,
                           "sweep_points": 3},
                   {"sweep_start": -0.1 * stop_max, "sweep_stop": 0.5 * stop_max,
                    "sweep_points": 5})


_REGISTER = st.fixed_dictionaries({
    "larmor_n": _mostly(st.floats(1e6, 5e6), 0.0, -1e6),
    "delta": st.floats(-2e6, 2e6),
    "n_nuclei": st.integers(1, 2),
    "t_c": _mostly(st.floats(0.0, 2e-5), 1e-300),
    "beta_deph": _mostly(st.floats(0.5, 3.0), 0.3, 3.5),
    "f_ie": _mostly(st.floats(0.5, 1.0), 0.0, 1.2),
    "t_pi": _mostly(st.floats(2e-8, 1.2e-7), 0.0, -1e-8),
})


def _run(name, extra, sweep):
    return st.tuples(st.just(["run", name]), _REGISTER, st.fixed_dictionaries(extra), sweep)


_CONFIGS = st.one_of(
    st.tuples(st.just(["structure"]), st.fixed_dictionaries({
        "epsilon": _mostly(st.floats(1e9, 1e12), -1e9),
        "alpha": _mostly(st.floats(0.1, 2.0), 0.0),
        "btheta": _mostly(st.floats(0.0, 90.0), 120.0),
        "b": st.floats(0.0, 1.0)})),
    _run("rabi", {"omega": _mostly(st.floats(0.0, 2e7), -1.0, -5e6)}, _sweep(2e-6)),
    _run("ramsey", {"delta_ramsey": st.floats(-2e6, 2e6),
                    "target": _mostly(st.sampled_from(["electron", "nuclear"]), "foo")},
         _sweep(5e-6)),
    _run("dd", {"kind": _mostly(st.sampled_from(["CPMG", "XY"]), "foo"),
                "n_pulses": _mostly(st.integers(0, 16), -1)},
         _sweep(1e-5)),
    _run("spinlock", {"omega_sl": st.floats(0.0, 1e7),
                      "mode": st.sampled_from(["tau", "amplitude"]),
                      "tau_fixed": _mostly(st.floats(0.0, 2e-5), -1e-6)},
         _sweep(5e-5)),
    _run("nucrot", {"tau_rot": st.floats(0.0, 3e-7)}, _sweep(200.0)),
    st.tuples(st.just(["run", "gates"]), _REGISTER, st.fixed_dictionaries({
        "gate": _mostly(st.sampled_from(["UI", "CeNOTn", "CnNOTe", "identity"]), "CNOT"),
        "tau": _mostly(st.floats(2e-8, 2e-7), 0.0, -1e-8),
        "n_pulses": _mostly(st.integers(1, 25).map(lambda k: 2 * k), 0, 1, 7),
        "wait": st.one_of(st.just(-1.0), st.floats(0.0, 1e-6)),
        "f_in": _mostly(st.floats(0.5, 1.0), 0.3)})),
    _run("rb", {"q": _mostly(st.floats(0.0, 0.2), 1.0, 1.5),
                "n_random": _mostly(st.integers(1, 3), 0)},
         _sweep(30.0)),
    st.tuples(st.just(["ssr"]), st.fixed_dictionaries({
        "n_shots": st.integers(1, 200), "n_blocks": _mostly(st.integers(1, 300), 0, -5),
        "mean_bright": st.floats(20.0, 50.0), "mean_dark": _mostly(st.floats(0.0, 15.0), 60.0),
        "p_offres": _mostly(st.floats(0.0, 0.5), 1.0, 1.5, -0.1), "threshold": st.integers(0, 40),
        "initial": st.sampled_from(["alternate", "bright", "dark"]),
        "seed": st.integers(0, 2 ** 32)})),
    st.tuples(st.just(["optical"]), st.fixed_dictionaries({
        "mode": st.sampled_from(["rabi", "phase", "decay"]),
        "amplitude": st.floats(0.0, 2.0), "detuning": st.floats(-5e8, 5e8),
        "t1": _mostly(st.floats(5e-10, 1e-8), 0.0, -1e-9),
        "gamma_phi": _mostly(st.floats(0.0, 1e9), -1.0),
        "t_pulse": st.floats(0.0, 1e-9), "buffer": _mostly(st.floats(0.0, 1e-9), -1e-9),
        "p_e0": _mostly(st.floats(0.0, 1.0), 1.5, 5.0, -0.5)}), _sweep(5e-9)),
)


def _argv(config):
    command, *groups = config
    argv = list(command)
    for group in groups:
        argv += _flags(**group)
    return argv


# drawn values outside these domains are config errors (exit 2), never a model failure
_DOMAINS = {
    "f_ie": lambda v: 0.5 <= v <= 1.0,
    "f_in": lambda v: 0.5 < v <= 1.0,
    "q": lambda v: 0.0 <= v <= 1.0,
    "p_offres": lambda v: 0.0 <= v < 1.0,
    "n_blocks": lambda v: v >= 1,
    "omega": lambda v: v >= 0.0,
    "n_random": lambda v: v >= 1,
    "t1": lambda v: v > 0.0,
    "gamma_phi": lambda v: v >= 0.0,
    "buffer": lambda v: v >= 0.0,
    "p_e0": lambda v: 0.0 <= v <= 1.0,
    "tau_fixed": lambda v: v >= 0.0,
    "kind": lambda v: v in ("CPMG", "XY"),
    "target": lambda v: v in ("electron", "nuclear"),
}

# experiments whose sweep axis holds durations, delays, drive amplitudes or counts;
# the axis of optical mode 'phase' is a phase and may be negative
_NONNEGATIVE_SWEEPS = ("rabi", "ramsey", "dd", "spinlock", "nucrot", "rb", "optical")

# CSV cells that hold a population or a probability
_PROBABILITIES = ("signal", "excited_population")


def _out_of_domain(config):
    experiment = config[0][-1]
    values = {key: value for group in config[1:] for key, value in group.items()}
    bad = [key for key, inside in _DOMAINS.items() if key in values and not inside(values[key])]
    if values.get("mean_dark", 0.0) >= values.get("mean_bright", math.inf):
        bad.append("mean_dark")
    if experiment == "dd" and values.get("n_pulses", 0) < 0:
        bad.append("n_pulses")
    if experiment in _NONNEGATIVE_SWEEPS and values.get("mode") != "phase":
        bad += [key for key in ("sweep_start", "sweep_stop") if values.get(key, 0.0) < 0.0]
    return bad


def _documented(name, value):
    return ((name.endswith("sigma") and math.isnan(value))
            or (name == "cyclicity" and value == math.inf))


def _numeric_cells(path):
    """(column or result name, value, line) of every numeric cell of a CSV artifact."""
    columns = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# result "):
                cells = [line[len("# result "):].split("=", 1)]
            elif line.startswith("#"):
                continue
            elif columns is None:
                columns = line.split(",")
                continue
            else:
                cells = zip(columns, line.split(","))
            for name, cell in cells:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                yield name, value, line


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config=_CONFIGS)
@example(config=(["optical"], {"mode": "decay"}, {"sweep_points": 3}))
@example(config=(["run", "rb"], {"larmor_n": 3.5857929e6},
                 {"sweep_start": 1.0, "sweep_stop": 1.4}))
@example(config=(["run", "dd"], {"larmor_n": 3.5857929e6, "t_c": 1e-300},
                 {"sweep_points": 5}))
@example(config=(["optical"], {"mode": "rabi", "amplitude": 0.02103022451, "gamma_phi": 0.0},
                 {"sweep_points": 9}))
@example(config=(["optical"], {"mode": "phase", "gamma_phi": 1e9, "t1": 5e-10},
                 {"sweep_points": 9}))
@example(config=(["ssr"], {"p_offres": 1.5, "n_blocks": 0}))
@example(config=(["run", "gates"], {"larmor_n": 3.5857929e6, "f_ie": 1.2},
                 {"gate": "UI", "f_in": 1.5}))
@example(config=(["optical"], {"mode": "decay"}, {"sweep_start": -1e-9}))
def test_cli_exits_cleanly_and_writes_only_finite_values(config):
    argv = _argv(config)
    with tempfile.TemporaryDirectory() as out_dir:
        path = os.path.join(out_dir, "out.csv")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv + ["--output", path])
        assert code in (0, 2, 3), (argv, err.getvalue())
        # a sweep too short for its fit and a float overflow are caught before they reach
        # the physics: exit 2, or a result
        assert not any(fault in err.getvalue() for fault in (
            "OverflowError", "n_free_params", ">= 4 points")), (argv, err.getvalue())
        event("%s exit %d" % (" ".join(argv[:2]) if argv[0] == "run" else argv[0], code))
        if _out_of_domain(config):
            assert code == 2, (argv, _out_of_domain(config), err.getvalue())
        if code == 0:
            cells = list(_numeric_cells(path))
            assert [line for name, value, line in cells
                    if not (math.isfinite(value) or _documented(name, value))] == [], argv
            assert [line for name, value, line in cells if name in _PROBABILITIES
                    and not -1e-9 <= value <= 1.0 + 1e-9] == [], argv
        else:
            assert not os.path.exists(path), argv
