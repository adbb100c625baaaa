"""Property test of the command line over drawn configurations.

Every invocation ends in one of the documented exit codes (0 success, 2
configuration error, 3 experiment error), never in an uncaught exception,
and a successful one writes a CSV whose numeric cells are all finite, apart
from the documented non-finite outputs: a fit sigma is nan when the fit
covariance is singular, and the cyclicity is inf when the spin-flip channel
is dark.
"""

import contextlib
import io
import math
import os
import tempfile

from hypothesis import event, given, settings, strategies as st

from sivreg import cli


def _flags(**values):
    return ["--%s=%s" % (key.replace("_", "-"), value) for key, value in values.items()]


def _mostly(valid, *bad):
    """Values from the valid range, with about one draw in ten from the bad ones."""
    return st.sampled_from(range(10)).flatmap(
        lambda i: st.sampled_from(bad) if i == 0 else valid)


def _sweep(stop_max):
    valid = st.fixed_dictionaries({
        "sweep_start": st.floats(0.0, 0.5 * stop_max),
        "sweep_stop": st.floats(0.0, stop_max),
        "sweep_points": st.integers(2, 9),
    })
    return _mostly(valid, {"sweep_start": -0.1 * stop_max, "sweep_stop": -0.05 * stop_max,
                           "sweep_points": 3},
                   {"sweep_start": -0.1 * stop_max, "sweep_stop": 0.5 * stop_max,
                    "sweep_points": 5})


_REGISTER = st.fixed_dictionaries({
    "larmor_n": _mostly(st.floats(1e6, 5e6), 0.0, -1e6),
    "delta": st.floats(-2e6, 2e6),
    "n_nuclei": st.integers(1, 2),
    "t_c": st.floats(0.0, 2e-5),
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
    _run("rabi", {"omega": st.floats(0.0, 2e7)}, _sweep(2e-6)),
    _run("ramsey", {"delta_ramsey": st.floats(-2e6, 2e6),
                    "target": st.sampled_from(["electron", "nuclear"])},
         _sweep(5e-6)),
    _run("dd", {"kind": st.sampled_from(["CPMG", "XY"]), "n_pulses": st.integers(0, 16)},
         _sweep(1e-5)),
    _run("spinlock", {"omega_sl": st.floats(0.0, 1e7),
                      "mode": st.sampled_from(["tau", "amplitude"]),
                      "tau_fixed": st.floats(0.0, 2e-5)},
         _sweep(5e-5)),
    _run("nucrot", {"tau_rot": st.floats(0.0, 3e-7)}, _sweep(200.0)),
    _run("rb", {"q": _mostly(st.floats(0.0, 0.2), 1.0, 1.5), "n_random": st.integers(1, 3)},
         _sweep(30.0)),
    st.tuples(st.just(["ssr"]), st.fixed_dictionaries({
        "n_shots": st.integers(1, 200), "n_blocks": st.integers(1, 300),
        "mean_bright": st.floats(20.0, 50.0), "mean_dark": _mostly(st.floats(0.0, 15.0), 60.0),
        "p_offres": st.floats(0.0, 0.5), "threshold": st.integers(0, 40),
        "initial": st.sampled_from(["alternate", "bright", "dark"]),
        "seed": st.integers(0, 2 ** 32)})),
    st.tuples(st.just(["optical"]), st.fixed_dictionaries({
        "mode": st.sampled_from(["rabi", "phase", "decay"]),
        "amplitude": st.floats(0.0, 2.0), "detuning": st.floats(-5e8, 5e8),
        "t1": st.floats(5e-10, 1e-8), "gamma_phi": st.floats(0.0, 1e9),
        "t_pulse": st.floats(0.0, 1e-9), "buffer": st.floats(0.0, 1e-9),
        "p_e0": st.floats(0.0, 1.0)}), _sweep(5e-9)),
)


def _argv(config):
    command, *groups = config
    argv = list(command)
    for group in groups:
        argv += _flags(**group)
    return argv


def _documented(name, value):
    return ((name.endswith("sigma") and math.isnan(value))
            or (name == "cyclicity" and value == math.inf))


def _undocumented_non_finite_cells(path):
    bad, columns = [], None
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
                if not (math.isfinite(value) or _documented(name, value)):
                    bad.append(line)
    return bad


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config=_CONFIGS)
def test_cli_exits_cleanly_and_writes_only_finite_values(config):
    argv = _argv(config)
    with tempfile.TemporaryDirectory() as out_dir:
        path = os.path.join(out_dir, "out.csv")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv + ["--output", path])
        assert code in (0, 2, 3), (argv, err.getvalue())
        event("%s exit %d" % (" ".join(argv[:2]) if argv[0] == "run" else argv[0], code))
        if code == 0:
            assert _undocumented_non_finite_cells(path) == [], argv
        else:
            assert not os.path.exists(path), argv
