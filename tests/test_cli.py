"""End-to-end checks of the command line front end and its CSV artifacts."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sivreg import cli

LARMOR = "3.5857929e6"


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SIVREG_OUTPUT_DIR", str(tmp_path))
    return tmp_path


def parse_csv(path):
    """Split a CLI artifact into (config, result, columns, rows of strings)."""
    config, result, columns, rows = {}, {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# config "):
            key, value = line[len("# config "):].split("=", 1)
            config[key] = value
        elif line.startswith("# result "):
            key, value = line[len("# result "):].split("=", 1)
            result[key] = value
        elif line.startswith("#"):
            continue
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return config, result, columns, rows


STRUCTURE_ARGS = ["structure", "--epsilon", "392e9", "--alpha", "0.68",
                  "--btheta", "28", "--b", "0.335"]


def test_structure_at_published_working_point(out_dir, capsys):
    assert cli.main(STRUCTURE_ARGS) == 0
    path = out_dir / "structure.csv"
    assert "wrote %s" % path in capsys.readouterr().out
    config, _, columns, rows = parse_csv(path)
    assert columns == ["omega_l_e_hz", "delta_ss_hz", "delta_gs_hz", "cyclicity"]
    assert len(rows) == 1
    wl, dss, dgs, eta = map(float, rows[0])
    assert wl == pytest.approx(9.431e9, rel=0.01)
    assert dss == pytest.approx(254.654e6, rel=0.01)
    assert dgs == pytest.approx(1110.755e9, rel=0.01)
    assert eta == pytest.approx(816.285, rel=0.01)
    assert config["epsilon"] == "392000000000.0"


def test_header_block_and_float_formatting(out_dir):
    cli.main(STRUCTURE_ARGS)
    lines = (out_dir / "structure.csv").read_text().splitlines()
    assert lines[0] == "# sivreg structure"
    assert lines[1].startswith("# units: ")
    config_keys = [l.split()[2].split("=")[0] for l in lines
                   if l.startswith("# config ")]
    assert config_keys == sorted(config_keys)
    # floats are emitted with repr, so every cell survives a parse round trip
    _, _, _, rows = parse_csv(out_dir / "structure.csv")
    for cell in rows[0]:
        assert repr(float(cell)) == cell


def test_csv_cells_are_formatted_as_each_value_alone(tmp_path):
    """Column-wise formatting writes each cell as _fmt writes that value alone,
    in uniform columns of every cell type and in mixed ones."""
    columns = [
        [0.1, -2.5e-300, math.nan, math.inf, 1e16],
        [np.float64(0.1), np.float64(-0.0), np.float64(3.0), np.float64(1e-7), np.float64(2)],
        [np.float32(0.1), np.float32(1.5), np.float32(-2), np.float32(0), np.float32(7)],
        [0, -3, 2 ** 70, 12, 1],
        [np.int64(4), np.int64(-1), np.int64(0), np.int64(9), np.int64(2 ** 40)],
        [True, False, False, True, True],
        [np.True_, np.False_, np.True_, np.True_, np.False_],
        ["bright", "dark", "", "a,b", "x"],
        [np.str_("down_Down"), np.str_("up"), np.str_(""), np.str_("u"), np.str_("d")],
        [1, 1.0, True, np.float64(0.5), "label"],
        [np.bool_(True), True, np.int64(3), 3, None],
    ]
    rows = list(zip(*columns))
    path = tmp_path / "cells.csv"
    cli.write_csv(str(path), cli.RunConfig("cells", {}), [str(i) for i in range(len(columns))],
                  rows, {})
    body = path.read_text().splitlines()[3:]
    assert body == [",".join(cli._fmt(v) for v in row) for row in rows]
    assert body[0].split(",")[:2] == ["0.1", "0.1"] and body[0].split(",")[5:7] == ["true"] * 2


@pytest.mark.parametrize("argv", [
    ["ssr", "--n-shots", "60", "--seed", "5"],
    ["run", "ramsey", "--larmor-n", LARMOR, "--target", "nuclear", "--n-nuclei", "2",
     "--t-c", "4e-6"],
    ["run", "nucrot", "--larmor-n", LARMOR, "--sweep-points", "21"],
    ["run", "gates", "--larmor-n", LARMOR, "--gate", "cenotn"],
    ["run", "gates", "--larmor-n", LARMOR],
    ["run", "gates", "--larmor-n", LARMOR, "--n-nuclei", "2", "--t-c", "4e-6"],
], ids=["ssr", "ramsey_nuclear", "nucrot", "gates_cenotn", "gates_ui", "gates_ui_2_nuclei"])
def test_same_invocation_twice_is_byte_identical(out_dir, argv):
    name = argv[1] if argv[0] == "run" else argv[0]
    assert cli.main(argv) == 0
    first = (out_dir / (name + ".csv")).read_bytes()
    assert cli.main(argv) == 0
    assert (out_dir / (name + ".csv")).read_bytes() == first


def test_embedded_config_reruns_to_identical_results(out_dir):
    cli.main(["ssr", "--n-shots", "40", "--seed", "11", "--output", "a.csv"])
    config, _, _, _ = parse_csv(out_dir / "a.csv")
    document = {}
    for key, text in config.items():
        if key == "output":
            continue
        for convert in (int, float):
            try:
                document[key] = convert(text)
                break
            except ValueError:
                pass
        else:
            document[key] = text
    config_path = out_dir / "replay.json"
    config_path.write_text(json.dumps(document))
    assert cli.main(["ssr", "--config", str(config_path),
                     "--output", "b.csv"]) == 0

    def body(name):
        return [l for l in (out_dir / name).read_text().splitlines()
                if not l.startswith("# config output")]

    assert body("a.csv") == body("b.csv")


def test_flags_override_config_file_over_defaults(out_dir):
    config_path = out_dir / "cfg.json"
    config_path.write_text(json.dumps({"n_shots": 50, "seed": 7}))
    cli.main(["ssr", "--config", str(config_path), "--n-shots", "30"])
    config, _, columns, rows = parse_csv(out_dir / "ssr.csv")
    assert config["n_shots"] == "30"       # flag beats config file
    assert config["seed"] == "7"           # config file beats default
    assert config["p_offres"] == "0.07"    # untouched default recorded
    assert columns == ["shot", "counts", "initial_state", "final_state", "label"]
    assert len(rows) == 30


def test_missing_required_key_is_named(capsys):
    assert cli.main(["run", "ramsey"]) == 2
    err = capsys.readouterr().err
    assert "missing required key 'larmor_n' for experiment 'ramsey'" in err


def test_unknown_config_key_rejected(out_dir, capsys):
    path = out_dir / "bad.json"
    path.write_text(json.dumps({"x": 1}))
    assert cli.main(["run", "ramsey", "--config", str(path)]) == 2
    assert "unknown config key 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["hello", True])
def test_ill_typed_config_value_rejected(out_dir, capsys, raw):
    path = out_dir / "bad.json"
    path.write_text(json.dumps({"larmor_n": raw}))
    assert cli.main(["run", "ramsey", "--config", str(path)]) == 2
    assert "ill-typed value for key 'larmor_n' (expected float)" \
        in capsys.readouterr().err


@pytest.mark.parametrize("raw", [math.inf, math.nan])
def test_non_finite_config_value_for_integer_key_rejected(out_dir, capsys, raw):
    path = out_dir / "bad.json"
    path.write_text(json.dumps({"n_shots": raw}))
    assert cli.main(["ssr", "--config", str(path)]) == 2
    assert "ill-typed value for key 'n_shots' (expected int)" in capsys.readouterr().err


def test_sweep_and_register_validation(out_dir, capsys):
    assert cli.main(["run", "rabi", "--larmor-n", LARMOR,
                     "--sweep-points", "1"]) == 2
    assert cli.main(["run", "dd", "--larmor-n", LARMOR, "--sweep-scale",
                     "log", "--sweep-start", "0"]) == 2
    assert cli.main(["run", "rabi", "--larmor-n", LARMOR,
                     "--n-nuclei", "3"]) == 2
    assert cli.main(["run", "rabi", "--larmor-n", LARMOR,
                     "--sweep-stop", "nan"]) == 2
    assert "non-finite value nan for key 'sweep_stop'" in capsys.readouterr().err
    assert cli.main(["run", "ramsey", "--larmor-n", LARMOR, "--t-c", "inf"]) == 2
    nan_config = out_dir / "nan.json"
    nan_config.write_text(json.dumps({"omega": math.nan}))
    assert cli.main(["run", "rabi", "--larmor-n", LARMOR,
                     "--config", str(nan_config)]) == 2
    assert "non-finite value nan for key 'omega'" in capsys.readouterr().err
    assert cli.main(["run", "rb", "--larmor-n", LARMOR, "--q", "2"]) == 2
    assert "config error: q must lie in [0, 1]" in capsys.readouterr().err
    for experiment in ("nucrot", "rb"):
        assert cli.main(["run", experiment, "--larmor-n", LARMOR,
                         "--sweep-start=-10", "--sweep-stop=-5"]) == 2
        assert "config error: sweep_start must be >= 0" in capsys.readouterr().err
    for experiment in ("nucrot", "ramsey", "dd", "spinlock", "rb", "gates"):
        assert cli.main(["run", experiment, "--larmor-n", LARMOR, "--t-pi", "0"]) == 2
        assert "config error: t_pi must be > 0" in capsys.readouterr().err
    assert cli.main(["optical", "--mode", "phase", "--amplitude", "0"]) == 2
    assert "config error: amplitude * rabi_per_volt" in capsys.readouterr().err
    assert cli.main(["optical", "--mode", "rabi", "--sweep-start=-1e-9"]) == 2
    assert "config error: sweep_start must be >= 0" in capsys.readouterr().err
    # sweeps too short for the fit they feed
    assert cli.main(["optical", "--mode", "decay", "--sweep-points", "3"]) == 2
    assert "sweep_points" in capsys.readouterr().err
    assert cli.main(["run", "rb", "--larmor-n", LARMOR, "--sweep-start", "1",
                     "--sweep-stop", "1.4"]) == 2
    assert "sweep_points" in capsys.readouterr().err
    for n_shots in ("0", "-3"):
        assert cli.main(["ssr", "--n-shots", n_shots]) == 2
        assert "config error: n_shots must lie in [1, 1e+06]" in capsys.readouterr().err
    for gate, key, value, domain in (("cenotn", "f_ie", "0.3", "[0.5, 1]"),
                                     ("identity", "f_in", "0.2", "(0.5, 1]"),
                                     ("cnnote", "f_in", "0.5", "(0.5, 1]")):
        assert cli.main(["run", "gates", "--larmor-n", LARMOR, "--gate", gate,
                         "--" + key.replace("_", "-"), value]) == 2
        assert "config error: %s must lie in %s" % (key, domain) in capsys.readouterr().err
    assert not list(out_dir.glob("*.csv"))
    capsys.readouterr()


@pytest.mark.parametrize("argv, key, raw", [
    (["ssr"], "n_shots", 1e12),
    (["ssr"], "n_shots", 1e300),
    (["ssr"], "n_shots", 10 ** 6 + 1),
    (["run", "rabi", "--larmor-n", LARMOR], "sweep_points", 1e12),
    (["optical", "--mode", "phase"], "sweep_points", 10 ** 5 + 1)])
def test_count_keys_that_size_an_allocation_have_an_upper_bound(out_dir, capsys, argv, key, raw):
    path = out_dir / "big.json"
    path.write_text(json.dumps({key: raw}))
    assert cli.main(argv + ["--config", str(path)]) == 2
    assert "config error: %s must lie in [" % key in capsys.readouterr().err
    assert cli.main(argv + ["--" + key.replace("_", "-"), str(int(raw))]) == 2
    assert "config error: %s must lie in [" % key in capsys.readouterr().err
    assert not list(out_dir.glob("*.csv"))


_STRUCTURE_AT = {"epsilon": "392e9", "alpha": "0.68", "btheta": "28", "b": "0.335"}
_GATES = ["run", "gates", "--larmor-n", LARMOR]


def _structure_with(key, value):
    values = dict(_STRUCTURE_AT, **{key: value})
    return ["structure"] + ["--%s=%s" % item for item in values.items()]


@pytest.mark.parametrize("argv, message", [
    (_structure_with("epsilon", "-1e9"), "epsilon must be >= 0"),
    (_structure_with("alpha", "0"), "alpha must be > 0"),
    (_structure_with("btheta", "-1"), "btheta must lie in [0, 90]"),
    (_structure_with("btheta", "120"), "btheta must lie in [0, 90]"),
    (_structure_with("b", "-0.1"), "b must be >= 0"),
    (["estimate", "--wl", "0"], "wl must be > 0"),
    (["estimate", "--dss=-254.654e6"], "dss must be > 0"),
    (["estimate", "--dgs", "0"], "dgs must be > 0"),
    (["estimate", "--eta=-1"], "eta must be > 0"),
    (["estimate", "--larmor-n", "0"], "larmor_n must be > 0"),
    (["estimate", "--b=-1"], "b must be >= 0"),
    (_GATES + ["--t-c", "4e-6", "--beta-deph", "0.3"], "beta_deph must lie in [0.5, 3]"),
    (["run", "gates", "--larmor-n=-1e6"], "larmor_n must be > 0"),
    (_GATES + ["--n-pulses", "7"], "n_pulses must be even and > 0"),
    (_GATES + ["--tau", "0"], "tau must be > 0"),
    (["run", "gates", "--gate", "cenotn", "--t-pi", "1.2e-7", "--larmor-n", "5e6"],
     "t_pi must be < 1/(2 larmor_n)"),
    (["run", "nucrot", "--t-pi", "1.2e-7", "--larmor-n", "5e6"],
     "t_pi must be < 1/(2 larmor_n)"),
    (["ssr", "--p-offres", "1.5"], "p_offres must lie in [0, 1)"),
    (["ssr", "--mean-dark", "40"], "need mean_bright > mean_dark >= 0"),
    (["ssr", "--n-blocks", "0"], "n_blocks must be >= 1"),
    (["ssr", "--t-block", "0"], "t_block must be > 0"),
    (["ssr", "--t-pol-n=-1"], "t_pol_n must be > 0"),
    (["ssr", "--threshold=-1"], "threshold must be >= 0"),
    (["ssr", "--initial", "sideways"], "ill-typed value for key 'initial'"),
    (["ssr", "--seed=-1"], "seed must be >= 0"),
    (["run", "rb", "--larmor-n", LARMOR, "--seed=-1"], "seed must be >= 0"),
    (_GATES + ["--gate", "UI", "--f-in", "1.5"], "f_in must lie in (0.5, 1]"),
    (_GATES + ["--gate", "cenotn", "--f-ie", "0.5"],
     "f_ie must lie in (0.5, 1] for a referenced transfer matrix"),
    (["run", "rabi", "--larmor-n", LARMOR, "--f-ie", "1.5"], "f_ie must lie in [0.5, 1]"),
    (["run", "rb", "--larmor-n", LARMOR, "--q", "1.5"], "q must lie in [0, 1]"),
    (["run", "rb", "--larmor-n", LARMOR, "--f-ie", "0.5"],
     "f_ie must lie in (0.5, 1] for randomized benchmarking"),
    (["run", "rb", "--larmor-n", LARMOR, "--n-random", "0"], "n_random must be >= 1"),
    (["run", "rabi", "--larmor-n", LARMOR, "--omega=-1"], "omega must be >= 0"),
    (["optical", "--t1", "0"], "t1 must be > 0"),
    (["optical", "--gamma-phi=-1"], "gamma_phi must be >= 0"),
    (["optical", "--buffer=-1"], "buffer must be >= 0"),
    (["optical", "--mode", "decay", "--p-e0", "5"], "p_e0 must lie in [0, 1]"),
    (["optical", "--mode", "decay", "--p-e0=-0.5"], "p_e0 must lie in [0, 1]"),
    (["optical", "--mode", "decay", "--sweep-start=-1e-9"], "sweep_start must be >= 0"),
    (["optical", "--mode", "rabi", "--sweep-stop=-1e-9"], "sweep_stop must be >= 0"),
    (["run", "dd", "--larmor-n", LARMOR, "--kind", "foo"], "ill-typed value for key 'kind'"),
    (["run", "dd", "--larmor-n", LARMOR, "--n-pulses=-1"], "n_pulses must be >= 0"),
    (["run", "ramsey", "--larmor-n", LARMOR, "--target", "foo"],
     "ill-typed value for key 'target'"),
    (["run", "spinlock", "--larmor-n", LARMOR, "--tau-fixed=-1"], "tau_fixed must be >= 0"),
    (["run", "spinlock", "--larmor-n", LARMOR, "--omega-sl=-1"], "omega_sl must be >= 0"),
    (["run", "spinlock", "--larmor-n", LARMOR, "--mode", "amplitude", "--sweep-start=-1e6"],
     "sweep_start must be >= 0"),
    (["run", "dd", "--larmor-n", LARMOR, "--t-c=-1"],
     "t_c must be >= 0 (0 disables dephasing)"),
    (["fit", "--model", "single_exp", "--data", "data.csv", "--x-col=-2"], "x_col must be >= 0"),
    (["fit", "--model", "single_exp", "--data", "data.csv", "--y-col=-1"], "y_col must be >= 0"),
])
def test_out_of_domain_values_are_config_errors_naming_the_key(out_dir, capsys, argv, message):
    assert cli.main(argv) == 2
    assert "config error: " + message in capsys.readouterr().err
    assert not list(out_dir.glob("*.csv"))


def test_estimate_help_says_zero_field_is_derived(capsys):
    with pytest.raises(SystemExit):
        cli.main(["estimate", "--help"])
    assert "0 derives it from larmor_n" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command, expected", [
    (["run", "rabi"], "--f-ie F_IE (in [0.5, 1]) (default: 1.0)"),
    (["ssr"], "--p-offres P_OFFRES (in [0, 1)) (default: 0.07)"),
    (["run", "rabi"], "--omega OMEGA (>= 0; 0 is free evolution) (default: 5000000.0)"),
    (["run", "dd"], "--kind KIND (CPMG | XY) (default: XY)"),
], ids=["closed", "half_open", "bound_with_note", "choices"])
def test_help_states_each_kind_of_domain(capsys, command, expected):
    with pytest.raises(SystemExit):
        cli.main(command + ["--help"])
    assert expected in " ".join(capsys.readouterr().out.split())


def test_every_domain_entry_names_a_key_of_some_experiment():
    schemas = {name: spec.schema() for name, spec in cli.EXPERIMENTS.items()}
    for entry in cli._DOMAINS:
        if isinstance(entry, tuple):
            experiment, key = entry
            assert key in schemas[experiment], entry
        else:
            assert any(entry in schema for schema in schemas.values()), entry


@pytest.mark.parametrize("experiment", ["rabi", "ramsey", "dd", "spinlock"])
def test_negative_sweep_axes_are_config_errors(out_dir, capsys, experiment):
    assert cli.main(["run", experiment, "--larmor-n", LARMOR,
                     "--sweep-start=-1e-6"]) == 2
    assert "config error: sweep_start must be >= 0" in capsys.readouterr().err
    assert not list(out_dir.glob("*.csv"))


@pytest.mark.parametrize("experiment", ["nucrot", "rb"])
def test_negative_counts_are_config_errors(out_dir, capsys, experiment):
    """A count axis reaching below 0 is rejected, not cut down to its counts >= 0."""
    assert cli.main(["run", experiment, "--larmor-n", LARMOR,
                     "--sweep-start=-5", "--sweep-stop", "10"]) == 2
    assert "config error: sweep_start must be >= 0" in capsys.readouterr().err
    assert not list(out_dir.glob("*.csv"))


def test_config_file_problems_are_config_errors(out_dir, capsys):
    broken = out_dir / "broken.json"
    broken.write_text("{nope")
    assert cli.main(["ssr", "--config", str(broken)]) == 2
    not_flat = out_dir / "list.json"
    not_flat.write_text("[1, 2]")
    assert cli.main(["ssr", "--config", str(not_flat)]) == 2
    assert cli.main(["ssr", "--config", str(out_dir / "absent.json")]) == 2
    capsys.readouterr()


def test_module_failures_exit_three(out_dir, capsys):
    assert cli.main(["fit", "--model", "single_exp",
                     "--data", str(out_dir / "absent.csv")]) == 3
    assert capsys.readouterr().err.startswith("experiment error: cannot read data file: ")
    tiny = out_dir / "tiny.csv"
    tiny.write_text("x,y\n1,2\n")
    assert cli.main(["fit", "--model", "single_exp", "--data", str(tiny)]) == 3
    assert cli.main(["fit", "--model", "bogus", "--data", str(tiny)]) == 3
    capsys.readouterr()


def test_ssr_leaves_out_the_rates_of_a_class_with_no_shots(out_dir):
    runs = [(["--initial", "bright"], "fidelity_bright", "fidelity_dark"),
            (["--initial", "dark"], "fidelity_dark", "fidelity_bright"),
            (["--n-shots", "1"], "fidelity_bright", "fidelity_dark")]
    for i, (flags, kept, missing) in enumerate(runs):
        output = "ssr%d.csv" % i
        assert cli.main(["ssr", "--n-shots", "50", *flags, "--output", output]) == 0
        _, result, _, _ = parse_csv(out_dir / output)
        assert kept in result and missing not in result
        assert all(math.isfinite(float(value)) for value in result.values())


def test_fit_consumes_generated_artifact(out_dir):
    assert cli.main(["optical", "--mode", "decay", "--sweep-start", "0",
                     "--sweep-stop", "8e-9", "--sweep-points", "60",
                     "--output", "decay.csv"]) == 0
    _, result, _, _ = parse_csv(out_dir / "decay.csv")
    assert float(result["t1_fit"]) == pytest.approx(1.6535e-9, rel=1e-6)
    assert cli.main(["fit", "--model", "single_exp",
                     "--data", str(out_dir / "decay.csv"),
                     "--output", "fit.csv"]) == 0
    _, result, columns, rows = parse_csv(out_dir / "fit.csv")
    assert columns == ["parameter", "value", "sigma"]
    values = {row[0]: float(row[1]) for row in rows}
    assert values["a"] == pytest.approx(1.0, rel=1e-6)
    assert values["t"] == pytest.approx(1.6535e-9, rel=1e-6)
    assert abs(values["c"]) < 1e-9
    assert all(math.isfinite(float(row[2])) for row in rows)
    assert result["converged"] == "true"
    assert result["n_points"] == "60"


def test_dd_total_time_uses_the_configured_pi_time(out_dir):
    assert cli.main(["run", "dd", "--larmor-n", LARMOR, "--t-pi", "1e-7",
                     "--sweep-points", "3"]) == 0
    config, _, columns, rows = parse_csv(out_dir / "dd.csv")
    n_pulses = int(config["n_pulses"])
    total = columns.index("total_time")
    for row in rows:
        assert float(row[total]) == pytest.approx(n_pulses * (float(row[0]) + 1e-7),
                                                  rel=1e-12)


def test_nuclear_rotation_defaults_resonant_delay(out_dir):
    assert cli.main(["run", "nucrot", "--larmor-n", LARMOR, "--sweep-start",
                     "0", "--sweep-stop", "10", "--sweep-points", "6"]) == 0
    config, result, _, rows = parse_csv(out_dir / "nucrot.csv")
    larmor = float(config["larmor_n"])
    t_pi = float(config["t_pi"])
    assert float(result["tau_rot"]) == pytest.approx(
        0.5 / larmor - t_pi, rel=1e-12)
    pulse_numbers = [float(r[0]) for r in rows]
    assert pulse_numbers == sorted(set(pulse_numbers))


def test_output_path_resolution(out_dir):
    cli.main(STRUCTURE_ARGS)
    assert (out_dir / "structure.csv").exists()        # default name, env dir
    absolute = out_dir / "nested" / "deep.csv"
    cli.main(STRUCTURE_ARGS + ["--output", str(absolute)])
    assert absolute.exists()                           # absolute path wins
    cli.main(STRUCTURE_ARGS + ["--output", "named.csv"])
    assert (out_dir / "named.csv").exists()


def test_benchmarking_subcommand_noiseless_fidelity(out_dir):
    assert cli.main(["run", "rb", "--larmor-n", LARMOR, "--n-random", "8",
                     "--sweep-start", "1", "--sweep-stop", "40",
                     "--sweep-points", "4"]) == 0
    _, result, _, _ = parse_csv(out_dir / "rb.csv")
    assert float(result["gate_fidelity"]) == pytest.approx(1.0, abs=1e-3)
    assert result["fit_converged"] == "true"


def test_estimate_subcommand_recovers_strain_parameters(out_dir):
    assert cli.main(["estimate"]) == 0
    _, result, columns, rows = parse_csv(out_dir / "estimate.csv")
    row = dict(zip(columns, map(float, rows[0])))
    assert abs(row["epsilon_hz"] - 392e9) < 8e9
    assert abs(row["alpha"] - 0.68) < 0.03
    assert abs(row["btheta_deg"] - 28.0) < 2.0
    assert row["omega_l_e_hz"] == pytest.approx(9.431e9, rel=0.01)
    assert row["cyclicity"] == pytest.approx(816.285, rel=0.01)
    assert result["converged"] == "true"
    # targets no strain reproduces: the best start is reported, flagged unconverged
    assert cli.main(["estimate", "--wl", "1", "--dss", "2", "--dgs", "3", "--eta", "4"]) == 0
    _, result, columns, rows = parse_csv(out_dir / "estimate.csv")
    assert result["converged"] == "false"
    assert all(math.isfinite(float(cell)) for cell in rows[0])


def test_cli_import_leaves_scipy_unloaded():
    # a fresh interpreter, importing the same sivreg package as this suite
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, sivreg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_dd_with_a_vanishing_coherence_time_dephases_fully(out_dir):
    assert cli.main(["run", "dd", "--larmor-n", LARMOR, "--t-c", "1e-300",
                     "--sweep-points", "5"]) == 0
    _, _, columns, rows = parse_csv(out_dir / "dd.csv")
    signal = [float(row[columns.index("signal")]) for row in rows]
    assert signal == pytest.approx([0.5] * 5, abs=1e-6)


def test_argparse_level_failures(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    capsys.readouterr()
