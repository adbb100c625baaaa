"""End-to-end checks of the command line front end and its CSV artifacts."""

import json
import math

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


def test_same_invocation_twice_is_byte_identical(out_dir):
    argv = ["ssr", "--n-shots", "60", "--seed", "5"]
    cli.main(argv)
    first = (out_dir / "ssr.csv").read_bytes()
    cli.main(argv)
    assert (out_dir / "ssr.csv").read_bytes() == first


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
    assert cli.main(["run", "rb", "--larmor-n", LARMOR, "--q", "2"]) == 3
    for experiment in ("nucrot", "rb"):
        assert cli.main(["run", experiment, "--larmor-n", LARMOR,
                         "--sweep-start=-10", "--sweep-stop=-5"]) == 2
        assert "sweep_start..sweep_stop holds no count >= 0" in capsys.readouterr().err
    for experiment in ("nucrot", "ramsey", "dd", "spinlock", "rb", "gates"):
        assert cli.main(["run", experiment, "--larmor-n", LARMOR, "--t-pi", "0"]) == 2
        assert "config error: t_pi must be > 0" in capsys.readouterr().err
    assert cli.main(["optical", "--mode", "phase", "--amplitude", "0"]) == 2
    assert "config error: amplitude * rabi_per_volt" in capsys.readouterr().err
    for n_shots in ("0", "-3"):
        assert cli.main(["ssr", "--n-shots", n_shots]) == 2
        assert "config error: n_shots must be >= 1" in capsys.readouterr().err
    for gate, key, value in (("cenotn", "f_ie", "0.3"), ("identity", "f_in", "0.2"),
                             ("cnnote", "f_in", "0.5")):
        assert cli.main(["run", "gates", "--larmor-n", LARMOR, "--gate", gate,
                         "--" + key.replace("_", "-"), value]) == 3
        assert "%s must lie in (0.5, 1]" % key in capsys.readouterr().err
    assert not list(out_dir.glob("*.csv"))
    capsys.readouterr()


@pytest.mark.parametrize("experiment", ["rabi", "ramsey", "dd", "spinlock"])
def test_negative_sweep_durations_are_experiment_errors(out_dir, capsys, experiment):
    assert cli.main(["run", experiment, "--larmor-n", LARMOR,
                     "--sweep-start=-1e-6"]) == 3
    assert "must be >= 0" in capsys.readouterr().err
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


def test_argparse_level_failures(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    capsys.readouterr()
