"""Golden CSVs: each CLI invocation below must write exactly the bytes in tests/golden/.

The invocations are the 13 of the benchmark's ``cli_defaults`` workload (taken
from bench/cli_defaults.py, with a fixed seed), the register runs with two
nuclei and dephasing, the CnNOTe and identity gates, a nuclear Ramsey, a
logarithmic and a CPMG DD sweep, a spin-lock amplitude sweep, ``ssr`` from
bright and from dark starts, an ``estimate`` whose keys come from a config
file and whose targets send it to its 8-start grid, and one ``fit`` of each
model of the registry (FITS): on a golden CSV the model describes, else on a
seeded data CSV of tests/data; so every option of a kind, mode, target,
initial or model key runs.  Each fit runs in the directory of its data file,
so its ``# config data=`` line holds the bare file name.  All run through
``cli.main`` in this process.  Every file is compared byte for byte, so a
change that moves any value, or the formatting of any value, fails here.
The ``help*.txt`` files hold the
``--help`` text of ``sivreg`` and of every subcommand, formatted for 80
columns.  A change that means to move values or help text regenerates the
files, and the seeded data CSVs, with

    PYTHONPATH=src python tests/test_golden.py

and states the differences it accepts.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from sivreg import cli, fitting

GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH_DIR)
try:
    from cli_defaults import LARMOR, invocations
finally:
    sys.path.remove(BENCH_DIR)

DATA = Path(__file__).resolve().parent / "data"
SEED = 7
# one fit of each model of the registry (exp_recovery is single_exp under another
# name): on a golden CSV where the model describes one, else on a seeded data CSV
# of tests/data written by write_fit_data, run in the directory of its data file
FITS = [(model, data, GOLDEN) for model, data in (
    ("single_exp", "optical_decay.csv"),
    ("stretched_exp", "optical_decay.csv"),
    ("rb_decay", "run_rb.csv"),
    ("rb_decay_free", "run_rb_2n.csv"),
    ("ramsey", "optical_rabi.csv"),
    ("damped_sine_sum", "run_spinlock.csv"),
    ("rabi_beat", "run_spinlock.csv"),
    ("gaussian", "run_spinlock_amplitude.csv"),
    ("parabola", "run_spinlock_amplitude.csv"),
)] + [(model, model + ".csv", DATA) for model in (
    "lorentzian_pair", "power_scaling", "saturation_law", "pol_rate", "orbach_offset",
    "power_law_offset", "gamma2r_model", "three_normal_mixture")]
# the seeded data: x, the true parameters and the relative noise of each model's CSV
FIT_DATA = {
    "lorentzian_pair": (np.linspace(-10.0, 10.0, 81), [1.0, -3.0, 0.8, 0.6, 4.0, 1.2, 0.1], 0.01),
    "power_scaling": (np.linspace(0.5, 10.0, 40), [2.0, 1.5], 0.01),
    "saturation_law": (np.linspace(0.0, 10.0, 40), [50e6], 0.01),
    "pol_rate": (np.linspace(0.0, 10.0, 40), [2e3, 0.8], 0.01),
    "orbach_offset": (np.linspace(2.0, 20.0, 40), [100.0, 1e-29, 1.0, 1110.755e9], 0.01),
    "power_law_offset": (np.linspace(1.0, 20.0, 40), [0.5, 1.7, 3.0], 0.01),
    "gamma2r_model": (np.linspace(0.5, 10.0, 40), [5.0, 0.8, 1.0], 0.01),
}
TWO_NUCLEI = LARMOR + ["--t-c", "5e-6", "--n-nuclei", "2"]
# (label, argv, working directory or None)
INVOCATIONS = [(label, argv, None) for label, argv in invocations(SEED) + [
    ("run_dd_2n", ["run", "dd"] + TWO_NUCLEI),
    ("run_nucrot_2n", ["run", "nucrot"] + TWO_NUCLEI),
    ("run_gates_2n", ["run", "gates"] + TWO_NUCLEI),
    ("run_rb_2n", ["run", "rb", "--seed", str(SEED)] + TWO_NUCLEI),
    ("run_gates_cenotn_2n", ["run", "gates", "--gate", "CeNOTn"] + TWO_NUCLEI),
    ("run_gates_cnnote", ["run", "gates", "--gate", "CnNOTe"] + LARMOR),
    ("run_gates_identity", ["run", "gates", "--gate", "identity"] + LARMOR),
    ("run_ramsey_nuclear", ["run", "ramsey", "--target", "nuclear"] + LARMOR),
    ("run_dd_log", ["run", "dd", "--sweep-scale", "log"] + LARMOR),
    ("run_dd_cpmg", ["run", "dd", "--kind", "CPMG"] + LARMOR),
    # the mode's own default axis: the drive across the Hartmann-Hahn dip
    ("run_spinlock_amplitude", ["run", "spinlock", "--mode", "amplitude"] + LARMOR),
    ("ssr_bright", ["ssr", "--initial", "bright", "--seed", str(SEED)]),
    ("ssr_dark", ["ssr", "--initial", "dark", "--seed", str(SEED)]),
]] + [
    # targets no strain fits, so the closed-form start ends above CONVERGED_COST and the
    # estimate falls back to its 8-start grid; the keys come from a config file
    ("estimate_grid", ["estimate", "--config", "estimate_grid.json"], DATA),
] + [("fit_" + model, ["fit", "--model", model, "--data", data], cwd)
     for model, data, cwd in FITS]

HELP_INVOCATIONS = [("help", [])] + [
    ("help_" + "_".join(words), words)
    for words in (["structure"], ["estimate"], ["run"], ["run", "rabi"], ["run", "ramsey"],
                  ["run", "dd"], ["run", "spinlock"], ["run", "nucrot"], ["run", "gates"],
                  ["run", "rb"], ["ssr"], ["optical"], ["fit"])]


def help_text(words):
    """What ``sivreg WORDS --help`` prints on an 80-column terminal."""
    before = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            try:
                cli.main(words + ["--help"])
            except SystemExit as stop:
                assert stop.code == 0
    finally:
        if before is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = before
    return out.getvalue()


def run_invocation(argv, out_dir, cwd=None):
    """Run one invocation, in the working directory cwd if given, with its CSV
    written into out_dir; returns the CSV bytes."""
    before, here = os.environ.get("SIVREG_OUTPUT_DIR"), os.getcwd()
    os.environ["SIVREG_OUTPUT_DIR"] = str(out_dir)
    try:
        os.chdir(cwd or here)
        assert cli.main(argv) == 0
    finally:
        os.chdir(here)
        if before is None:
            del os.environ["SIVREG_OUTPUT_DIR"]
        else:
            os.environ["SIVREG_OUTPUT_DIR"] = before
    (path,) = Path(out_dir).glob("*.csv")
    return path.read_bytes()


@pytest.mark.parametrize("label, argv, cwd", INVOCATIONS,
                         ids=[label for label, _, _ in INVOCATIONS])
def test_csv_is_byte_identical_to_its_golden_file(label, argv, cwd, tmp_path):
    written = run_invocation(argv, tmp_path, cwd)
    assert written == (GOLDEN / (label + ".csv")).read_bytes()


@pytest.mark.parametrize("label, words", HELP_INVOCATIONS,
                         ids=[label for label, _ in HELP_INVOCATIONS])
def test_help_text_is_identical_to_its_golden_file(label, words):
    assert help_text(words) == (GOLDEN / (label + ".txt")).read_text()


def test_every_choice_has_a_golden_invocation():
    """Each option of a kind, mode, target or initial key is that key's value, given by a
    flag or by default, in at least one golden invocation of the experiment; and each
    distinct model of the registry (by its spec's name) is the model key of one."""
    keys = ("kind", "mode", "target", "initial")
    parser = cli.build_parser()
    covered, models = set(), set()
    for _, argv, _ in INVOCATIONS:
        flags = vars(parser.parse_args(argv))
        spec = cli.EXPERIMENTS[flags["experiment"]]
        covered.update((spec.name, key, flags.get(key, spec.defaults.get(key)))
                       for key in keys if key in spec.schema())
        if "model" in flags:
            models.add(fitting.get_model(flags["model"]).name)
    options = set()
    for name, spec in cli.EXPERIMENTS.items():
        for key in keys:
            if key in spec.schema():
                domain = cli._domain(name, key)
                assert isinstance(domain, cli.Choices), (name, key)
                options.update((name, key, option) for option in domain.options)
    assert sorted(options - covered) == []
    assert models == {spec.name for spec in fitting.model_registry().values()}


def test_every_golden_file_has_an_invocation():
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == sorted(l for l, _, _ in INVOCATIONS)
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(l for l, _ in HELP_INVOCATIONS)


def write_fit_data():
    """Write the seeded data CSVs of tests/data: each model of FIT_DATA at its true
    parameters, times 1 + noise N(0, 1) of seed 5, and three normal populations of
    2000, 3000 and 5000 seeded counts binned by one."""
    rng = np.random.default_rng(5)
    counts = np.concatenate([rng.normal(3.0, 1.5, 2000), rng.normal(14.0, 3.5, 3000),
                             rng.normal(32.0, 5.7, 5000)])
    edges = np.arange(-5.5, 60.5, 1.0)
    tables = {"three_normal_mixture": (0.5 * (edges[1:] + edges[:-1]),
                                       np.histogram(counts, edges)[0].astype(float))}
    for model, (x, params, noise) in FIT_DATA.items():
        y = fitting.get_model(model)(x, params)
        tables[model] = x, y * (1.0 + noise * np.random.default_rng(5).standard_normal(x.size))
    DATA.mkdir(exist_ok=True)
    for model, (x, y) in tables.items():
        (DATA / (model + ".csv")).write_text("# seeded data for a %s fit\nx,y\n%s\n" % (
            model, "\n".join("%r,%r" % (float(a), float(b)) for a, b in zip(x, y))))


if __name__ == "__main__":
    import tempfile

    write_fit_data()
    GOLDEN.mkdir(exist_ok=True)
    for label, argv, cwd in INVOCATIONS:
        with tempfile.TemporaryDirectory() as out_dir:
            (GOLDEN / (label + ".csv")).write_bytes(run_invocation(argv, out_dir, cwd))
    for label, words in HELP_INVOCATIONS:
        (GOLDEN / (label + ".txt")).write_text(help_text(words))
