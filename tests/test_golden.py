"""Golden CSVs: each CLI invocation below must write exactly the bytes in tests/golden/.

The invocations are the 13 of the benchmark's ``cli_defaults`` workload (taken
from bench/cli_defaults.py, with a fixed seed), the register runs with two
nuclei and dephasing, the CnNOTe and identity gates, a nuclear Ramsey, a
logarithmic and a CPMG DD sweep, a spin-lock amplitude sweep, ``ssr`` from
bright and from dark starts, and three ``fit`` runs on golden CSVs: an
analytic-rule fit, a central-difference fit and an ``rb_decay`` fit that ends
on its upper bounds; so every option of a kind, mode, target or initial key
runs.  The fits run in tests/golden, so their ``# config data=`` line holds
the bare file name.  All run through ``cli.main`` in this process.  Every
file is compared byte for byte, so a change that moves any value, or the
formatting of any value, fails here.  The ``help*.txt`` files hold the
``--help`` text of ``sivreg`` and of every subcommand, formatted for 80
columns.  A change that means to move values or help text regenerates the
files with

    PYTHONPATH=src python tests/test_golden.py

and states the differences it accepts.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from sivreg import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH_DIR)
try:
    from cli_defaults import LARMOR, invocations
finally:
    sys.path.remove(BENCH_DIR)

SEED = 7
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
    # the default axis serves mode tau (seconds): sweep the drive across the
    # Hartmann-Hahn dip near the Larmor frequency instead
    ("run_spinlock_amplitude", ["run", "spinlock", "--mode", "amplitude",
                                "--sweep-start", "3.0e6", "--sweep-stop", "4.2e6"] + LARMOR),
    ("ssr_bright", ["ssr", "--initial", "bright", "--seed", str(SEED)]),
    ("ssr_dark", ["ssr", "--initial", "dark", "--seed", str(SEED)]),
]] + [(label, ["fit", "--model", model, "--data", data], GOLDEN) for label, model, data in (
    ("fit_single_exp", "single_exp", "optical_decay.csv"),
    ("fit_stretched_exp", "stretched_exp", "optical_decay.csv"),
    ("fit_rb_decay", "rb_decay", "run_rb.csv"),
)]

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
    flag or by default, in at least one golden invocation of the experiment."""
    keys = ("kind", "mode", "target", "initial")
    parser = cli.build_parser()
    covered = set()
    for _, argv, _ in INVOCATIONS:
        flags = vars(parser.parse_args(argv))
        spec = cli.EXPERIMENTS[flags["experiment"]]
        covered.update((spec.name, key, flags.get(key, spec.defaults.get(key)))
                       for key in keys if key in spec.schema())
    options = set()
    for name, spec in cli.EXPERIMENTS.items():
        for key in keys:
            if key in spec.schema():
                domain = cli._domain(name, key)
                assert isinstance(domain, cli.Choices), (name, key)
                options.update((name, key, option) for option in domain.options)
    assert sorted(options - covered) == []


def test_every_golden_file_has_an_invocation():
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == sorted(l for l, _, _ in INVOCATIONS)
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(l for l, _ in HELP_INVOCATIONS)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for label, argv, cwd in INVOCATIONS:
        with tempfile.TemporaryDirectory() as out_dir:
            (GOLDEN / (label + ".csv")).write_bytes(run_invocation(argv, out_dir, cwd))
    for label, words in HELP_INVOCATIONS:
        (GOLDEN / (label + ".txt")).write_text(help_text(words))
