"""Tests of the benchmark itself, at tiny operation sizes.

Run from the repository root with

    python3 -m pytest bench/selftest.py

The file name keeps these tests out of the repository's default test run:
they start dozens of CLI processes and take a few minutes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import cli_defaults
import harness
import layers
import run
from harness import BENCH_DIR, ROOT, SRC, WORK_DIR, CheckFailed, Context, Op
from tracer import Tracer

sys.path.insert(0, SRC)

import sivreg  # noqa: E402  (from SRC, after the path insert)
from sivreg import linalg, sequences  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _check_metrics(metrics, wanted):
    assert list(metrics) == [name for name, _ in wanted]
    for name, unit in wanted:
        assert metrics[name]["unit"] == unit, name
        assert isinstance(metrics[name]["value"], (int, float)), name
        assert math.isfinite(metrics[name]["value"]), name


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_one_command_runs_every_workload_and_prints_each_metric():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "0.1", "--trace", "0", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith('{"correct"')]
    assert len(results) == len(run.WORKLOADS)
    assert json.loads(lines[-1]) == results[-1]
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        _check_metrics(result["metrics"], run.END_TO_END)
    for name, unit in run.END_TO_END:
        printed = [ln for ln in lines if ln.startswith("%s = " % name) and ln.endswith(unit)]
        assert len(printed) == len(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run_emits_every_per_layer_metric(workload):
    result, _ = run.run(workload, seed=3, seconds=0.1, trace=1, scale="tiny")
    _check_metrics(result["metrics"], [(n, u) for n, u, _, _ in layers.PER_LAYER])
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    busy = {"cli_defaults": "cli.estimate_s", "strain_map": "electronic.forward_calls",
            "lab_chain": "optics.rk4_steps"}[workload]
    assert metrics[busy] > 0
    # the layers' self times account for the traced operation time; a CLI
    # child also spends time in interpreter start-up and exit
    share = {"cli_defaults": 0.5, "strain_map": 0.05, "lab_chain": 0.05}[workload]
    assert abs(metrics["proc.unattributed_s"]) < share * metrics["proc.op_time_s"]


def test_traced_call_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        result, _ = run.run("lab_chain", seed=5, seconds=0.1, trace=1, scale="tiny")
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["linalg.eig_calls"] > 0


def test_corrupted_sweep_counts_as_failed(monkeypatch):
    real = sequences.run_dd

    def corrupt(*args, **kwargs):
        sweep = real(*args, **kwargs)
        signal = sweep.signal.copy()
        signal[len(signal) // 2] = math.nan   # SweepResult's range check lets NaN in
        return sequences.SweepResult(sweep.axis, signal, aux=sweep.aux, name=sweep.name)

    monkeypatch.setattr(sequences, "run_dd", corrupt)
    result, lines = run.run("lab_chain", seed=3, seconds=0.1, trace=0, scale="tiny")
    assert result["correct"] is False
    assert result["failed"] == 1
    assert any(line.startswith("FAILED dd ") for line in lines)


def test_latency_is_scaled_by_the_reference_around_it(monkeypatch):
    samples = iter([2e-3, 4e-3, 1e-3])   # before op 1, after op 1, after op 2
    monkeypatch.setattr(harness, "reference_time", lambda units=None: next(samples))

    class TwoOps:
        @staticmethod
        def make_pass(seed, index, ctx):
            return [Op("a", {}, lambda: None, lambda out: None),
                    Op("b", {}, lambda: None, lambda out: None)]

    records = harness.run_ops(TwoOps, Context(), seed=0, passes=1, host_speed=True)
    assert [r.ref for r in records] == [3e-3, 2.5e-3]
    for r in records:
        assert r.latency_at_ref == pytest.approx(r.latency * harness.REF_NOMINAL_S / r.ref)


@pytest.mark.xfail(raises=CheckFailed, strict=True,
                   reason="fit --model single_exp on the noiseless optical decay CSV writes "
                          "nan sigma: the offset's Jacobian step is below float resolution")
def test_fit_on_the_decay_csv_passes_its_check():
    """Why cli_defaults leaves ``fit`` out; once this passes, put it back."""
    out = os.path.join(WORK_DIR, "fit_check")
    shutil.rmtree(out, ignore_errors=True)
    try:
        decay_dir = os.path.join(out, "optical_decay")
        rc, _, err = cli_defaults.launch(["optical", "--mode", "decay"], decay_dir)
        assert rc == 0, err
        argv = ["fit", "--model", "single_exp", "--data",
                os.path.join(decay_dir, "optical.csv")]
        fit_dir = os.path.join(out, "fit")
        rc, _, err = cli_defaults.launch(argv, fit_dir)
        cli_defaults._checker(Context(work_dir=out), "fit", argv, fit_dir)((rc, err))
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_installer_patches_every_binding_and_restores_it():
    original = linalg.hermitian_eig
    tracer = Tracer()
    tracer.install()
    try:
        for module in (sivreg.linalg, sivreg.electronic, sivreg.register, sivreg.sequences):
            assert module.hermitian_eig.__wrapped__ is original
        assert sequences.Engine.u_free.__wrapped__ is not None
        sequences.run_rabi(sequences.RegisterParams(), None, 5e6, [0.0, 1e-7])
    finally:
        tracer.uninstall()
    for module in (sivreg.linalg, sivreg.electronic, sivreg.register, sivreg.sequences):
        assert module.hermitian_eig is original
    assert tracer.stats["linalg.eig"].calls >= 1
    assert tracer.stats["sequences.engine_init"].calls == 1


def test_absent_function_reads_missing(monkeypatch):
    monkeypatch.delattr(sequences, "calibrate_cnnote")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"sequences.calibrate_cnnote"}
    info = dict.fromkeys(("import_s", "import_scipy_s", "csv_bytes", "recovered",
                          "op_time_s", "cpu_per_wall", "trace_overhead", "fail_ratio"), 0.0)
    info["cli_times"] = {}
    metrics = layers.per_layer_metrics(tracer, info)
    assert metrics["sequences.calibrate_self_s"] == {"value": None, "unit": "s",
                                                     "status": "missing"}
    assert metrics["linalg.eig_calls"]["value"] == 0


def test_fails_without_the_program_sources():
    bare = os.path.join(WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "lab_chain", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
