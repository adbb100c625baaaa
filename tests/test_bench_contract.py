"""The benchmark still runs on this tree and ends in a strict result line.

bench/tracer.py wraps sivreg functions by module and attribute name, and a
per-layer metric of bench/layers.py whose span is not found reads ``null``
in the traced run's result line.  Renaming or deleting a wrapped function
under src/ therefore breaks the benchmark without failing any other test;
the first test catches it in the default test run.  The benchmark reads the
last line of a run's standard output as its result, so anything printed
after it (a print, a warning, output of a helper thread or process at exit)
or a non-finite metric, which ``json.dumps`` writes as the non-JSON ``NaN``,
makes the run unreadable; the second test runs a small traced run of two
workloads and checks that line strictly.  The bench modules are only
imported or run, never changed.
"""

import json
import math
import os
import subprocess
import sys

import pytest

from sivreg import fitting

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH_DIR)
try:
    import layers
    from tracer import Tracer
finally:
    sys.path.remove(BENCH_DIR)


def test_every_span_a_per_layer_metric_needs_is_found():
    tracer = Tracer()
    original = fitting.least_squares
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert fitting.least_squares is original
    needed = {span for _, _, needs, _ in layers.PER_LAYER for span in needs}
    assert sorted(needed & tracer.missing) == []


def _reject_constant(name):
    raise ValueError("non-JSON constant %s in the result line" % name)


@pytest.mark.parametrize("workload", ["lab_chain", "cli_defaults"])
def test_tiny_traced_run_ends_in_a_strict_result_line(workload):
    run = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                          "--workload", workload, "--seed", "1", "--seconds", "1",
                          "--trace", "1", "--scale", "tiny"],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert value is None or math.isfinite(value), (name, value)
