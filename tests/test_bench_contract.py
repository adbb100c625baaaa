"""The benchmark's tracer still finds every span its per-layer metrics read.

bench/tracer.py wraps sivreg functions by module and attribute name, and a
per-layer metric of bench/layers.py whose span is not found reads ``null``
in the traced run's result line.  Renaming or deleting a wrapped function
under src/ therefore breaks the benchmark without failing any other test;
this test catches it in the default test run.  Both bench modules are only
imported, never changed.
"""

import os
import sys

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
