"""Operations, the closed-loop runner and output checks shared by the workloads."""

import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")


class CheckFailed(AssertionError):
    """An operation's output failed its check."""


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not.

    ``check`` raises CheckFailed (or anything else) when the output is wrong.
    ``inputs`` is printed when the operation fails, so it can be rerun.
    """

    kind: str
    inputs: dict
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Record:
    """One attempted operation.

    ``ref`` is the reference unit's time around the operation (the mean of
    the samples just before and just after it), or None when the run did not
    sample it.
    """

    kind: str
    latency: float
    problem: Optional[str]
    inputs: dict
    ref: Optional[float] = None

    @property
    def latency_at_ref(self):
        """The latency scaled to a host on which the reference unit takes REF_NOMINAL_S."""
        return self.latency * REF_NOMINAL_S / self.ref


@dataclass
class Context:
    """State one run shares with its workload.

    scale     -- "full" for the benchmark, "tiny" for the self-tests
    work_dir  -- scratch directory for files the operations write
    tracer    -- the installed Tracer during the traced half of a traced run
    cache     -- untimed inputs a workload reuses within the run
    recovered -- strain_map estimates that recovered their generating point
    child_maxrss_kib, cli_times, csv_bytes -- what cli_defaults measures
                 about its child processes and their CSV files
    """

    scale: str = "full"
    work_dir: str = ""
    tracer: object = None
    cache: dict = field(default_factory=dict)
    recovered: int = 0
    child_maxrss_kib: int = 0
    cli_times: dict = field(default_factory=dict)
    csv_bytes: int = 0

    def span(self, name):
        if self.tracer is None:
            return _NullSpan()
        return self.tracer.span(name)


class _NullSpan:
    items = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def run_ops(workload, ctx, seed, seconds=None, passes=None, host_speed=False):
    """Closed loop with one client: run whole passes of operations.

    With ``passes`` the amount of work is fixed.  Otherwise passes continue
    while the next one is expected to end nearer to ``seconds`` than
    stopping now would, so every run measures whole passes.  With
    ``host_speed`` the reference unit is sampled between operations (untimed)
    and each record carries the mean of the samples before and after it.
    A long operation gets longer samples, so that it is bracketed by a steady
    estimate of the host's speed.
    """
    records = []
    start = time.perf_counter()
    ref = reference_time() if host_speed else None
    k = 0
    while True:
        for op in workload.make_pass(seed, k, ctx):
            t0 = time.perf_counter()
            try:
                out = op.run()
                latency = time.perf_counter() - t0
                op.check(out)
                problem = None
            except Exception as exc:   # a failed operation is counted, not fatal
                latency = time.perf_counter() - t0
                problem = "%s: %s" % (type(exc).__name__, exc)
            record = Record(op.kind, latency, problem, op.inputs)
            if host_speed:
                units = int(REF_SHARE * latency / REF_NOMINAL_S)
                after = reference_time(min(max(units, REF_UNITS), REF_MAX_UNITS))
                record.ref, ref = 0.5 * (ref + after), after
            records.append(record)
        k += 1
        if passes is not None:
            if k >= passes:
                break
        else:
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / k >= seconds:
                break
    return records


# -- host speed -----------------------------------------------------------------
#
# The speed of a core on a shared host drifts by up to 1.9x over seconds to
# minutes.  A fixed reference unit, timed between operations, follows that
# drift.  Each operation's latency is divided by the mean of the reference
# samples just before and just after it and multiplied by REF_NOMINAL_S.  The
# unit is interpreted Python and Poisson draws over a few thousand elements:
# of the candidates tried (small dense eigh, Kronecker products, vectorised
# cos/exp, large-array reductions), these two slowed by about the same factor
# as sivreg's operations when the host did.  The unit calls no sivreg code, so
# a change to the program does not change it.

REF_UNITS = 21            # least units per sample; a sample is their median time
REF_MAX_UNITS = 2000
REF_SHARE = 0.15          # a sample lasts about this share of the operation before it
REF_NOMINAL_S = 5.0e-4    # about one unit on the 2-core VM of README.md
_LAM = np.full(2048, 6.0)


def _reference_unit(gen):
    gen.poisson(_LAM).sum()
    acc = 0
    for i in range(6000):
        acc += i * i
    return acc


def reference_time(units=REF_UNITS):
    """Median time of ``units`` reference units, now."""
    gen = np.random.default_rng(7)
    times = []
    for _ in range(units):
        t0 = time.perf_counter()
        _reference_unit(gen)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- checks -------------------------------------------------------------------


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def require_finite(values, what):
    """Every value finite; SweepResult's [0, 1] check lets NaN through."""
    bad = [v for v in _flatten(values) if not math.isfinite(v)]
    require(not bad, "%s holds %d non-finite value(s)" % (what, len(bad)))


def require_close(value, expected, rel, what):
    require(math.isfinite(value) and abs(value - expected) <= rel * abs(expected),
            "%s = %r, expected %r within %g relative" % (what, value, expected, rel))


def require_sweep(sweep, what):
    """Finite axis, signal and aux, signal within [0, 1]."""
    require_finite(sweep.axis, what + " axis")
    require_finite(sweep.signal, what + " signal")
    for key, values in (sweep.aux or {}).items():
        require_finite(values, "%s aux %s" % (what, key))
    require(len(sweep.signal) > 0, what + " is empty")
    require(min(sweep.signal) >= -1e-9 and max(sweep.signal) <= 1 + 1e-9,
            what + " signal outside [0, 1]")


def _flatten(values):
    if hasattr(values, "tolist"):
        values = values.tolist()
    if isinstance(values, (list, tuple)):
        for v in values:
            yield from _flatten(v)
    else:
        yield float(values)
