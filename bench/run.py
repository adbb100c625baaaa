"""sivreg benchmark: one command per workload run.

Usage:
    python3 bench/run.py --workload {cli_defaults,strain_map,lab_chain,all}
                         --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures the end-to-end metrics with tracing off.
With ``--trace 1`` it runs a fixed amount of the workload twice, untraced and
then with span wrappers installed, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give the run
record, every metric with its unit and every failed operation with its
inputs.  See README.md in this directory.
"""

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from harness import BENCH_DIR, REF_NOMINAL_S, ROOT, SRC, WORK_DIR, Context, run_ops

WORKLOADS = ("cli_defaults", "strain_map", "lab_chain")
IN_PROCESS = ("strain_map", "lab_chain")
SETUP_PROBES = 5
IMPORT_PROBES = 3
# passes of the fixed-size traced run (a strain_map pass is one emitter)
TRACE_PASSES = {"cli_defaults": 1, "strain_map": 2, "lab_chain": 1}
END_TO_END = (("setup_s", "s"), ("ops_per_s_at_ref", "ops/s"), ("op_p50_s_at_ref", "s"),
              ("peak_rss_mb", "MiB"))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def measure_setup(workload):
    """Median wall time of fresh processes that import sivreg and warm up."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "probe.py"), workload]
    quiet = {"env": child_env(), "cwd": ROOT, "check": True,
             "stdout": subprocess.DEVNULL}
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, **quiet)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def parse_importtime(text):
    """(sivreg import s, scipy import s) from ``-X importtime`` output.

    The sivreg time is the cumulative time of the outermost sivreg entries
    (``sivreg.cli`` holds ``sivreg``); the scipy time sums the self time of
    every scipy module.
    """
    outer = {}   # indentation -> cumulative us of sivreg entries at that depth
    scipy_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except (ValueError, IndexError):
            continue   # column header
        name = parts[2].strip()
        depth = len(parts[2]) - len(parts[2].lstrip())
        if name == "sivreg" or name.startswith("sivreg."):
            outer[depth] = outer.get(depth, 0) + cum_us
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    return (outer[min(outer)] if outer else 0) * 1e-6, scipy_us * 1e-6


def measure_imports():
    cmd = [sys.executable, "-X", "importtime", "-c", "import sivreg.cli"]
    pairs = [parse_importtime(subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True,
                                             capture_output=True, text=True).stderr)
             for _ in range(IMPORT_PROBES)]
    return statistics.median(p[0] for p in pairs), statistics.median(p[1] for p in pairs)


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def throughput(records, at_ref=False):
    """Operations per second of operation time (one closed-loop client).

    Failed operations count like the others; ``failed`` reports them.
    """
    busy = sum(r.latency_at_ref if at_ref else r.latency for r in records)
    return len(records) / busy if busy else 0.0


def measured_run(name, module, seed, seconds, ctx):
    # the in-process warm-up also writes the bytecode a fresh checkout lacks,
    # so no probe pays for compiling it
    module.warm_up()
    setup_s = measure_setup(name)
    records = run_ops(module, ctx, seed, seconds=seconds, host_speed=True)
    lat = [r.latency_at_ref for r in records]
    if name in IN_PROCESS:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kib = ctx.child_maxrss_kib
    values = {"setup_s": setup_s, "ops_per_s_at_ref": throughput(records, at_ref=True),
              "op_p50_s_at_ref": statistics.median(lat), "peak_rss_mb": rss_kib / 1024.0}
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    raw = [r.latency for r in records]
    refs = [r.ref for r in records]
    notes = ["op_p50_s_at_ref over %d samples" % len(lat)]
    if len(lat) >= 100:   # at least ten samples beyond the 90th percentile
        notes.append("op_p90_s_at_ref = %.6g s over %d samples"
                     % (statistics.quantiles(lat, n=10)[-1], len(lat)))
    else:
        notes.append("op_p90_s_at_ref not reported: %d samples, fewer than 100" % len(lat))
    notes.append("as measured, not scaled: ops_per_s %.6g ops/s, op_p50_s %.6g s"
                 % (throughput(records), statistics.median(raw)))
    notes.append("reference unit around the operations: median %.6g s, range %.6g-%.6g s "
                 "(nominal %.6g s)" % (statistics.median(refs), min(refs), max(refs),
                                       REF_NOMINAL_S))
    return records, metrics, notes


def traced_run(name, module, seed, scale, work_dir):
    from layers import per_layer_metrics
    from tracer import Tracer

    module.warm_up()
    import_s, import_scipy_s = measure_imports()
    passes = TRACE_PASSES[name]

    plain = Context(scale=scale, work_dir=os.path.join(work_dir, "untraced"))
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    untraced = run_ops(module, plain, seed, passes=passes)
    cpu_per_wall = (cpu_seconds() - cpu0) / (time.perf_counter() - t0)

    tracer = Tracer()
    traced_ctx = Context(scale=scale, work_dir=os.path.join(work_dir, "traced"),
                         tracer=tracer, cache=plain.cache)
    if name in IN_PROCESS:
        tracer.install()   # cli_defaults children install their own
    try:
        traced = run_ops(module, traced_ctx, seed, passes=passes)
    finally:
        tracer.uninstall()

    everything = untraced + traced
    base = throughput(untraced)
    info = {
        "import_s": import_s, "import_scipy_s": import_scipy_s,
        "cli_times": plain.cli_times, "csv_bytes": plain.csv_bytes,
        "recovered": traced_ctx.recovered,
        "op_time_s": sum(r.latency for r in traced),
        "cpu_per_wall": cpu_per_wall,
        "trace_overhead": throughput(traced) / base - 1.0 if base else 0.0,
        "fail_ratio": sum(1 for r in everything if r.problem) / len(everything),
    }
    notes = ["%-40s %8s %10s %10s" % ("span", "calls", "total_s", "self_s")]
    for span, st in sorted(tracer.stats.items()):
        notes.append("%-40s %8d %10.4f %10.4f" % (span, st.calls, st.total, st.self_time))
    if tracer.missing:
        notes.append("missing spans: " + ", ".join(sorted(tracer.missing)))
    return everything, per_layer_metrics(tracer, info), notes


def run_record(name, seed):
    import numpy
    record = {"workload": name, "seed": seed, "git_sha": None, "git_dirty": None,
              "python": platform.python_version(), "numpy": numpy.__version__,
              "scipy": importlib.metadata.version("scipy"), "blas": None,
              "blas_version": None, "nproc": os.cpu_count(),
              "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
              "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"], record["blas_version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass   # numpy older than 1.26 has no dict form of its build config
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True)
        if sha.returncode == 0:
            record["git_sha"] = sha.stdout.strip()
            record["git_dirty"] = bool(dirty.stdout.strip())
    return record


def run(name, seed, seconds, trace, scale="full"):
    """Run one workload; returns (result dict, text lines)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import sivreg
    if not os.path.abspath(sivreg.__file__).startswith(SRC + os.sep):
        raise RuntimeError("imported sivreg from %s, not from %s" % (sivreg.__file__, SRC))
    module = importlib.import_module(name)
    os.makedirs(WORK_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=name + "-", dir=WORK_DIR)
    try:
        if trace:
            records, metrics, notes = traced_run(name, module, seed, scale, work_dir)
        else:
            ctx = Context(scale=scale, work_dir=work_dir)
            records, metrics, notes = measured_run(name, module, seed, seconds, ctx)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = [r for r in records if r.problem is not None]
    lines = ["run_record " + json.dumps(run_record(name, seed), sort_keys=True)]
    lines += ["%s = %s %s" % (key, m["value"] if m["value"] is not None else "missing",
                              m["unit"]) for key, m in metrics.items()]
    lines += notes
    lines += ["FAILED %s %s: %s" % (r.kind, json.dumps(r.inputs, default=str), r.problem)
              for r in failed]
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs each workload in turn, in its own process")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="operation sizes; 'tiny' is for the self-tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sivreg", "__init__.py")):
        print("bench: no sivreg sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        for name in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", args.scale]
            code = subprocess.run(cmd).returncode
            if code:
                return code
        return 0
    result, lines = run(args.workload, args.seed, args.seconds, args.trace, args.scale)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
