"""Workload ``cli_defaults``: every subcommand at its defaults, one fresh process each.

This is what a CLI user pays per run: interpreter start, ``import sivreg``,
the experiment and the CSV write.  A pass runs the 13 invocations in an
order drawn from the seed, which also seeds ``ssr`` and ``run rb``.  One
child runs at a time.

``fit`` is not part of the pass: ``fit --model single_exp`` on the noiseless
``optical --mode decay`` CSV writes ``nan`` in every ``sigma`` cell (see
README.md), and a pass holds only invocations that succeed.
``selftest.py`` keeps that invocation as an expected failure.
"""

import json
import math
import os
import random
import subprocess
import sys
import time

from harness import BENCH_DIR, SRC, Op, require

LARMOR = ["--larmor-n", "3.5857929e6"]
CLI_MAIN = "import sys; from sivreg.cli import main; sys.exit(main())"
CLI_CHILD = os.path.join(BENCH_DIR, "cli_child.py")

# reduced sweeps for the self-tests; the benchmark passes no size flag
TINY_FLAGS = {
    "run_rabi": ["--sweep-points", "11"], "run_ramsey": ["--sweep-points", "11"],
    "run_dd": ["--sweep-points", "5"], "run_spinlock": ["--sweep-points", "11"],
    "run_nucrot": ["--sweep-points", "11"], "run_rb": ["--n-random", "2"],
    "ssr": ["--n-shots", "200"], "optical_rabi": ["--sweep-points", "5"],
    "optical_phase": ["--sweep-points", "5"],
}


def invocations(seed):
    """Label and arguments of the 13 invocations of a pass."""
    return [
        ("structure", ["structure", "--epsilon", "392e9", "--alpha", "0.68",
                       "--btheta", "28", "--b", "0.3348577"]),
        ("estimate", ["estimate"]),
        ("run_rabi", ["run", "rabi"] + LARMOR),
        ("run_ramsey", ["run", "ramsey"] + LARMOR),
        ("run_dd", ["run", "dd"] + LARMOR),
        ("run_spinlock", ["run", "spinlock"] + LARMOR),
        ("run_nucrot", ["run", "nucrot"] + LARMOR),
        ("run_gates", ["run", "gates"] + LARMOR),
        ("run_rb", ["run", "rb"] + LARMOR + ["--seed", str(seed)]),
        ("ssr", ["ssr", "--seed", str(seed)]),
        ("optical_rabi", ["optical", "--mode", "rabi"]),
        ("optical_phase", ["optical", "--mode", "phase"]),
        ("optical_decay", ["optical", "--mode", "decay"]),
    ]


SUBCOMMANDS = tuple(label for label, _ in invocations(0))


def warm_up():
    """What every invocation does before its experiment: import and parse setup."""
    import sivreg.cli
    sivreg.cli.build_parser()


def launch(argv, out_dir, trace_file=None):
    """Run one CLI child in ``out_dir``; returns (exit code, rusage, stderr text)."""
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, SIVREG_OUTPUT_DIR=out_dir)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    if trace_file is None:
        cmd = [sys.executable, "-c", CLI_MAIN] + argv
    else:
        cmd = [sys.executable, CLI_CHILD, trace_file] + argv
    err_path = os.path.join(out_dir, "stderr.txt")
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, cwd=out_dir, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path) as fh:
        return proc.returncode, usage, fh.read()


def read_csv(path):
    """(results, cells) of a sivreg CSV: '# result' values and data cells."""
    results, cells = {}, []
    with open(path) as fh:
        lines = fh.read().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    for ln in lines:
        if ln.startswith("# result "):
            key, _, value = ln[len("# result "):].partition("=")
            results[key] = value
    for ln in data[1:]:
        cells.extend(ln.split(","))
    return results, cells


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _csv_in(out_dir):
    names = sorted(n for n in os.listdir(out_dir) if n.endswith(".csv"))
    require(len(names) == 1, "expected one CSV in %s, found %r" % (out_dir, names))
    return os.path.join(out_dir, names[0])


def make_pass(seed, index, ctx):
    rng = random.Random(seed * 1000003 + index)
    order = invocations(seed)
    rng.shuffle(order)
    pass_dir = os.path.join(ctx.work_dir, "pass%d" % index)

    ops = []
    for label, argv in order:
        if ctx.scale == "tiny":
            argv = argv + TINY_FLAGS.get(label, [])
        out_dir = os.path.join(pass_dir, label)
        ops.append(Op(label, {"seed": seed, "pass": index, "argv": argv},
                      _runner(ctx, label, argv, out_dir), _checker(ctx, label, argv, out_dir)))
    return ops


def _runner(ctx, label, argv, out_dir):
    def run():
        trace_file = None
        if ctx.tracer is not None:
            trace_file = os.path.join(out_dir, "trace.json")
        t0 = time.perf_counter()
        rc, usage, err = launch(argv, out_dir, trace_file)
        ctx.cli_times[label] = time.perf_counter() - t0
        ctx.child_maxrss_kib = max(ctx.child_maxrss_kib, usage.ru_maxrss)
        if trace_file is not None and os.path.exists(trace_file):
            with open(trace_file) as fh:
                ctx.tracer.merge(json.load(fh))
        return rc, err
    return run


def _checker(ctx, label, argv, out_dir):
    def check(out):
        rc, err = out
        require(rc == 0, "exit code %d: %s" % (rc, err.strip()[-300:]))
        path = _csv_in(out_dir)
        ctx.csv_bytes += os.path.getsize(path)
        results, cells = read_csv(path)
        numbers = [_number(c) for c in cells + list(results.values())]
        bad = sum(1 for v in numbers if v is not None and not math.isfinite(v))
        require(bad == 0, "%d non-finite CSV value(s)" % bad)
        if label == "estimate":
            require(results.get("converged") == "true", "estimate did not converge")
        if label == "optical_decay":
            with open(path) as fh:
                t1 = float(next(ln for ln in fh if ln.startswith("# config t1=")).split("=", 1)[1])
            t1_fit = float(results["t1_fit"])
            require(abs(t1_fit / t1 - 1.0) <= 0.01, "t1_fit %r vs t1 %r" % (t1_fit, t1))
        if label == "ssr":
            # seeded Monte Carlo: a second identical invocation must match byte for byte
            again_dir = out_dir + "_repeat"
            rc2, _, err2 = launch(argv, again_dir)
            require(rc2 == 0, "repeated invocation exit code %d: %s" % (rc2, err2.strip()[-300:]))
            with open(path, "rb") as a, open(_csv_in(again_dir), "rb") as b:
                require(a.read() == b.read(), "repeated invocation wrote a different CSV")
    return check
