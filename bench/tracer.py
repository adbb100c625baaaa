"""Span tracer for the traced benchmark run.

The tracer wraps public functions of every sivreg layer from outside the
package: nothing under ``src/`` is edited.  A function imported by name into
several modules (``hermitian_eig`` is bound in ``linalg``, ``electronic``,
``register`` and ``sequences``) is replaced in every module that binds it, so
each call is seen whichever module makes it.  A target that no longer exists
is recorded in ``Tracer.missing``; the metrics that need it then read
``missing`` instead of stopping the run.

Each wrapped call is a span.  Spans nest on one stack (the benchmark is single
threaded), and a span's self time is its duration minus the time covered by
the spans it caused.  Only per-name aggregates are kept in memory: call count,
total time, self time, raised exceptions, an item count taken from the result
and the count of calls per parent span.
"""

import importlib
import sys
import time

# (span name, module, attribute path, kind, item rule)
#   kind "span":  timed span;  "count": call count only, its time stays with
#   the caller.  The item rule names what a call contributes to ``items``.
TARGETS = (
    ("linalg.eig", "linalg", "hermitian_eig", "span", None),
    ("linalg.kron", "linalg", "kron", "span", None),
    ("linalg.propagator", "linalg", "propagator_from_eig", "span", None),
    ("electronic.hamiltonian", "electronic", "build_hamiltonian", "span", None),
    ("electronic.forward", "electronic", "observables_at", "span", None),
    ("electronic.estimate", "electronic", "estimate_parameters", "span", None),
    ("register.hamiltonian", "register", "hamiltonian", "span", None),
    ("register.op_at", "register", "op_at", "span", None),
    ("register.validate", "register", "RegisterState.validate", "span", None),
    ("register.apply_pulse", "register", "apply_pulse", "span", None),
    ("register.free_evolve", "register", "free_evolve", "span", None),
    ("register.apply_unitary", "register", "apply_unitary", "span", None),
    ("register.dephase_electron", "register", "dephase_electron", "span", None),
    ("register.initialize_electron", "register", "initialize_electron", "span", None),
    ("register.repump_electron", "register", "repump_electron", "span", None),
    ("register.measure", "register", "measure", "span", None),
    ("sequences.engine_init", "sequences", "Engine.__init__", "span", None),
    ("sequences.u_free", "sequences", "Engine.u_free", "span", None),
    ("sequences.u_pulse", "sequences", "Engine.u_pulse", "span", None),
    ("sequences.run_rabi", "sequences", "run_rabi", "span", "sweep"),
    ("sequences.run_ramsey", "sequences", "run_ramsey", "span", "sweep"),
    ("sequences.run_dd", "sequences", "run_dd", "span", "sweep"),
    ("sequences.run_spin_lock", "sequences", "run_spin_lock", "span", "sweep"),
    ("sequences.run_nuclear_rotation", "sequences", "run_nuclear_rotation", "span", "sweep"),
    ("sequences.run_rb", "sequences", "run_randomized_benchmarking", "span", "rb"),
    ("sequences.extract_full_rotation", "sequences", "extract_full_rotation", "span", None),
    ("sequences.calibrate_quarter_rotation", "sequences", "calibrate_quarter_rotation",
     "span", None),
    ("sequences.calibrate_transfer_wait", "sequences", "calibrate_transfer_wait", "span", None),
    ("sequences.calibrate_cenotn", "sequences", "calibrate_cenotn", "span", None),
    ("sequences.calibrate_cnnote", "sequences", "calibrate_cnnote", "span", None),
    ("sequences.nuclear_init_gate", "sequences", "nuclear_init_gate", "span", None),
    ("sequences.ui_probe_signal", "sequences", "ui_probe_signal", "span", None),
    ("sequences.transfer_matrix", "sequences", "transfer_matrix", "span", None),
    ("sequences.gate_apply", "sequences", "CompositeGate.apply", "span", None),
    ("readout.simulate_ssr", "readout", "simulate_ssr", "span", "len"),
    ("readout.classify_threshold", "readout", "classify_threshold", "span", None),
    ("readout.fit_photon_histogram", "readout", "fit_photon_histogram", "span", None),
    ("readout.extract_pulse_metrics", "readout", "extract_pulse_metrics", "span", None),
    ("optics.evolve_lindblad", "optics", "evolve_lindblad", "span", None),
    ("optics.derivative", "optics", "_derivative", "count", None),
    ("optics.run_optical_rabi", "optics", "run_optical_rabi", "span", "sweep"),
    ("optics.run_phase_control", "optics", "run_phase_control", "span", "sweep"),
    ("optics.fluorescence_decay", "optics", "fluorescence_decay", "span", None),
    ("optics.extract_lifetime", "optics", "extract_lifetime", "span", None),
    ("optics.lifetime_ensemble", "optics", "lifetime_ensemble", "span", None),
    ("optics.fit_damped_rabi", "optics", "fit_damped_rabi", "span", None),
    ("optics.extract_optical_decoherence", "optics", "extract_optical_decoherence", "span", None),
    ("fitting.least_squares", "fitting", "least_squares", "span", "converged"),
    ("fitting.model_eval", "fitting", "ModelSpec.__call__", "span", None),
    ("cli.main", "cli", "main", "span", None),
    ("cli.write_csv", "cli", "write_csv", "span", None),
)

LAYERS = ("cli", "linalg", "electronic", "register", "sequences", "readout",
          "optics", "fitting")


def _items(rule, result):
    if rule == "sweep":
        return len(result.axis)
    if rule == "rb":
        return len(result.sweep.axis)
    if rule == "len":
        return len(result)
    if rule == "converged":
        return int(bool(result.converged))
    return 0


class SpanStat:
    """Aggregate of every span that carried one name."""

    __slots__ = ("calls", "total", "self_time", "errors", "items", "parents")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = 0
        self.items = 0
        self.parents = {}

    def as_list(self):
        return [self.calls, self.total, self.self_time, self.errors,
                self.items, dict(self.parents)]

    def add_list(self, row):
        calls, total, self_time, errors, items, parents = row
        self.calls += calls
        self.total += total
        self.self_time += self_time
        self.errors += errors
        self.items += items
        for name, n in parents.items():
            self.parents[name] = self.parents.get(name, 0) + n


class Tracer:
    """Installs span wrappers into the loaded sivreg modules and aggregates them."""

    def __init__(self):
        self.stats = {}
        self.missing = set()
        self._stack = []     # open spans: [name, time covered by children]
        self._patches = []   # (owner, attribute, original) for uninstall

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStat()
        return st

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        st = self.stat(name)
        parent = self._stack[-1][0] if self._stack else ""
        st.parents[parent] = st.parents.get(parent, 0) + 1
        frame = [name, 0.0]
        self._stack.append(frame)
        return st, frame

    def _exit(self, st, frame, t0):
        dt = time.perf_counter() - t0
        self._stack.pop()
        st.calls += 1
        st.total += dt
        st.self_time += dt - frame[1]
        if self._stack:
            self._stack[-1][1] += dt

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _BenchSpan(self, name)

    def _wrap_span(self, fn, name, rule):
        tracer = self

        def wrapper(*args, **kwargs):
            st, frame = tracer._enter(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
            finally:
                tracer._exit(st, frame, t0)
            if rule is not None:
                st.items += _items(rule, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_count(self, fn, name):
        st = self.stat(name)

        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, package="sivreg"):
        """Wrap every TARGETS entry, in every loaded module of the package that binds it."""
        for name, module_name, path, kind, rule in TARGETS:
            try:
                module = importlib.import_module(package + "." + module_name)
            except ModuleNotFoundError:
                module = None
            owner_name, _, attr = path.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = None
            if owner is not None:
                original = (vars(owner).get(attr) if owner_name
                            else getattr(owner, attr, None))
            if original is None or not callable(original):
                self.missing.add(name)
                continue
            if kind == "span":
                wrapper = self._wrap_span(original, name, rule)
            else:
                wrapper = self._wrap_count(original, name)
            self.stat(name)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            modules = [m for n, m in sorted(sys.modules.items())
                       if m is not None and (n == package or n.startswith(package + "."))]
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export --------------------------------------------------------------

    def dump(self):
        return {"stats": {n: s.as_list() for n, s in self.stats.items()},
                "missing": sorted(self.missing)}

    def merge(self, dumped):
        for name, row in dumped["stats"].items():
            self.stat(name).add_list(row)
        self.missing.update(dumped["missing"])

    def layer_self(self, layer):
        return sum(s.self_time for n, s in self.stats.items()
                   if n.split(".", 1)[0] == layer)


class _BenchSpan:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.st, self.frame = self.tracer._enter(self.name)
        self.t0 = time.perf_counter()
        return self.st

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.st.errors += 1
        self.tracer._exit(self.st, self.frame, self.t0)
        return False
