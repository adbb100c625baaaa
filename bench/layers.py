"""Per-layer metrics of the traced run, computed from the span aggregates.

Each metric names the spans it needs.  When one of them was not found in the
package (renamed or deleted), the metric reads ``missing``.  Ratios and rates
whose base is zero on a workload (no estimates on ``lab_chain``, say) read 0.
"""

from cli_defaults import SUBCOMMANDS
from tracer import LAYERS

SEQ_SWEEPS = ("sequences.run_rabi", "sequences.run_ramsey", "sequences.run_dd",
              "sequences.run_spin_lock", "sequences.run_nuclear_rotation",
              "sequences.run_rb")
SEQ_CALIBRATE = ("sequences.calibrate_quarter_rotation", "sequences.calibrate_transfer_wait",
                 "sequences.calibrate_cenotn", "sequences.calibrate_cnnote")
OPT_SWEEPS = ("optics.run_optical_rabi", "optics.run_phase_control")
U_LOOKUPS = ("sequences.u_free", "sequences.u_pulse")


def _ratio(num, den):
    return num / den if den else 0.0


class _View:
    """Read access to a Tracer's aggregates; absent spans read as zero."""

    def __init__(self, tracer):
        self.tracer = tracer

    def _get(self, name, field):
        st = self.tracer.stats.get(name)
        return getattr(st, field) if st is not None else 0

    def calls(self, *names):
        return sum(self._get(n, "calls") for n in names)

    def total(self, *names):
        return sum(self._get(n, "total") for n in names)

    def self_s(self, *names):
        return sum(self._get(n, "self_time") for n in names)

    def items(self, *names):
        return sum(self._get(n, "items") for n in names)

    def errors(self, *names):
        return sum(self._get(n, "errors") for n in names)

    def under(self, name, parents):
        st = self.tracer.stats.get(name)
        return sum(st.parents.get(p, 0) for p in parents) if st is not None else 0


# (name, unit, spans needed, rule(view, info) -> value)
PER_LAYER = [
    ("cli.import_s", "s", (), lambda v, i: i["import_s"]),
    ("cli.import_scipy_s", "s", (), lambda v, i: i["import_scipy_s"]),
] + [
    ("cli.%s_s" % sub, "s", (), lambda v, i, sub=sub: i["cli_times"].get(sub, 0.0))
    for sub in SUBCOMMANDS
] + [
    ("cli.write_csv_s", "s", ("cli.write_csv",), lambda v, i: v.total("cli.write_csv")),
    ("cli.csv_bytes", "bytes", (), lambda v, i: i["csv_bytes"]),
    ("linalg.eig_calls", "count", ("linalg.eig",), lambda v, i: v.calls("linalg.eig")),
    ("linalg.eig_self_s", "s", ("linalg.eig",), lambda v, i: v.self_s("linalg.eig")),
    ("linalg.kron_calls", "count", ("linalg.kron",), lambda v, i: v.calls("linalg.kron")),
    ("linalg.kron_self_s", "s", ("linalg.kron",), lambda v, i: v.self_s("linalg.kron")),
    ("linalg.propagator_calls", "count", ("linalg.propagator",),
     lambda v, i: v.calls("linalg.propagator")),
    ("electronic.hamiltonian_calls", "count", ("electronic.hamiltonian",),
     lambda v, i: v.calls("electronic.hamiltonian")),
    ("electronic.hamiltonian_self_s", "s", ("electronic.hamiltonian",),
     lambda v, i: v.self_s("electronic.hamiltonian")),
    ("electronic.forward_calls", "count", ("electronic.forward",),
     lambda v, i: v.calls("electronic.forward")),
    ("electronic.forward_self_s", "s", ("electronic.forward",),
     lambda v, i: v.self_s("electronic.forward")),
    ("electronic.forward_calls_per_estimate", "count",
     ("electronic.forward", "electronic.estimate"),
     lambda v, i: _ratio(v.under("electronic.forward", ("electronic.estimate",)),
                         v.calls("electronic.estimate"))),
    ("electronic.estimate_s", "s", ("electronic.estimate",),
     lambda v, i: _ratio(v.total("electronic.estimate"), v.calls("electronic.estimate"))),
    ("electronic.map_points_per_s", "1/s", ("electronic.forward",),
     lambda v, i: _ratio(v.items("bench.map"), v.total("bench.map"))),
    ("electronic.estimate_recovered_ratio", "ratio", ("electronic.estimate",),
     lambda v, i: _ratio(i["recovered"], v.calls("electronic.estimate"))),
    ("register.hamiltonian_calls", "count", ("register.hamiltonian",),
     lambda v, i: v.calls("register.hamiltonian")),
    ("register.state_validate_calls", "count", ("register.validate",),
     lambda v, i: v.calls("register.validate")),
    ("sequences.engine_builds", "count", ("sequences.engine_init",),
     lambda v, i: v.calls("sequences.engine_init")),
    ("sequences.u_lookups", "count", U_LOOKUPS, lambda v, i: v.calls(*U_LOOKUPS)),
    ("sequences.u_cache_hit_ratio", "ratio", U_LOOKUPS + ("linalg.propagator",),
     lambda v, i: _ratio(v.calls(*U_LOOKUPS) - v.under("linalg.propagator", U_LOOKUPS),
                         v.calls(*U_LOOKUPS))),
    ("sequences.sweep_points_per_s", "1/s", SEQ_SWEEPS,
     lambda v, i: _ratio(v.items(*SEQ_SWEEPS), v.total(*SEQ_SWEEPS))),
    ("sequences.calibrate_self_s", "s", SEQ_CALIBRATE, lambda v, i: v.self_s(*SEQ_CALIBRATE)),
    ("readout.shots_per_s", "1/s", ("readout.simulate_ssr",),
     lambda v, i: _ratio(v.items("readout.simulate_ssr"), v.total("readout.simulate_ssr"))),
    ("readout.ssr_self_s", "s", ("readout.simulate_ssr",),
     lambda v, i: v.self_s("readout.simulate_ssr")),
    ("readout.classify_self_s", "s", ("readout.classify_threshold",),
     lambda v, i: v.self_s("readout.classify_threshold")),
    ("readout.histfit_self_s", "s", ("readout.fit_photon_histogram",),
     lambda v, i: v.self_s("readout.fit_photon_histogram")),
    ("optics.lindblad_calls", "count", ("optics.evolve_lindblad",),
     lambda v, i: v.calls("optics.evolve_lindblad")),
    ("optics.rk4_steps", "count", ("optics.derivative",),
     lambda v, i: v.calls("optics.derivative") / 4.0),
    ("optics.sweep_points_per_s", "1/s", OPT_SWEEPS,
     lambda v, i: _ratio(v.items(*OPT_SWEEPS), v.total(*OPT_SWEEPS))),
    ("fitting.lsq_calls", "count", ("fitting.least_squares",),
     lambda v, i: v.calls("fitting.least_squares")),
    ("fitting.lsq_self_s", "s", ("fitting.least_squares",),
     lambda v, i: v.self_s("fitting.least_squares")),
    ("fitting.model_evals", "count", ("fitting.model_eval",),
     lambda v, i: v.calls("fitting.model_eval")),
    ("fitting.evals_per_fit", "count", ("fitting.model_eval", "fitting.least_squares"),
     lambda v, i: _ratio(v.calls("fitting.model_eval"), v.calls("fitting.least_squares"))),
    ("fitting.converged_ratio", "ratio", ("fitting.least_squares",),
     lambda v, i: _ratio(v.items("fitting.least_squares"),
                         v.calls("fitting.least_squares") - v.errors("fitting.least_squares"))),
    ("fitting.failures", "count", ("fitting.least_squares",),
     lambda v, i: v.errors("fitting.least_squares")),
] + [
    # every layer's self time: together they account for the operation time
    ("%s.self_s" % layer, "s", (), lambda v, i, layer=layer: v.tracer.layer_self(layer))
    for layer in LAYERS
] + [
    ("proc.op_time_s", "s", (), lambda v, i: i["op_time_s"]),
    ("proc.unattributed_s", "s", (),
     lambda v, i: i["op_time_s"] - sum(v.tracer.layer_self(layer) for layer in LAYERS)),
    ("proc.cpu_per_wall", "ratio", (), lambda v, i: i["cpu_per_wall"]),
    ("proc.trace_overhead", "ratio", (), lambda v, i: i["trace_overhead"]),
    ("proc.fail_ratio", "ratio", (), lambda v, i: i["fail_ratio"]),
]


def per_layer_metrics(tracer, info):
    """Metric name -> {"value", "unit"}; ``"status": "missing"`` for absent spans."""
    view = _View(tracer)
    out = {}
    for name, unit, needs, rule in PER_LAYER:
        if any(n in tracer.missing for n in needs):
            out[name] = {"value": None, "unit": unit, "status": "missing"}
        else:
            out[name] = {"value": rule(view, info), "unit": unit}
    return out
