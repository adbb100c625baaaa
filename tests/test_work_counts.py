"""Pinned work counts of the lockstep fits and of the golden CLI invocations,
counted by wrappers around sivreg functions as tests/test_bench_contract.py
wraps them.

A change that alters how much work one of these calls does updates the pinned
number here, and so states its before and after.  At the README targets the
strain estimate ran, before its starts were stepped in lockstep, 8 separate
fits: 188 model evaluations, 266 forward-model calls (77 of them with the
Jacobian) and 322 single-block eigensolves.  Stepped in lockstep, it formed
the Jacobian of every trial point, 188 rows in 29 calls, before it formed
them at the starts and the accepted points only.  Before it ran one
closed-form start first, with the 8-start grid only as its fallback, the
estimate always ran the grid: one K = 8 fit of 29 stacked evaluations, 30
hermitian_eig calls solving 378 blocks, and 77 Jacobian rows in 19 calls.
While a fit stopped only after 3 accepted steps that each lowered the cost by
less than 1e-10 of it, the closed-form start took 17 evaluations, 18
hermitian_eig calls solving 36 blocks, and 7 Jacobian rows.
"""

import dataclasses
import math

import numpy as np
import pytest

from sivreg import electronic, fitting, linalg, optics, readout, register, sequences
from test_golden import INVOCATIONS, run_invocation

TARGETS = (9.431e9, 254.654e6, 1110.755e9, 816.285)


def test_strain_estimate_work_at_the_readme_targets(monkeypatch):
    counts = {"lsq": 0, "rows": 0, "model": 0, "model_jacobian": 0, "eig": 0, "blocks": 0,
              "jacobian_calls": 0, "jacobian_rows": 0}
    fits = []
    call, rows, eig = fitting.ModelSpec.__call__, fitting.least_squares_rows, electronic.hermitian_eig
    forward = electronic._forward_stack

    def counted_call(self, x, params, jacobian=False):
        counts["model"] += 1
        counts["model_jacobian"] += bool(jacobian)
        return call(self, x, params, jacobian=jacobian)

    def counted_rows(*args, **kwargs):
        counts["rows"] += 1
        out = rows(*args, **kwargs)
        fits.extend(out)
        return out

    def counted_lsq(*args, **kwargs):
        counts["lsq"] += 1
        raise AssertionError("the estimate fits through least_squares_rows")

    def counted_eig(h):
        counts["eig"] += 1
        counts["blocks"] += math.prod(np.shape(h)[:-2])
        return eig(h)

    def counted_forward(*args):
        obs, jacobian_of = forward(*args)

        def counted_jacobian(rows):
            jac = jacobian_of(rows)
            counts["jacobian_calls"] += 1
            counts["jacobian_rows"] += len(jac)
            return jac
        return obs, counted_jacobian

    monkeypatch.setattr(fitting.ModelSpec, "__call__", counted_call)
    monkeypatch.setattr(fitting, "least_squares_rows", counted_rows)
    monkeypatch.setattr(fitting, "least_squares", counted_lsq)
    monkeypatch.setattr(electronic, "hermitian_eig", counted_eig)
    monkeypatch.setattr(electronic, "_forward_stack", counted_forward)
    electronic.estimate_parameters(TARGETS)
    # one K = 1 fit from the closed-form start, which converges, so the grid does not
    # run: 5 rounds after the first evaluation, each one call through the model's
    # evaluate; one more solve for the reported observables.  The Jacobians of the
    # start and of the 4 accepted points are formed, one row per call; the fourth
    # step lowers the cost by at most FTOL of it
    assert counts == {"lsq": 0, "rows": 1, "model": 6, "model_jacobian": 6,
                      "eig": 7, "blocks": 14, "jacobian_calls": 5, "jacobian_rows": 5}
    assert [(f.evaluations, f.jacobian_evaluations, f.stop_reason, f.iterations)
            for f in fits] == [(6, 5, "cost", 4)]


def test_lifetime_ensemble_is_one_lockstep_fit(monkeypatch):
    calls = {"rows": [], "lsq": 0, "model": 0, "jacobian": 0}
    rows, call, get_model = fitting.least_squares_rows, fitting.ModelSpec.__call__, fitting.get_model

    def counted_rows(model, x, y, *args, **kwargs):
        calls["rows"].append(np.shape(y))
        return rows(model, x, y, *args, **kwargs)

    def counted_lsq(*args, **kwargs):
        calls["lsq"] += 1
        raise AssertionError("the ensemble fits its traces as one lockstep fit")

    def counted_call(self, *args, **kwargs):
        calls["model"] += 1
        return call(self, *args, **kwargs)

    def counted_model(name):
        spec = get_model(name)

        def evaluate(x, p):
            values, jacobian_of = spec.evaluate(x, p)

            def counted_jacobian(rows):
                calls["jacobian"] += 1
                return jacobian_of(rows)
            return values, counted_jacobian
        return dataclasses.replace(spec, evaluate=evaluate)

    monkeypatch.setattr(fitting, "least_squares_rows", counted_rows)
    monkeypatch.setattr(fitting, "least_squares", counted_lsq)
    monkeypatch.setattr(fitting.ModelSpec, "__call__", counted_call)
    monkeypatch.setattr(fitting, "get_model", counted_model)
    times = np.linspace(0.0, 8e-9, 40)
    rng = np.random.default_rng(12)
    traces = [(times, np.exp(-times / t1) * (1.0 + 0.005 * rng.standard_normal(times.size)))
              for t1 in np.linspace(1e-9, 2.5e-9, 20)]
    optics.lifetime_ensemble(traces)
    # 20 single_exp fits as one: one stacked model call per round, one stacked
    # Jacobian call per round with an accepted row (as 20 separate fits: 312
    # model calls and 150 Jacobian calls when each stopped after 3 flat steps)
    assert calls == {"rows": [(20, 40)], "lsq": 0, "model": 11, "jacobian": 9}


# (hermitian_eig calls, Engine builds) of each golden CLI invocation
# (tests/test_golden.py), counted at the commit that introduced this table
CLI_WORK = {
    "structure": (1, 0),
    "estimate": (7, 0),
    "run_rabi": (1, 1),
    "run_ramsey": (2, 1),
    "run_dd": (3, 1),
    "run_spinlock": (2, 1),
    "run_nucrot": (3, 1),
    "run_gates": (9, 3),
    "run_rb": (4, 1),
    "ssr": (0, 0),
    "optical_rabi": (0, 0),
    "optical_phase": (0, 0),
    "optical_decay": (0, 0),
    "run_dd_2n": (3, 1),
    "run_nucrot_2n": (3, 1),
    "run_gates_2n": (9, 3),
    "run_rb_2n": (4, 1),
    "run_gates_cenotn_2n": (9, 3),
    "run_gates_cnnote": (1, 1),
    "run_gates_identity": (0, 1),
    "run_ramsey_nuclear": (6, 2),
    "run_dd_log": (3, 1),
    "fit_single_exp": (0, 0),
    "fit_stretched_exp": (0, 0),
    "fit_rb_decay": (0, 0),
    "run_dd_cpmg": (3, 1),
    "run_spinlock_amplitude": (102, 1),
    "ssr_bright": (0, 0),
    "ssr_dark": (0, 0),
}

# (evaluations, jacobian_evaluations) of every FitResult a golden CLI invocation
# produces, in the order of its fits; an invocation not named here fits nothing
FIT_WORK = {
    "estimate": [(6, 5)],
    "run_rb": [(3, 3)],
    "run_rb_2n": [(5, 5)],
    "optical_decay": [(9, 9)],
    "fit_single_exp": [(9, 9)],
    "fit_stretched_exp": [(18, 9)],
    "fit_rb_decay": [(6, 6)],
}

# (hits, misses) of three Engine caches in each golden CLI invocation: the free factors
# of scalar times (u_free), the eigenframe rotations (_framed_rotation) and the drive
# eigensystems (_eig); an invocation not named here looks up none of them.  Over all
# invocations: (100, 18), (111, 33) and (29, 149).  Over the 25 invocations other than
# run_dd_cpmg, run_spinlock_amplitude, ssr_bright and ssr_dark they read (100, 18),
# (104, 32) and (25, 45) while u_pulse also kept its scalar pulses in a cache, which hit
# 4 of 72 lookups there; each of those 4 pulses now looks up its eigensystem, a hit.
CACHE_WORK = {
    "run_rabi": ((0, 0), (0, 0), (0, 1)),
    "run_ramsey": ((0, 0), (0, 0), (0, 1)),
    "run_dd": ((0, 0), (6, 2), (1, 2)),
    "run_spinlock": ((0, 0), (0, 0), (0, 2)),
    "run_nucrot": ((7, 1), (6, 2), (1, 2)),
    "run_gates": ((22, 5), (18, 6), (8, 6)),
    "run_rb": ((0, 0), (0, 0), (4, 4)),
    "run_dd_2n": ((0, 0), (6, 2), (1, 2)),
    "run_nucrot_2n": ((7, 1), (6, 2), (1, 2)),
    "run_gates_2n": ((22, 5), (18, 6), (8, 6)),
    "run_rb_2n": ((0, 0), (0, 0), (4, 4)),
    "run_gates_cenotn_2n": ((28, 4), (26, 6), (0, 6)),
    "run_gates_cnnote": ((0, 0), (0, 0), (0, 1)),
    "run_ramsey_nuclear": ((14, 2), (12, 4), (0, 4)),
    "run_dd_log": ((0, 0), (6, 2), (1, 2)),
    "run_dd_cpmg": ((0, 0), (7, 1), (0, 2)),
    "run_spinlock_amplitude": ((0, 0), (0, 0), (0, 102)),
}
CACHES = ("_u_free", "_u_framed", "_eig")


class _CountedCache(dict):
    """A cache dict that counts each get as a hit or a miss."""

    def __init__(self, counts):
        super().__init__()
        self.counts = counts

    def get(self, key, default=None):
        self.counts[key not in self] += 1
        return super().get(key, default)


@pytest.mark.parametrize("label, argv, cwd", INVOCATIONS,
                         ids=[label for label, _, _ in INVOCATIONS])
def test_cli_invocation_work(label, argv, cwd, monkeypatch, tmp_path):
    counts = {"eig": 0, "engine": 0}
    cache_counts = {name: [0, 0] for name in CACHES}
    fits = []
    eig, init, rows = linalg.hermitian_eig, sequences.Engine.__init__, fitting.least_squares_rows

    def counted_eig(h):
        counts["eig"] += 1
        return eig(h)

    def counted_init(self, *args, **kwargs):
        counts["engine"] += 1
        init(self, *args, **kwargs)
        for name in CACHES:
            setattr(self, name, _CountedCache(cache_counts[name]))

    def counted_rows(*args, **kwargs):
        out = rows(*args, **kwargs)
        fits.extend((f.evaluations, f.jacobian_evaluations) if isinstance(f, fitting.FitResult)
                    else type(f).__name__ for f in out)
        return out

    for module in (linalg, electronic, register, sequences, readout, optics, fitting):
        for name, value in list(vars(module).items()):
            if value is eig:
                monkeypatch.setattr(module, name, counted_eig)
    monkeypatch.setattr(sequences.Engine, "__init__", counted_init)
    monkeypatch.setattr(fitting, "least_squares_rows", counted_rows)
    run_invocation(argv, tmp_path, cwd)
    assert (counts["eig"], counts["engine"]) == CLI_WORK[label]
    assert fits == FIT_WORK.get(label, [])
    assert tuple(tuple(cache_counts[name]) for name in CACHES) == CACHE_WORK.get(
        label, ((0, 0),) * len(CACHES))


def test_every_golden_invocation_has_its_work_counts():
    assert sorted(CLI_WORK) == sorted(label for label, _, _ in INVOCATIONS)
    assert set(FIT_WORK) <= set(CLI_WORK)
    assert set(CACHE_WORK) <= set(CLI_WORK)


def test_rb_work_at_the_lab_chain_shape(monkeypatch):
    """420 sequences (7 lengths x 60) walk in stacks of 128, 128, 128 and 36 rows,
    longest first: max(length) steps per stack, 100 + 60 + 20 + 1 = 181 Clifford steps,
    and one inversion evolve per stack.  The picks come from one vectorised draw per
    stack, not from a generator per sequence (420 default_rng calls before)."""
    counts = {"evolve": 0, "steps": 0, "default_rng": 0, "seed_sequence": 0}
    evolve, depolarize = sequences.Engine.evolve, sequences._depolarize_electron
    default_rng, seed_sequence = np.random.default_rng, np.random.SeedSequence

    def counted(key, func):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)
        return wrapper

    p = register.RegisterParams(larmor_n=3.5857929e6,
                                hyperfine=((621.75027e3, 140.1041e3), (50.0e3, 101.19309e3)),
                                n_nuclei=2)
    monkeypatch.setattr(sequences.Engine, "evolve", counted("evolve", evolve))
    monkeypatch.setattr(sequences, "_depolarize_electron", counted("steps", depolarize))
    monkeypatch.setattr(np.random, "default_rng", counted("default_rng", default_rng))
    monkeypatch.setattr(np.random, "SeedSequence", counted("seed_sequence", seed_sequence))
    sequences.run_randomized_benchmarking(p, None, [1, 10, 20, 40, 60, 80, 100], n_random=60,
                                          gate_fidelity_noise=0.01, seed=7)
    assert counts == {"evolve": 185, "steps": 181, "default_rng": 0, "seed_sequence": 0}
