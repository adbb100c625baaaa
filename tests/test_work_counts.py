"""Pinned work counts of the lockstep fits and of the golden CLI invocations,
counted by wrappers around sivreg functions as tests/test_bench_contract.py
wraps them.

A change that alters how much work one of these calls does updates the pinned
number here, and so states its before and after.  At the README targets the
strain estimate ran, before its starts were stepped in lockstep, 8 separate
fits: 188 model evaluations, 266 forward-model calls (77 of them with the
Jacobian) and 322 single-block eigensolves.  Stepped in lockstep, it formed
the Jacobian of every trial point, 188 rows in 29 calls, before it formed
them at the starts and the accepted points only.
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
        fits.extend(rows(*args, **kwargs))
        return fits

    def counted_lsq(*args, **kwargs):
        counts["lsq"] += 1
        raise AssertionError("the estimate runs its starts as one lockstep fit")

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
    # one K = 8 fit: 28 rounds after the first evaluation, each one stacked call
    # through the model's evaluate; one more solve for the reported observables.  The
    # Jacobians of the 8 starts and of the 69 accepted points are formed, in the
    # first call and the 18 rounds with an accepted row: 77 of the 188 rows
    assert counts == {"lsq": 0, "rows": 1, "model": 29, "model_jacobian": 29,
                      "eig": 30, "blocks": 378, "jacobian_calls": 19, "jacobian_rows": 77}
    assert [(f.evaluations, f.jacobian_evaluations) for f in fits] == [
        (23, 9), (23, 9), (25, 10), (21, 9), (23, 9), (23, 9), (29, 12), (21, 10)]


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
    # model calls and 150 Jacobian calls)
    assert calls == {"rows": [(20, 40)], "lsq": 0, "model": 23, "jacobian": 20}


# (hermitian_eig calls, Engine builds) of each golden CLI invocation
# (tests/test_golden.py), counted at the commit that introduced this table
CLI_WORK = {
    "structure": (1, 0),
    "estimate": (30, 0),
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
}

# (evaluations, jacobian_evaluations) of every FitResult a golden CLI invocation
# produces, in the order of its fits; an invocation not named here fits nothing
FIT_WORK = {
    "estimate": [(23, 9), (23, 9), (25, 10), (21, 9), (23, 9), (23, 9), (29, 12), (21, 10)],
    "run_rb": [(6, 6)],
    "run_rb_2n": [(7, 7)],
    "optical_decay": [(11, 11)],
    "fit_single_exp": [(11, 11)],
    "fit_stretched_exp": [(29, 14)],
    "fit_rb_decay": [(9, 9)],
}


@pytest.mark.parametrize("label, argv, cwd", INVOCATIONS,
                         ids=[label for label, _, _ in INVOCATIONS])
def test_cli_invocation_work(label, argv, cwd, monkeypatch, tmp_path):
    counts = {"eig": 0, "engine": 0}
    fits = []
    eig, init, rows = linalg.hermitian_eig, sequences.Engine.__init__, fitting.least_squares_rows

    def counted_eig(h):
        counts["eig"] += 1
        return eig(h)

    def counted_init(self, *args, **kwargs):
        counts["engine"] += 1
        init(self, *args, **kwargs)

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


def test_every_golden_invocation_has_its_work_counts():
    assert sorted(CLI_WORK) == sorted(label for label, _, _ in INVOCATIONS)
    assert set(FIT_WORK) <= set(CLI_WORK)


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
