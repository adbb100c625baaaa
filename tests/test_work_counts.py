"""Pinned work counts of the lockstep fits, counted by wrappers around sivreg
functions as tests/test_bench_contract.py wraps them.

A change that alters how much work one of these calls does updates the pinned
number here, and so states its before and after.  At the README targets the
strain estimate ran, before its starts were stepped in lockstep, 8 separate
fits: 188 model evaluations, 266 forward-model calls (77 of them with the
Jacobian) and 322 single-block eigensolves.
"""

import dataclasses
import math

import numpy as np

from sivreg import electronic, fitting, optics

TARGETS = (9.431e9, 254.654e6, 1110.755e9, 816.285)


def test_strain_estimate_work_at_the_readme_targets(monkeypatch):
    counts = {"lsq": 0, "rows": 0, "model": 0, "model_jacobian": 0, "eig": 0, "blocks": 0}
    fits = []
    call, rows, eig = fitting.ModelSpec.__call__, fitting.least_squares_rows, electronic.hermitian_eig

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

    monkeypatch.setattr(fitting.ModelSpec, "__call__", counted_call)
    monkeypatch.setattr(fitting, "least_squares_rows", counted_rows)
    monkeypatch.setattr(fitting, "least_squares", counted_lsq)
    monkeypatch.setattr(electronic, "hermitian_eig", counted_eig)
    electronic.estimate_parameters(TARGETS)
    # one K = 8 fit: 28 rounds after the first evaluation, each one stacked call
    # that gives values and Jacobians; one more solve for the reported observables
    assert counts == {"lsq": 0, "rows": 1, "model": 29, "model_jacobian": 29,
                      "eig": 30, "blocks": 378}
    assert [(f.evaluations, f.jacobian_evaluations) for f in fits] == [
        (23, 23), (23, 23), (25, 25), (21, 21), (23, 23), (23, 23), (29, 29), (21, 21)]


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

        def jacobian(x, p):
            calls["jacobian"] += 1
            return spec.jacobian(x, p)
        return dataclasses.replace(spec, jacobian=jacobian)

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
