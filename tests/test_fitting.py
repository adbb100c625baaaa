"""Least-squares engine and the named model registry.

Every registry entry must take its rule-based starting point to an exact
parameter recovery on clean synthetic data; the solver itself is checked
against the closed-form normal equations on a model that is linear in its
parameters.
"""

import dataclasses
import math

import numpy as np
import pytest

from sivreg import electronic, readout
from sivreg.fitting import (MaxIterations, ModelSpec, ParamSpec,
                            SingularNormalMatrix, UnknownModel,
                            damped_sine_sum_model, formula, get_model, least_squares,
                            least_squares_rows,
                            model_registry, rabi_beat_model)

# --------------------------------------------------------------------------
# zero-noise recovery over random in-bounds parameters
#
# Each case pins an x grid on which the model is identifiable and a box of
# parameter draws that keeps every value away from zero (so relative error
# is meaningful).  Two models carry an exact scale redundancy and are fitted
# with the redundant coordinate held fixed, which is how they are used in
# practice: pol_rate depends only on the ratio gamma0/eta, and orbach_offset
# is unchanged under (a, alpha, delta) -> (a/k^3, k*alpha, k*delta), so the
# level splitting has to be known independently.

RECOVERY_CASES = {
    "ramsey": (
        np.linspace(0.0, 12e-6, 400),
        lambda r: {"a_sin": r.uniform(0.3, 0.5), "f": r.uniform(0.4e6, 1.2e6),
                   "phi": r.uniform(0.3, 1.2), "a_exp": r.uniform(0.05, 0.2),
                   "t2": r.uniform(2e-6, 6e-6), "beta": r.uniform(0.8, 2.0),
                   "c": r.uniform(0.3, 0.6)}, ()),
    "stretched_exp": (
        np.linspace(0.0, 20e-6, 160),
        lambda r: {"a": r.uniform(0.4, 1.0), "t": r.uniform(2e-6, 6e-6),
                   "beta": r.uniform(0.8, 2.2), "c": r.uniform(0.1, 0.4)}, ()),
    "power_scaling": (
        np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
        lambda r: {"a": r.uniform(1e-6, 1e-5), "gamma": r.uniform(0.3, 0.8)},
        ()),
    "lorentzian_pair": (
        np.linspace(-10.0, 10.0, 401),
        lambda r: {"a1": r.uniform(1.2, 1.8), "x1": r.uniform(-6.0, -3.0),
                   "w1": r.uniform(0.6, 1.2), "a2": r.uniform(0.5, 0.9),
                   "x2": r.uniform(3.0, 6.0), "w2": r.uniform(0.6, 1.2),
                   "c": r.uniform(0.05, 0.2)}, ()),
    "saturation_law": (
        np.linspace(0.0, 10.0, 40),
        lambda r: {"gamma0": r.uniform(5e7, 2e8)}, ()),
    "pol_rate": (
        np.linspace(0.1, 10.0, 40),
        lambda r: {"gamma0": r.uniform(5e7, 2e8), "eta": r.uniform(5.0, 30.0)},
        ("gamma0",)),
    "parabola": (
        np.linspace(-3.0, 3.0, 61),
        lambda r: {"a": r.uniform(0.5, 2.0), "x0": r.uniform(0.3, 1.2),
                   "c": r.uniform(0.2, 1.0)}, ()),
    "orbach_offset": (
        np.linspace(2.6, 10.0, 24),
        lambda r: {"gamma0": r.uniform(100.0, 1000.0),
                   "a": r.uniform(3e-31, 3e-30),
                   "alpha": r.uniform(0.8, 2.0), "delta": 1110.755e9},
        ("delta",)),
    "power_law_offset": (
        np.linspace(2.6, 10.0, 25),
        lambda r: {"a": r.uniform(0.5, 3.0), "b": r.uniform(1.5, 3.5),
                   "c": r.uniform(5.0, 50.0)}, ()),
    "rb_decay": (
        np.arange(1.0, 121.0, 8.0),
        lambda r: {"f_i": r.uniform(0.75, 0.95),
                   "f_g": r.uniform(0.9, 0.995)}, ()),
    "rb_decay_free": (
        np.arange(1.0, 121.0, 8.0),
        lambda r: {"a": r.uniform(0.25, 0.45), "f_g": r.uniform(0.9, 0.99),
                   "c": r.uniform(0.4, 0.6)}, ()),
    "gamma2r_model": (
        np.linspace(5e7, 1.2e9, 30),
        # keep the curve minimum sqrt(a/b) inside the sweep window
        lambda r: {"a": r.uniform(1e16, 5e16), "b": r.uniform(0.05, 0.2),
                   "c": r.uniform(1e7, 5e7)}, ()),
    "exp_recovery": (
        np.linspace(0.0, 2e-2, 120),
        lambda r: {"a": r.uniform(-1.0, -0.4), "t": r.uniform(1e-3, 4e-3),
                   "c": r.uniform(0.3, 0.8)}, ()),
    "single_exp": (
        np.linspace(0.0, 2e-2, 120),
        lambda r: {"a": r.uniform(0.4, 1.0), "t": r.uniform(1e-3, 4e-3),
                   "c": r.uniform(0.1, 0.5)}, ()),
    "gaussian": (
        np.linspace(-5.0, 5.0, 201),
        lambda r: {"a": r.uniform(0.5, 2.0), "mu": r.uniform(0.5, 1.5),
                   "sigma": r.uniform(0.4, 1.0), "c": r.uniform(0.1, 0.5)},
        ()),
    "three_normal_mixture": (
        np.arange(0.0, 51.0),
        lambda r: {"a1": r.uniform(100, 300), "mu1": r.uniform(0.3, 1.0),
                   "s1": r.uniform(0.8, 1.2),
                   "a2": r.uniform(100, 300), "mu2": r.uniform(9.0, 11.0),
                   "s2": r.uniform(2.0, 3.0),
                   "a3": r.uniform(100, 300), "mu3": r.uniform(30.0, 34.0),
                   "s3": r.uniform(3.5, 4.5)}, ()),
    "damped_sine_sum": (
        np.linspace(0.0, 20e-6, 1000),
        # first component spectrally dominant so the peak labelling is fixed
        lambda r: {"a1": r.uniform(0.55, 0.7), "f1": r.uniform(0.9e6, 1.1e6),
                   "phi1": r.uniform(0.3, 0.8), "t1": r.uniform(8e-6, 11e-6),
                   "beta1": r.uniform(0.9, 1.6),
                   "a2": r.uniform(0.22, 0.3), "f2": r.uniform(2.0e6, 2.6e6),
                   "phi2": r.uniform(0.3, 0.8), "t2": r.uniform(8e-6, 11e-6),
                   "beta2": r.uniform(0.9, 1.6), "c": r.uniform(0.3, 0.6)},
        ()),
    "rabi_beat": (
        np.linspace(0.0, 20e-6, 1000),
        lambda r: {"a1": r.uniform(0.55, 0.7), "f1": r.uniform(0.9e6, 1.1e6),
                   "phi1": r.uniform(0.3, 0.8), "t1": r.uniform(8e-6, 11e-6),
                   "a2": r.uniform(0.22, 0.3), "f2": r.uniform(2.0e6, 2.6e6),
                   "phi2": r.uniform(0.3, 0.8), "t2": r.uniform(8e-6, 11e-6),
                   "c": r.uniform(0.3, 0.6)}, ()),
}


def test_every_registry_entry_has_a_recovery_case():
    assert set(model_registry()) == set(RECOVERY_CASES)


@pytest.mark.parametrize("name", sorted(RECOVERY_CASES))
def test_zero_noise_recovery(name):
    """Clean synthetic data pulls every free parameter back to 1e-8."""
    model = get_model(name)
    x, draw, fixed_names = RECOVERY_CASES[name]
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        true = draw(rng)
        y = model(x, [true[n] for n in model.param_names])
        fixed = {n: true[n] for n in fixed_names}
        result = least_squares(model, x, y, fixed=fixed, max_iterations=500)
        assert result.converged
        for n in model.param_names:
            if n in fixed:
                continue
            assert abs(result[n] - true[n]) <= 1e-8 * abs(true[n]), \
                (name, seed, n, true[n], result[n])


# --------------------------------------------------------------------------
# solver vs closed-form normal equations (model linear in its parameters)


def _linear_design(x):
    return np.column_stack([1.0 / x, x, np.ones_like(x)])


def test_linear_model_matches_normal_equations():
    model = get_model("gamma2r_model")
    rng = np.random.default_rng(7)
    x = np.linspace(5e7, 1.2e9, 40)
    y = model(x, [2e16, 0.1, 3e7]) * (1.0 + 0.01 * rng.standard_normal(x.size))

    result = least_squares(model, x, y)
    design = _linear_design(x)
    ref = np.linalg.solve(design.T @ design, design.T @ y)
    assert np.all(np.abs(result.params - ref) <= 1e-10 * np.abs(ref))

    resid = design @ ref - y
    cov = (resid @ resid) / (x.size - 3) * np.linalg.inv(design.T @ design)
    sigma_ref = np.sqrt(np.diag(cov))
    assert np.all(np.abs(result.sigma - sigma_ref) <= 1e-8 * sigma_ref)
    assert math.isclose(result.residual_norm, float(np.linalg.norm(resid)),
                        rel_tol=1e-10)


def test_weighted_fit_matches_weighted_normal_equations():
    model = get_model("gamma2r_model")
    rng = np.random.default_rng(11)
    x = np.linspace(5e7, 1.2e9, 40)
    y = model(x, [2e16, 0.1, 3e7]) * (1.0 + 0.01 * rng.standard_normal(x.size))
    w = rng.uniform(0.5, 2.0, x.size)

    result = least_squares(model, x, y, weights=w)
    design = _linear_design(x)
    ref = np.linalg.solve(design.T @ (design * w[:, None]), design.T @ (w * y))
    assert np.all(np.abs(result.params - ref) <= 1e-9 * np.abs(ref))


def test_zero_weight_points_are_ignored():
    model = get_model("single_exp")
    x = np.linspace(0.0, 1.0, 60)
    y = model(x, [0.8, 0.3, 0.2])
    w = np.ones_like(y)
    y_bad = y.copy()
    y_bad[10] = 40.0
    w[10] = 0.0
    result = least_squares(model, x, y_bad, weights=w)
    assert np.allclose(result.params, [0.8, 0.3, 0.2], rtol=1e-7)


# --------------------------------------------------------------------------
# analytic Jacobian hook vs the central-difference path


def _jacobian_of(model):
    """The model's jacobian_of at x = 1 and all-ones parameters: None without a rule."""
    return model(np.ones(1), np.ones(len(model.params)), jacobian=True)[1]


def _jacobian(model, x, p):
    """d model / d params at one parameter vector, (N, n), or a (K, n) stack, (K, N, n)."""
    p = np.asarray(p, dtype=float)
    jac = model(x, p, jacobian=True)[1](slice(None))
    return jac if p.ndim == 2 else jac[0]


def _without_jacobian(model):
    """The model with its derivative rule dropped: its fits take central differences."""
    return dataclasses.replace(model, evaluate=lambda x, p: (model.evaluate(x, p)[0], None))


def test_single_exp_analytic_jacobian_matches_central_differences():
    analytic = get_model("single_exp")
    assert _jacobian_of(analytic) is not None
    numeric = _without_jacobian(analytic)
    rng = np.random.default_rng(17)
    x = np.linspace(0.0, 2.0, 80)
    for true in ([0.8, 0.3, 0.2], [-1.5, 0.05, 3.0], [2.0, 1.7, -0.4]):
        y = analytic(x, true) + 1e-3 * rng.standard_normal(x.size)
        want = least_squares(numeric, x, y)
        got = least_squares(analytic, x, y)
        assert got.converged
        assert np.all(np.abs(got.params - want.params) <= 1e-8 * np.abs(want.params)), \
            (true, got.params, want.params)
        # the covariance takes each model's own Jacobian too
        np.testing.assert_allclose(got.sigma, want.sigma, rtol=1e-6)


# Every model that carries a jacobian rule: the registry's (on their recovery
# grids), rabi_beat with one and three components, and readout's binned
# photon-count mixture.
_JACOBIAN_CASES = {name: (get_model(name),) + RECOVERY_CASES[name][:2]
                   for name, model in sorted(model_registry().items())
                   if _jacobian_of(model) is not None}
_JACOBIAN_CASES["rabi_beat_1"] = (
    rabi_beat_model(1), np.linspace(0.0, 20e-6, 400),
    lambda r: {"a1": r.uniform(0.3, 0.5), "f1": r.uniform(0.4e6, 1.2e6),
               "phi1": r.uniform(0.3, 1.2), "t1": r.uniform(4e-6, 8e-6),
               "c": r.uniform(0.3, 0.6)})
_JACOBIAN_CASES["rabi_beat_3"] = (
    rabi_beat_model(3), np.linspace(0.0, 20e-6, 1000),
    lambda r: {"a1": r.uniform(0.55, 0.7), "f1": r.uniform(0.9e6, 1.1e6),
               "phi1": r.uniform(0.3, 0.8), "t1": r.uniform(8e-6, 11e-6),
               "a2": r.uniform(0.22, 0.3), "f2": r.uniform(2.0e6, 2.6e6),
               "phi2": r.uniform(0.3, 0.8), "t2": r.uniform(8e-6, 11e-6),
               "a3": r.uniform(0.1, 0.15), "f3": r.uniform(3.4e6, 3.8e6),
               "phi3": r.uniform(0.3, 0.8), "t3": r.uniform(8e-6, 11e-6),
               "c": r.uniform(0.3, 0.6)})
_JACOBIAN_CASES["readout_mixture"] = (
    readout._mixture_model(RECOVERY_CASES["three_normal_mixture"][0]),
    *RECOVERY_CASES["three_normal_mixture"][:2])


def _central_difference_jacobian(model, x, p):
    """Columns and their rounding floors, about 500 ulp of the model value over the step."""
    cols, floors = [], []
    for i in range(p.size):
        h = 1e-6 * abs(p[i]) or 1e-6
        up, dn = p.copy(), p.copy()
        up[i] += h
        dn[i] -= h
        cols.append((model(x, up) - model(x, dn)) / (2.0 * h))
        floors.append(1e-13 * np.max(np.abs(model(x, p))) / h)
    return np.column_stack(cols), np.array(floors)


def _near_each_bound(model, p):
    """p with one parameter moved to a thousandth of its distance from a finite bound."""
    for i, spec in enumerate(model.params):
        for edge in spec.bounds:
            if math.isfinite(edge):
                q = p.copy()
                q[i] = edge + 1e-3 * (p[i] - edge)
                yield q


def test_every_model_with_a_jacobian_is_checked():
    assert {"single_exp", "exp_recovery", "rb_decay", "rabi_beat"} <= set(_JACOBIAN_CASES)
    # the other registry models, ramsey among them, have no rule: jacobian_of is None
    assert _jacobian_of(get_model("ramsey")) is None
    assert {name for name, model in model_registry().items()
            if _jacobian_of(model) is not None} == {
        "single_exp", "exp_recovery", "rb_decay", "rabi_beat"}


def _strain_case():
    """The strain estimate's model at the README targets, and a draw inside its bounds."""
    targets = np.array((9.431e9, 254.654e6, 1110.755e9, 816.285))
    model = electronic._strain_model(targets, electronic.field_from_nuclear_larmor(3.5857929e6))
    lo, hi = np.array(electronic.DEFAULT_BOUNDS).T
    return model, np.arange(4.0), lambda r: dict(zip(model.param_names,
                                                     lo + (hi - lo) * r.uniform(0.1, 0.9, 3)))


@pytest.mark.parametrize("name", sorted(_JACOBIAN_CASES) + ["strain"])
def test_jacobian_of_chosen_rows_equals_those_rows_of_the_stack(name):
    """jacobian_of(rows), rows an increasing index list, is those rows of
    jacobian_of(slice(None)) bit for bit, with x shared or one shifted x row per point."""
    model, x, draw = _strain_case() if name == "strain" else _JACOBIAN_CASES[name]
    rng = np.random.default_rng(59)
    stack = np.array([[draw(rng)[n] for n in model.param_names] for _ in range(6)])
    for xs in (x, x + 1e-3 * np.ptp(x) * np.arange(len(stack))[:, None]):
        _, jacobian_of = model(xs, stack, jacobian=True)
        jac = jacobian_of(slice(None))
        assert jac.shape == (len(stack), x.size, len(model.params))
        for rows in ([0, 2, 5], [1], [3, 4], list(range(6))):
            assert np.array_equal(jacobian_of(rows), jac[rows]), (name, rows)


@pytest.mark.parametrize("name", sorted(_JACOBIAN_CASES))
def test_analytic_jacobian_matches_central_differences(name):
    """At the guess, at a fitted point and next to each bound, column by column."""
    model, x, draw = _JACOBIAN_CASES[name]
    rng = np.random.default_rng(23)
    true = np.array([draw(rng)[n] for n in model.param_names])
    y = model(x, true)
    y = y + 1e-3 * np.ptp(y) * rng.standard_normal(x.size)
    guess = model.initial_guess(x, y)
    fitted = least_squares(model, x, y, max_iterations=2000).params
    points = [np.array([guess[n] for n in model.param_names]), fitted,
              *_near_each_bound(model, fitted)]
    for p in points:
        got = _jacobian(model, x, p)
        want, floor = _central_difference_jacobian(model, x, p)
        assert got.shape == (x.size, p.size)
        scale = np.max(np.abs(got), axis=0)
        assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-6 * scale + floor), (name, p)


def _central_difference_sigma(model, x, y, fit):
    """The former covariance of least_squares: s^2 (J^T J)^-1 with J from central
    differences in the parameters, step 1e-6 max(|p|, |start|)."""
    start = model.initial_guess(x, y)
    p = fit.params
    cols = []
    for i, name in enumerate(model.param_names):
        h = 1e-6 * max(abs(p[i]), abs(start[name])) or 1e-6
        up, dn = p.copy(), p.copy()
        up[i] += h
        dn[i] -= h
        cols.append((model(x, up) - model(x, dn)) / (2.0 * h))
    jac = np.column_stack(cols)
    s2 = fit.residual_norm ** 2 / (x.size - p.size)
    return np.sqrt(np.diag(s2 * np.linalg.inv(jac.T @ jac)))


@pytest.mark.parametrize("name", sorted(_JACOBIAN_CASES))
def test_sigma_matches_the_central_difference_covariance(name):
    """A model's analytic Jacobian gives the sigmas its central differences gave."""
    model, x, draw = _JACOBIAN_CASES[name]
    rng = np.random.default_rng(29)
    true = np.array([draw(rng)[n] for n in model.param_names])
    y = model(x, true)
    y = y + 1e-3 * np.ptp(y) * rng.standard_normal(x.size)
    fit = least_squares(model, x, y, max_iterations=2000)
    assert fit.converged
    np.testing.assert_allclose(fit.sigma, _central_difference_sigma(model, x, y, fit),
                               rtol=1e-6)


# one parameter per bound kind: two-sided, lower-only, upper-only, free
_BRANCH_PARAMS = (ParamSpec("a", bounds=(0.0, 5.0)), ParamSpec("k", bounds=(0.5, math.inf)),
                  ParamSpec("m", bounds=(-math.inf, -0.2)), ParamSpec("c"))


def _branch_model(x, a, k, m, c):
    return a * np.exp(-k * x) + m * x ** 2 + c


def _branch_jacobian(x, params):
    # the (K, 1) columns of a (K, 4) stack
    a, k, m, _ = np.moveaxis(params[..., None], -2, 0)
    e = np.exp(-k * x)
    return np.stack(np.broadcast_arrays(e, -a * x * e, x ** 2, np.ones_like(x)), axis=-1)


@pytest.mark.parametrize("start", [{"a": 1.0, "k": 1.0, "m": -1.0, "c": 0.0},
                                   {"a": 4.5, "k": 3.0, "m": -0.3, "c": 2.0}])
def test_analytic_jacobian_through_every_bound_kind(start):
    x = np.linspace(0.0, 3.0, 60)
    true = [2.2, 1.6, -0.7, 0.35]
    y = _branch_model(x, *true)
    numeric = ModelSpec("branches", _BRANCH_PARAMS, formula(_branch_model))
    analytic = ModelSpec("branches", _BRANCH_PARAMS, formula(_branch_model, _branch_jacobian))
    want = least_squares(numeric, x, y, init=start)
    got = least_squares(analytic, x, y, init=start)
    assert got.converged
    for value, ref, exact in zip(got.params, want.params, true):
        assert abs(value - exact) <= 1e-8 * abs(exact)
        assert abs(value - ref) <= 1e-8 * abs(ref)


def test_analytic_jacobian_skips_fixed_columns():
    x = np.linspace(0.0, 3.0, 60)
    y = _branch_model(x, 2.2, 1.6, -0.7, 0.35)
    analytic = ModelSpec("branches", _BRANCH_PARAMS, formula(_branch_model, _branch_jacobian))
    got = least_squares(analytic, x, y, fixed={"k": 1.6},
                        init={"a": 1.0, "m": -1.0, "c": 0.0})
    np.testing.assert_allclose(got.params, [2.2, 1.6, -0.7, 0.35], rtol=1e-8)
    assert got.error("k") == 0.0


# --------------------------------------------------------------------------
# parameters that start or end on a bound


def _line(x, k, c):
    return k * x + c


@pytest.mark.parametrize("k0", [0.0, 1.0])
def test_fit_started_on_a_bound_leaves_it(k0):
    x = np.linspace(0.0, 1.0, 20)
    model = ModelSpec("line", (ParamSpec("k", bounds=(0.0, 1.0)), ParamSpec("c")), formula(_line))
    fit = least_squares(model, x, _line(x, 0.5, 0.1), init={"k": k0, "c": 0.0})
    assert fit.converged
    assert abs(fit["k"] - 0.5) <= 1e-10
    assert abs(fit["c"] - 0.1) <= 1e-10


@pytest.mark.parametrize("name", ["rb_decay", "rb_decay_free"])
def test_holding_a_parameter_on_its_bound_equals_fixing_it(name):
    # a growing signal: descent pushes f_g above its upper bound 1 throughout, so
    # the fit started there holds it and steps the others as the fit without it
    n = np.arange(1.0, 101.0)
    y = 0.5 + 0.4 * 1.002 ** n + 1e-3 * np.random.default_rng(5).standard_normal(n.size)
    model = get_model(name)
    held = least_squares(model, n, y, init={"f_g": 1.0})
    fixed = least_squares(model, n, y, fixed={"f_g": 1.0})
    assert held["f_g"] == 1.0
    assert np.array_equal(held.params, fixed.params)
    assert held.residual_norm == fixed.residual_norm
    assert ((held.evaluations, held.jacobian_evaluations)
            == (fixed.evaluations, fixed.jacobian_evaluations))


def test_noisy_orbach_offset_keeps_its_plateau():
    x, draw, fixed_names = RECOVERY_CASES["orbach_offset"]
    model = get_model("orbach_offset")
    rng = np.random.default_rng(14)
    true = draw(rng)
    y = model(x, [true[n] for n in model.param_names])
    y = y + 1e-2 * np.std(y) * rng.standard_normal(x.size)
    fit = least_squares(model, x, y, fixed={n: true[n] for n in fixed_names})
    assert fit["gamma0"] > 0.0
    assert fit.residual_norm < 1400.0


def test_fast_decay_time_not_driven_to_its_bound():
    x = np.linspace(0.01, 2.0, 80)
    model = get_model("single_exp")
    y = model(x, [1.0, 0.02, 0.0]) + 1e-3 * np.random.default_rng(17).standard_normal(x.size)
    fit = least_squares(model, x, y)
    assert abs(fit["t"] - 0.02) <= 0.02 * 0.02


# --------------------------------------------------------------------------
# statistical behaviour of the reported uncertainties


def test_noisy_decay_constant_recovered_within_three_sigma():
    model = get_model("stretched_exp")
    t_true, beta_true = 4.673e-6, 1.2
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 15e-6, 200)
    y = model(x, [0.5, t_true, beta_true, 0.5])
    y = y + 0.01 * rng.standard_normal(x.size)
    result = least_squares(model, x, y)
    assert abs(result["t"] - t_true) <= 3.0 * result.error("t")


def test_sigma_shrinks_like_inverse_sqrt_n():
    model = get_model("stretched_exp")
    sig = {}
    for n in (150, 600):
        errs = []
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            x = np.linspace(0.0, 15e-6, n)
            y = model(x, [0.5, 4.673e-6, 1.2, 0.5])
            y = y + 0.01 * rng.standard_normal(n)
            errs.append(least_squares(model, x, y).error("t"))
        sig[n] = np.mean(errs)
    assert sig[150] / sig[600] == pytest.approx(2.0, rel=0.25)


def test_fixed_parameters_pinned_with_zero_sigma():
    model = get_model("stretched_exp")
    x = np.linspace(0.0, 15e-6, 120)
    y = model(x, [0.5, 4.0e-6, 1.3, 0.45])
    result = least_squares(model, x, y, fixed={"beta": 1.3})
    assert result["beta"] == 1.3
    assert result.error("beta") == 0.0
    i = result.param_names.index("beta")
    assert np.all(result.covariance[i, :] == 0.0)
    assert np.all(result.covariance[:, i] == 0.0)
    assert abs(result["t"] - 4.0e-6) <= 1e-8 * 4.0e-6


# --------------------------------------------------------------------------
# failure modes


def test_unknown_fixed_name_rejected():
    model = get_model("single_exp")
    x = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError):
        least_squares(model, x, np.exp(-x), fixed={"tau": 1.0})


def test_iteration_budget_exhaustion_raises():
    # two accepted steps from the rule-based start are still far from the minimum:
    # neither the step test nor the cost test holds after them
    model = get_model("single_exp")
    x = np.linspace(0.0, 1.0, 30)
    with pytest.raises(MaxIterations):
        least_squares(model, x, np.exp(-x / 0.3) + 0.1, max_iterations=2)


def test_nonfinite_data_raises_singular_matrix():
    model = get_model("single_exp")
    x = np.linspace(0.0, 1.0, 30)
    y = np.exp(-x / 0.3)
    y[3] = np.nan
    with pytest.raises(SingularNormalMatrix):
        least_squares(model, x, y)


def test_unknown_model_name():
    with pytest.raises(UnknownModel):
        get_model("not_a_model")
    assert issubclass(UnknownModel, KeyError)


def test_input_validation():
    model = get_model("single_exp")
    x = np.linspace(0.0, 1.0, 30)
    y = np.exp(-x)
    with pytest.raises(ValueError):
        least_squares(model, x, y[:-1])
    with pytest.raises(ValueError):
        least_squares(model, x[:3], y[:3])  # fewer points than parameters
    with pytest.raises(ValueError):
        least_squares(model, x, y, weights=-np.ones_like(y))
    with pytest.raises(ValueError):
        least_squares(model, x, y, weights=np.ones(5))
    for max_iterations in (0, -1):
        with pytest.raises(ValueError, match="max_iterations"):
            least_squares(model, x, y, max_iterations=max_iterations)


def test_param_spec_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        ParamSpec("bad", bounds=(1.0, 1.0))


# --------------------------------------------------------------------------
# result container and guess plumbing


def test_fit_result_accessors():
    model = get_model("parabola")
    x = np.linspace(-2.0, 2.0, 41)
    y = model(x, [1.5, 0.3, -0.2])
    result = least_squares(model, x, y)
    assert result.param_names == ("a", "x0", "c")
    assert result["x0"] == pytest.approx(0.3, rel=1e-9)
    assert result.error("x0") >= 0.0
    assert result.residual_norm <= 1e-9
    assert np.all(result.sigma >= 0.0)
    cov = result.covariance
    assert np.allclose(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() >= -1e-12


def test_initial_guess_respects_bounds():
    model = get_model("ramsey")
    x = np.linspace(0.0, 10e-6, 200)
    y = np.sin(2 * np.pi * 5e5 * x) * np.exp(-x / 4e-6) + 0.5
    guess = model.initial_guess(x, y)
    for spec in model.params:
        lo, hi = spec.bounds
        assert lo < guess[spec.name] < hi


def test_initial_guess_clips_out_of_bounds_rule():
    spec = ModelSpec("toy", (ParamSpec("k", bounds=(0.0, 1.0)),),
                     formula(lambda x, k: k * x), lambda x, y: {"k": 7.0})
    guess = spec.initial_guess(np.arange(4.0), np.arange(4.0))
    assert 0.0 < guess["k"] < 1.0


def test_tiny_positive_guesses_survive_clipping():
    # a lower bound of 1e-300 must not inflate a legitimately small start
    spec = ModelSpec("toy", (ParamSpec("k", bounds=(1e-300, math.inf)),),
                     formula(lambda x, k: k * x), lambda x, y: {"k": 3e-31})
    guess = spec.initial_guess(np.arange(4.0), np.arange(4.0))
    assert guess["k"] == 3e-31


# --------------------------------------------------------------------------
# registry content


def test_registry_returns_fresh_specs():
    assert model_registry()["ramsey"] is not model_registry()["ramsey"]


def test_get_model_returns_one_spec_per_name():
    for name in model_registry():
        assert get_model(name) is get_model(name)


def test_mutating_a_registry_copy_does_not_reach_get_model():
    reg = model_registry()
    reg["single_exp"] = reg["ramsey"]
    del reg["gaussian"]
    assert get_model("single_exp").name == "single_exp"
    assert get_model("gaussian").name == "gaussian"


def test_damped_sine_sum_parameter_count_scales_with_components():
    assert len(damped_sine_sum_model(1).params) == 6
    assert len(damped_sine_sum_model(3).params) == 16
    assert len(get_model("damped_sine_sum").params) == 11
    assert len(get_model("rabi_beat").params) == 9


def test_relaxation_rate_curve_monotone_on_cold_grid():
    model = get_model("orbach_offset")
    temps = np.linspace(2.6, 10.0, 40)
    rates = model(temps, [100.0, 1e-30, 1.543, 1110.755e9])
    assert np.all(np.diff(rates) > 0.0)


def test_benchmarking_decay_at_zero_depth_is_initial_fidelity():
    model = get_model("rb_decay")
    assert model(np.array([0.0]), [0.83, 0.97])[0] == pytest.approx(0.83)


def test_coherence_vs_drive_minimum_at_analytic_point():
    a, b, c = 2e16, 0.1, 3e7
    model = get_model("gamma2r_model")
    omega = np.linspace(5e7, 1.2e9, 200001)
    grid_min = omega[np.argmin(model(omega, [a, b, c]))]
    assert grid_min == pytest.approx(math.sqrt(a / b), rel=1e-4)


# --------------------------------------------------------------------------
# parameter stacks and fits in lockstep


_STACK_CASES = dict(_JACOBIAN_CASES, **{
    name: (get_model(name), x, draw) for name, (x, draw, _) in RECOVERY_CASES.items()})


@pytest.mark.parametrize("name", sorted(_STACK_CASES))
def test_a_parameter_stack_equals_its_row_evaluations_bit_for_bit(name):
    model, x, draw = _STACK_CASES[name]
    rng = np.random.default_rng(41)
    stack = np.array([[draw(rng)[n] for n in model.param_names] for _ in range(3)])
    values, jacobian_of = model(x, stack, jacobian=True)
    assert values.shape == (3, x.size)
    for row, p in zip(values, stack):
        assert np.array_equal(row, model(x, p))
    if jacobian_of is not None:
        jac = jacobian_of(slice(None))
        assert jac.shape == (3, x.size, len(model.params))
        for row, p in zip(jac, stack):
            assert np.array_equal(row, _jacobian(model, x, p))


@pytest.mark.parametrize("name", ["single_exp", "rabi_beat"])
def test_a_stack_overflows_as_its_rows_do(name):
    # the fit rejects a step whose Jacobian overflows; a stack must overflow to
    # inf as each single parameter vector does, not raise
    model, x, draw = _JACOBIAN_CASES[name]
    rng = np.random.default_rng(53)
    stack = np.array([[draw(rng)[n] for n in model.param_names] for _ in range(2)])
    t = model.param_names.index("t" if name == "single_exp" else "t1")
    stack[1, t] = 1e200
    with np.errstate(over="ignore"):
        jac = _jacobian(model, x, stack)
        assert np.array_equal(jac[1], _jacobian(model, x, stack[1]))
    assert not jac[1, :, t].any()   # a x / t^2 ... with t^2 = inf


def _noisy_decays(n, seed):
    model, x, draw = _JACOBIAN_CASES["single_exp"]
    rng = np.random.default_rng(seed)
    y = np.array([model(x, [draw(rng)[n] for n in model.param_names]) for _ in range(n)])
    return model, x, y + 0.02 * rng.standard_normal(y.shape)


def _assert_same_fit(row, alone):
    if isinstance(alone, Exception):
        assert type(row) is type(alone) and str(row) == str(alone)
        return
    assert np.array_equal(row.params, alone.params)
    assert np.array_equal(row.sigma, alone.sigma, equal_nan=True)
    assert np.array_equal(row.covariance, alone.covariance, equal_nan=True)
    assert row.residual_norm == alone.residual_norm
    assert (row.evaluations, row.jacobian_evaluations, row.iterations, row.stop_reason) == (
        alone.evaluations, alone.jacobian_evaluations, alone.iterations, alone.stop_reason)


@pytest.mark.parametrize("per_row_x", [False, True])
def test_each_row_of_a_lockstep_fit_equals_its_fit_alone(per_row_x):
    model, x, y = _noisy_decays(20, seed=43)
    xs = np.tile(x, (len(y), 1)) if per_row_x else x
    rows = least_squares_rows(model, xs, y)
    for row, y_k in zip(rows, y):
        _assert_same_fit(row, least_squares(model, x, y_k))


def test_a_central_difference_row_equals_its_fit_alone():
    model = get_model("stretched_exp")
    x, draw, _ = RECOVERY_CASES["stretched_exp"]
    rng = np.random.default_rng(47)
    y = np.array([model(x, [draw(rng)[n] for n in model.param_names]) for _ in range(5)])
    y = y + 0.01 * rng.standard_normal(y.shape)
    w = rng.uniform(0.5, 2.0, y.shape)
    rows = least_squares_rows(model, x, y, weights=w, fixed={"beta": 1.3})
    for row, y_k, w_k in zip(rows, y, w):
        _assert_same_fit(row, least_squares(model, x, y_k, weights=w_k, fixed={"beta": 1.3}))


def _fit_alone(model, x, y, fixed):
    try:
        return least_squares(model, x, y, fixed=fixed)
    except (SingularNormalMatrix, MaxIterations) as exc:
        return exc


def test_every_registry_model_fits_in_lockstep_as_alone():
    # 2 draws at each of 3 noise levels per model: each fit alone, and for the
    # models without fixed parameters the 6 draws as one lockstep call whose rows
    # stop where, and why, the fits alone stop
    reasons = set()
    for seed, name in enumerate(sorted(RECOVERY_CASES)):
        model = get_model(name)
        x, draw, fixed_names = RECOVERY_CASES[name]
        rng = np.random.default_rng(6100 + seed)
        ys, fits = [], []
        for noise in (0.0, 0.0, 0.1, 0.1, 1.0, 1.0):
            true = draw(rng)
            y = model(x, [true[n] for n in model.param_names])
            ys.append(y + noise * np.std(y) * rng.standard_normal(y.shape))
            fits.append(_fit_alone(model, x, ys[-1], {n: true[n] for n in fixed_names}))
        reasons.update(getattr(fit, "stop_reason", type(fit).__name__) for fit in fits)
        if not fixed_names:
            for row, alone in zip(least_squares_rows(model, x, np.array(ys)), fits):
                _assert_same_fit(row, alone)
    assert reasons <= {"step", "cost", "stationary", "SingularNormalMatrix", "MaxIterations"}
    assert {"step", "cost"} <= reasons


def test_stop_reasons():
    model = get_model("single_exp")
    x = np.linspace(0.0, 2e-2, 120)
    exact = model(x, [0.7, 2e-3, 0.3])
    noisy = exact + 0.01 * np.random.default_rng(5).standard_normal(x.size)
    fit = least_squares(model, x, noisy)
    # noisy data: the cost stops falling before the steps reach the roundoff floor
    assert fit.stop_reason == "cost" and 0 < fit.iterations < fit.evaluations
    # every parameter pinned on a bound the descent direction leaves: no step at all
    line = formula(lambda x, k: k * x)
    bounded = ModelSpec("line", (ParamSpec("k", (0.0, 1.0)),), line)
    held = least_squares(bounded, x, 2.0 * x, init={"k": 1.0})
    assert (held.stop_reason, held.iterations, held["k"]) == ("stationary", 0, 1.0)


def test_a_failing_row_drops_only_itself():
    model = get_model("single_exp")
    x = np.linspace(0.0, 1.0, 30)
    exact = np.exp(-x / 0.3) + 0.1
    nan_row = exact.copy()
    nan_row[3] = np.nan
    y = np.array([exact, exact, nan_row, exact])
    far = {"a": 5.0, "t": 3.0, "c": -2.0}
    inits = [{"a": 1.0, "t": 0.3, "c": 0.1}, far, None, None]
    rows = least_squares_rows(model, x, y, init=inits, max_iterations=8)
    assert isinstance(rows[1], MaxIterations) and isinstance(rows[2], SingularNormalMatrix)
    with pytest.raises(MaxIterations):
        least_squares(model, x, exact, init=far, max_iterations=8)
    for k in (0, 3):
        _assert_same_fit(rows[k], least_squares(model, x, y[k], init=inits[k], max_iterations=8))


def test_lockstep_input_validation():
    model = get_model("single_exp")
    x = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError):
        least_squares_rows(model, x, np.ones(20))             # y must be (K, N)
    with pytest.raises(ValueError):
        least_squares_rows(model, x[:-1], np.ones((2, 20)))
    with pytest.raises(ValueError):
        least_squares_rows(model, x, np.ones((2, 20)), init=[{}])
    for max_iterations in (0, -1):
        with pytest.raises(ValueError, match="max_iterations"):
            least_squares_rows(model, x, np.ones((2, 20)), max_iterations=max_iterations)
