"""Nonlinear least squares plus the registry of phenomenological models.

The solver is a damped Gauss-Newton (Levenberg-Marquardt style).  A fit
differentiates its model one way, in the parameters themselves: with the
analytic Jacobian when the ModelSpec carries a ``jacobian`` rule, by central
differences otherwise.  In the registry, single_exp (also registered as
exp_recovery), rb_decay and rabi_beat (rabi_beat_model(k) for any k) carry
one; so do readout's binned photon-count mixture and the strain estimate of
electronic.  Bounds are kept by projection (More, Lecture Notes in
Mathematics 630, 105 (1978)): the fit starts from the guess clipped into each
parameter's box; a parameter that sits on a bound while the descent
direction -J^T r points out of the box is held for that step; the damped
step is solved over the others and its trial point clipped into the box.  A
fitted value may so end exactly on a bound.  A step is taken only where the
cost is finite and not higher and the Jacobian there is finite; that
Jacobian serves the next step and, at the solution, the standard errors from
the residual-scaled inverse normal matrix s^2 (J^T J)^-1.

All frequency-like parameters are ordinary frequencies (Hz); model formulas
carry the 2*pi explicitly.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .constants import BOLTZMANN_OVER_H as _KB_H  # Hz/K


class UnknownModel(KeyError):
    """Requested model name is not in the registry."""


class SingularNormalMatrix(RuntimeError):
    """Normal matrix is singular; parameters are not identifiable here."""


class MaxIterations(RuntimeError):
    """Iteration limit reached before the convergence criterion held."""


class FitFailed(RuntimeError):
    """An extraction fit (optics, readout) did not describe the data."""


@dataclass(frozen=True)
class ParamSpec:
    """One fit parameter: its name and the box (lo, hi) that least_squares keeps it in."""

    name: str
    bounds: Tuple[float, float] = (-math.inf, math.inf)

    def __post_init__(self):
        if not self.bounds[0] < self.bounds[1]:
            raise ValueError("lower bound must be below upper bound")


@dataclass(frozen=True)
class ModelSpec:
    """Named model: parameter specs (name and bounds), evaluation rule, initial-guess rule.

    jacobian -- optional analytic derivative rule, called as
                jacobian(x, params) with the full parameter vector and
                returning d model / d params, shape (len(x), len(params)).
                least_squares iterates in the parameters themselves, holding
                one on its bound while descent points out of the box, and
                uses this rule for its steps and its covariance; without it
                both use central differences.  In the registry, single_exp
                (exp_recovery), rb_decay and rabi_beat (and every
                rabi_beat_model(k)) carry one.
    """

    name: str
    params: Tuple[ParamSpec, ...]
    func: Callable
    guess: Optional[Callable] = None
    jacobian: Optional[Callable] = None

    @property
    def param_names(self):
        return tuple(p.name for p in self.params)

    def __call__(self, x, params):
        return self.func(np.asarray(x, dtype=float), *params)

    def initial_guess(self, x, y):
        """Rule-based starting values (dict), clipped into the bounds."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        values = self.guess(x, y) if self.guess is not None else {}
        out = {}
        for p in self.params:
            v = float(values.get(p.name, 1.0))
            lo, hi = p.bounds
            if math.isfinite(lo) and math.isfinite(hi):
                margin = 1e-3 * (hi - lo)
                v = min(max(v, lo + margin), hi - margin)
            elif math.isfinite(lo):
                if v <= lo:
                    v = lo + max(1e-9, 1e-6 * abs(lo))
            elif math.isfinite(hi):
                if v >= hi:
                    v = hi - max(1e-9, 1e-6 * abs(hi))
            out[p.name] = v
        return out


@dataclass
class FitResult:
    params: np.ndarray
    sigma: np.ndarray
    residual_norm: float
    covariance: np.ndarray
    converged: bool
    param_names: Tuple[str, ...] = ()

    def __getitem__(self, name):
        return float(self.params[self.param_names.index(name)])

    def error(self, name):
        return float(self.sigma[self.param_names.index(name)])


def least_squares(model: ModelSpec, x, y, weights=None,
                  init: Optional[Dict[str, float]] = None,
                  fixed: Optional[Dict[str, float]] = None,
                  max_iterations=200):
    """Damped Gauss-Newton fit of a registry model.

    init is a dict of starting values (missing entries fall back to the
    model's initial-guess rule); fixed pins named parameters and removes them
    from the optimization and the reported uncertainties.  The steps and the
    uncertainties share one Jacobian: model.jacobian when the model has one
    (see ModelSpec), central differences in the parameters otherwise.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y lengths differ")
    fixed = dict(fixed or {})
    names = model.param_names
    for key in fixed:
        if key not in names:
            raise ValueError("fixed parameter %r is not a model parameter" % key)
    free = [n for n in names if n not in fixed]
    if x.size < len(free) + 1:
        raise ValueError("need at least n_free_params + 1 data points")
    if weights is None:
        w_sqrt = np.ones_like(y)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != y.shape or (w < 0).any():
            raise ValueError("weights must be nonnegative and match y")
        w_sqrt = np.sqrt(w)

    start = model.initial_guess(x, y)
    start.update(init or {})
    start.update(fixed)

    free_idx = [names.index(n) for n in free]
    lo = np.array([model.params[i].bounds[0] for i in free_idx], dtype=float)
    hi = np.array([model.params[i].bounds[1] for i in free_idx], dtype=float)
    params = np.array([fixed.get(n, 0.0) for n in names], dtype=float)
    params[free_idx] = np.clip([start[n] for n in free], lo, hi)

    def residual(params):
        return w_sqrt * (model(x, params) - y)

    def jacobian(params):
        """d residual / d free params: model.jacobian, or central differences."""
        if model.jacobian is not None:
            return w_sqrt[:, None] * np.asarray(model.jacobian(x, params), dtype=float)[:, free_idx]
        jac = np.empty((x.size, len(free_idx)))
        for col, i in enumerate(free_idx):
            # relative to the start value too: a fitted value near 0 gives no usable step
            h = 1e-6 * max(abs(params[i]), abs(start[names[i]])) or 1e-6
            up, dn = params.copy(), params.copy()
            up[i] += h
            dn[i] -= h
            jac[:, col] = w_sqrt * (model(x, up) - model(x, dn)) / (2.0 * h)
        return jac

    # overflows during trial steps produce a non-finite cost or Jacobian, which
    # simply rejects the step; keep them from spamming warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = residual(params)
        cost = 0.5 * float(r @ r)
        jac = jacobian(params)
        lam = 1e-3
        flat_count = 0
        for _ in range(max_iterations):
            g = jac.T @ r
            p = params[free_idx]
            # a parameter on a bound whose descent direction leaves the box stays put
            move = ~(((p <= lo) & (g > 0)) | ((p >= hi) & (g < 0)))
            jac_move = jac[:, move]
            a = jac_move.T @ jac_move
            stepped = False
            while move.any() and lam < 1e14:
                m = a + lam * np.diag(np.maximum(np.diag(a), 1e-300))
                step = np.zeros_like(p)
                try:
                    step[move] = np.linalg.solve(m, -g[move])
                except np.linalg.LinAlgError:
                    raise SingularNormalMatrix(
                        "normal matrix is singular for model %r" % model.name)
                if not np.all(np.isfinite(step)):
                    raise SingularNormalMatrix(
                        "normal matrix is singular for model %r" % model.name)
                trial = params.copy()
                trial[free_idx] = np.clip(p + step, lo, hi)
                r_new = residual(trial)
                cost_new = 0.5 * float(r_new @ r_new)
                if np.isfinite(cost_new) and cost_new <= cost:
                    jac_new = jacobian(trial)
                    if np.all(np.isfinite(jac_new)):
                        rel = abs(cost - cost_new) / max(cost, 1e-300)
                        flat_count = flat_count + 1 if rel < 1e-10 else 0
                        params, r, cost, jac = trial, r_new, cost_new, jac_new
                        lam = max(lam / 10.0, 1e-12)
                        stepped = True
                        break
                lam *= 10.0
            # no downhill step at any damping is a stationary point too
            if flat_count >= 3 or not stepped:
                break
        else:
            raise MaxIterations("no convergence within %d iterations" % max_iterations)

        # uncertainties from the last step's Jacobian, taken at the solution
        n_free = len(free)
        sigma = np.zeros(len(names))
        cov_full = np.zeros((len(names), len(names)))
        if n_free and x.size > n_free:
            try:
                inv = np.linalg.inv(jac.T @ jac)
            except np.linalg.LinAlgError:
                inv = np.full((n_free, n_free), np.nan)
            cov = 2.0 * cost / (x.size - n_free) * inv
            cov = 0.5 * (cov + cov.T)
            for rlab, i in enumerate(free_idx):
                sigma[i] = math.sqrt(max(0.0, cov[rlab, rlab])) if np.isfinite(cov[rlab, rlab]) else np.nan
                for clab, j in enumerate(free_idx):
                    cov_full[i, j] = cov[rlab, clab]

    return FitResult(params=params, sigma=sigma,
                     residual_norm=float(np.sqrt(2.0 * cost)),
                     covariance=cov_full, converged=True,
                     param_names=names)


# --------------------------------------------------------------------------
# initial-guess building blocks


def _fft_peaks(x, y, n_peaks=1):
    """Dominant nonzero-frequency components of a uniformly sampled trace."""
    y = y - y.mean()
    if x.size < 4 or np.ptp(x) <= 0:
        return [1.0] * n_peaks
    dx = np.median(np.diff(x))
    spec = np.abs(np.fft.rfft(y))
    freqs = np.fft.rfftfreq(x.size, dx)
    spec[0] = 0.0
    order = np.argsort(spec)[::-1]
    picks = []
    for idx in order:
        if freqs[idx] <= 0:
            continue
        # exclude a few bins around every accepted peak: leakage sidelobes
        # of a strong component otherwise masquerade as a second peak
        if all(abs(freqs[idx] - f) > 3.0 * freqs[1] for f in picks):
            picks.append(float(freqs[idx]))
        if len(picks) == n_peaks:
            break
    while len(picks) < n_peaks:
        picks.append(picks[-1] * 2.0 if picks else 1.0)
    return picks


def _decay_scale(x, y):
    """Log-linear estimate of a decay constant from the envelope |y - y_inf|."""
    amp = np.abs(y - y[-1])
    mask = amp > max(amp.max(), 1e-300) * 1e-3
    if mask.sum() < 2:
        return max(np.ptp(x), 1.0)
    coef = np.polyfit(x[mask], np.log(amp[mask]), 1)
    if coef[0] >= 0:
        return max(np.ptp(x), 1.0)
    return float(-1.0 / coef[0])


def _fft_phase(x, y, f):
    """Phase (sine convention) of the component of y at frequency f."""
    yc = y - y.mean()
    coef = np.sum(yc * np.exp(-2j * np.pi * f * x))
    return float(np.angle(coef)) + math.pi / 2.0


# --------------------------------------------------------------------------
# model functions


def _ramsey(x, a_sin, f, phi, a_exp, t2, beta, c):
    return (a_sin * np.sin(2 * np.pi * f * x + phi) + a_exp) * \
        np.exp(-(x / t2) ** beta) + c


def _stretched_exp(x, a, t, beta, c):
    return a * np.exp(-(x / t) ** beta) + c


def _make_damped_sine_sum(k):
    def func(x, *p):
        out = np.full_like(x, p[-1])
        for i in range(k):
            a, f, phi, t, beta = p[5 * i: 5 * i + 5]
            out = out + a * np.sin(2 * np.pi * f * x + phi) * np.exp(-(x / t) ** beta)
        return out
    return func


def _power_scaling(x, a, gamma):
    return a * x ** gamma


def _lorentzian_pair(x, a1, x1, w1, a2, x2, w2, c):
    return (a1 * w1 ** 2 / ((x - x1) ** 2 + w1 ** 2)
            + a2 * w2 ** 2 / ((x - x2) ** 2 + w2 ** 2) + c)


def _saturation_law(x, gamma0):
    return gamma0 * np.sqrt(1.0 + x)


def _pol_rate(x, gamma0, eta):
    return gamma0 / (2.0 * eta) * x / (1.0 + x)


def _parabola(x, a, x0, c):
    return a * (x - x0) ** 2 + c


def _orbach_offset(x, gamma0, a, alpha, delta):
    return gamma0 + a * delta ** 3 / np.expm1(delta / (_KB_H * alpha * x))


def _power_law_offset(x, a, b, c):
    return a * x ** b + c


def _rb_decay(x, f_i, f_g):
    return (f_i - 0.5) * f_g ** x + 0.5


def _rb_decay_jacobian(x, p):
    f_i, f_g = p
    return np.column_stack([f_g ** x, (f_i - 0.5) * x * f_g ** (x - 1.0)])


def _rb_decay_free(x, a, f_g, c):
    return a * f_g ** x + c


def _make_rabi_beat(k):
    def func(x, *p):
        out = np.full_like(x, p[-1])
        for i in range(k):
            a, f, phi, t = p[4 * i: 4 * i + 4]
            out = out + a * np.sin(2 * np.pi * f * x + phi) * np.exp(-x / t)
        return out
    return func


def _make_rabi_beat_jacobian(k):
    def jacobian(x, p):
        cols = []
        for i in range(k):
            a, f, phi, t = p[4 * i: 4 * i + 4]
            arg = 2 * np.pi * f * x + phi
            env = np.exp(-x / t)
            sin_env, cos_env = np.sin(arg) * env, np.cos(arg) * env
            cols += [sin_env, a * 2 * np.pi * x * cos_env, a * cos_env,
                     a * x / t ** 2 * sin_env]
        cols.append(np.ones_like(x))
        return np.column_stack(cols)
    return jacobian


def _gamma2r_model(x, a, b, c):
    return a / x + b * x + c


def _single_exp(x, a, t, c):
    return a * np.exp(-x / t) + c


def _single_exp_jacobian(x, p):
    a, t, _ = p
    e = np.exp(-x / t)
    return np.column_stack([e, a * x / t ** 2 * e, np.ones_like(x)])


def _gaussian(x, a, mu, sigma, c):
    return a * np.exp(-0.5 * ((x - mu) / sigma) ** 2) + c


def _three_normal_mixture(x, a1, mu1, s1, a2, mu2, s2, a3, mu3, s3):
    out = np.zeros_like(x)
    for a, mu, s in ((a1, mu1, s1), (a2, mu2, s2), (a3, mu3, s3)):
        out = out + a * np.exp(-0.5 * ((x - mu) / s) ** 2) / (s * math.sqrt(2 * math.pi))
    return out


# --------------------------------------------------------------------------
# initial-guess rules


def _guess_ramsey(x, y):
    f = _fft_peaks(x, y, 1)[0]
    return {"a_sin": np.ptp(y) / 2, "f": f, "phi": _fft_phase(x, y, f),
            "a_exp": 0.0, "t2": max(np.ptp(x) / 3.0, 1e-300), "beta": 1.2,
            "c": y.mean()}


def _guess_stretched(x, y):
    return {"a": y[0] - y[-1], "t": _decay_scale(x, y), "beta": 1.0, "c": y[-1]}


def _make_guess_damped_sum(k, with_beta):
    def guess(x, y):
        freqs = _fft_peaks(x, y, k)
        t0 = _decay_scale(x, y)
        yc = y - y.mean()
        # amplitude from the DFT projection, corrected for the mean damping
        damp = max(float(np.mean(np.exp(-x / t0))), 1e-3)
        out = {"c": y.mean()}
        for i, f in enumerate(freqs, start=1):
            coef = np.sum(yc * np.exp(-2j * np.pi * f * x))
            out["a%d" % i] = 2.0 * abs(coef) / (x.size * damp)
            out["f%d" % i] = f
            out["phi%d" % i] = float(np.angle(coef)) + math.pi / 2.0
            out["t%d" % i] = t0
            if with_beta:
                out["beta%d" % i] = 1.0
        return out
    return guess


def _guess_power(x, y):
    mask = (x > 0) & (y > 0)
    if mask.sum() >= 2:
        b, loga = np.polyfit(np.log(x[mask]), np.log(y[mask]), 1)
        return {"a": math.exp(loga), "gamma": b, "b": b, "c": 0.0}
    return {"a": 1.0, "gamma": 1.0, "b": 1.0, "c": 0.0}


def _guess_lorentzian_pair(x, y):
    base = np.median(y)
    resid = y - base
    i1 = int(np.argmax(np.abs(resid)))
    width = max(np.ptp(x) / 20, abs(x[1] - x[0]) if x.size > 1 else 1.0)
    away = np.abs(x - x[i1]) > 3 * width
    i2 = int(np.argmax(np.abs(resid * away))) if away.any() else i1
    return {"a1": resid[i1], "x1": x[i1], "w1": width,
            "a2": resid[i2], "x2": x[i2], "w2": width, "c": base}


def _guess_saturation(x, y):
    return {"gamma0": max(y[np.argmin(np.abs(x))], y.min())}


def _guess_pol_rate(x, y):
    return {"gamma0": 2 * y.max(), "eta": 1.0}


def _guess_parabola(x, y):
    coef = np.polyfit(x, y, 2)
    a = coef[0] if coef[0] != 0 else 1.0
    x0 = -coef[1] / (2 * a)
    return {"a": a, "x0": x0, "c": coef[2] - a * x0 ** 2}


def _guess_orbach(x, y):
    """Plateau offset, then slope of log(rise) vs 1/T for the scale factor."""
    delta = 1110.755e9
    gamma0 = max(y.min(), 1e-3)
    rise = y - gamma0
    alpha = 1.0
    mask = rise > max(rise.max(), 1e-300) * 1e-2
    if mask.sum() >= 2:
        xs, rs = x[mask], rise[mask]
        lo, hi = int(np.argmin(xs)), int(np.argmax(xs))
        if xs[hi] > xs[lo] and rs[hi] > rs[lo] > 0:
            num = (delta / _KB_H) * (1.0 / xs[lo] - 1.0 / xs[hi])
            den = math.log(rs[hi] / rs[lo])
            if den > 0:
                alpha = min(max(num / den, 0.25), 4.5)
    amp = max(y.max() - gamma0, 1e-300)
    a = amp * math.expm1(delta / (_KB_H * alpha * x.max())) / delta ** 3
    return {"gamma0": gamma0, "a": a, "alpha": alpha, "delta": delta}


def _guess_power_offset(x, y):
    shifted = y - y.min() + np.ptp(y) * 1e-3
    mask = x > 0
    if mask.sum() >= 2:
        b, loga = np.polyfit(np.log(x[mask]), np.log(shifted[mask]), 1)
        return {"a": math.exp(loga), "b": b, "c": y.min()}
    return {"a": 1.0, "b": 1.0, "c": y.min()}


def _guess_rb(x, y):
    return {"f_i": min(max(y[int(np.argmin(x))], 0.51), 0.999), "f_g": 0.99,
            "a": y[int(np.argmin(x))] - 0.5, "c": 0.5}


def _guess_gamma2r(x, y):
    c = y.min()
    return {"a": max((y[0] - c) * x[0], 1e-12), "b": max((y[-1] - c) / x[-1], 1e-12),
            "c": c}


def _guess_single_exp(x, y):
    return {"a": y[0] - y[-1], "t": _decay_scale(x, y), "c": y[-1]}


def _guess_gaussian(x, y):
    base = y.min()
    i = int(np.argmax(y - base))
    spread = np.ptp(x) / 6 or 1.0
    return {"a": y[i] - base, "mu": x[i], "sigma": spread, "c": base}


def _guess_mixture(x, y):
    """Top three separated histogram peaks; quantile fallback when too few."""
    dx = np.median(np.diff(x)) if x.size > 1 else 1.0
    padded = np.concatenate([[y[0]], y, [y[-1]]])
    smooth = (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0
    min_sep = max(np.ptp(x) / 8.0, 2 * dx)
    order = np.argsort(smooth)[::-1]
    peaks = []
    for idx in order:
        if smooth[idx] <= 0:
            break
        if all(abs(x[idx] - x[j]) > min_sep for j in peaks):
            peaks.append(int(idx))
        if len(peaks) == 3:
            break
    if len(peaks) < 3:
        cdf = np.cumsum(np.maximum(y, 0.0))
        cdf = cdf / max(cdf[-1], 1e-300)
        for q in (0.15, 0.5, 0.85):
            idx = int(np.searchsorted(cdf, q))
            if all(abs(x[idx] - x[j]) > dx for j in peaks):
                peaks.append(min(idx, x.size - 1))
            if len(peaks) == 3:
                break
    while len(peaks) < 3:
        peaks.append(int(np.argmax(smooth)))
    out = {}
    for i, idx in enumerate(sorted(peaks, key=lambda j: x[j]), start=1):
        mu = float(x[idx])
        spread = max(math.sqrt(abs(mu)), 0.8)
        out["a%d" % i] = max(float(y[idx]), 1.0) * spread * math.sqrt(2 * math.pi)
        out["mu%d" % i] = mu
        out["s%d" % i] = spread
    return out


# --------------------------------------------------------------------------
# registry


_POS = (1e-300, math.inf)


def damped_sine_sum_model(k):
    """Sum of k stretched-exponential damped sines plus an offset."""
    params = []
    for i in range(1, k + 1):
        params += [ParamSpec("a%d" % i), ParamSpec("f%d" % i, _POS), ParamSpec("phi%d" % i),
                   ParamSpec("t%d" % i, _POS), ParamSpec("beta%d" % i, (0.1, 5.0))]
    params.append(ParamSpec("c"))
    return ModelSpec("damped_sine_sum_%d" % k, tuple(params),
                     _make_damped_sine_sum(k), _make_guess_damped_sum(k, True))


def rabi_beat_model(k):
    """Sum of k exponentially damped sines plus an offset."""
    params = []
    for i in range(1, k + 1):
        params += [ParamSpec("a%d" % i), ParamSpec("f%d" % i, _POS), ParamSpec("phi%d" % i),
                   ParamSpec("t%d" % i, _POS)]
    params.append(ParamSpec("c"))
    return ModelSpec("rabi_beat_%d" % k, tuple(params),
                     _make_rabi_beat(k), _make_guess_damped_sum(k, False),
                     _make_rabi_beat_jacobian(k))


def model_registry() -> Dict[str, ModelSpec]:
    """All named fit models; fresh specs on every call."""
    reg = {
        "ramsey": ModelSpec("ramsey", (
            ParamSpec("a_sin"), ParamSpec("f", _POS), ParamSpec("phi"), ParamSpec("a_exp"),
            ParamSpec("t2", _POS), ParamSpec("beta", (0.1, 5.0)), ParamSpec("c")),
            _ramsey, _guess_ramsey),
        "stretched_exp": ModelSpec("stretched_exp", (
            ParamSpec("a"), ParamSpec("t", _POS), ParamSpec("beta", (0.1, 5.0)), ParamSpec("c")),
            _stretched_exp, _guess_stretched),
        "power_scaling": ModelSpec("power_scaling", (
            ParamSpec("a", _POS), ParamSpec("gamma")), _power_scaling, _guess_power),
        "lorentzian_pair": ModelSpec("lorentzian_pair", (
            ParamSpec("a1"), ParamSpec("x1"), ParamSpec("w1", _POS),
            ParamSpec("a2"), ParamSpec("x2"), ParamSpec("w2", _POS), ParamSpec("c")),
            _lorentzian_pair, _guess_lorentzian_pair),
        "saturation_law": ModelSpec("saturation_law", (
            ParamSpec("gamma0", _POS),), _saturation_law, _guess_saturation),
        "pol_rate": ModelSpec("pol_rate", (
            ParamSpec("gamma0", _POS), ParamSpec("eta", _POS)),
            _pol_rate, _guess_pol_rate),
        "parabola": ModelSpec("parabola", (
            ParamSpec("a"), ParamSpec("x0"), ParamSpec("c")), _parabola, _guess_parabola),
        "orbach_offset": ModelSpec("orbach_offset", (
            ParamSpec("gamma0", (0.0, math.inf)), ParamSpec("a", _POS),
            ParamSpec("alpha", (0.2, 5.0)), ParamSpec("delta", _POS)),
            _orbach_offset, _guess_orbach),
        "power_law_offset": ModelSpec("power_law_offset", (
            ParamSpec("a", _POS), ParamSpec("b"), ParamSpec("c")),
            _power_law_offset, _guess_power_offset),
        "rb_decay": ModelSpec("rb_decay", (
            ParamSpec("f_i", (0.5, 1.0)), ParamSpec("f_g", (0.0, 1.0))),
            _rb_decay, _guess_rb, _rb_decay_jacobian),
        "rb_decay_free": ModelSpec("rb_decay_free", (
            ParamSpec("a"), ParamSpec("f_g", (0.0, 1.0)), ParamSpec("c")),
            _rb_decay_free, _guess_rb),
        "gamma2r_model": ModelSpec("gamma2r_model", (
            ParamSpec("a", _POS), ParamSpec("b", _POS), ParamSpec("c")),
            _gamma2r_model, _guess_gamma2r),
        "single_exp": ModelSpec("single_exp", (
            ParamSpec("a"), ParamSpec("t", _POS), ParamSpec("c")),
            _single_exp, _guess_single_exp, _single_exp_jacobian),
        "gaussian": ModelSpec("gaussian", (
            ParamSpec("a"), ParamSpec("mu"), ParamSpec("sigma", _POS), ParamSpec("c")),
            _gaussian, _guess_gaussian),
        "three_normal_mixture": ModelSpec("three_normal_mixture", (
            ParamSpec("a1", _POS), ParamSpec("mu1"), ParamSpec("s1", (0.25, math.inf)),
            ParamSpec("a2", _POS), ParamSpec("mu2"), ParamSpec("s2", (0.25, math.inf)),
            ParamSpec("a3", _POS), ParamSpec("mu3"), ParamSpec("s3", (0.25, math.inf))),
            _three_normal_mixture, _guess_mixture),
    }
    reg["exp_recovery"] = reg["single_exp"]   # a * exp(-x / t) + c fits decays and recoveries
    reg["damped_sine_sum"] = damped_sine_sum_model(2)
    reg["rabi_beat"] = rabi_beat_model(2)
    return reg


@functools.lru_cache(maxsize=None)
def _shared_registry() -> Dict[str, ModelSpec]:
    """The registry get_model reads, built on its first call; never handed out."""
    return model_registry()


def get_model(name: str) -> ModelSpec:
    """Registry lookup; raises UnknownModel for unrecognized names.

    Every call for a name returns the same (frozen) spec."""
    reg = _shared_registry()
    if name not in reg:
        raise UnknownModel("unknown model %r; known: %s"
                           % (name, ", ".join(sorted(reg))))
    return reg[name]
