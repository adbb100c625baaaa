"""Nonlinear least squares plus the registry of phenomenological models.

The solver is a damped Gauss-Newton (Levenberg-Marquardt style) loop that
runs K fits of one model in lockstep (least_squares_rows); least_squares is
that loop at K = 1.  Each row keeps its own parameters, damping, iteration
count, stop reason and failure.  In each round the trial points of the rows
still stepping go to the model as one (K_active, n) parameter stack, and the
accepted rows' Jacobians from that call's jacobian_of.  A fit differentiates
its model one way, in the parameters themselves: with the model's jacobian_of
when it has one, by central differences when it is None.  In the registry,
single_exp (also registered as exp_recovery), rb_decay and rabi_beat
(rabi_beat_model(k) for any k) have one; so do readout's binned photon-count
mixture and the strain estimate of electronic.
Bounds are kept by projection (More, Lecture Notes in Mathematics 630, 105
(1978)): the fit starts from the guess clipped into each parameter's box; a
parameter on a bound while the descent direction -J^T r points out of the box
is held for that step, its row and column of the damped normal matrix the
identity's and its gradient entry 0, so it steps by 0 and the others solve the
damped system without it; the trial point is clipped into the box.  A fitted
value may so end exactly on a bound.  A step is taken only where the cost is
finite and not higher and the Jacobian there is finite; that Jacobian serves
the next step and, at the solution, the standard errors from the
residual-scaled inverse normal matrix s^2 (J^T J)^-1.
Each row stops by itself on the relative tests of MINPACK (More, Garbow and
Hillstrom, ANL-80-74 (1980)): the step test, when a trial step, accepted or
rejected, moves no free parameter p by more than XTOL (|p| + XTOL), so a
rising damping that shrinks the rejected steps ends the fit like MINPACK's
shrinking trust radius; and the cost test, when one accepted step lowers the
cost by at most FTOL of it.  A row with no downhill step at any damping
(damping 1e14) or with no free parameter that may move is stationary, and
one that takes max_iterations accepted steps without a test holding raises
MaxIterations.  FitResult.stop_reason says which ended the fit.

Broadcasting contract: a model evaluates a parameter stack, shape (K, n), at
x, shape (N,) or (K, N), to its values, shape (K, N), and jacobian_of(rows),
which returns d values / d params of the chosen rows, shape (len(rows), N, n).
Each row of a stack, values and Jacobian, equals its evaluation as a 1-row
stack bit for bit.

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


# the tolerances of the step and cost tests (module docstring); XTOL sits just
# above the strain estimate's steps at its roundoff floor, up to 1.4e-12 of
# alpha and theta
XTOL = 2e-12
FTOL = 1e-10


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

    evaluate -- evaluate(x, p) -> (values, jacobian_of) on a (K, n) parameter
                stack p (see the module docstring).  jacobian_of(rows), rows a
                slice or an increasing index list into the stack, returns
                d values / d params of those rows, shape (len(rows), N, n); it
                is None for a model with no derivative rule, whose fits take
                central differences.  least_squares calls it for the starting
                points and the accepted trial points only, so a model whose
                values and derivatives share their costly work (the strain
                estimate's block solves) forms the Jacobians from the work of
                the same call.  formula(func, jacobian) builds it from a
                formula.
    guess    -- optional rule guess(x, y) -> dict of starting values.
    """

    name: str
    params: Tuple[ParamSpec, ...]
    evaluate: Callable
    guess: Optional[Callable] = None

    @property
    def param_names(self):
        return tuple(p.name for p in self.params)

    def __call__(self, x, params, jacobian=False):
        """Model values at x of a (K, n) parameter stack, (K, N), or of one vector,
        (N,), evaluated as a 1-row stack; with jacobian=True, (values, jacobian_of)."""
        p = np.asarray(params, dtype=float)
        values, jacobian_of = self.evaluate(np.asarray(x, dtype=float), np.atleast_2d(p))
        if p.ndim == 1:
            values = values[0]
        return (values, jacobian_of) if jacobian else values

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
    """One fit.  evaluations and jacobian_evaluations count the points at which
    the fit took the model values and the Jacobian (a central-difference
    Jacobian counts once); iterations counts its accepted steps.  stop_reason
    says which test ended it: "step" (a trial step within XTOL), "cost" (an
    accepted step that lowered the cost by at most FTOL of it) or "stationary"
    (no downhill step at any damping, or no free parameter that may move)."""

    params: np.ndarray
    sigma: np.ndarray
    residual_norm: float
    covariance: np.ndarray
    converged: bool
    param_names: Tuple[str, ...] = ()
    evaluations: int = 0
    jacobian_evaluations: int = 0
    stop_reason: str = ""
    iterations: int = 0

    def __getitem__(self, name):
        return float(self.params[self.param_names.index(name)])

    def error(self, name):
        return float(self.sigma[self.param_names.index(name)])


def least_squares(model: ModelSpec, x, y, weights=None,
                  init: Optional[Dict[str, float]] = None,
                  fixed: Optional[Dict[str, float]] = None,
                  max_iterations=200):
    """Damped Gauss-Newton fit of a registry model: least_squares_rows at K = 1.

    init is a dict of starting values (missing entries fall back to the
    model's initial-guess rule); fixed pins named parameters and removes them
    from the optimization and the reported uncertainties.  The steps and the
    uncertainties share one Jacobian: the model's jacobian_of when it has one
    (see ModelSpec), central differences in the parameters otherwise.  The fit
    stops on the step test (XTOL) or the cost test (FTOL) of the module
    docstring, or at a stationary point, and says which in stop_reason.
    Raises SingularNormalMatrix or MaxIterations when the fit fails.
    """
    y = np.asarray(y, dtype=float)
    if weights is not None:
        weights = np.asarray(weights, dtype=float)[None]
    fit, = least_squares_rows(model, x, y[None], weights, init, fixed, max_iterations)
    if isinstance(fit, Exception):
        raise fit
    return fit


def least_squares_rows(model: ModelSpec, x, y, weights=None, init=None,
                       fixed: Optional[Dict[str, float]] = None,
                       max_iterations=200):
    """K fits of one model in lockstep: row k fits y[k], shape (K, N), at x,
    shape (N,) or (K, N).

    weights match y; init is None, one dict for every row or a sequence of K
    dicts; fixed pins parameters in every row.  Returns a list with each
    row's FitResult, or the SingularNormalMatrix or MaxIterations that stopped
    the row.  Each row runs the stopping tests on its own steps and costs, so it
    takes the steps, the model and Jacobian evaluations and the stop of its fit
    alone (least_squares), bit for bit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or x.shape not in (y.shape, y.shape[1:]):
        raise ValueError("x and y lengths differ")
    n_rows, n_points = y.shape
    fixed = dict(fixed or {})
    names = model.param_names
    for key in fixed:
        if key not in names:
            raise ValueError("fixed parameter %r is not a model parameter" % key)
    free = [n for n in names if n not in fixed]
    if n_points < len(free) + 1:
        raise ValueError("need at least n_free_params + 1 data points")
    if weights is None:
        w_sqrt = None   # unit weights: multiplying by 1.0 changes no bit
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != y.shape or (w < 0).any():
            raise ValueError("weights must be nonnegative and match y")
        w_sqrt = np.sqrt(w)
    inits = [init] * n_rows if init is None or isinstance(init, dict) else list(init)
    if len(inits) != n_rows:
        raise ValueError("init needs one dict per row of y")

    x_rows = np.broadcast_to(x, y.shape)
    start = np.empty((n_rows, len(names)))
    for k in range(n_rows):
        values = model.initial_guess(x_rows[k], y[k])
        values.update(inits[k] or {})
        values.update(fixed)
        start[k] = [values[n] for n in names]

    free_idx = [names.index(n) for n in free]
    n_free = len(free)
    # the free parameters as a view where none is fixed
    free_cols = slice(None) if n_free == len(names) else free_idx
    lo = np.array([model.params[i].bounds[0] for i in free_idx], dtype=float)
    hi = np.array([model.params[i].bounds[1] for i in free_idx], dtype=float)
    params = np.tile([fixed.get(n, 0.0) for n in names], (n_rows, 1)).astype(float)
    params[:, free_idx] = np.clip(start[:, free_idx], lo, hi)
    diag = np.arange(n_free)

    def at(rows):
        """Index of a list of rows: a view while it holds every row."""
        return slice(None) if len(rows) == n_rows else np.array(rows)

    def weighted(i, a):
        """a, shape (rows, N) or (rows, free, N), times the square-root weights of rows i."""
        if w_sqrt is None:
            return a
        return np.multiply(w_sqrt[i] if a.ndim == 2 else w_sqrt[i][:, None, :], a, order="C")

    def residuals(i, p):
        """Weighted residuals of rows i at p, and the model's jacobian_of (or None)."""
        values, jacobian_of = model(x if x.ndim == 1 else x[i], p, jacobian=True)
        return weighted(i, values - y[i]), jacobian_of

    def jacobians(i, p, jacobian_of, d):
        """J^T, d residual / d free params of rows i at p, rows d of the stack
        jacobian_of came from, shape (rows, free, N): C-ordered from jacobian_of,
        from central differences a transposed view of a C-ordered (rows, N,
        free) array, the memory layout whose products a single fit reproduces."""
        if jacobian_of is not None:
            jac = np.asarray(jacobian_of(d), dtype=float).swapaxes(-1, -2)[:, free_cols]
            return np.ascontiguousarray(weighted(i, jac))
        if not n_free:
            return np.zeros((len(p), 0, n_points))
        # relative to the start value too: a fitted value near 0 gives no usable step
        p_free, s_free = np.abs(p[:, free_idx]), np.abs(start[i][:, free_idx])
        h = 1e-6 * np.where(s_free > p_free, s_free, p_free)
        h[h == 0] = 1e-6
        shifted = np.repeat(p[:, None, :], 2 * n_free, axis=1)
        shifted[:, diag, free_idx] += h
        shifted[:, n_free + diag, free_idx] -= h
        xs = x if x.ndim == 1 else np.repeat(x[i], 2 * n_free, axis=0)
        values = model(xs, shifted.reshape(-1, len(names))).reshape(len(p), 2, n_free, -1)
        cols = weighted(i, values[:, 0] - values[:, 1]) / (2.0 * h)[..., None]
        return np.ascontiguousarray(cols.swapaxes(1, 2)).swapaxes(1, 2)

    def begin(rows):
        """Start an iteration of each row: gradient, normal matrix and held
        parameters at its point.  Returns the rows with a parameter that may move."""
        nonlocal bounded
        if not n_free:
            return []
        i = at(rows)
        jt = jac[i]
        g[i] = (jt @ r[i][..., None])[..., 0]
        p = params[i][:, free_cols]
        at_lo, at_hi = p <= lo, p >= hi
        jt = np.ascontiguousarray(jt)
        a[i] = jt @ jt.swapaxes(-1, -2)
        # a held parameter keeps its bound, so a row off every bound holds none
        if not (at_lo.any() or at_hi.any()):
            return rows
        # a parameter on a bound whose descent direction leaves the box stays put
        bounded = True
        hold[i] = (at_lo & (g[i] > 0)) | (at_hi & (g[i] < 0))
        # a row that can move no parameter is at a stationary point
        return [k for k, stuck in zip(rows, hold[i].all(axis=1).tolist()) if not stuck]

    def solve(rows, i):
        """Damped steps of the rows, from one stacked solve; nan where a damped
        matrix is singular.  A held parameter's row and column of the damped
        matrix are the identity's and its gradient entry is 0: its step is 0 and
        the others solve the system without it."""
        m = np.array(a[i])
        d = m.reshape(len(rows), -1)[:, ::n_free + 1]   # a view of the diagonals
        d += np.array([lam[k] for k in rows])[:, None] * np.maximum(d, 1e-300)
        b = -g[i]
        if bounded:
            h = hold[i]
            m[h] = m.swapaxes(1, 2)[h] = b[h] = 0.0
            d[h] = 1.0
        return _solve_stack(m, b[..., None])[..., 0]

    failures = [None] * n_rows
    evaluations = [1] * n_rows
    jacobian_evaluations = [1] * n_rows
    lam = [1e-3] * n_rows
    iterations = [0] * n_rows
    stop = ["stationary"] * n_rows   # until a step or cost test fires
    g = np.zeros((n_rows, n_free))
    a = np.zeros((n_rows, n_free, n_free))
    hold = np.zeros((n_rows, n_free), dtype=bool)
    bounded = False   # whether a row has been on a bound: else hold is all False
    # overflows during trial steps produce a non-finite cost or Jacobian, which
    # simply rejects the step; keep them from spamming warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r, jacobian_of = residuals(slice(None), params)
        cost = [0.5 * float(r_k @ r_k) for r_k in r]
        jac = jacobians(slice(None), params, jacobian_of, slice(None))
        if max_iterations > 0:
            rows = begin(list(range(n_rows)))
        else:
            rows = []
            failures = [MaxIterations("no convergence within %d iterations" % max_iterations)
                        for _ in range(n_rows)]
        while rows:
            i = at(rows)
            step = solve(rows, i)
            if not np.isfinite(step).all():
                finite = np.isfinite(step).all(axis=1)
                for k, ok in zip(rows, finite.tolist()):
                    if not ok:
                        failures[k] = SingularNormalMatrix(
                            "normal matrix is singular for model %r" % model.name)
                rows, step = [k for k, ok in zip(rows, finite.tolist()) if ok], step[finite]
                if not rows:
                    break
                i = at(rows)
            trial = np.array(params[i])
            p_free = trial[:, free_cols]
            moved = (p_free + step).clip(lo, hi)
            # the step test, on every trial: no free parameter moves by more than XTOL
            small = (np.abs(moved - p_free) <= XTOL * (np.abs(p_free) + XTOL)).all(axis=1).tolist()
            trial[:, free_cols] = moved
            r_new, jacobian_of = residuals(i, trial)
            cost_new = [0.5 * float(r_k @ r_k) for r_k in r_new]
            down = []
            for j, k in enumerate(rows):
                evaluations[k] += 1
                if math.isfinite(cost_new[j]) and cost_new[j] <= cost[k]:
                    down.append(j)
                    jacobian_evaluations[k] += 1
            taken = []
            if down:
                every = len(down) == len(rows)
                d = slice(None) if every else down
                jac_d = jacobians(i if every else np.array(rows)[down], trial[d],
                                  jacobian_of, d)
                if np.isfinite(jac_d).all():
                    taken = down
                else:
                    finite = np.isfinite(jac_d).all(axis=(1, 2))
                    taken, jac_d = [j for j, ok in zip(down, finite.tolist()) if ok], jac_d[finite]
                if taken:
                    t = slice(None) if len(taken) == len(rows) else taken
                    acc = at([rows[j] for j in taken])
                    params[acc], r[acc], jac[acc] = trial[t], r_new[t], jac_d
            stepped, waiting = [], []
            for j, k in enumerate(rows):
                if j in taken:
                    reduction = (cost[k] - cost_new[j]) / max(cost[k], 1e-300)
                    cost[k] = cost_new[j]
                    lam[k] = max(lam[k] / 10.0, 1e-12)
                    iterations[k] += 1
                    if small[j]:
                        stop[k] = "step"
                    elif reduction <= FTOL:
                        stop[k] = "cost"
                    elif iterations[k] >= max_iterations:
                        failures[k] = MaxIterations(
                            "no convergence within %d iterations" % max_iterations)
                    else:
                        stepped.append(k)
                elif small[j]:
                    stop[k] = "step"
                else:
                    lam[k] *= 10.0
                    # no downhill step at any damping is a stationary point too
                    if lam[k] < 1e14:
                        waiting.append(k)
            rows = sorted(waiting + begin(stepped)) if stepped else waiting

        # uncertainties from the last step's Jacobian, taken at the solution
        n = len(names)
        sigma = np.zeros((n_rows, n))
        cov_full = np.zeros((n_rows, n, n))
        if n_free:
            normal = jac @ jac.swapaxes(-1, -2)
            inv = _solve_stack(normal, np.broadcast_to(np.eye(n_free), normal.shape))
            cov = (2.0 * np.array(cost) / (n_points - n_free))[:, None, None] * inv
            cov = 0.5 * (cov + cov.swapaxes(1, 2))
            var = cov[:, diag, diag]
            sigma[:, free_idx] = np.where(np.isfinite(var),
                                          np.sqrt(np.where(var > 0.0, var, 0.0)), np.nan)
            cov_full[:, np.array(free_idx)[:, None], free_idx] = cov

    return [failures[k] or FitResult(params=params[k].copy(), sigma=sigma[k],
                                     residual_norm=float(np.sqrt(2.0 * cost[k])),
                                     covariance=cov_full[k], converged=True,
                                     param_names=names, evaluations=evaluations[k],
                                     jacobian_evaluations=jacobian_evaluations[k],
                                     stop_reason=stop[k], iterations=iterations[k])
            for k in range(n_rows)]


def _solve_stack(m, b):
    """x with m[k] @ x[k] = b[k] for a (K, n, n) stack m and a (K, n, j) stack b;
    nan in the rows whose matrix is singular."""
    try:
        return np.linalg.solve(m, b)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for k in range(len(m)):
            try:
                x[k] = np.linalg.solve(m[k], b[k])
            except np.linalg.LinAlgError:
                pass
        return x


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


def formula(func, jacobian=None):
    """ModelSpec.evaluate of a model given by its formula func(x, *params), which
    is called with the (K, 1) columns of the stack, so it broadcasts against x.
    jacobian, an optional rule jacobian(x, p) -> d func / d params, shape
    (K, N, n), is called by jacobian_of on the chosen rows of x (when it is
    (K, N)) and of the stack."""
    def evaluate(x, p):
        values = func(x, *_columns(p))
        if jacobian is None:
            return values, None
        return values, lambda rows: jacobian(x if x.ndim == 1 else x[rows], p[rows])
    return evaluate


def _columns(p):
    """The (K, 1) columns of a (K, n) parameter stack, which broadcast against x."""
    return np.transpose(p)[..., None]


def _stack_columns(cols):
    """d model / d params, (K, N, n), from its columns, the first of full shape."""
    out = np.empty(np.shape(cols[0]) + (len(cols),))
    for j, col in enumerate(cols):
        out[..., j] = col
    return out


def _param_pow(p, k):
    """p ** k for a column of a stack, element by element by the scalar power:
    numpy's array power rounds differently (a square, or a vectorized pow), so
    a row of a stack would not keep its bits whatever the stack's length."""
    return np.array([v ** k for v in p.ravel()]).reshape(p.shape)


def _ramsey(x, a_sin, f, phi, a_exp, t2, beta, c):
    return (a_sin * np.sin(2 * np.pi * f * x + phi) + a_exp) * \
        np.exp(-(x / t2) ** beta) + c


def _stretched_exp(x, a, t, beta, c):
    return a * np.exp(-(x / t) ** beta) + c


def _make_damped_sine_sum(k):
    def func(x, *p):
        out = p[-1]
        for i in range(k):
            a, f, phi, t, beta = p[5 * i: 5 * i + 5]
            out = out + a * np.sin(2 * np.pi * f * x + phi) * np.exp(-(x / t) ** beta)
        return out
    return func


def _power_scaling(x, a, gamma):
    return a * x ** gamma


def _lorentzian_pair(x, a1, x1, w1, a2, x2, w2, c):
    w1_2, w2_2 = _param_pow(w1, 2), _param_pow(w2, 2)
    return (a1 * w1_2 / ((x - x1) ** 2 + w1_2)
            + a2 * w2_2 / ((x - x2) ** 2 + w2_2) + c)


def _saturation_law(x, gamma0):
    return gamma0 * np.sqrt(1.0 + x)


def _pol_rate(x, gamma0, eta):
    return gamma0 / (2.0 * eta) * x / (1.0 + x)


def _parabola(x, a, x0, c):
    return a * (x - x0) ** 2 + c


def _orbach_offset(x, gamma0, a, alpha, delta):
    return gamma0 + a * _param_pow(delta, 3) / np.expm1(delta / (_KB_H * alpha * x))


def _power_law_offset(x, a, b, c):
    return a * x ** b + c


def _rb_decay(x, f_i, f_g):
    return (f_i - 0.5) * f_g ** x + 0.5


def _rb_decay_jacobian(x, p):
    f_i, f_g = _columns(p)
    return _stack_columns([f_g ** x, (f_i - 0.5) * x * f_g ** (x - 1.0)])


def _rb_decay_free(x, a, f_g, c):
    return a * f_g ** x + c


def _make_rabi_beat(k):
    def func(x, *p):
        out = p[-1]
        for i in range(k):
            a, f, phi, t = p[4 * i: 4 * i + 4]
            out = out + a * np.sin(2 * np.pi * f * x + phi) * np.exp(-x / t)
        return out
    return func


def _make_rabi_beat_jacobian(k):
    def jacobian(x, p):
        p = _columns(p)
        cols = []
        for i in range(k):
            a, f, phi, t = p[4 * i: 4 * i + 4]
            arg = 2 * np.pi * f * x + phi
            env = np.exp(-x / t)
            sin_env, cos_env = np.sin(arg) * env, np.cos(arg) * env
            cols += [sin_env, a * 2 * np.pi * x * cos_env, a * cos_env,
                     a * x / _param_pow(t, 2) * sin_env]
        cols.append(np.ones_like(x))
        return _stack_columns(cols)
    return jacobian


def _gamma2r_model(x, a, b, c):
    return a / x + b * x + c


def _single_exp(x, a, t, c):
    return a * np.exp(-x / t) + c


def _single_exp_jacobian(x, p):
    a, t, _ = _columns(p)
    e = np.exp(-x / t)
    return _stack_columns([e, a * x / _param_pow(t, 2) * e, np.ones_like(x)])


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
                     formula(_make_damped_sine_sum(k)), _make_guess_damped_sum(k, True))


def rabi_beat_model(k):
    """Sum of k exponentially damped sines plus an offset."""
    params = []
    for i in range(1, k + 1):
        params += [ParamSpec("a%d" % i), ParamSpec("f%d" % i, _POS), ParamSpec("phi%d" % i),
                   ParamSpec("t%d" % i, _POS)]
    params.append(ParamSpec("c"))
    return ModelSpec("rabi_beat_%d" % k, tuple(params),
                     formula(_make_rabi_beat(k), _make_rabi_beat_jacobian(k)),
                     _make_guess_damped_sum(k, False))


def model_registry() -> Dict[str, ModelSpec]:
    """All named fit models; fresh specs on every call."""
    reg = {
        "ramsey": ModelSpec("ramsey", (
            ParamSpec("a_sin"), ParamSpec("f", _POS), ParamSpec("phi"), ParamSpec("a_exp"),
            ParamSpec("t2", _POS), ParamSpec("beta", (0.1, 5.0)), ParamSpec("c")),
            formula(_ramsey), _guess_ramsey),
        "stretched_exp": ModelSpec("stretched_exp", (
            ParamSpec("a"), ParamSpec("t", _POS), ParamSpec("beta", (0.1, 5.0)), ParamSpec("c")),
            formula(_stretched_exp), _guess_stretched),
        "power_scaling": ModelSpec("power_scaling", (
            ParamSpec("a", _POS), ParamSpec("gamma")), formula(_power_scaling), _guess_power),
        "lorentzian_pair": ModelSpec("lorentzian_pair", (
            ParamSpec("a1"), ParamSpec("x1"), ParamSpec("w1", _POS),
            ParamSpec("a2"), ParamSpec("x2"), ParamSpec("w2", _POS), ParamSpec("c")),
            formula(_lorentzian_pair), _guess_lorentzian_pair),
        "saturation_law": ModelSpec("saturation_law", (
            ParamSpec("gamma0", _POS),), formula(_saturation_law), _guess_saturation),
        "pol_rate": ModelSpec("pol_rate", (
            ParamSpec("gamma0", _POS), ParamSpec("eta", _POS)),
            formula(_pol_rate), _guess_pol_rate),
        "parabola": ModelSpec("parabola", (
            ParamSpec("a"), ParamSpec("x0"), ParamSpec("c")), formula(_parabola), _guess_parabola),
        "orbach_offset": ModelSpec("orbach_offset", (
            ParamSpec("gamma0", (0.0, math.inf)), ParamSpec("a", _POS),
            ParamSpec("alpha", (0.2, 5.0)), ParamSpec("delta", _POS)),
            formula(_orbach_offset), _guess_orbach),
        "power_law_offset": ModelSpec("power_law_offset", (
            ParamSpec("a", _POS), ParamSpec("b"), ParamSpec("c")),
            formula(_power_law_offset), _guess_power_offset),
        "rb_decay": ModelSpec("rb_decay", (
            ParamSpec("f_i", (0.5, 1.0)), ParamSpec("f_g", (0.0, 1.0))),
            formula(_rb_decay, _rb_decay_jacobian), _guess_rb),
        "rb_decay_free": ModelSpec("rb_decay_free", (
            ParamSpec("a"), ParamSpec("f_g", (0.0, 1.0)), ParamSpec("c")),
            formula(_rb_decay_free), _guess_rb),
        "gamma2r_model": ModelSpec("gamma2r_model", (
            ParamSpec("a", _POS), ParamSpec("b", _POS), ParamSpec("c")),
            formula(_gamma2r_model), _guess_gamma2r),
        "single_exp": ModelSpec("single_exp", (
            ParamSpec("a"), ParamSpec("t", _POS), ParamSpec("c")),
            formula(_single_exp, _single_exp_jacobian), _guess_single_exp),
        "gaussian": ModelSpec("gaussian", (
            ParamSpec("a"), ParamSpec("mu"), ParamSpec("sigma", _POS), ParamSpec("c")),
            formula(_gaussian), _guess_gaussian),
        "three_normal_mixture": ModelSpec("three_normal_mixture", (
            ParamSpec("a1", _POS), ParamSpec("mu1"), ParamSpec("s1", (0.25, math.inf)),
            ParamSpec("a2", _POS), ParamSpec("mu2"), ParamSpec("s2", (0.25, math.inf)),
            ParamSpec("a3", _POS), ParamSpec("mu3"), ParamSpec("s3", (0.25, math.inf))),
            formula(_three_normal_mixture), _guess_mixture),
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
