"""Optical pumping metrics and Monte-Carlo single-shot nuclear readout.

Pumping: polarization-rate and saturation-linewidth laws plus the
initialization-fidelity extraction from time-binned fluorescence of a pump
pulse.  Readout: a per-block Markov chain over the nuclear state (bright /
dark, with an off-resonant branch) whose aggregated window counts are
classified against a photon threshold.
"""

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import fitting
from .fitting import FitFailed


# --------------------------------------------------------------------------
# pumping laws


@dataclass(frozen=True)
class PumpParams:
    """Zero-power linewidth gamma0 (Hz), cyclicity eta and saturation s."""

    gamma0: float
    eta: float
    s: float

    def __post_init__(self):
        for name in ("gamma0", "eta", "s"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be >= 0" % name)


def polarization_rate(p: PumpParams) -> float:
    """Spin-pumping rate Gamma_0 / (2 eta) * s / (1 + s) in Hz."""
    return p.gamma0 / (2.0 * p.eta) * p.s / (1.0 + p.s)


def saturation_linewidth(s, gamma0_opt):
    """Power-broadened optical linewidth gamma0 * sqrt(1 + s) in Hz."""
    s = np.asarray(s, dtype=float)
    if (s < 0).any():
        raise ValueError("saturation parameter must be >= 0")
    out = gamma0_opt * np.sqrt(1.0 + s)
    return float(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# pump-pulse fluorescence metrics


@dataclass
class PulseMetrics:
    amplitude: float
    steady_state: float
    t_p: float
    fidelity: float
    per_pulse: Optional[List["PulseMetrics"]] = None


def _registry_model(name, bounds, **changes):
    """The registry's model name with the bounds of the parameters in bounds replaced."""
    spec = fitting.get_model(name)
    params = tuple(replace(p, bounds=bounds.get(p.name, p.bounds)) for p in spec.params)
    return replace(spec, params=params, **changes)


def extract_pulse_metrics(counts_trace):
    """Initialization-fidelity metrics from time-binned pump fluorescence.

    Fits a * exp(-t / T_p) + n_ss over the bin index (T_p in bins) and reports
    fidelity a / (a + n_ss).  A 2-D trace (pulses x bins) is fit collectively
    on the pulse average first; the per-pulse fits then constrain T_p and n_ss
    to +-3 sigma of the collective values.  Raises FitFailed when the residual
    norm exceeds half the data's centered norm.
    """
    trace = np.asarray(counts_trace, dtype=float)
    collective = trace.mean(axis=0) if trace.ndim == 2 else trace
    if collective.size < 10:
        raise ValueError("need at least 10 time bins")
    t = np.arange(collective.size, dtype=float)

    res = fitting.least_squares(_registry_model("exp_recovery", {"c": (0.0, math.inf)}),
                                t, collective)
    scale = np.linalg.norm(collective - collective.mean())
    if scale > 0 and res.residual_norm > 0.5 * scale:
        raise FitFailed("pump-decay fit residual %.3g exceeds threshold"
                        % res.residual_norm)
    a, t_p, n_ss = res["a"], res["t"], res["c"]
    a_pos = max(a, 0.0)
    fidelity = a_pos / (a_pos + n_ss) if (a_pos + n_ss) > 0 else 0.0
    metrics = PulseMetrics(a, n_ss, t_p, fidelity)

    if trace.ndim == 2:
        s_t, s_n = res.error("t"), res.error("c")
        t_b = (max(t_p - 3 * s_t, 1e-300), t_p + 3 * max(s_t, 1e-12 * t_p))
        n_b = (max(n_ss - 3 * s_n, 0.0), n_ss + 3 * max(s_n, 1e-12 * max(n_ss, 1.0)))
        metrics.per_pulse = []
        for row in trace:
            r = fitting.least_squares(_registry_model("exp_recovery", {"t": t_b, "c": n_b}),
                                      t, row)
            ap = max(r["a"], 0.0)
            fid = ap / (ap + r["c"]) if (ap + r["c"]) > 0 else 0.0
            metrics.per_pulse.append(PulseMetrics(r["a"], r["c"], r["t"], fid))
    return metrics


# --------------------------------------------------------------------------
# single-shot readout


@dataclass(frozen=True)
class SsrConfig:
    """Blocked readout window: N_SSR pump + gate blocks aggregated to one count."""

    n_blocks: int = 280
    t_block: float = 3e-3 / 280
    mean_bright: float = 32.0
    mean_dark: float = 10.0
    p_offres: float = 0.07
    t_pol_n: float = 41.6178057e-3
    threshold: int = 21
    seed: int = 0

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if not self.t_block > 0:
            raise ValueError("t_block must be > 0")
        if not self.mean_bright > self.mean_dark or self.mean_dark < 0:
            raise ValueError("need mean_bright > mean_dark >= 0")
        if not 0.0 <= self.p_offres < 1.0:
            raise ValueError("p_offres must lie in [0, 1)")
        if not self.t_pol_n > 0:
            raise ValueError("t_pol_n must be > 0")
        if self.threshold < 0:
            raise ValueError("threshold must be >= 0")

    @property
    def t_window(self):
        return self.n_blocks * self.t_block


@dataclass
class PhotonRecord:
    """Per-shot aggregated window counts with latent-state bookkeeping."""

    counts: np.ndarray
    initial_state: np.ndarray   # 'bright' | 'dark' | 'offres'
    final_state: np.ndarray     # 'bright' | 'dark' (nuclear state after the window)

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
        if (self.counts < 0).any() or not np.isfinite(self.counts.astype(float)).all():
            raise ValueError("counts must be finite and >= 0")
        if not (len(self.counts) == len(self.initial_state) == len(self.final_state)):
            raise ValueError("record arrays must have equal length")

    def __len__(self):
        return len(self.counts)


# one shared string object per state: a shot's entry costs one 8-byte reference
_STATES = np.array(["bright", "dark", "offres"], dtype=object)


def simulate_ssr(c: SsrConfig, initial_nuclear="bright", n_shots=1) -> PhotonRecord:
    """Monte-Carlo single-shot readout windows.

    Per shot: with probability p_offres the emitter is off-resonant for the
    whole window and emits nothing while the nuclear state idles.  Otherwise a
    bright nucleus emits Poisson(mean_bright / n_blocks) per block until it
    flips (per-block flip probability 1 - exp(-t_block / t_pol_n)), after
    which the dark rate applies; a dark nucleus is absorbing and the window
    aggregates to Poisson(mean_dark).  initial_nuclear: 'bright' | 'dark' |
    'alternate' (even shots bright).

    Reproducible from c.seed, which is spawned into three generators, one per
    variate: the off-resonant uniform, the geometric block at whose end a
    bright nucleus flips, and the Poisson window count.  Each draws exactly
    one variate per shot, in shot order, whatever the shot's branch, so shot i
    depends only on c.seed and i: a run of n shots is a prefix of any longer
    run with the same seed and preparation (the count stream holds this too,
    although Poisson sampling rejects a varying number of uniforms, because
    shot i's draws follow those of shots 0..i-1 only).
    """
    if initial_nuclear not in ("bright", "dark", "alternate"):
        raise ValueError("initial_nuclear must be 'bright', 'dark' or 'alternate'")
    offres_rng, flip_rng, count_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(c.seed).spawn(3))
    p_flip = -math.expm1(-c.t_block / c.t_pol_n)

    offres = offres_rng.random(n_shots) < c.p_offres
    dark0 = np.full(n_shots, initial_nuclear == "dark")
    if initial_nuclear == "alternate":
        dark0[1::2] = True
    # block index at whose end the nucleus flips (1-based); past the window it never does
    if p_flip > 0:
        g = flip_rng.geometric(p_flip, n_shots)
    else:
        g = np.full(n_shots, c.n_blocks + 1, dtype=np.int64)
    final_dark = dark0 | (~offres & (g <= c.n_blocks))
    # bright blocks in the window: dark shots have none and aggregate to mean_dark.
    # Each per-shot temporary is dropped once spent, so peak memory stays near the record's.
    np.minimum(g, c.n_blocks, out=g)
    g[dark0] = 0
    mean = np.multiply(g, (c.mean_bright - c.mean_dark) / c.n_blocks)
    del g
    mean += c.mean_dark
    counts = count_rng.poisson(mean)
    del mean
    counts[offres] = 0

    initial = dark0.view(np.int8)   # codes into _STATES, written over dark0
    initial[offres] = 2
    return PhotonRecord(counts, _STATES[initial], _STATES[final_dark.view(np.int8)])


@dataclass
class ClassifyResult:
    labels: np.ndarray
    fidelity_bright: float
    fidelity_dark: float
    posterior_bright: float
    posterior_dark: float
    equal_threshold: int


def _class_fidelities(record: PhotonRecord, threshold):
    labels = record.counts > threshold
    b0 = record.initial_state == "bright"
    d0 = record.initial_state == "dark"
    f_b = float(np.mean(labels[b0])) if b0.any() else math.nan
    f_d = float(np.mean(~labels[d0])) if d0.any() else math.nan
    return labels, f_b, f_d


def classify_threshold(record: PhotonRecord, threshold) -> ClassifyResult:
    """Threshold classification with per-class fidelities.

    Labels a shot bright when its window count exceeds the threshold.
    fidelity_* condition on the prepared (latent) state; posterior_* condition
    on the assigned label and ask whether the nuclear state at the end of the
    window matches it (the quantity a post-selected experiment inherits).
    Also reports the integer threshold equalizing the two per-class
    fidelities.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    labels, f_b, f_d = _class_fidelities(record, threshold)
    final_bright = record.final_state == "bright"
    p_b = float(np.mean(final_bright[labels])) if labels.any() else math.nan
    p_d = float(np.mean(~final_bright[~labels])) if (~labels).any() else math.nan

    # over thresholds 0..max: shots of each class at or below each threshold, from one
    # histogram (count > thr exactly when ceil(count) > thr); the first minimum gap wins
    n_thr = int(record.counts.max()) + 1
    best = int(threshold)
    b0 = record.initial_state == "bright"
    d0 = record.initial_state == "dark"
    if b0.any() and d0.any():
        ceil_counts = np.ceil(record.counts).astype(np.int64)
        at_or_below = [np.cumsum(np.bincount(ceil_counts[cls], minlength=n_thr)[:n_thr])
                       for cls in (b0, d0)]
        n_b, n_d = int(b0.sum()), int(d0.sum())
        gap = np.abs((n_b - at_or_below[0]) / n_b - at_or_below[1] / n_d)
        best = int(np.argmin(gap))
    return ClassifyResult(labels, f_b, f_d, p_b, p_d, best)


def apply_drift_correction(counts, t_window, t_pol_n):
    """Renormalize window counts for in-window decay of the bright state.

    Divides by the mean bright-survival fraction of an exponential decay over
    the window, t_pol_n / t_window * (1 - exp(-t_window / t_pol_n)); an
    optional post-correction applied before histogramming.
    """
    frac = t_pol_n / t_window * -math.expm1(-t_window / t_pol_n)
    return np.asarray(counts, dtype=float) / frac


@dataclass
class MixtureFit:
    weights: Tuple[float, float, float]
    means: Tuple[float, float, float]
    widths: Tuple[float, float, float]
    residual_norm: float


_erf = np.frompyfunc(math.erf, 1, 1)


def _binned_normal_mixture(x, *params):
    """Sum of normal components, each integrated over the unit bins centred on x.

    Component i contributes a_i [Phi((x + 1/2 - mu_i) / s_i) - Phi((x - 1/2 - mu_i) / s_i)],
    so a_i is its area however narrow it is; x must be the centres of adjacent unit bins.
    """
    edges = np.append(x - 0.5, x[-1] + 0.5)
    out = np.zeros_like(x)
    for a, mu, s in zip(params[0::3], params[1::3], params[2::3]):
        out += 0.5 * a * np.diff(_erf((edges - mu) / (s * math.sqrt(2.0))).astype(float))
    return out


def _binned_normal_mixture_jacobian(x, params):
    """d _binned_normal_mixture / d (a_i, mu_i, s_i), shape (len(x), len(params)).

    With z = (edge - mu_i) / s_i at the bin edges: diff(Phi(z)), -a_i/s_i diff(phi(z))
    and -a_i/s_i diff(z phi(z)), the erf of all components taken in one pass.
    """
    a, mu, s = (np.asarray(params[i::3], dtype=float)[:, None] for i in range(3))
    z = (np.append(x - 0.5, x[-1] + 0.5) - mu) / s
    big_phi = 0.5 * _erf(z / math.sqrt(2.0)).astype(float)
    phi = np.exp(-0.5 * z ** 2) / math.sqrt(2.0 * math.pi)
    cols = np.stack([np.diff(big_phi), -a / s * np.diff(phi), -a / s * np.diff(z * phi)],
                    axis=1)   # (component, a/mu/s, bin)
    return cols.reshape(len(params), x.size).T


def _mixture_model(centers):
    """The registry's three-normal mixture, binned on the unit bins centred on centers.

    Means are confined to the counts seen and widths to the data span, so the
    zero-count spike cannot open a flat ridge.
    """
    mu_b = (centers[0], centers[-1])
    s_b = (0.25, max(float(np.ptp(centers)), 1.0))
    bounds = {"%s%d" % (name, i): b for i in (1, 2, 3) for name, b in (("mu", mu_b), ("s", s_b))}
    return _registry_model("three_normal_mixture", bounds, func=_binned_normal_mixture,
                           jacobian=_binned_normal_mixture_jacobian)


def fit_photon_histogram(counts) -> MixtureFit:
    """Three-component normal fit of the window-count histogram.

    Bins the counts on an integer grid and least-squares fits a sum of three
    normal components integrated over each bin (Baker and Cousins, Nucl.
    Instrum. Methods 221, 437 (1984)), so the off-resonant spike at exactly
    zero counts is one narrow component whose area is its shot count.  The
    components are returned ordered by mean with area weights normalized to
    1.  Raises FitFailed on degenerate histograms or a diverged fit.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.size < 500:
        raise ValueError("need at least 500 shots to fit the histogram")
    if np.ptp(counts) <= 0:
        raise FitFailed("histogram is degenerate (all counts identical)")
    edges = np.arange(counts.min() - 0.5, counts.max() + 1.5)
    hist, edges = np.histogram(counts, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])

    model = _mixture_model(centers)
    try:
        res = fitting.least_squares(model, centers, hist.astype(float),
                                    max_iterations=2000)
    except (fitting.SingularNormalMatrix, fitting.MaxIterations) as exc:
        raise FitFailed("mixture fit failed: %s" % exc)
    if not np.isfinite(res.residual_norm):
        raise FitFailed("mixture fit diverged")

    comps = sorted((
        (res["mu%d" % i], res["a%d" % i], res["s%d" % i]) for i in (1, 2, 3)))
    total = sum(a for _, a, _ in comps)
    weights = tuple(a / total for _, a, _ in comps)
    means = tuple(mu for mu, _, _ in comps)
    widths = tuple(s for _, _, s in comps)
    return MixtureFit(weights, means, widths, res.residual_norm)
