"""Optical pumping laws and Monte-Carlo single-shot nuclear readout.

Pumping: polarization-rate and saturation-linewidth laws.  Readout: a
per-block Markov chain over the nuclear state (bright / dark, with an
off-resonant branch) whose aggregated window counts are classified against a
photon threshold, and a three-normal fit of the window-count histogram.
"""

import math
from dataclasses import dataclass, replace
from typing import Tuple

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


# a shot's nuclear state is an int8 code into STATES
STATES = ("bright", "dark", "offres")
BRIGHT, DARK, OFFRES = range(len(STATES))


@dataclass
class PhotonRecord:
    """Per-shot aggregated window counts with latent-state bookkeeping.

    initial_state and final_state are int8 codes into STATES (BRIGHT, DARK,
    OFFRES): the prepared state, OFFRES for a shot whose emitter stayed
    off-resonant, and the nuclear state after the window, BRIGHT or DARK.
    STATES[code] names a code; the `ssr` CSV writes the names.
    """

    counts: np.ndarray
    initial_state: np.ndarray
    final_state: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
        if (self.counts < 0).any() or not np.isfinite(self.counts.astype(float)).all():
            raise ValueError("counts must be finite and >= 0")
        for name in ("initial_state", "final_state"):
            codes = np.asarray(getattr(self, name))
            if codes.dtype.kind not in "iu" or (codes.size and not (
                    0 <= codes.min() and codes.max() < len(STATES))):
                raise ValueError("%s must hold int codes in range(%d) into STATES"
                                 % (name, len(STATES)))
            setattr(self, name, codes.astype(np.int8, copy=False))
        if not (len(self.counts) == len(self.initial_state) == len(self.final_state)):
            raise ValueError("record arrays must have equal length")

    def __len__(self):
        return len(self.counts)


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

    initial = dark0.view(np.int8)   # BRIGHT 0 or DARK 1, written over dark0
    initial[offres] = OFFRES
    return PhotonRecord(counts, initial, final_dark.view(np.int8))


@dataclass
class ClassifyResult:
    labels: np.ndarray
    fidelity_bright: float
    fidelity_dark: float
    posterior_bright: float
    posterior_dark: float
    equal_threshold: int


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
    labels = record.counts > threshold
    b0 = record.initial_state == BRIGHT
    d0 = record.initial_state == DARK
    f_b = float(np.mean(labels[b0])) if b0.any() else math.nan
    f_d = float(np.mean(~labels[d0])) if d0.any() else math.nan
    final_bright = record.final_state == BRIGHT
    p_b = float(np.mean(final_bright[labels])) if labels.any() else math.nan
    p_d = float(np.mean(~final_bright[~labels])) if (~labels).any() else math.nan

    # over thresholds 0..max: shots of each class at or below each threshold, from one
    # histogram (count > thr exactly when ceil(count) > thr); the first minimum gap wins
    n_thr = int(record.counts.max()) + 1
    best = int(threshold)
    if b0.any() and d0.any():
        ceil_counts = np.ceil(record.counts).astype(np.int64)
        at_or_below = [np.cumsum(np.bincount(ceil_counts[cls], minlength=n_thr)[:n_thr])
                       for cls in (b0, d0)]
        n_b, n_d = int(b0.sum()), int(d0.sum())
        gap = np.abs((n_b - at_or_below[0]) / n_b - at_or_below[1] / n_d)
        best = int(np.argmin(gap))
    return ClassifyResult(labels, f_b, f_d, p_b, p_d, best)


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
    edges = np.concatenate((x - 0.5, x[..., -1:] + 0.5), axis=-1)
    out = np.zeros_like(x)
    for a, mu, s in zip(params[0::3], params[1::3], params[2::3]):
        out = out + 0.5 * a * np.diff(_erf((edges - mu) / (s * math.sqrt(2.0))).astype(float))
    return out


def _binned_normal_mixture_jacobian(x, params):
    """d _binned_normal_mixture / d (a_i, mu_i, s_i) of a (K, n) parameter stack,
    shape (K, len(x), n).

    With z = (edge - mu_i) / s_i at the bin edges: diff(Phi(z)), -a_i/s_i diff(phi(z))
    and -a_i/s_i diff(z phi(z)), the erf of all components taken in one pass.
    """
    params = np.asarray(params, dtype=float)
    a, mu, s = (params[..., i::3, None] for i in range(3))
    z = (np.concatenate((x - 0.5, x[..., -1:] + 0.5), axis=-1)[..., None, :] - mu) / s
    big_phi = 0.5 * _erf(z / math.sqrt(2.0)).astype(float)
    phi = np.exp(-0.5 * z ** 2) / math.sqrt(2.0 * math.pi)
    cols = np.stack([np.diff(big_phi), -a / s * np.diff(phi), -a / s * np.diff(z * phi)],
                    axis=-2)   # (..., component, a/mu/s, bin)
    return cols.reshape(params.shape + (-1,)).swapaxes(-1, -2)


def _mixture_model(centers):
    """The registry's three-normal mixture, binned on the unit bins centred on centers.

    Means are confined to the counts seen and widths to the data span, so the
    zero-count spike cannot open a flat ridge.
    """
    mu_b = (centers[0], centers[-1])
    s_b = (0.25, max(float(np.ptp(centers)), 1.0))
    bounds = {"%s%d" % (name, i): b for i in (1, 2, 3) for name, b in (("mu", mu_b), ("s", s_b))}
    spec = fitting.get_model("three_normal_mixture")
    params = tuple(replace(p, bounds=bounds.get(p.name, p.bounds)) for p in spec.params)
    return replace(spec, params=params, evaluate=fitting.formula(
        _binned_normal_mixture, _binned_normal_mixture_jacobian))


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
