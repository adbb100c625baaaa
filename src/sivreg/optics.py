"""Two-level optical-dipole dynamics: GHz Rabi driving, relative-phase pulse
control, and fluorescence-lifetime extraction.

Basis (g, e).  The master equation combines the coherent drive with
spontaneous emission at rate 1/T1 through the lowering operator and pure
dephasing at rate gamma_phi through sigma_z, so optical coherences decay at
1/T2 = 1/(2 T1) + gamma_phi.  Drive amplitudes are modulation volts mapped
linearly onto a Rabi frequency (Hz).

The generator is constant on each pulse segment, so the sweeps propagate
exactly: exp(L t) of the 4x4 Liouvillian, by scaling and squaring, for the
whole sweep axis at once; the Liouvillians of a stack of drive phases are
``linalg.kron`` products broadcast over the stack.  ``evolve_lindblad`` is the
independent fixed-step 4th-order reference integrator.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import fitting
from .fitting import FitFailed
from .constants import RABI_MAX
from .linalg import SX, SY, SZ, SweepResult, kron

TWO_PI = 2.0 * math.pi

_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
_P_EXC = np.diag([0.0, 1.0]).astype(complex)


class StepTooLarge(ValueError):
    """Integration step exceeds the stability limit for these parameters."""


@dataclass(frozen=True)
class OpticalParams:
    """Linear EOM calibration (Hz per volt), detuning (Hz), T1 (s), pure dephasing (1/s)."""

    rabi_per_volt: float = RABI_MAX
    detuning: float = 0.0
    t1: float = 1.6535e-9
    gamma_phi: float = 0.0

    def __post_init__(self):
        if not self.t1 > 0:
            raise ValueError("t1 must be > 0")
        if self.gamma_phi < 0:
            raise ValueError("gamma_phi must be >= 0")


@dataclass(frozen=True)
class OpticalPulseTrain:
    """Drive segments (amplitude volts, phase rad, duration s) separated by a buffer."""

    segments: Tuple[Tuple[float, float, float], ...]
    buffer: float = 0.8e-9

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(tuple(s) for s in self.segments))
        if any(len(s) != 3 for s in self.segments):
            raise ValueError("segments must be (amplitude, phase, duration) triples")
        if any(s[2] < 0 for s in self.segments) or self.buffer < 0:
            raise ValueError("durations must be >= 0")


def gamma_phi_from_t2(t2, t1):
    """Pure-dephasing rate from coherence and lifetime: 1/T2 - 1/(2 T1)."""
    rate = 1.0 / t2 - 0.5 / t1
    if rate < -1e-9 / t1:
        raise ValueError("T2 exceeds the 2*T1 limit")
    return max(rate, 0.0)


def _derivative(rho, h_angular, inv_t1, gamma_phi):
    out = -1j * (h_angular @ rho - rho @ h_angular)
    if inv_t1:
        l_rho_l = _LOWER @ rho @ _LOWER.conj().T
        anti = _P_EXC @ rho + rho @ _P_EXC
        out = out + inv_t1 * (l_rho_l - 0.5 * anti)
    if gamma_phi:
        out = out + 0.5 * gamma_phi * (SZ @ rho @ SZ - rho)
    return out


def max_stable_step(p: OpticalParams, amplitude):
    """Spec ceiling for the integration step at this drive strength."""
    omega = abs(amplitude) * p.rabi_per_volt
    limit = p.t1 / 20.0
    if omega > 0:
        limit = min(limit, 1.0 / (20.0 * omega))
    return limit


def evolve_lindblad(rho, p: OpticalParams, drive, t, dt=None):
    """Fixed-step 4th-order integration of the driven damped two-level system.

    drive is (amplitude_volts, phase).  dt defaults to min(1/(200 Omega),
    T1/200); an explicit dt above min(1/(20 Omega), T1/20) raises
    StepTooLarge.
    """
    amplitude, phase = drive
    omega = amplitude * p.rabi_per_volt
    if dt is None:
        dt = p.t1 / 200.0
        if omega != 0.0:
            dt = min(dt, 1.0 / (200.0 * abs(omega)))
    elif dt > max_stable_step(p, amplitude):
        raise StepTooLarge("dt = %g exceeds min(1/(20 Omega), T1/20) = %g"
                           % (dt, max_stable_step(p, amplitude)))
    if t < 0:
        raise ValueError("evolution time must be >= 0")

    h = TWO_PI * (0.5 * p.detuning * SZ
                  + 0.5 * omega * (math.cos(phase) * SX + math.sin(phase) * SY))
    inv_t1 = 1.0 / p.t1
    rho = np.asarray(rho, dtype=complex).copy()
    if t == 0.0:
        return rho
    steps = max(1, int(math.ceil(t / dt)))
    h_step = t / steps
    for _ in range(steps):
        k1 = _derivative(rho, h, inv_t1, p.gamma_phi)
        k2 = _derivative(rho + 0.5 * h_step * k1, h, inv_t1, p.gamma_phi)
        k3 = _derivative(rho + 0.5 * h_step * k2, h, inv_t1, p.gamma_phi)
        k4 = _derivative(rho + h_step * k3, h, inv_t1, p.gamma_phi)
        rho = rho + (h_step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


GROUND = np.diag([1.0, 0.0]).astype(complex)
_TRACE = np.eye(2).reshape(4)  # tr(rho) = _TRACE @ rho.reshape(4)


def _liouvillian(p: OpticalParams, amplitude, phase):
    """4x4 master-equation generator, the RK4 right-hand side, acting on rho.reshape(4).

    Row-major vectorization: vec(A rho B) = kron(A, B^T) vec(rho).  An array
    of phases gives a stack of generators of shape phase.shape + (4, 4), its
    ``kron`` products broadcast over the stack.
    """
    phase = np.asarray(phase, dtype=float)[..., None, None]
    omega = amplitude * p.rabi_per_volt
    h = TWO_PI * (0.5 * p.detuning * SZ
                  + 0.5 * omega * (np.cos(phase) * SX + np.sin(phase) * SY))
    eye = np.eye(2)
    gen = -1j * (kron(h, eye) - kron(eye, np.swapaxes(h, -1, -2)))
    decay = kron(_LOWER, _LOWER.conj()) - 0.5 * (kron(_P_EXC, eye) + kron(eye, _P_EXC.T))
    dephase = 0.5 * (kron(SZ, SZ.T) - np.eye(4))
    return gen + decay / p.t1 + p.gamma_phi * dephase


def _expm(a):
    """exp of each trace-preserving 4x4 generator in a stack of shape (..., 4, 4).

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
    (2005)): scale each matrix by 2^-s so that its 1-norm is at most 0.25,
    sum the degree-12 Taylor series, then square s times.  No
    eigendecomposition, so a defective generator (the exceptional point of
    the damped drive) loses no accuracy.  s is chosen per matrix: one s for
    the largest time of a sweep would scale its short times below the
    rounding of the identity.  Each squaring would double a rounding error
    on the eigenvalue-1 (trace) mode, so it restores rho_gg + rho_ee = tr;
    without that a time of 1 s ends 3e-7 off the steady state.
    """
    shape = a.shape
    a = a.reshape(-1, 4, 4)
    norms = np.abs(a).sum(axis=1).max(axis=1)
    if not np.all(np.isfinite(norms)):
        raise ValueError("generator x duration is not finite")
    s = np.maximum(np.frexp(norms)[1] + 2, 0)   # norm * 2^-s < 0.25
    a = a * np.ldexp(1.0, -s)[:, None, None]
    eye = np.eye(4)
    out = eye + a / 12.0
    for k in range(11, 0, -1):
        out = eye + (a @ out) / k
    for k in range(s.max(initial=0)):
        more = s > k
        squared = out[more] @ out[more]
        squared[:, 3, :] = _TRACE - squared[:, 0, :]
        out[more] = squared
    return out.reshape(shape)


def _propagate(generators, times, vec):
    """exp(L t) vec for stacked generators and times; rejects a negative time."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("evolution time must be >= 0")
    with np.errstate(over="ignore"):   # an overflow is inf, which _expm rejects
        exponents = generators * times[..., None, None]
    return (_expm(exponents) @ vec[..., None])[..., 0]


def run_optical_rabi(p: OpticalParams, amplitude, mod_times):
    """Ground start, drive at fixed amplitude, excited population vs duration."""
    times = np.asarray(mod_times, dtype=float)
    states = _propagate(_liouvillian(p, amplitude, 0.0)[None], times, GROUND.reshape(4))
    return SweepResult(times, states[:, 3].real, name="optical_rabi",
                       axis_label="modulation time (s)")


def run_phase_control(p: OpticalParams, train: OpticalPulseTrain, phases):
    """Two-pulse relative-phase sweep: excited population after the second pulse."""
    if len(train.segments) != 2:
        raise ValueError("phase control needs a two-segment pulse train")
    (a1, ph1, t1), (a2, ph2, t2) = train.segments
    phases = np.asarray(phases, dtype=float)
    # the first pulse and the buffer do not depend on the relative phase
    state = _propagate(_liouvillian(p, a1, ph1), t1, GROUND.reshape(4))
    state = _propagate(_liouvillian(p, 0.0, 0.0), train.buffer, state)
    states = _propagate(_liouvillian(p, a2, ph2 + phases), t2, state)
    return SweepResult(phases, states[:, 3].real, name="phase_control",
                       axis_label="relative phase (rad)")


def fluorescence_decay(p: OpticalParams, times, p_e0=1.0):
    """Post-pulse fluorescence trace: excited population decaying at 1/T1."""
    return p_e0 * np.exp(-np.asarray(times, dtype=float) / p.t1)


def _lifetime_fits(traces):
    """(t1, amplitude), or the error that rejects it, of each decay trace.

    The traces of one length are fitted as the rows of one lockstep
    single_exp fit (fitting.least_squares_rows)."""
    traces = [tuple(np.asarray(a, dtype=float) for a in tr) for tr in traces]
    out = [ValueError("decay trace needs matching times/values, >= 4 points")
           if t.shape != y.shape or t.size < 4 else None for t, y in traces]
    by_length = {}
    for i, (t, _) in enumerate(traces):
        if out[i] is None:
            by_length.setdefault(t.size, []).append(i)
    for rows in by_length.values():
        t, y = (np.stack([traces[i][j] for i in rows]) for j in (0, 1))
        fits = fitting.least_squares_rows(fitting.get_model("single_exp"), t, y)
        for i, y_i, res in zip(rows, y, fits):
            out[i] = _judge_lifetime(y_i, res)
    return out


def _judge_lifetime(y, res):
    """(t1, amplitude) of a lifetime fit, or the FitFailed that rejects it."""
    if isinstance(res, Exception):
        return FitFailed("lifetime fit failed: %s" % res)
    scale = np.linalg.norm(y - y.mean())
    if scale > 0 and res.residual_norm > 0.5 * scale:
        return FitFailed("lifetime fit residual %.3g exceeds threshold" % res.residual_norm)
    if res["a"] <= 0:
        return FitFailed("trace does not decay")
    return res["t"], res["a"]


def extract_lifetime(decay_trace):
    """Single-exponential fit of a fluorescence decay; returns (t1, amplitude).

    decay_trace is (times, values); the trace must start at the decay onset.
    Raises FitFailed when the residual norm exceeds half the trace's centered
    norm or the fitted amplitude is not positive.
    """
    result, = _lifetime_fits([decay_trace])
    if isinstance(result, Exception):
        raise result
    return result


def lifetime_ensemble(traces):
    """Fit many decay traces as one lockstep fit; returns (mean T1, standard deviation).

    Each trace is judged as by extract_lifetime, and the error of the first
    rejected trace is raised.
    """
    results = _lifetime_fits(traces)
    if not results:
        raise ValueError("need at least one trace")
    values = []
    for result in results:
        if isinstance(result, Exception):
            raise result
        values.append(result[0])
    arr = np.asarray(values)
    return float(arr.mean()), float(arr.std())


def fit_damped_rabi(sweep: SweepResult):
    """Damped-sine fit of an optical-Rabi sweep: (frequency Hz, envelope time s).

    The trace is cosine-like from a ground start, so the phase starts at
    -pi/2 and the envelope time is seeded from the sweep span rather than the
    generic log-linear rule (which assumes a monotone trace).
    """
    axis = np.asarray(sweep.axis, dtype=float)
    signal = np.asarray(sweep.signal, dtype=float)
    model = fitting.rabi_beat_model(1)
    f0 = fitting._fft_peaks(axis, signal, 1)[0]
    init = {"a1": np.ptp(signal) / 2.0, "f1": f0, "phi1": -math.pi / 2.0,
            "t1": np.ptp(axis) / 3.0, "c": signal.mean()}
    res = fitting.least_squares(model, axis, signal, init=init)
    return abs(res["f1"]), res["t1"]


def extract_optical_decoherence(p: OpticalParams, sweep: SweepResult):
    """Decoherence rate Gamma_2 (Hz) from a damped optical-Rabi sweep.

    The envelope of a resonantly driven two-level system decays at
    3/(4 T1) + gamma_phi/2, so the coherence decay rate 1/T1 + gamma_phi
    (the 1/(2 T1) emission part plus 1/T2) follows from the fitted envelope
    time as 2/T_fit - 1/(2 T1) and is reported over 2 pi.  Equals the
    Fourier limit 1/(2 pi T1) when gamma_phi = 0.
    """
    _, t_env = fit_damped_rabi(sweep)
    rate = 2.0 / t_env - 0.5 / p.t1
    return rate / TWO_PI
