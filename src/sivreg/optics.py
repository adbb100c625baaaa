"""Two-level optical-dipole dynamics: GHz Rabi driving, relative-phase pulse
control, and fluorescence-lifetime extraction.

Basis (g, e).  The master equation combines the coherent drive with
spontaneous emission at rate 1/T1 through the lowering operator and pure
dephasing at rate gamma_phi through sigma_z, so optical coherences decay at
1/T2 = 1/(2 T1) + gamma_phi.  Drive amplitudes are modulation volts mapped
linearly onto a Rabi frequency (Hz); the integrator is fixed-step 4th order.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import fitting
from .linalg import SX, SY, SZ
from .sequences import SweepResult

TWO_PI = 2.0 * math.pi

RABI_MAX = 1.14422658e9  # Hz, accepted maximum calibrated drive

_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
_P_EXC = np.diag([0.0, 1.0]).astype(complex)


class StepTooLarge(ValueError):
    """Integration step exceeds the stability limit for these parameters."""


class FitFailed(RuntimeError):
    """Lifetime fit did not describe the trace."""


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


def excited_population(rho):
    return float(np.real(rho[1, 1]))


GROUND = np.diag([1.0, 0.0]).astype(complex)


def run_optical_rabi(p: OpticalParams, amplitude, mod_times, dt=None):
    """Ground start, drive at fixed amplitude, excited population vs duration."""
    signal = []
    for t in mod_times:
        rho = evolve_lindblad(GROUND, p, (amplitude, 0.0), float(t), dt)
        signal.append(excited_population(rho))
    return SweepResult(np.asarray(mod_times, float), signal, name="optical_rabi",
                       axis_label="modulation time (s)")


def run_phase_control(p: OpticalParams, train: OpticalPulseTrain, phases, dt=None):
    """Two-pulse relative-phase sweep: excited population after the second pulse."""
    if len(train.segments) != 2:
        raise ValueError("phase control needs a two-segment pulse train")
    (a1, ph1, t1), (a2, ph2, t2) = train.segments
    signal = []
    for rel in phases:
        rho = evolve_lindblad(GROUND, p, (a1, ph1), t1, dt)
        rho = evolve_lindblad(rho, p, (0.0, 0.0), train.buffer, dt)
        rho = evolve_lindblad(rho, p, (a2, ph2 + float(rel)), t2, dt)
        signal.append(excited_population(rho))
    return SweepResult(np.asarray(phases, float), signal, name="phase_control",
                       axis_label="relative phase (rad)")


def fluorescence_decay(p: OpticalParams, times, p_e0=1.0):
    """Post-pulse fluorescence trace: excited population decaying at 1/T1."""
    return p_e0 * np.exp(-np.asarray(times, dtype=float) / p.t1)


def extract_lifetime(decay_trace, fail_threshold=0.5):
    """Single-exponential fit of a fluorescence decay; returns (t1, amplitude).

    decay_trace is (times, values); the trace must start at the decay onset.
    """
    t, y = (np.asarray(a, dtype=float) for a in decay_trace)
    if t.shape != y.shape or t.size < 4:
        raise ValueError("decay trace needs matching times/values, >= 4 points")
    try:
        res = fitting.least_squares(fitting.get_model("single_exp"), t, y)
    except (fitting.SingularNormalMatrix, fitting.MaxIterations) as exc:
        raise FitFailed("lifetime fit failed: %s" % exc)
    scale = np.linalg.norm(y - y.mean())
    if scale > 0 and res.residual_norm > fail_threshold * scale:
        raise FitFailed("lifetime fit residual %.3g exceeds threshold"
                        % res.residual_norm)
    if res["a"] <= 0:
        raise FitFailed("trace does not decay")
    return res["t"], res["a"]


def lifetime_ensemble(traces):
    """Fit many decay traces; returns (mean T1, standard deviation)."""
    values = [extract_lifetime(tr)[0] for tr in traces]
    if not values:
        raise ValueError("need at least one trace")
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
