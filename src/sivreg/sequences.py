"""Register propagation and the pulse-sequence experiments built on it.

``Engine`` is the one code path that turns the register Hamiltonian of
``sivreg.register`` into propagators: it caches eigensystems and unitaries
per (params, dephasing, t_pi) context and applies pulses and free evolution
to raw density matrices.  The named experiments (Rabi, Ramsey, dynamical
decoupling, spin lock, nuclear rotations, transfer gates, composite gates,
randomized benchmarking) are all composed from it.

The pi time is ``Engine.t_pi``: every nominal rotation (pi/2 pulses, DD pi
pulses, RB Cliffords) is driven at the Rabi rate 1/(2 t_pi).  Only explicit
drives (a Rabi or spin-lock amplitude, the CnNOTe drive) set their own rate.
All DD blocks use the [tau/2 - pi - tau/2] unit with the pi-pulse duration
included in the timing, so the pulse-center to pulse-center spacing is
tau + t_pi; on resonance tau_rot + t_pi equals half the nuclear Larmor
period.  Dephasing acts after each free segment; pulses are decoherence-free.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import fitting
from .linalg import SX, SY, SZ, hermitian_eig, propagator_from_eig
from .register import (DephasingModel, DriveSpec, RegisterParams, RegisterState,
                       dephase_electron, electron_mixture, hamiltonian, op_at,
                       product_state, repump_electron)

TWO_PI = 2.0 * math.pi

T_PI_DEFAULT = 55.715e-9  # s, microwave pi-pulse duration used throughout

# phase pattern (rad) of the XY-8 block, relative to the initial pi/2 at phase 0
XY8_PHASES = (0.0, math.pi / 2, 0.0, math.pi / 2,
              math.pi / 2, 0.0, math.pi / 2, 0.0)


class InvalidGate(ValueError):
    """Gate kind not valid for the requested operation."""


class UncalibratedGate(ValueError):
    """GateSpec lacks the calibration values the gate needs."""


@dataclass
class SweepResult:
    """Sweep axis plus a bounded signal and optional auxiliary observables."""

    axis: np.ndarray
    signal: np.ndarray
    aux: Optional[dict] = None
    name: str = ""
    axis_label: str = ""

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=float)
        self.signal = np.asarray(self.signal, dtype=float)
        if self.axis.shape != self.signal.shape:
            raise ValueError("axis and signal lengths differ")
        if not (np.all(np.isfinite(self.axis)) and np.all(np.isfinite(self.signal))):
            raise ValueError("axis and signal values must be finite")
        if self.signal.size and (self.signal.min() < -1e-9 or self.signal.max() > 1 + 1e-9):
            raise ValueError("signal values must lie in [0, 1]")
        if self.aux:
            for key, values in self.aux.items():
                if len(values) != self.axis.size:
                    raise ValueError("aux %r length differs from axis" % key)


@dataclass(frozen=True)
class GateSpec:
    """Calibration record for DD-composed and driven gates.

    tau/n_pulses describe the (conditional) DD block and t_pi is the pi time
    of its rotations; the unconditional block of a CeNOTn and the drive of a
    CnNOTe carry their own fields.  ``wait`` is the calibrated free evolution
    inserted between the two blocks of a transfer gate (computed on demand
    when None).
    """

    kind: str
    tau: float = 0.0
    n_pulses: int = 0
    t_pi: float = T_PI_DEFAULT
    rabi: Optional[float] = None
    uncond_tau: Optional[float] = None
    uncond_n: Optional[int] = None
    wait: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("UI", "CeNOTn", "CnNOTe", "identity"):
            raise InvalidGate("unknown gate kind %r" % (self.kind,))
        if self.kind in ("UI", "CeNOTn"):
            if self.n_pulses <= 0 or self.n_pulses % 2:
                raise ValueError("DD-based gates need an even, positive n_pulses")
            if not self.tau > 0:
                raise ValueError("DD-based gates need tau > 0")


@dataclass
class TransferMatrix:
    """Referenced population-transfer amplitudes over {dd, du, ud, uu} (electron, nucleus)."""

    matrix: np.ndarray
    labels: Tuple[str, ...] = ("down_Down", "down_Up", "up_Down", "up_Up")

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.shape != (4, 4):
            raise ValueError("transfer matrix must be 4x4")
        if self.matrix.min() < 0.0 or self.matrix.max() > 1.0:
            raise ValueError("entries must lie in [0, 1]")
        sums = self.matrix.sum(axis=0)
        if sums.max() > 1.0 + 0.05:
            raise ValueError("column sums exceed 1 beyond tolerance")


# --------------------------------------------------------------------------
# propagator-caching engine


class Engine:
    """Caches eigensystems and propagators for one (params, dephasing, t_pi) context.

    Evolution is a list of (unitary, free time) segments: each applies
    rho -> U rho U^dag, and a segment with free time t > 0 then dephases the
    electron by ``DephasingModel.factor(t)``.  Pulses are segments with free
    time 0.
    """

    def __init__(self, p: RegisterParams, dephasing: Optional[DephasingModel] = None,
                 t_pi: float = T_PI_DEFAULT):
        if not t_pi > 0:
            raise ValueError("t_pi must be > 0, got %r" % (t_pi,))
        self.p = p
        self.deph = dephasing
        self.t_pi = t_pi
        self.half = 2 ** p.n_nuclei
        self._eig = {}
        self._u_free = {}
        self._u_pulse = {}

    def _eigensystem(self, rabi, phase):
        """Eigensystem of the Hamiltonian under drive (rabi, phase); rabi 0 is free."""
        key = (rabi, phase)
        eig = self._eig.get(key)
        if eig is None:
            eig = hermitian_eig(hamiltonian(self.p, DriveSpec(rabi, phase)))
            self._eig[key] = eig
        return eig

    def u_free(self, t):
        u = self._u_free.get(t)
        if u is None:
            if not t >= 0:
                raise ValueError("evolution time must be >= 0, got %r" % (t,))
            u = propagator_from_eig(self._eigensystem(0.0, 0.0), t)
            self._u_free[t] = u
        return u

    def u_pulse(self, rabi, phase, duration):
        key = (rabi, phase, duration)
        u = self._u_pulse.get(key)
        if u is None:
            if not duration >= 0:
                raise ValueError("pulse duration must be >= 0, got %r" % (duration,))
            u = propagator_from_eig(self._eigensystem(rabi, phase), duration)
            self._u_pulse[key] = u
        return u

    def u_rotation(self, angle, phase):
        """Pulse unitary for a nominal rotation angle at Rabi rate 1/(2 t_pi)."""
        rabi = 1.0 / (2.0 * self.t_pi)
        return self.u_pulse(rabi, phase, angle / (TWO_PI * rabi))

    # segment lists --------------------------------------------------------

    def free_segments(self, t):
        """Free evolution for t; no segment at all for t == 0."""
        return [(self.u_free(t), t)] if t != 0.0 else []

    def rotation_segments(self, angle, phase):
        return [(self.u_rotation(angle, phase), 0.0)]

    def dd_unit_segments(self, tau, phase):
        """One [tau/2 - pi - tau/2] decoupling unit (dephasing per half segment)."""
        half = self.free_segments(tau / 2.0)
        return half + self.rotation_segments(math.pi, phase) + half

    def evolve(self, rho, segments):
        """Apply the segments in order to a raw density matrix."""
        for u, t in segments:
            rho = u @ rho @ u.conj().T
            if t and self.deph is not None:
                rho = dephase_electron(rho, self.deph.factor(t), self.p.n_nuclei)
        return rho

    def evolve_reversed(self, rho, segments):
        """Walk the segments backwards, each by its adjoint unitary and then its dephasing."""
        return self.evolve(rho, [(u.conj().T, t) for u, t in reversed(segments)])

    # state operations -----------------------------------------------------

    def pulse(self, rho, rabi, phase, duration):
        return self.evolve(rho, [(self.u_pulse(rabi, phase, duration), 0.0)])

    def rotate(self, rho, angle, phase):
        return self.evolve(rho, self.rotation_segments(angle, phase))

    def wait(self, rho, t):
        return self.evolve(rho, self.free_segments(t))

    def dd_unit(self, rho, tau, phase):
        return self.evolve(rho, self.dd_unit_segments(tau, phase))

    def dd_block(self, rho, tau, n_pulses, pattern=XY8_PHASES):
        for k in range(n_pulses):
            rho = self.dd_unit(rho, tau, pattern[k % len(pattern)])
        return rho

    def population_up(self, rho):
        return float(np.real(np.trace(rho[self.half:, self.half:])))

    def nuclear_sigma_z(self, rho, index=0):
        op = op_at(SZ, 1 + index, 1 + self.p.n_nuclei)
        return float(np.real(np.trace(rho @ op)))


def _initial_rho(p: RegisterParams, f_ie: float, flip=False):
    """Electron initialization mixture (optionally ideally inverted) x mixed nuclei."""
    return product_state(electron_mixture(f_ie, flip), n_nuclei=p.n_nuclei)


# --------------------------------------------------------------------------
# named experiments


def run_rabi(p: RegisterParams, dephasing, omega, durations, f_ie=1.0,
             initial: Optional[RegisterState] = None):
    """Initialize, drive for each duration, read the electron-up population."""
    eng = Engine(p, dephasing)
    rho0 = initial.rho if initial is not None else _initial_rho(p, f_ie)
    signal = []
    for t in durations:
        rho = eng.pulse(rho0.copy(), omega, 0.0, t) if omega > 0 else eng.wait(rho0.copy(), t)
        signal.append(eng.population_up(rho))
    return SweepResult(np.asarray(durations, float), signal, name="rabi",
                       axis_label="pulse duration (s)")


def run_ramsey(p: RegisterParams, dephasing, delta, taus, target="electron",
               f_ie=1.0, t_pi=T_PI_DEFAULT, electron_up=False):
    """pi/2 - free(tau) - pi/2 interference.

    target='electron': both pi/2 pulses on the electron, detuning delta.
    target='nuclear': the pi/2 rotations are DD-composed nuclear rotations
    (a conditional block at tau_rot = T_L/2 - t_pi with n_pulses tuned to a
    quarter rotation); the nucleus precesses between them at a rate set by
    the electron state (prepared down, or up with electron_up=True).  The
    returned signal is (1 + sigma_z)/2 of the target nucleus; raw sigma_z
    values ride along in aux.
    """
    params = RegisterParams(detuning=delta, larmor_n=p.larmor_n,
                            hyperfine=p.hyperfine, n_nuclei=p.n_nuclei)
    eng = Engine(params, dephasing, t_pi)
    taus = np.asarray(taus, dtype=float)

    if target == "electron":
        rho0 = _initial_rho(params, f_ie)
        rho0 = eng.rotate(rho0, math.pi / 2, 0.0)
        signal = []
        for tau in taus:
            rho = eng.wait(rho0.copy(), float(tau))
            rho = eng.rotate(rho, math.pi / 2, 0.0)
            signal.append(eng.population_up(rho))
        return SweepResult(taus, signal, name="ramsey", axis_label="tau (s)")

    if target != "nuclear":
        raise ValueError("target must be 'electron' or 'nuclear'")

    tau_rot = params.larmor_period / 2.0 - t_pi
    n_quarter = calibrate_quarter_rotation(params, tau_rot, t_pi=t_pi)

    # electron in a definite spin state; target nucleus polarized down
    rho0 = product_state((0.0, 1.0) if electron_up else (1.0, 0.0), [(1.0, 0.0)],
                         params.n_nuclei)
    rho0 = eng.dd_block(rho0, tau_rot, n_quarter)

    signal, sigma_z = [], []
    for tau in taus:
        rho = eng.wait(rho0.copy(), float(tau))
        rho = eng.dd_block(rho, tau_rot, n_quarter)
        sz = eng.nuclear_sigma_z(rho, 0)
        sigma_z.append(sz)
        signal.append(0.5 * (1.0 + sz))
    return SweepResult(taus, signal, aux={"nuclear_sigma_z": sigma_z},
                       name="nuclear_ramsey", axis_label="tau (s)")


def run_dd(p: RegisterParams, dephasing, kind, n_pulses, taus, f_ie=1.0,
           t_pi=T_PI_DEFAULT):
    """pi/2 - [tau/2 - pi - tau/2]^N - pi/2 coherence sweep.

    kind='CPMG' uses pi pulses 90 degrees from the initial pi/2; kind='XY'
    uses the XY-8 phase pattern.  n_pulses=0 degenerates to a Ramsey.
    """
    if kind not in ("CPMG", "XY"):
        raise ValueError("kind must be 'CPMG' or 'XY'")
    if n_pulses < 0:
        raise ValueError("n_pulses must be >= 0")
    pattern = (math.pi / 2,) if kind == "CPMG" else XY8_PHASES
    eng = Engine(p, dephasing, t_pi)
    taus = np.asarray(taus, dtype=float)
    rho0 = eng.rotate(_initial_rho(p, f_ie), math.pi / 2, 0.0)
    signal, total_time = [], []
    for tau in taus:
        rho = rho0.copy()
        if n_pulses == 0:
            rho = eng.wait(rho, float(tau))
        else:
            rho = eng.dd_block(rho, float(tau), n_pulses, pattern)
        rho = eng.rotate(rho, math.pi / 2, 0.0)
        signal.append(eng.population_up(rho))
        total_time.append(float(tau) if n_pulses == 0 else n_pulses * (float(tau) + t_pi))
    return SweepResult(taus, signal, aux={"total_time": total_time},
                       name="dd_%s_%d" % (kind.lower(), n_pulses), axis_label="tau (s)")


def run_spin_lock(p: RegisterParams, dephasing, omega_sl, tau_sl=None,
                  amplitudes=None, tau_fixed=None, f_ie=1.0, t_pi=T_PI_DEFAULT):
    """pi/2(x) - y drive - pi/2(x) locking sequence.

    Either sweep the locking duration at fixed omega_sl (tau_sl), or sweep
    the drive amplitude at a fixed duration (amplitudes + tau_fixed) to
    locate the Hartmann-Hahn resonance.
    """
    if (tau_sl is None) == (amplitudes is None):
        raise ValueError("provide exactly one of tau_sl or amplitudes")
    eng = Engine(p, dephasing, t_pi)
    rho0 = eng.rotate(_initial_rho(p, f_ie), math.pi / 2, 0.0)
    signal = []
    if tau_sl is not None:
        axis = np.asarray(tau_sl, dtype=float)
        for tau in axis:
            rho = eng.pulse(rho0.copy(), omega_sl, math.pi / 2, float(tau))
            rho = eng.rotate(rho, math.pi / 2, 0.0)
            signal.append(eng.population_up(rho))
        label = "lock duration (s)"
        name = "spin_lock_time"
    else:
        if tau_fixed is None:
            raise ValueError("amplitude sweep needs tau_fixed")
        axis = np.asarray(amplitudes, dtype=float)
        for omega in axis:
            rho = eng.pulse(rho0.copy(), float(omega), math.pi / 2, tau_fixed)
            rho = eng.rotate(rho, math.pi / 2, 0.0)
            signal.append(eng.population_up(rho))
        label = "lock amplitude (Hz)"
        name = "spin_lock_amplitude"
    return SweepResult(axis, signal, name=name, axis_label=label)


def run_nuclear_rotation(p: RegisterParams, dephasing, tau_rot, n_sweep,
                         f_ie=1.0, t_pi=T_PI_DEFAULT):
    """DD block with inter-pulse gap tau_rot, sweeping the pulse number N.

    Reports the electron coherence signal (pi/2 - N units - pi/2) and, as an
    auxiliary observable, the sigma_z of the target nucleus prepared spin-down
    under an electron prepared spin-down: the conditional-rotation bookkeeping
    whose first return to the initial value marks one full rotation.
    """
    if not tau_rot > 0:
        raise ValueError("tau_rot must be > 0")
    n_sweep = [int(n) for n in n_sweep]
    if any(n < 0 for n in n_sweep):
        raise ValueError("pulse numbers must be >= 0")
    eng = Engine(p, dephasing, t_pi)

    # electron-signal branch: coherence interferometry around the block
    rho_sig = eng.rotate(_initial_rho(p, f_ie), math.pi / 2, 0.0)
    # conditional-rotation branch: electron down, target nucleus down, rest mixed
    rho_rot = product_state((f_ie, 1.0 - f_ie), [(1.0, 0.0)], p.n_nuclei)

    wanted = sorted(set(n_sweep))
    sig_at, sz_at = {}, {}
    k = 0
    for n in range(wanted[-1] + 1):
        if n > 0:
            phase = XY8_PHASES[(n - 1) % 8]
            rho_sig = eng.dd_unit(rho_sig, tau_rot, phase)
            rho_rot = eng.dd_unit(rho_rot, tau_rot, phase)
        if n == wanted[k]:
            probe = eng.rotate(rho_sig.copy(), math.pi / 2, 0.0)
            sig_at[n] = eng.population_up(probe)
            sz_at[n] = eng.nuclear_sigma_z(rho_rot, 0)
            k += 1
            if k == len(wanted):
                break
    axis = np.asarray(n_sweep, dtype=float)
    signal = [sig_at[n] for n in n_sweep]
    sigma_z = [sz_at[n] for n in n_sweep]
    return SweepResult(axis, signal, aux={"nuclear_sigma_z": sigma_z},
                       name="nuclear_rotation", axis_label="pulse number N")


def extract_full_rotation(ns, sigma_z):
    """First N at which the conditional-rotation sigma_z returns to its initial value.

    The trace starts at its initial (minimal) value, peaks near the half
    rotation and comes back; the argmin after the global maximum marks the
    full rotation.
    """
    ns = np.asarray(ns)
    sigma_z = np.asarray(sigma_z, dtype=float)
    peak = int(np.argmax(sigma_z))
    if peak == 0 or peak >= len(ns) - 1:
        raise ValueError("trace does not span a half rotation; extend the sweep")
    rest = sigma_z[peak:]
    return int(ns[peak + int(np.argmin(rest))])


def calibrate_quarter_rotation(p: RegisterParams, tau_rot, n_max=400,
                               t_pi=T_PI_DEFAULT, force_even=False):
    """Smallest N whose conditional rotation angle is a quarter turn.

    Simulates the ideal-limit sigma_z trace of the target nucleus and returns
    the N nearest the first zero crossing (rotation angle pi/2); with
    force_even, the nearer of the two even neighbours, so the pi pulses leave
    the electron state unchanged.
    """
    single = RegisterParams(detuning=p.detuning, larmor_n=p.larmor_n,
                            hyperfine=(p.hyperfine[0],), n_nuclei=1)
    eng = Engine(single, None, t_pi)
    rho = product_state((1.0, 0.0), [(1.0, 0.0)])
    trace = [eng.nuclear_sigma_z(rho, 0)]
    for n in range(1, n_max + 1):
        rho = eng.dd_unit(rho, tau_rot, XY8_PHASES[(n - 1) % 8])
        trace.append(eng.nuclear_sigma_z(rho, 0))
        if trace[-1] >= 0.0:
            if force_even:
                lo = n - 2 + (n % 2)  # largest even <= n-1
                hi = lo + 2
                if hi > n_max or lo < 1:
                    break
                rho = eng.dd_unit(rho, tau_rot, XY8_PHASES[n % 8])
                trace.append(eng.nuclear_sigma_z(rho, 0))
                return lo if abs(trace[lo]) <= abs(trace[hi]) else hi
            return n if abs(trace[n]) <= abs(trace[n - 1]) else n - 1
    raise ValueError("no quarter rotation found below n_max; check tau_rot")


# --------------------------------------------------------------------------
# transfer gate and composite gates


def _transfer_segments(eng: Engine, g: GateSpec, wait):
    """(unitary, free time) segments of the polarization-transfer gate (sans re-pump)."""
    block = []
    for k in range(g.n_pulses):
        block += eng.dd_unit_segments(g.tau, XY8_PHASES[k % 8])
    return (eng.rotation_segments(math.pi / 2, math.pi / 2) + block
            + eng.rotation_segments(math.pi / 2, 0.0) + eng.free_segments(wait) + block)


def calibrate_transfer_wait(p: RegisterParams, g: GateSpec, coarse=48, fine=33):
    """Free-evolution time between the two transfer blocks.

    Chosen in the ideal limit (perfect electron initialization, target nucleus
    only) by maximizing the transferred |sigma_z|: a coarse scan over one
    Larmor period followed by a local refinement.
    """
    single = RegisterParams(detuning=p.detuning, larmor_n=p.larmor_n,
                            hyperfine=(p.hyperfine[0],), n_nuclei=1)
    eng = Engine(single, None, g.t_pi)
    period = single.larmor_period

    def transferred(wait):
        rho = _initial_rho(single, 1.0)
        rho = eng.evolve(rho, _transfer_segments(eng, g, wait))
        return abs(eng.nuclear_sigma_z(rho, 0))

    waits = [period * i / coarse for i in range(coarse)]
    scores = [transferred(w) for w in waits]
    best = int(np.argmax(scores))
    lo = waits[best] - period / coarse
    hi = waits[best] + period / coarse
    fine_grid = [lo + (hi - lo) * i / (fine - 1) for i in range(fine)]
    fine_scores = [transferred(max(w, 0.0)) for w in fine_grid]
    return max(fine_grid[int(np.argmax(fine_scores))], 0.0)


def nuclear_init_gate(p: RegisterParams, dephasing, g: GateSpec, f_ie,
                      flip_first=False):
    """Polarization-transfer initialization of the target nuclear spin.

    Composition: electron initialization (optionally inverted by a leading pi
    when flip_first) -> pi/2(y) -> conditional DD block(tau, N) -> pi/2(x) ->
    calibrated free evolution -> conditional DD block(tau, N) -> projective
    optical re-pump of the electron.  Returns the final register state.
    """
    if g.kind != "UI":
        raise InvalidGate("nuclear_init_gate needs a gate of kind 'UI'")
    wait = g.wait if g.wait is not None else calibrate_transfer_wait(p, g)
    eng = Engine(p, dephasing, g.t_pi)
    rho = _initial_rho(p, f_ie, flip=flip_first)
    rho = eng.evolve(rho, _transfer_segments(eng, g, wait))
    return repump_electron(RegisterState(rho, p.n_nuclei), f_ie)


def ui_probe_signal(p: RegisterParams, dephasing, g: GateSpec, f_ie,
                    flip_first=False):
    """Electron-up population of the transfer-gate probe.

    Runs the initialization gate, then maps the prepared nuclear polarization
    back onto the electron by walking the same transfer segments backwards
    with their adjoints (dephasing after each free segment) and reads the
    electron.  The contrast between flip_first=False and True is
    the probe signal of the initialization experiment.
    """
    if g.kind != "UI":
        raise InvalidGate("ui_probe_signal needs a gate of kind 'UI'")
    wait = g.wait if g.wait is not None else calibrate_transfer_wait(p, g)
    eng = Engine(p, dephasing, g.t_pi)
    segments = _transfer_segments(eng, g, wait)
    rho = _initial_rho(p, f_ie, flip=flip_first)
    rho = eng.evolve(rho, segments)
    rho = repump_electron(RegisterState(rho, p.n_nuclei), f_ie).rho
    rho = eng.evolve_reversed(rho, segments)
    return eng.population_up(rho)


@dataclass
class CompositeGate:
    """Applies a calibrated gate to register states."""

    spec: GateSpec
    params: RegisterParams
    dephasing: Optional[DephasingModel]

    def apply(self, state: RegisterState):
        g = self.spec
        eng = Engine(self.params, self.dephasing, g.t_pi)
        rho = state.rho.copy()
        if g.kind == "identity":
            return RegisterState(rho, state.n_nuclei)
        if g.kind == "CeNOTn":
            rho = eng.dd_block(rho, g.tau, g.n_pulses)
            rho = eng.dd_block(rho, g.uncond_tau, g.uncond_n)
            return RegisterState(rho, state.n_nuclei)
        if g.kind == "CnNOTe":
            a_par = self.params.hyperfine[0][0]
            driven = RegisterParams(detuning=a_par / 2.0, larmor_n=self.params.larmor_n,
                                    hyperfine=self.params.hyperfine,
                                    n_nuclei=self.params.n_nuclei)
            rho = Engine(driven).pulse(rho, g.rabi, 0.0, 1.0 / (2.0 * g.rabi))
            return RegisterState(rho, state.n_nuclei)
        raise InvalidGate("composite_gate cannot apply kind %r" % (g.kind,))


def composite_gate(p: RegisterParams, dephasing, g: GateSpec):
    """Validated, applicable composite gate (CeNOTn, CnNOTe or identity)."""
    if g.kind == "CeNOTn":
        if g.uncond_tau is None or g.uncond_n is None:
            raise UncalibratedGate("CeNOTn needs uncond_tau and uncond_n")
    elif g.kind == "CnNOTe":
        if g.rabi is None or not g.rabi > 0:
            raise UncalibratedGate("CnNOTe needs the calibrated drive amplitude")
    elif g.kind == "UI":
        raise InvalidGate("use nuclear_init_gate for transfer gates")
    return CompositeGate(g, p, dephasing)


def calibrate_cenotn(p: RegisterParams, t_pi=T_PI_DEFAULT, n_max=900):
    """GateSpec for a CeNOTn: conditional + unconditional quarter rotations."""
    t_l = p.larmor_period
    tau_c = t_l / 2.0 - t_pi
    tau_u = t_l - t_pi
    n_c = calibrate_quarter_rotation(p, tau_c, n_max=n_max, t_pi=t_pi, force_even=True)
    n_u = calibrate_quarter_rotation(p, tau_u, n_max=n_max, t_pi=t_pi, force_even=True)
    return GateSpec(kind="CeNOTn", tau=tau_c, n_pulses=n_c,
                    t_pi=t_pi, uncond_tau=tau_u, uncond_n=n_u)


def calibrate_cnnote(p: RegisterParams, t_pi=T_PI_DEFAULT):
    """GateSpec for a CnNOTe: drive amplitude A_par/sqrt(3) on the down manifold."""
    a_par = p.hyperfine[0][0]
    return GateSpec(kind="CnNOTe", t_pi=t_pi, rabi=a_par / math.sqrt(3.0))


def _joint_populations(state: RegisterState):
    """Populations of {down_Down, down_Up, up_Down, up_Up} of electron x target nucleus."""
    rho = state.rho
    n_aux = state.n_nuclei - 1
    probs = np.real(np.diag(rho)).reshape((2, 2) + (2,) * n_aux)
    while probs.ndim > 2:
        probs = probs.sum(axis=-1)
    return probs.reshape(4)


def transfer_matrix(p: RegisterParams, dephasing, g: GateSpec, f_ie, f_in):
    """Referenced population-transfer matrix of a gate.

    Each of the four basis preparations (electron x target nucleus, with the
    stated initialization fidelities) is propagated through the gate and its
    joint populations recorded; the raw matrix is then referenced against the
    same measurement with an identity gate, M(G) M(Id)^-1, which removes the
    preparation imperfections and makes the identity gate the exact identity.
    Both fidelities must lie in (0.5, 1]: at 0.5 M(Id) is singular.
    """
    for key, fidelity in (("f_ie", f_ie), ("f_in", f_in)):
        if not 0.5 < fidelity <= 1.0:
            raise ValueError("%s must lie in (0.5, 1] for a referenced transfer matrix, got %r"
                             % (key, fidelity))
    gate = composite_gate(p, dephasing, g)
    ident = composite_gate(p, dephasing, GateSpec(kind="identity"))
    m_gate = np.zeros((4, 4))
    m_id = np.zeros((4, 4))
    for col, (e_up, n_up) in enumerate([(False, False), (False, True),
                                        (True, False), (True, True)]):
        rho = product_state(electron_mixture(f_ie, e_up), [electron_mixture(f_in, n_up)],
                            p.n_nuclei)
        prep = RegisterState(rho, p.n_nuclei)
        m_gate[:, col] = _joint_populations(gate.apply(prep))
        m_id[:, col] = _joint_populations(ident.apply(prep))
    referenced = m_gate @ np.linalg.inv(m_id)
    return TransferMatrix(np.clip(referenced, 0.0, 1.0))


# --------------------------------------------------------------------------
# randomized benchmarking


_CLIFFORDS = (
    ("X/2", math.pi / 2, 0.0),
    ("-X/2", math.pi / 2, math.pi),
    ("X", math.pi, 0.0),
    ("-X", math.pi, math.pi),
    ("Y/2", math.pi / 2, math.pi / 2),
    ("-Y/2", math.pi / 2, 3 * math.pi / 2),
    ("Y", math.pi, math.pi / 2),
    ("-Y", math.pi, 3 * math.pi / 2),
)


def _ideal_unitary(angle, phase):
    axis = math.cos(phase) * SX + math.sin(phase) * SY
    return math.cos(angle / 2.0) * np.eye(2) - 1j * math.sin(angle / 2.0) * axis


def _depolarize_electron(rho, q, n_nuclei):
    if q == 0.0:
        return rho
    half = 2 ** n_nuclei
    blocks = rho.reshape(2, half, 2, half)
    nuclear = blocks[0, :, 0, :] + blocks[1, :, 1, :]
    mixed = np.zeros_like(rho)
    mixed[:half, :half] = nuclear / 2.0
    mixed[half:, half:] = nuclear / 2.0
    return (1.0 - q) * rho + q * mixed


@dataclass
class RbResult:
    sweep: SweepResult
    gate_fidelity: float
    fit: "fitting.FitResult"


def run_randomized_benchmarking(p: RegisterParams, dephasing, n_list,
                                n_random=20, gate_fidelity_noise=0.0, seed=0,
                                f_ie=1.0, t_pi=T_PI_DEFAULT):
    """Clifford randomized benchmarking of the electron.

    Random sequences from {+-X/2, +-X, +-Y/2, +-Y}, a final inversion element
    (from the same set or the identity) mapping the ideal state onto the state
    opposite initialization, and an optional depolarizing channel of strength
    gate_fidelity_noise applied after every Clifford.  The mean signal decays
    as (F_I - 0.5) F_G^N + 0.5; the fitted F_G is reported.
    """
    q = gate_fidelity_noise
    if not 0.0 <= q <= 1.0:
        raise ValueError("gate_fidelity_noise must lie in [0, 1], got %r" % (q,))
    eng = Engine(p, dephasing, t_pi)
    up = np.array([0.0, 1.0], dtype=complex)
    down = np.array([1.0, 0.0], dtype=complex)

    n_list = [int(n) for n in n_list]
    signal = []
    for i_n, n_cliff in enumerate(n_list):
        acc = 0.0
        for i_r in range(n_random):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(i_n, i_r)))
            picks = rng.integers(0, len(_CLIFFORDS), size=n_cliff)
            rho = _initial_rho(p, f_ie)
            ideal = np.eye(2, dtype=complex)
            for k in picks:
                _, angle, phase = _CLIFFORDS[k]
                rho = eng.rotate(rho, angle, phase)
                rho = _depolarize_electron(rho, q, p.n_nuclei)
                ideal = _ideal_unitary(angle, phase) @ ideal
            # inversion element: best mapping of the ideal state onto |up>
            best, best_overlap = None, -1.0
            vec = ideal @ down
            for name, angle, phase in _CLIFFORDS + (("I", 0.0, 0.0),):
                overlap = abs(np.vdot(up, _ideal_unitary(angle, phase) @ vec)) ** 2
                if overlap > best_overlap + 1e-12:
                    best, best_overlap = (angle, phase), overlap
            if best[0] > 0.0:
                rho = eng.rotate(rho, best[0], best[1])
            acc += eng.population_up(rho)
        signal.append(acc / n_random)

    sweep = SweepResult(np.asarray(n_list, float), signal, name="rb",
                        axis_label="number of Cliffords")
    model = fitting.model_registry()["rb_decay"]
    fit = fitting.least_squares(model, sweep.axis, sweep.signal,
                                init={"f_i": f_ie, "f_g": 0.99},
                                fixed={"f_i": f_ie})
    # fitted decay base p maps to the average gate fidelity (1 + p) / 2
    p_decay = float(fit.params[list(model.param_names).index("f_g")])
    return RbResult(sweep=sweep, gate_fidelity=0.5 * (1.0 + p_decay), fit=fit)
