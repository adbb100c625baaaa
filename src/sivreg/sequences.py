"""Register propagation and the pulse-sequence experiments built on it.

``Engine`` is the one code path that turns the register Hamiltonian of
``sivreg.register`` into propagators: it caches the drive eigensystems, the
free factors, the eigenframe rotations and the folded DD blocks per (params,
dephasing, t_pi) context and hands out segment lists (their format and their
backward walk are stated in the ``Engine`` docstring).
``Engine.evolve`` walks such a list over a raw density matrix, or over a
stack of them (shape (..., d, d)), and is the only way any experiment moves a
state; every signal is read from the diagonal of the result
(``register.populations``).  The named experiments (Rabi, Ramsey, dynamical
decoupling, spin lock, nuclear rotations, transfer gates, randomized
benchmarking) are all composed from segment lists, and so are the two-qubit
gates: ``gate_segments`` returns the Engine and segments of a CeNOTn, a
CnNOTe or the identity, and ``transfer_matrix`` evolves the four basis
preparations through them as one stack.

Free evolution runs in the eigenframe of the free Hamiltonian.  Every term of
it commutes with the electron sigma_z, so its eigenvectors are
W = W_down (+) W_up, one eigensolve per electron block, and W never mixes the
electron states, not even where levels of the two blocks are degenerate.  In
that frame a free segment and the electron dephasing after it are one
elementwise product, rho_ij exp(-i (E_i - E_j) t) f_ij(t), and a stack of
free times is one stack of such factors (``FreeSegment``).  Free segments sit
between W^dag and W, so a segment list still maps lab states to lab states;
inside a decoupling block the pi pulses apply as their cached W^dag U W and
the state leaves the frame once, at the end of the block.  One unitary on a
stack applies as two reshaped products over the whole stack.  A sweep over
independent points evolves one stack, one state per point: its free segments
carry one factor per point, its pulse segments a stack of unitaries
(``u_pulse`` of an array of durations); so do the two wait scans of the
transfer-gate calibration.  Randomized benchmarking evolves every sequence of
every length as rows of one stack, sorted longest first, at most
max(n_random, 128) rows at a time: step k moves the rows longer than k, each
by its own Clifford.  The per-point loops these replaced live in the tests as
references.

A DD block repeated at one tau (the nuclear Ramsey, nuclear rotation,
transfer and CeNOTn blocks and the quarter-rotation search) is not walked
unit by unit: ``Engine.dd_block`` hands it out folded, as the product
unitary or, with dephasing, as d^2 x d^2 maps of the walk, which
``Engine.evolve`` applies like any other segment.  It folds the XY-8 cycle
and its first 1..7 units once per Engine, walking the matrix units through
the cycle in the eigenframe; an N-unit block steps the cycle N // 8 times
and then takes the first N % 8 units.  A sweep over the pulse number N reads
every N that way, and the quarter-rotation search scans one cycle at a time.
The DD sweep (a new free factor per tau) walks its segments.  The UI probe runs
the transfer gate backwards as ``_adjoint`` of its forward segments, so its
folded blocks are the conjugate transposes of the cached forward ones.

The pi time is ``Engine.t_pi``: every nominal rotation (pi/2 pulses, DD pi
pulses, RB Cliffords) is driven at the Rabi rate 1/(2 t_pi).  Only explicit
drives (a Rabi or spin-lock amplitude, the CnNOTe drive) set their own rate.
All DD blocks use the [tau/2 - pi - tau/2] unit with the pi-pulse duration
included in the timing, so the pulse-center to pulse-center spacing is
tau + t_pi; on resonance tau_rot + t_pi equals half the nuclear Larmor
period.  Dephasing acts with each free segment; pulses are decoherence-free.
"""

import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import ClassVar, NamedTuple, Optional, Tuple

import numpy as np

from . import fitting
from .constants import T_PI_DEFAULT
from .linalg import SX, SY, SweepResult, hermitian_eig, propagator_from_eig
from .register import (DephasingModel, DriveSpec, RegisterParams, RegisterState,
                       dephase_electron, electron_mixture, electron_up_population,
                       hamiltonian, nuclear_sigma_z, populations, product_state,
                       repump_electron)

TWO_PI = 2.0 * math.pi

# phase pattern (rad) of the XY-8 block, relative to the initial pi/2 at phase 0
XY8_PHASES = (0.0, math.pi / 2, 0.0, math.pi / 2,
              math.pi / 2, 0.0, math.pi / 2, 0.0)
# phase pattern of the CPMG block: every pi pulse 90 degrees from the initial pi/2
CPMG_PHASES = (math.pi / 2,)


class InvalidGate(ValueError):
    """Gate kind not valid for the requested operation."""


class UncalibratedGate(ValueError):
    """GateSpec lacks the calibration values the gate needs."""


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
        if self.kind == "CeNOTn" and (self.uncond_tau is None or self.uncond_n is None):
            raise UncalibratedGate("CeNOTn needs uncond_tau and uncond_n")
        if self.kind == "CnNOTe" and (self.rabi is None or not self.rabi > 0):
            raise UncalibratedGate("CnNOTe needs the calibrated drive amplitude")


@dataclass
class TransferMatrix:
    """Referenced population-transfer amplitudes over {dd, du, ud, uu} (electron, nucleus)."""

    matrix: np.ndarray
    labels: ClassVar[Tuple[str, ...]] = ("down_Down", "down_Up", "up_Down", "up_Up")

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


class FreeSegment(NamedTuple):
    """Free evolution in the eigenframe of the free Hamiltonian: rho_ij -> rho_ij *
    factor_ij.  The factor holds the phases exp(-i (E_i - E_j) t) and, between the two
    electron blocks, the dephasing factor; a stack of free times is a stack of factors."""

    factor: np.ndarray


class Engine:
    """Caches, for one (params, dephasing, t_pi) context, the eigensystem of each
    drive (rabi, phase), the free factor of each scalar time, the eigenframe
    pulse W^dag U W of each rotation and each folded DD block.  A pulse unitary
    is not cached: ``u_pulse`` forms it from its drive's eigensystem each time.

    Evolution is a list of segments, each one of two kinds:

    - a bare ndarray: a d x d unitary U (rho -> U rho U^dag), a stack of them
      (one per rho of a stack), or a folded d^2 x d^2 map of a walk;
    - a ``FreeSegment``, whose factor multiplies rho elementwise: the free
      evolution and its electron dephasing (``DephasingModel.factor(t)``) in the
      eigenframe of the free Hamiltonian.

    That frame is W = W_down (+) W_up, one eigensolve per electron block, so it
    never mixes the electron states.  Free segments therefore sit between the
    unitaries W^dag (into the frame) and W (out of it), and a pulse inside a
    decoupling block applies as its cached W^dag U W.  ``dd_block`` hands out
    a decoupling block folded: the product unitary without dephasing,
    otherwise d^2 x d^2 maps of the walk.  So the N of a pulse-number
    sweep or of a calibration is read from folded cycles, not stepped one unit
    at a time.

    Any segment list walks backwards as ``_adjoint(segments)``: the segments in
    reverse order, each by its Hilbert-Schmidt adjoint, which for a unitary, a
    stack or a folded map is its conjugate transpose and for a free factor its
    conjugate (the dephasing part is real).
    """

    def __init__(self, p: RegisterParams, dephasing: Optional[DephasingModel] = None,
                 t_pi: float = T_PI_DEFAULT):
        if not t_pi > 0:
            raise ValueError("t_pi must be > 0, got %r" % (t_pi,))
        self.p = p
        self.deph = dephasing
        self.t_pi = t_pi
        self._eig = {}
        self._frame = None
        self._u_free = {}
        self._u_framed = {}
        self._blocks = {}

    def frame(self):
        """(E, W, W^dag) of the free Hamiltonian: the eigenvalues of the electron-down
        block, then those of the electron-up block, and W = W_down (+) W_up, both
        blocks solved as one ``hermitian_eig`` stack, so that levels degenerate
        across the blocks cannot mix the electron."""
        if self._frame is None:
            h = hamiltonian(self.p)
            half = h.shape[-1] // 2
            eig = hermitian_eig(np.stack((h[:half, :half], h[half:, half:])))
            w = np.zeros_like(h)
            w[:half, :half], w[half:, half:] = eig.vectors
            self._frame = (eig.values.reshape(-1), w, w.conj().T.copy())
        return self._frame

    def u_free(self, t):
        """The elementwise factor of free evolution for time t in the eigenframe
        (``FreeSegment``); an array of times gives an uncached stack."""
        if isinstance(t, np.ndarray):
            return self._free_factor(t)
        factor = self._u_free.get(t)
        if factor is None:
            factor = self._u_free[t] = self._free_factor(t)
        return factor

    def _free_factor(self, t):
        if not np.all(np.asarray(t) >= 0):
            raise ValueError("evolution time must be >= 0, got %r" % (float(np.min(t)),))
        phases = np.exp(-1j * np.multiply.outer(t, self.frame()[0]))
        factor = np.einsum("...i,...j->...ij", phases, phases.conj())
        if self.deph is None:
            return factor
        return dephase_electron(factor, self.deph.factor(t))

    def u_pulse(self, rabi, phase, duration):
        """exp(-i H t) under drive (rabi, phase), from its cached eigensystem; a stack
        for an array of durations."""
        if not np.all(np.asarray(duration) >= 0):
            raise ValueError("pulse duration must be >= 0, got %r" % (float(np.min(duration)),))
        eig = self._eig.get((rabi, phase))
        if eig is None:
            eig = self._eig[(rabi, phase)] = hermitian_eig(
                hamiltonian(self.p, DriveSpec(rabi, phase)))
        return propagator_from_eig(eig, duration)

    def u_rotation(self, angle, phase):
        """Pulse unitary for a nominal rotation angle at Rabi rate 1/(2 t_pi)."""
        rabi = 1.0 / (2.0 * self.t_pi)
        return self.u_pulse(rabi, phase, angle / (TWO_PI * rabi))

    def _framed_rotation(self, angle, phase):
        """W^dag U W of the rotation pulse: the pulse acting in the eigenframe, cached."""
        u = self._u_framed.get((angle, phase))
        if u is None:
            _, w, w_dag = self.frame()
            u = self._u_framed[(angle, phase)] = w_dag @ self.u_rotation(angle, phase) @ w
        return u

    # segment lists --------------------------------------------------------

    def _in_frame(self, segments):
        """Eigenframe segments bracketed by W^dag and W, so that they act on lab states."""
        _, w, w_dag = self.frame()
        return [w_dag] + segments + [w]

    def free_segments(self, t):
        """Free evolution for t: into the eigenframe, one elementwise product, out again."""
        return self._in_frame([FreeSegment(self.u_free(t))])

    def dd_block_segments(self, tau, n_pulses, pattern=XY8_PHASES):
        """n_pulses decoupling units, the k-th with pi-pulse phase pattern[k % len(pattern)].

        The units stay in the eigenframe from the first half gap to the last, and the
        half gaps of every unit share one free segment, so an array of taus forms its
        stack of factors once per block.
        """
        return self._in_frame(self._dd_units(tau, n_pulses, pattern))

    def _dd_units(self, tau, n_pulses, pattern):
        """The eigenframe segments of ``dd_block_segments``, without the bracket."""
        half = [FreeSegment(self.u_free(tau / 2.0))]
        return [segment for k in range(n_pulses)
                for segment in half + [self._framed_rotation(math.pi, pattern[k % len(pattern)])]
                + half]

    def dd_block(self, tau, n_pulses):
        """``dd_block_segments(tau, n_pulses)`` (the XY-8 pattern) folded, cached per
        (tau, n_pulses); its backward walk is ``_adjoint`` of it.

        The first 1, 2, ... 8 units fold in one walk.  A longer block is the cycle of
        8 units stepped n_pulses // 8 times and then its first n_pulses % 8 units.
        Without dephasing the block is their product, one unitary; with it, the block
        steps the cycle map and never multiplies two d^2 x d^2 maps.
        """
        key = (tau, n_pulses)
        block = self._blocks.get(key)
        if block is not None:
            return block
        size = len(XY8_PHASES)
        if n_pulses == 0:
            block = []
        elif n_pulses <= size:
            units = [self._dd_units(tau, 1, (phase,)) for phase in XY8_PHASES]
            for k, folded in enumerate(self._fold_steps(units)):
                self._blocks[(tau, k + 1)] = [folded]
            block = self._blocks[key]
        else:
            cycles, rest = divmod(n_pulses, size)
            block = self.dd_block(tau, size) * cycles + self.dd_block(tau, rest)
            if self.deph is None:   # one unitary, the product of the folded ones
                u = block[0]
                for v in block[1:]:
                    u = v @ u
                block = [u]
        self._blocks[key] = block
        return block

    def _fold_steps(self, steps):
        """The folds of the eigenframe segment lists steps[0], steps[0] + steps[1], ...
        in one walk, each one segment that acts on lab states as the walk does:
        without dephasing the product unitary (d x d), with it the d^2 x d^2 map
        of the walk on row-major vec(rho), the convention of
        ``optics._liouvillian``, stored transposed, so that a stack of states
        maps as vec(rho) @ M (row k of M is the walked k-th matrix unit).

        The matrix units (or, without dephasing, the identity) enter the frame
        once and move through ``evolve``, so a map holds the arithmetic of the
        walk it replaces; each fold leaves the frame.  Without dephasing a free
        factor is the outer product of its diagonal unitary with the conjugate,
        so its first column is that unitary up to a global phase.
        """
        _, w, w_dag = self.frame()
        folds = []
        if self.deph is None:
            u = w_dag
            for step in steps:
                for segment in step:
                    u = (segment.factor[..., :1] * u if isinstance(segment, FreeSegment)
                         else segment @ u)
                folds.append(w @ u)
            return folds
        d = w.shape[-1]
        units = self.evolve(np.eye(d * d, dtype=complex).reshape(d * d, d, d), [w_dag])
        for step in steps:
            units = self.evolve(units, step)
            folds.append(self.evolve(units, [w]).reshape(d * d, d * d))
        return folds

    def evolve(self, rho, segments):
        """Apply the segments in order to a raw density matrix or a stack of them.

        A unitary segment may be one matrix or a stack, and a free segment's factor
        one matrix or a stack with one free time each; rho and the segments
        broadcast over their leading axes.  A folded map (d^2 x d^2, from
        ``dd_block``) applies to every rho of the stack.
        """
        for segment in segments:
            if isinstance(segment, FreeSegment):
                rho = rho * segment.factor
            elif segment.shape[-1] == rho.shape[-1]:
                rho = _conjugate(segment, rho)
            else:
                rho = _apply_map(segment, rho)
        return rho


def _adjoint(segments):
    """The segments walked backwards, each by its adjoint: a unitary, a stack or a
    folded map by its conjugate transpose, a free factor by its conjugate (its
    dephasing part is real)."""
    return [FreeSegment(segment.factor.conj()) if isinstance(segment, FreeSegment)
            else segment.conj().swapaxes(-1, -2)
            for segment in reversed(segments)]


# OpenBLAS runs a complex gemm of this many multiply-adds or more on several
# threads, and also the gemv numpy calls for a one-row product once the map is
# 64 x 64; those threads spin on after the call and slow the rest of the
# process.  So a map, or one unitary on a stack, applies in products below that
# size, and a map never to one row.
_GEMM_SINGLE_THREAD = 65536


def _conjugate(u, rho):
    """u rho u^dag.  One unitary on a stack runs as two reshaped products, u on the
    columns of all the stacked matrices side by side and then u^dag on all their rows,
    each below the single-thread size."""
    u_dag = u.conj().swapaxes(-1, -2)
    if u.ndim > 2 or rho.ndim == 2:
        return u @ rho @ u_dag
    d = u.shape[-1]
    flat = rho.reshape(-1, d, d)
    rows = (_GEMM_SINGLE_THREAD - 1) // d ** 3
    parts = []
    for start in range(0, len(flat), rows):
        part = flat[start:start + rows]
        n = len(part)
        left = (u @ part.transpose(1, 0, 2).reshape(d, n * d)).reshape(d, n, d)
        parts.append((left.transpose(1, 0, 2).reshape(n * d, d) @ u_dag).reshape(n, d, d))
    return (parts[0] if len(parts) == 1 else np.concatenate(parts)).reshape(rho.shape)


def _apply_map(m, rho):
    """A folded map on a rho or a stack of them: vec(rho) @ m, as (rows, d^2) @ (d^2, d^2)
    products that each stay on one thread."""
    d2 = m.shape[-1]
    flat = rho.reshape(-1, d2)
    if len(flat) == 1:   # doubled: a row of a product does not depend on the other rows
        return (np.concatenate([flat, flat]) @ m)[:1].reshape(rho.shape)
    rows = (_GEMM_SINGLE_THREAD - 1) // (d2 * d2)
    if len(flat) > rows:
        parts = np.array_split(flat, -(-len(flat) // rows))
        return np.concatenate([part @ m for part in parts]).reshape(rho.shape)
    return (flat @ m).reshape(rho.shape)


def _pulse_number(name, n):
    """n as an int; a ValueError naming it unless it is a non-negative integer."""
    if not (math.isfinite(n) and n >= 0 and n == int(n)):
        raise ValueError("%s %r is not a non-negative integer" % (name, n))
    return int(n)


def _initial_rho(p: RegisterParams, f_ie: float, flip=False):
    """Electron initialization mixture (optionally ideally inverted) x mixed nuclei."""
    return product_state(electron_mixture(f_ie, flip), n_nuclei=p.n_nuclei)


# --------------------------------------------------------------------------
# named experiments


def run_rabi(p: RegisterParams, dephasing, omega, durations, f_ie=1.0,
             initial: Optional[RegisterState] = None):
    """Initialize, drive at omega >= 0 (0: free evolution) for each duration, read the
    electron-up population."""
    if not omega >= 0.0:
        raise ValueError("omega must be >= 0, got %r" % (omega,))
    eng = Engine(p, dephasing)
    durations = np.asarray(durations, dtype=float)
    rho0 = initial.rho if initial is not None else _initial_rho(p, f_ie)
    drive = [eng.u_pulse(omega, 0.0, durations)] if omega > 0 else eng.free_segments(durations)
    signal = electron_up_population(eng.evolve(rho0, drive))
    return SweepResult(durations, signal, name="rabi", axis_label="pulse duration (s)")


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
    params = replace(p, detuning=delta)
    eng = Engine(params, dephasing, t_pi)
    taus = np.asarray(taus, dtype=float)

    if target == "electron":
        half_pi = [eng.u_rotation(math.pi / 2, 0.0)]
        rho0 = eng.evolve(_initial_rho(params, f_ie), half_pi)
        signal = electron_up_population(eng.evolve(rho0, eng.free_segments(taus) + half_pi))
        return SweepResult(taus, signal, name="ramsey", axis_label="tau (s)")

    if target != "nuclear":
        raise ValueError("target must be 'electron' or 'nuclear'")

    tau_rot = params.larmor_period / 2.0 - t_pi
    n_quarter = calibrate_quarter_rotation(params, tau_rot, t_pi=t_pi)
    block = eng.dd_block(tau_rot, n_quarter)
    # electron in a definite spin state; target nucleus polarized down
    rho0 = product_state((0.0, 1.0) if electron_up else (1.0, 0.0), [(1.0, 0.0)],
                         params.n_nuclei)
    rho0 = eng.evolve(rho0, block)
    sigma_z = nuclear_sigma_z(eng.evolve(rho0, eng.free_segments(taus) + block))
    return SweepResult(taus, 0.5 * (1.0 + sigma_z),
                       aux={"nuclear_sigma_z": sigma_z},
                       name="nuclear_ramsey", axis_label="tau (s)")


def run_dd(p: RegisterParams, dephasing, kind, n_pulses, taus, f_ie=1.0,
           t_pi=T_PI_DEFAULT):
    """pi/2 - [tau/2 - pi - tau/2]^N - pi/2 coherence sweep.

    kind='CPMG' uses pi pulses 90 degrees from the initial pi/2; kind='XY'
    uses the XY-8 phase pattern.  n_pulses=0 degenerates to a Ramsey.
    """
    if kind not in ("CPMG", "XY"):
        raise ValueError("kind must be 'CPMG' or 'XY'")
    n_pulses = _pulse_number("n_pulses", n_pulses)
    pattern = CPMG_PHASES if kind == "CPMG" else XY8_PHASES
    eng = Engine(p, dephasing, t_pi)
    taus = np.asarray(taus, dtype=float)
    half_pi = [eng.u_rotation(math.pi / 2, 0.0)]
    rho0 = eng.evolve(_initial_rho(p, f_ie), half_pi)
    block = (eng.free_segments(taus) if n_pulses == 0
             else eng.dd_block_segments(taus, n_pulses, pattern))
    signal = electron_up_population(eng.evolve(rho0, block + half_pi))
    total_time = [float(tau) if n_pulses == 0 else n_pulses * (float(tau) + t_pi)
                  for tau in taus]
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
    half_pi = [eng.u_rotation(math.pi / 2, 0.0)]
    rho0 = eng.evolve(_initial_rho(p, f_ie), half_pi)
    if tau_sl is not None:
        axis = np.asarray(tau_sl, dtype=float)
        lock = [eng.u_pulse(omega_sl, math.pi / 2, axis)]
        label, name = "lock duration (s)", "spin_lock_time"
    else:
        if tau_fixed is None:
            raise ValueError("amplitude sweep needs tau_fixed")
        axis = np.asarray(amplitudes, dtype=float)
        # one drive Hamiltonian per amplitude: its unitaries stacked along the axis
        units = [eng.u_pulse(float(omega), math.pi / 2, tau_fixed) for omega in axis]
        lock = [np.array(units).reshape(axis.shape + rho0.shape)]
        label, name = "lock amplitude (Hz)", "spin_lock_amplitude"
    signal = electron_up_population(eng.evolve(rho0, lock + half_pi))
    return SweepResult(axis, signal, name=name, axis_label=label)


def run_nuclear_rotation(p: RegisterParams, dephasing, tau_rot, n_sweep,
                         f_ie=1.0, t_pi=T_PI_DEFAULT):
    """DD block with inter-pulse gap tau_rot, sweeping the pulse number N.

    Reports the electron coherence signal (pi/2 - N units - pi/2) and, as an
    auxiliary observable, the sigma_z of the target nucleus prepared spin-down
    under an electron prepared spin-down: the conditional-rotation bookkeeping
    whose first return to the initial value marks one full rotation.  The two
    branches get the same units, so they evolve as one (2, d, d) stack.  An N
    of 8c + r units is the folded XY-8 cycle stepped c times and then the first
    r units, folded: the stack steps the cycle up to the largest N, and every
    wanted N with the same r takes its r-unit map in one evolve.  All of them
    are read at the end with one stacked pi/2.
    """
    if not tau_rot > 0:
        raise ValueError("tau_rot must be > 0")
    n_sweep = [_pulse_number("n_sweep entry", n) for n in n_sweep]
    if not n_sweep:
        raise ValueError("n_sweep holds no pulse number")
    eng = Engine(p, dephasing, t_pi)
    half_pi = [eng.u_rotation(math.pi / 2, 0.0)]
    size = len(XY8_PHASES)

    # the two branches as one stack: [0] the electron signal (coherence
    # interferometry around the block), [1] the conditional rotation (electron
    # down, target nucleus down, rest mixed)
    rho = np.array([eng.evolve(_initial_rho(p, f_ie), half_pi),
                    product_state((f_ie, 1.0 - f_ie), [(1.0, 0.0)], p.n_nuclei)])
    wanted = np.array(sorted(set(n_sweep)))
    cycled = [rho]   # after 0, 8, 16, ... units
    for _ in range(wanted[-1] // size):
        cycled.append(eng.evolve(cycled[-1], eng.dd_block(tau_rot, size)))
    cycled = np.array(cycled)
    snapshots = np.empty((len(wanted),) + rho.shape, dtype=complex)
    for rest in range(size):
        at = wanted % size == rest
        if at.any():
            snapshots[at] = eng.evolve(cycled[wanted[at] // size], eng.dd_block(tau_rot, rest))
    signal_at = electron_up_population(eng.evolve(snapshots[:, 0], half_pi))
    sigma_z_at = nuclear_sigma_z(snapshots[:, 1])
    index = np.searchsorted(wanted, n_sweep)
    axis = np.asarray(n_sweep, dtype=float)
    return SweepResult(axis, signal_at[index], aux={"nuclear_sigma_z": sigma_z_at[index]},
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
    the electron state unchanged.  The trace grows one XY-8 cycle at a time:
    the stack of the 8 unitaries of the cycle's first 1..8 units gives its next
    8 values, scanned in order, and the last of them starts the next cycle.
    """
    eng = Engine(replace(p, hyperfine=p.hyperfine[:1], n_nuclei=1), None, t_pi)
    size = len(XY8_PHASES)
    prefixes = np.array([eng.dd_block(tau_rot, n)[0] for n in range(1, size + 1)])
    rho = product_state((1.0, 0.0), [(1.0, 0.0)])
    trace = [nuclear_sigma_z(rho)]
    n = None   # the first N with sigma_z >= 0
    while n is None or len(trace) <= n + 1:   # up to the unit after the crossing
        if n is None and len(trace) > n_max:
            raise ValueError("no quarter rotation found below n_max; check tau_rot")
        states = eng.evolve(rho, [prefixes])
        rho = states[-1]
        trace.extend(nuclear_sigma_z(states))
        if n is None:
            n = next((k for k in range(len(trace) - size, min(len(trace), n_max + 1))
                      if trace[k] >= 0.0), None)
    if not force_even:
        return n if abs(trace[n]) <= abs(trace[n - 1]) else n - 1
    lo = n - 2 + (n % 2)  # largest even <= n-1
    hi = lo + 2
    if hi > n_max or lo < 1:
        raise ValueError("no quarter rotation found below n_max; check tau_rot")
    return lo if abs(trace[lo]) <= abs(trace[hi]) else hi


# --------------------------------------------------------------------------
# transfer gate and two-qubit gates


def _transfer_head(eng: Engine, g: GateSpec):
    """Folded segments of the polarization-transfer gate before its free evolution."""
    return ([eng.u_rotation(math.pi / 2, math.pi / 2)] + eng.dd_block(g.tau, g.n_pulses)
            + [eng.u_rotation(math.pi / 2, 0.0)])


def _transfer_segments(eng: Engine, g: GateSpec, wait):
    """Folded segments of the polarization-transfer gate (sans re-pump)."""
    return _transfer_head(eng, g) + eng.free_segments(wait) + eng.dd_block(g.tau, g.n_pulses)


def calibrate_transfer_wait(p: RegisterParams, g: GateSpec):
    """Free-evolution time between the two transfer blocks.

    Chosen in the ideal limit (perfect electron initialization, target nucleus
    only) by maximizing the transferred |sigma_z|: a coarse scan of 48 waits
    over one Larmor period followed by a 33-point refinement around the best.
    The waits are independent points: the wait-independent head of the gate is
    evolved once, then each scan evolves one stack, one rho per wait, through
    free(wait) and the second block, folded to one unitary.
    """
    coarse, fine = 48, 33
    single = replace(p, hyperfine=p.hyperfine[:1], n_nuclei=1)
    eng = Engine(single, None, g.t_pi)
    period = single.larmor_period
    block = eng.dd_block(g.tau, g.n_pulses)
    rho_head = eng.evolve(_initial_rho(single, 1.0), _transfer_head(eng, g))

    def transferred(waits):
        """|sigma_z| after free(wait) + block, one stacked rho per wait."""
        segments = eng.free_segments(np.array(waits)) + block
        return np.abs(nuclear_sigma_z(eng.evolve(rho_head, segments)))

    waits = [period * i / coarse for i in range(coarse)]
    best = int(np.argmax(transferred(waits)))
    lo = waits[best] - period / coarse
    hi = waits[best] + period / coarse
    fine_grid = [lo + (hi - lo) * i / (fine - 1) for i in range(fine)]
    fine_scores = transferred([max(w, 0.0) for w in fine_grid])
    return max(fine_grid[int(np.argmax(fine_scores))], 0.0)


def _ui_forward(p: RegisterParams, dephasing, g: GateSpec, f_ie, flip_first):
    """Engine, wait and re-pumped final state of the initialization gate."""
    if g.kind != "UI":
        raise InvalidGate("the nuclear initialization gate needs a gate of kind 'UI'")
    wait = g.wait if g.wait is not None else calibrate_transfer_wait(p, g)
    eng = Engine(p, dephasing, g.t_pi)
    rho = eng.evolve(_initial_rho(p, f_ie, flip=flip_first), _transfer_segments(eng, g, wait))
    return eng, wait, repump_electron(RegisterState(rho), f_ie)


def nuclear_init_gate(p: RegisterParams, dephasing, g: GateSpec, f_ie,
                      flip_first=False):
    """Polarization-transfer initialization of the target nuclear spin.

    Composition: electron initialization (optionally inverted by a leading pi
    when flip_first) -> pi/2(y) -> conditional DD block(tau, N) -> pi/2(x) ->
    calibrated free evolution -> conditional DD block(tau, N) -> projective
    optical re-pump of the electron.  Returns the final register state.
    """
    return _ui_forward(p, dephasing, g, f_ie, flip_first)[2]


def ui_probe_signal(p: RegisterParams, dephasing, g: GateSpec, f_ie,
                    flip_first=False):
    """Electron-up population of the transfer-gate probe.

    Runs the initialization gate, then maps the prepared nuclear polarization
    back onto the electron by walking the same transfer segments backwards
    (their ``_adjoint``, which dephases with each free segment as the forward
    walk does) and reads the electron.  The contrast between flip_first=False
    and True is the probe signal of the initialization experiment.
    """
    eng, wait, state = _ui_forward(p, dephasing, g, f_ie, flip_first)
    back = _adjoint(_transfer_segments(eng, g, wait))
    return electron_up_population(eng.evolve(state.rho, back))


def gate_segments(p: RegisterParams, dephasing, g: GateSpec):
    """Engine and segments (see ``Engine``) of a CeNOTn, a CnNOTe or the identity.

    The two DD blocks of a CeNOTn come folded (``Engine.dd_block``).  The
    identity has no segments.  A UI gate raises InvalidGate: it ends in a
    re-pump and runs through nuclear_init_gate.
    """
    if g.kind == "UI":
        raise InvalidGate("use nuclear_init_gate for transfer gates")
    if g.kind == "CnNOTe":
        # drive resonant with the electron transition of the nuclear-down manifold
        eng = Engine(replace(p, detuning=p.hyperfine[0][0] / 2.0))
        return eng, [eng.u_pulse(g.rabi, 0.0, 1.0 / (2.0 * g.rabi))]
    eng = Engine(p, dephasing, g.t_pi)
    if g.kind == "identity":
        return eng, []
    return eng, eng.dd_block(g.tau, g.n_pulses) + eng.dd_block(g.uncond_tau, g.uncond_n)


def calibrate_cenotn(p: RegisterParams, t_pi=T_PI_DEFAULT):
    """GateSpec for a CeNOTn: conditional + unconditional quarter rotations."""
    t_l = p.larmor_period
    tau_c = t_l / 2.0 - t_pi
    tau_u = t_l - t_pi
    n_c = calibrate_quarter_rotation(p, tau_c, n_max=900, t_pi=t_pi, force_even=True)
    n_u = calibrate_quarter_rotation(p, tau_u, n_max=900, t_pi=t_pi, force_even=True)
    return GateSpec(kind="CeNOTn", tau=tau_c, n_pulses=n_c,
                    t_pi=t_pi, uncond_tau=tau_u, uncond_n=n_u)


def calibrate_cnnote(p: RegisterParams):
    """GateSpec for a CnNOTe: drive amplitude A_par/sqrt(3) on the down manifold."""
    a_par = p.hyperfine[0][0]
    return GateSpec(kind="CnNOTe", rabi=a_par / math.sqrt(3.0))


def _joint_populations(rho):
    """Populations of {down_Down, down_Up, up_Down, up_Up} of electron x target nucleus,
    one row per rho of a stack."""
    return populations(rho).reshape(rho.shape[:-2] + (4, -1)).sum(axis=-1)


def transfer_matrix(p: RegisterParams, dephasing, g: GateSpec, f_ie, f_in):
    """Referenced population-transfer matrix of a gate.

    The four basis preparations (electron x target nucleus, with the stated
    initialization fidelities) are propagated through the gate as one
    (4, d, d) stack and their joint populations recorded, one column each;
    the raw matrix is then referenced against the same measurement with an
    identity gate (the joint populations of the preparations themselves),
    M(G) M(Id)^-1, which removes the preparation
    imperfections and makes the identity gate the exact identity.
    Both fidelities must lie in (0.5, 1]: at 0.5 M(Id) is singular.
    """
    for key, fidelity in (("f_ie", f_ie), ("f_in", f_in)):
        if not 0.5 < fidelity <= 1.0:
            raise ValueError("%s must lie in (0.5, 1] for a referenced transfer matrix, got %r"
                             % (key, fidelity))
    eng, segments = gate_segments(p, dephasing, g)
    rho = np.array([product_state(electron_mixture(f_ie, e_up), [electron_mixture(f_in, n_up)],
                                  p.n_nuclei)
                    for e_up in (False, True) for n_up in (False, True)])
    m_gate = _joint_populations(eng.evolve(rho, segments)).T
    m_id = _joint_populations(rho).T
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


def _depolarize_electron(rho, q):
    """(1 - q) rho + q (1/2 (x) Tr_e rho), in place on a rho or a stack; returns it."""
    if q == 0.0:
        return rho
    half = rho.shape[-1] // 2
    down, up = rho[..., :half, :half], rho[..., half:, half:]
    mixed = (down + up) * (q / 2.0)
    rho *= 1.0 - q
    down += mixed
    up += mixed
    return rho


@functools.lru_cache(maxsize=None)
def _clifford_states():
    """The states ideal |down> that sequences of the ideal _CLIFFORDS reach, up to a
    phase (the six Bloch axes), state 0 |down>: the table step[k, s], the index of
    ideal_k |s>, and per state the inversion candidate that best maps it onto |up>
    (index into _CLIFFORDS, len(_CLIFFORDS) for the identity; the first of equal
    candidates)."""
    candidates = np.array([_ideal_unitary(angle, phase)
                           for _, angle, phase in _CLIFFORDS + (("I", 0.0, 0.0),)])

    def name(state):   # |s><s| to 9 decimals, whatever the phase (+ 0.0: -0.0 as 0.0)
        return (np.round(np.outer(state, state.conj()), 9) + 0.0).tobytes()

    states = [np.array([1.0, 0.0], dtype=complex)]
    index = {name(states[0]): 0}
    step = []
    while len(step) < len(states):   # until the images of every state are known
        row = []
        for ideal in candidates[:-1]:
            state = ideal @ states[len(step)]
            row.append(index.setdefault(name(state), len(states)))
            if row[-1] == len(states):
                states.append(state)
        step.append(row)
    up_amplitudes = candidates[:, 1, :] @ np.array(states).T
    best = np.zeros(len(states), dtype=int)
    best_overlap = np.full(len(states), -1.0)
    for candidate, overlap in enumerate(np.abs(up_amplitudes) ** 2):
        better = overlap > best_overlap + 1e-12
        best[better] = candidate
        best_overlap[better] = overlap[better]
    return np.array(step).T, best


# numpy's SeedSequence hash (NEP 19; numpy/random/bit_generator.pyx): start and
# multiplier of its entropy-mixing (A) and state-output (B) hash constants, its mix
# multipliers, and the PCG64 LCG multiplier (O'Neill, HMC-CS-2014-0905)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1


def _hashmix(value, const, mult):
    """One SeedSequence hash of a word (int) or words (uint32 array): (hash, next const)."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    """SeedSequence's mix of two words (ints or uint32 arrays)."""
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _clifford_picks(seed, keys, lengths):
    """Row i holds default_rng(SeedSequence(seed, spawn_key=(keys[0][i], keys[1][i])))
    .integers(0, 8, size=lengths[i]), bit for bit; entries past a row's length are unused.

    seed is an int >= 0 and the keys arrays of ints below 2**32.  The SeedSequence
    hash runs once over all rows: the seed words (zero-padded to the pool's 4) mix as
    ints, the same for every row, and the two key words as uint32 arrays.  Each row's
    PCG64 state then goes into one reused PCG64 for its random_raw draws.  integers(0, 8)
    takes 32 bits per draw, low half of each 64-bit output first, and keeps the top 3:
    Lemire's method with threshold (2**32 - 8) % 8 = 0, so it never rejects.
    """
    words = [seed >> 32 * i & _MASK32 for i in range(max(4, -(-seed.bit_length() // 32)))]
    const, pool = _INIT_A, []
    for word in words[:4]:
        value, const = _hashmix(word, const, _MULT_A)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in words[4:] + [np.asarray(key, np.uint32) for key in keys]:
        for dst in range(4):
            value, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    const, state = _INIT_B, []   # generate_state(4, np.uint64): 8 words, little-endian
    for i in range(8):
        value, const = _hashmix(pool[i % 4], const, _MULT_B)
        state.append(value.astype(np.uint64))
    n_raw = ((np.asarray(lengths) + 1) // 2).tolist()   # 64-bit outputs per row
    raw = np.zeros((len(n_raw), max(n_raw)), "<u8")
    pcg = {"state": 0, "inc": 0}
    bitgen, full = np.random.PCG64(0), {"bit_generator": "PCG64", "state": pcg,
                                        "has_uint32": 0, "uinteger": 0}
    seeds = ((state[i] | state[i + 1] << 32).tolist() for i in range(0, 8, 2))
    for row, (s_hi, s_lo, i_hi, i_lo, n) in enumerate(zip(*seeds, n_raw)):
        pcg["inc"] = inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128   # pcg64_set_seed
        pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        bitgen.state = full
        raw[row, :n] = bitgen.random_raw(n)
    picks = raw.view("<u4")
    picks >>= 29
    return picks


# rows of one stacked RB walk beyond n_random: bounds its memory, and keeps each
# stacked product small (a (128, 8, 8) complex stack is 128 KiB); at 192-256 rows
# of 8 x 8 the per-row cost of a fresh product stack doubled on a 2-core host
_RB_ROWS = 128


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
    as (F_I - 0.5) F_G^N + 0.5; the fitted F_G is reported.  At f_ie = 0.5
    the signal is flat and holds no F_G, so f_ie must lie in (0.5, 1].
    Sequence i_r of length n_list[i_n] picks its Cliffords as
    default_rng(SeedSequence(seed, spawn_key=(i_n, i_r))).integers(0, 8) would
    (``_clifford_picks``), so seed must be an int >= 0.
    """
    q = gate_fidelity_noise
    if not 0.0 <= q <= 1.0:
        raise ValueError("gate_fidelity_noise must lie in [0, 1], got %r" % (q,))
    if not 0.5 < f_ie <= 1.0:
        raise ValueError("f_ie must lie in (0.5, 1], got %r" % (f_ie,))
    if n_random < 1:
        raise ValueError("n_random must be >= 1, got %r" % (n_random,))
    seed = operator.index(seed)   # an int, as SeedSequence takes it
    if seed < 0:
        raise ValueError("seed must be >= 0, got %r" % (seed,))
    n_list = [_pulse_number("n_list entry", n) for n in n_list]
    if len(set(n_list)) < 2:
        raise ValueError("n_list %r holds fewer than two distinct lengths: the decay fit "
                         "needs two" % (n_list,))
    eng = Engine(p, dephasing, t_pi)
    n_cliffords = len(_CLIFFORDS)
    unitaries = np.array([eng.u_rotation(angle, phase) for _, angle, phase in _CLIFFORDS])
    step, inversion = _clifford_states()

    # row i_n * n_random + i_r is sequence i_r of length n_list[i_n]; the rows walk
    # longest first, at most max(n_random, _RB_ROWS) at a time
    lengths = np.repeat(n_list, n_random)
    order = np.argsort(-lengths, kind="stable")
    up = np.empty(len(lengths))
    rows = max(n_random, _RB_ROWS)
    for start in range(0, len(order), rows):
        walk = order[start:start + rows]
        walk_lengths = lengths[walk]
        # each sequence draws its picks from its own stream, as if run alone
        picks = _clifford_picks(seed, np.divmod(walk, n_random), walk_lengths)
        # per step k, the number of rows longer than k (walk_lengths falls)
        moving = np.searchsorted(-walk_lengths, -np.arange(walk_lengths[0]))
        rho = np.repeat(_initial_rho(p, f_ie)[None], len(walk), axis=0)
        ideal = np.zeros(len(walk), dtype=np.intp)   # ideal |down>, by _clifford_states
        for k, m in enumerate(moving):
            rho[:m] = eng.evolve(rho[:m], [unitaries[picks[:m, k]]])
            _depolarize_electron(rho[:m], q)
            ideal[:m] = step[picks[:m, k], ideal[:m]]
        best = inversion[ideal]
        invert = best < n_cliffords   # the identity needs no pulse
        if invert.any():
            rho[invert] = eng.evolve(rho[invert], [unitaries[best[invert]]])
        up[walk] = electron_up_population(rho)
    signal = []
    for values in up.reshape(len(n_list), n_random):
        acc = 0.0
        for value in values:   # summed in sequence order
            acc += value
        signal.append(acc / n_random)

    sweep = SweepResult(np.asarray(n_list, float), signal, name="rb",
                        axis_label="number of Cliffords")
    model = fitting.get_model("rb_decay")
    fit = fitting.least_squares(model, sweep.axis, sweep.signal,
                                init={"f_i": f_ie, "f_g": 0.99},
                                fixed={"f_i": f_ie})
    # fitted decay base p maps to the average gate fidelity (1 + p) / 2
    p_decay = float(fit.params[list(model.param_names).index("f_g")])
    return RbResult(sweep=sweep, gate_fidelity=0.5 * (1.0 + p_decay), fit=fit)
