"""Model and state of the electron + nuclear register.

This module holds the register parameters, the drive and dephasing models,
the density-matrix state with its invariants, the Hamiltonian and the
readouts.  It does not evolve states: ``sequences.Engine`` is the one code
path that turns the Hamiltonian into propagators and applies them.  Every
readout reads the real diagonal of rho (``populations``): the electron-up
population and the nuclear sigma_z are sums over it.  The dephasing, the
partial trace and the readouts read the number of nuclei from the shape of
rho, and also take a stack of density matrices, shape (..., d, d), and then
act on (or return one value per) leading index.

Tensor ordering: electron is the slowest index, then nucleus 1, then nucleus 2.
Every 2-level slot is ordered (down, up), i.e. index 0 is the spin-down state
and sigma_z = diag(-1, +1).

Model: H = Delta/2 sz_e + Omega/2 (cos(phi) sx_e + sin(phi) sy_e)
         + sum_i [ omega_L/2 sz_ni + sz_e (A_par,i/4 sz_ni + A_perp,i/4 sx_ni) ]
(public frequencies in Hz, converted to rad/s internally).  Microwave pulses
are decoherence-free; after each free-evolution segment every coherence
between the electron-up and electron-down blocks is multiplied by
exp(-(t/t_c)^beta) with the duration t of that segment (per-segment,
intentionally non-divisible for beta != 1; see ``dephase_electron``).
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .linalg import IDENTITY2 as ID2, SX, SY, SZ, kron

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RegisterParams:
    """Detuning, common nuclear Larmor frequency and per-nucleus hyperfine couplings (Hz)."""

    detuning: float = 0.0
    larmor_n: float = 3.5857929e6
    hyperfine: Tuple[Tuple[float, float], ...] = ((621.75027e3, 140.1041e3),)
    n_nuclei: int = 1

    def __post_init__(self):
        object.__setattr__(self, "hyperfine", tuple(tuple(h) for h in self.hyperfine))
        if self.n_nuclei not in (1, 2):
            raise ValueError("n_nuclei must be 1 or 2")
        if len(self.hyperfine) != self.n_nuclei:
            raise ValueError("hyperfine list length must equal n_nuclei")
        if not self.larmor_n > 0:
            raise ValueError("larmor_n must be > 0")

    @property
    def larmor_period(self):
        return 1.0 / self.larmor_n


@dataclass(frozen=True)
class DriveSpec:
    """Microwave drive: Rabi frequency (Hz) and phase (rad)."""

    rabi: float
    phase: float = 0.0

    def __post_init__(self):
        if self.rabi < 0:
            raise ValueError("rabi must be >= 0")


@dataclass(frozen=True)
class DephasingModel:
    """Empirical electron dephasing exp(-(t/t_c)^beta) applied per free segment."""

    t_c: float
    beta: float = 1.0

    def __post_init__(self):
        if not 0 < self.t_c < math.inf:
            raise ValueError("t_c must be finite and > 0 (use no model to disable dephasing)")
        if not 0.5 <= self.beta <= 3.0:
            raise ValueError("beta must lie in [0.5, 3]")

    def factor(self, t):
        """exp(-(t/t_c)^beta), elementwise for an array of durations."""
        if isinstance(t, np.ndarray):
            with np.errstate(over="ignore"):   # t / t_c may overflow to inf: capped below
                ratio = np.minimum(t / self.t_c, 1e100)
            return np.exp(-(ratio ** self.beta))
        # t / t_c capped at 1e100 keeps the power finite for beta <= 3; exp gives 0.0 either way
        return math.exp(-(min(t / self.t_c, 1e100) ** self.beta))


@dataclass
class RegisterState:
    """Density matrix, 4x4 or 8x8 (electron x 1 or 2 nuclei), with trace/Hermiticity invariants."""

    rho: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        self.validate()

    def validate(self):
        """Shape, trace 1 (to 1e-9), Hermitian (1e-10 relative) and eigenvalues >= -1e-9."""
        if self.rho.shape not in ((4, 4), (8, 8)):
            raise ValueError("rho has shape %r, expected (4, 4) or (8, 8) for 1 or 2 nuclei"
                             % (self.rho.shape,))
        if abs(np.trace(self.rho) - 1.0) > 1e-9:
            raise ValueError("trace(rho) = %r deviates from 1" % np.trace(self.rho))
        if np.linalg.norm(self.rho - self.rho.conj().T) > 1e-10 * max(1.0, np.linalg.norm(self.rho)):
            raise ValueError("rho is not Hermitian")
        evals = np.linalg.eigvalsh(self.rho)
        if evals.min() < -1e-9:
            raise ValueError("rho has negative eigenvalue %g" % evals.min())
        return self


def op_at(op, slot, n_slots):
    """Embed a single-spin operator at a tensor slot (0 = electron)."""
    full = np.array([[1.0 + 0.0j]])
    for k in range(n_slots):
        full = kron(full, op if k == slot else ID2)
    return full


# (SX, SY, SZ) embedded at every tensor slot, per number of nuclei: built once
_SLOT_OPS = {n_nuclei: [tuple(op_at(op, slot, 1 + n_nuclei) for op in (SX, SY, SZ))
                        for slot in range(1 + n_nuclei)]
             for n_nuclei in (1, 2)}


def hamiltonian(p: RegisterParams, d: Optional[DriveSpec] = None):
    """Register Hamiltonian in rad/s; drive terms included when d is given."""
    ops = _SLOT_OPS[p.n_nuclei]
    sx_e, sy_e, sz_e = ops[0]
    h = p.detuning / 2.0 * sz_e
    if d is not None and d.rabi != 0.0:
        h = h + d.rabi / 2.0 * (math.cos(d.phase) * sx_e + math.sin(d.phase) * sy_e)
    for (a_par, a_perp), (sx_n, _, sz_n) in zip(p.hyperfine, ops[1:]):
        h = h + p.larmor_n / 2.0 * sz_n
        h = h + sz_e @ (a_par / 4.0 * sz_n + a_perp / 4.0 * sx_n)
    return TWO_PI * h


def electron_mixture(fidelity, inverted=False):
    """(down, up) populations F, 1-F of the initialized electron, swapped when inverted."""
    if not 0.5 <= fidelity <= 1.0:
        raise ValueError("initialization fidelity must lie in [0.5, 1]")
    return (1.0 - fidelity, fidelity) if inverted else (fidelity, 1.0 - fidelity)


def product_state(electron, nuclei=(), n_nuclei=1):
    """Diagonal density matrix electron x nuclei from (down, up) population pairs.

    ``nuclei`` lists the pairs of the leading nuclei; the remaining ones of
    the ``n_nuclei`` are maximally mixed.
    """
    rho = np.array([[1.0 + 0.0j]])
    for pops in [electron, *nuclei] + [(0.5, 0.5)] * (n_nuclei - len(nuclei)):
        rho = kron(rho, np.diag(pops).astype(complex))
    return rho


def dephase_electron(rho, factor):
    """Scale all coherences between the electron-down and electron-up blocks.

    For a stack of rho, ``factor`` may hold one value per leading index.
    """
    if isinstance(factor, np.ndarray):
        factor = factor[..., None, None]
    half = rho.shape[-1] // 2
    out = rho.copy()
    out[..., :half, half:] *= factor
    out[..., half:, :half] *= factor
    return out


def _n_slots(rho):
    """Tensor slots (electron + nuclei) of a d x d density matrix, d = 2**slots."""
    return rho.shape[-1].bit_length() - 1


def populations(rho):
    """Real diagonal of rho with one axis of 2 per tensor slot after the stack axes."""
    diag = np.real(np.diagonal(rho, axis1=-2, axis2=-1))
    return diag.reshape(diag.shape[:-1] + (2,) * _n_slots(rho))


def _slot_populations(rho, slot):
    """(down, up) populations of tensor slot ``slot`` (0 = electron), summed over the others."""
    pops = populations(rho).reshape(rho.shape[:-2] + (2 ** slot, 2, -1))
    return pops.sum(axis=(-3, -1))


def _value(x):
    """A float for a single rho, the array of values for a stack."""
    return float(x) if x.ndim == 0 else x


def electron_up_population(rho):
    """Population of the electron-up block (one per rho of a stack)."""
    return _value(_slot_populations(rho, 0)[..., 1])


def nuclear_sigma_z(rho, index=0):
    """sigma_z expectation of nucleus ``index``: its up minus its down population
    (one per rho of a stack)."""
    n_nuclei = _n_slots(rho) - 1
    if not 0 <= index < n_nuclei:
        raise ValueError("invalid nucleus index %r for %d nuclei" % (index, n_nuclei))
    pops = _slot_populations(rho, 1 + index)
    return _value(pops[..., 1] - pops[..., 0])


def trace_electron(rho):
    """Nuclear marginal of rho: the partial trace over the electron."""
    half = rho.shape[-1] // 2
    return rho[..., :half, :half] + rho[..., half:, half:]


def repump_electron(st: RegisterState, fidelity):
    """Projective optical re-pump: replace the electron by the F-mixture, keep nuclear marginal."""
    rho_e = np.diag(electron_mixture(fidelity)).astype(complex)
    return RegisterState(kron(rho_e, trace_electron(st.rho)))
