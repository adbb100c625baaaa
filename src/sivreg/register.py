"""Model and state of the electron + nuclear register.

This module holds the register parameters, the drive and dephasing models,
the density-matrix state with its invariants and the Hamiltonian.  It does
not evolve states: ``sequences.Engine`` is the one code path that turns the
Hamiltonian into propagators and applies them.

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
    def dim(self):
        return 2 ** (1 + self.n_nuclei)

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
        if t == 0.0:
            return 1.0
        return math.exp(-((t / self.t_c) ** self.beta))


@dataclass
class RegisterState:
    """Density matrix over electron x nuclei with trace/Hermiticity invariants."""

    rho: np.ndarray
    n_nuclei: int

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        self.validate()

    def validate(self, tol_trace=1e-9, tol_herm=1e-10, tol_pos=1e-9):
        dim = 2 ** (1 + self.n_nuclei)
        if self.rho.shape != (dim, dim):
            raise ValueError("rho has shape %r, expected (%d, %d)" % (self.rho.shape, dim, dim))
        if abs(np.trace(self.rho) - 1.0) > tol_trace:
            raise ValueError("trace(rho) = %r deviates from 1" % np.trace(self.rho))
        if np.linalg.norm(self.rho - self.rho.conj().T) > tol_herm * max(1.0, np.linalg.norm(self.rho)):
            raise ValueError("rho is not Hermitian")
        evals = np.linalg.eigvalsh(self.rho)
        if evals.min() < -tol_pos:
            raise ValueError("rho has negative eigenvalue %g" % evals.min())
        return self

    def copy(self):
        return RegisterState(self.rho.copy(), self.n_nuclei)


def op_at(op, slot, n_slots):
    """Embed a single-spin operator at a tensor slot (0 = electron)."""
    full = np.array([[1.0 + 0.0j]])
    for k in range(n_slots):
        full = kron(full, op if k == slot else ID2)
    return full


def hamiltonian(p: RegisterParams, d: Optional[DriveSpec] = None):
    """Register Hamiltonian in rad/s; drive terms included when d is given."""
    n = 1 + p.n_nuclei
    sz_e = op_at(SZ, 0, n)
    h = p.detuning / 2.0 * sz_e
    if d is not None and d.rabi != 0.0:
        h = h + d.rabi / 2.0 * (math.cos(d.phase) * op_at(SX, 0, n)
                                + math.sin(d.phase) * op_at(SY, 0, n))
    for i, (a_par, a_perp) in enumerate(p.hyperfine):
        sz_n = op_at(SZ, 1 + i, n)
        sx_n = op_at(SX, 1 + i, n)
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


def initialize_electron(fidelity, n_nuclei=1):
    """Electron mixture F|down><down| + (1-F)|up><up| with maximally mixed nuclei."""
    return RegisterState(product_state(electron_mixture(fidelity), n_nuclei=n_nuclei),
                         n_nuclei)


def dephase_electron(rho, factor, n_nuclei):
    """Scale all coherences between the electron-down and electron-up blocks."""
    if factor == 1.0:
        return rho
    half = 2 ** n_nuclei
    out = rho.copy()
    out[:half, half:] *= factor
    out[half:, :half] *= factor
    return out


def measure(st: RegisterState, observable, index=0):
    """Expectation values: 'electron_up' / 'electron_down' populations or 'nuclear_sigma_z'."""
    n = 1 + st.n_nuclei
    if observable == "electron_up":
        proj = op_at(np.diag([0.0, 1.0]).astype(complex), 0, n)
    elif observable == "electron_down":
        proj = op_at(np.diag([1.0, 0.0]).astype(complex), 0, n)
    elif observable == "nuclear_sigma_z":
        if not 0 <= index < st.n_nuclei:
            raise ValueError("invalid nucleus index %r for %d nuclei" % (index, st.n_nuclei))
        proj = op_at(SZ, 1 + index, n)
    else:
        raise ValueError("unknown observable %r" % (observable,))
    return float(np.real(np.trace(st.rho @ proj)))


def repump_electron(st: RegisterState, fidelity):
    """Projective optical re-pump: replace the electron by the F-mixture, keep nuclear marginal."""
    rho_e = np.diag(electron_mixture(fidelity)).astype(complex)
    half = 2 ** st.n_nuclei
    nuclear = st.rho[:half, :half] + st.rho[half:, half:]
    return RegisterState(kron(rho_e, nuclear), st.n_nuclei)
