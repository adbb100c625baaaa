"""8-level electronic model of a strained SiV center.

Basis ordering: parity {g, u} (slowest) x orbital {e_x, e_y} x spin {down, up}
(fastest).  The Hamiltonian collects spin-orbit, orbital and spin Zeeman,
strain, and the additive gerade/ungerade optical offset; the offset is chosen
so the lowest g -> u transition energy equals c / transition_C_wavelength,
which keeps eigenindices 0..3 in the ground manifold and 4..7 in the excited
manifold.

Inputs are ordinary frequencies (Hz); the assembled Hamiltonian and the
Eigensystems derived from it are angular (rad/s).  derived_observables
converts back to Hz.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .linalg import IDENTITY2, SX, SY, SZ, Eigensystem, hermitian_eig, kron

SPEED_OF_LIGHT = 299792458.0  # m/s
TWO_PI = 2.0 * math.pi


class DegenerateStates(RuntimeError):
    """State labeling by energy order is ambiguous (E0 and E1 coincide)."""


@dataclass(frozen=True)
class PhysicalConstants:
    bohr_magneton_over_h: float = 13.996245e9  # Hz/T
    boltzmann_over_h: float = 20.836619e9      # Hz/K
    gyromag_13C: float = 10.7084e6             # Hz/T


@dataclass(frozen=True)
class DefectConstants:
    """Fixed defect parameters (all frequencies in Hz)."""

    lambda_g: float = 50e9
    lambda_u: float = 260e9
    p_g: float = 0.308
    p_u: float = 0.128
    gL_g: float = 0.328
    gL_u: float = 0.782
    gS: float = 2.0023
    deltaP_g: float = 0.003
    deltaP_u: float = 0.028
    transition_C_wavelength: float = 736.9e-9  # m

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not value > 0:
                raise ValueError("%s must be strictly positive" % name)


@dataclass(frozen=True)
class StrainField:
    """Transverse strain epsilon (Hz) and ungerade/gerade ratio alpha."""

    epsilon: float
    alpha: float = 1.0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")


@dataclass(frozen=True)
class FieldConfig:
    """Static magnetic field: magnitude (T), polar angle theta (deg), azimuth phi (deg, fixed 0)."""

    magnitude: float
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if self.magnitude < 0:
            raise ValueError("field magnitude must be >= 0")
        if not 0.0 <= self.theta <= 90.0:
            raise ValueError("theta must lie in [0, 90] degrees")


@dataclass(frozen=True)
class DerivedObservables:
    """Observables in Hz (cyclicity dimensionless)."""

    omega_L_e: float
    delta_ss: float
    delta_gs: float
    cyclicity: float

    def as_tuple(self):
        return (self.omega_L_e, self.delta_ss, self.delta_gs, self.cyclicity)


@dataclass
class EstimationResult:
    strain: StrainField
    theta: float
    cost: float
    converged: bool
    observables: DerivedObservables = None


# --- operators in the parity x orbital x spin product basis -----------------

# Parity (g, u) and spin (down, up) slots use linalg.SX/SY/SZ, so on the
# parity slot SZ = |u><u| - |g><g|; the orbital slot keeps the standard
# (+1, -1) convention of _OY and _OZ, with sigma_x = SX.
_PROJ_G = np.diag([1.0, 0.0]).astype(complex)
_PROJ_U = np.diag([0.0, 1.0]).astype(complex)

_OY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_OZ = np.diag([1.0, -1.0]).astype(complex)


def _kron3(a, b, c):
    return kron(kron(a, b), c)


def field_from_nuclear_larmor(larmor_n, constants=PhysicalConstants()):
    """Field magnitude (T) implied by a 13C nuclear Larmor frequency (Hz)."""
    return larmor_n / constants.gyromag_13C


def build_hamiltonian(c: DefectConstants, s: StrainField, f: FieldConfig,
                      constants=PhysicalConstants()):
    """Assemble the 8x8 electronic Hamiltonian (rad/s)."""
    theta = math.radians(f.theta)
    phi = math.radians(f.phi)
    bx = f.magnitude * math.sin(theta) * math.cos(phi)
    by = f.magnitude * math.sin(theta) * math.sin(phi)
    bz = f.magnitude * math.cos(theta)
    mu_b = constants.bohr_magneton_over_h

    sx, sy, sz = SX / 2.0, SY / 2.0, SZ / 2.0
    h = np.zeros((8, 8), dtype=complex)
    manifolds = [
        (_PROJ_G, c.lambda_g, c.p_g, c.gL_g, c.deltaP_g, s.epsilon, s.epsilon),
        (_PROJ_U, c.lambda_u, c.p_u, c.gL_u, c.deltaP_u,
         s.alpha * s.epsilon, s.alpha * s.epsilon),
    ]
    for proj, lam, p, g_l, d_p, eps_x, eps_y in manifolds:
        # spin-orbit: -lambda/2 * L_z sigma_z with L_z = -sigma_y (orbital)
        h += -lam / 2.0 * _kron3(proj, -_OY, SZ)
        # orbital Zeeman (quenched, symmetry axis only)
        h += mu_b * p * g_l * bz * _kron3(proj, -_OY, IDENTITY2)
        # spin Zeeman, full vector, plus its small anisotropy correction
        h += mu_b * c.gS * _kron3(proj, IDENTITY2, sx * bx + sy * by + sz * bz)
        h += mu_b * 2.0 * d_p * g_l * bz * _kron3(proj, IDENTITY2, sz)
        # transverse strain in the orbital doublet
        h += _kron3(proj, eps_x * _OZ + eps_y * SX, IDENTITY2)

    # additive parity offset: pin the lowest u <- g gap to the optical C line
    e_g = hermitian_eig(TWO_PI * h[0:4, 0:4]).values / TWO_PI
    e_u = hermitian_eig(TWO_PI * h[4:8, 4:8]).values / TWO_PI
    f_c = SPEED_OF_LIGHT / c.transition_C_wavelength - (e_u[0] - e_g[0])
    h = h + f_c / 2.0 * _kron3(SZ, IDENTITY2, IDENTITY2)
    return TWO_PI * h


# optical dipole operators entering the cyclicity ratio
_DIPOLES = (
    _kron3(SX, _OZ, IDENTITY2),
    _kron3(SX, -SX, IDENTITY2),
    2.0 * _kron3(SX, IDENTITY2, IDENTITY2),
)


def cyclicity(eig: Eigensystem):
    """Squared-dipole ratio of spin-preserving to spin-flipping optical decay.

    Returns math.inf when the spin-flipping channel is numerically dark
    (denominator below 1e-30).  Raises DegenerateStates when the two lowest
    eigenstates are degenerate within 1 Hz, since the labeling of |e0> and
    |e1> would be arbitrary.
    """
    values = eig.values
    if abs(values[1] - values[0]) < TWO_PI * 1.0:
        raise DegenerateStates("E0 and E1 degenerate within 1 Hz; ordering ambiguous")
    e0 = eig.vectors[:, 0]
    e1 = eig.vectors[:, 1]
    e4 = eig.vectors[:, 4]
    num = 0.0
    den = 0.0
    for dip in _DIPOLES:
        num += abs(np.vdot(e0, dip @ e4)) ** 2
        den += abs(np.vdot(e1, dip @ e4)) ** 2
    if den < 1e-30:
        return math.inf
    return num / den


def derived_observables(eig: Eigensystem):
    """Frequency observables (Hz) and cyclicity from an 8-level eigensystem."""
    e = eig.values / TWO_PI
    return DerivedObservables(
        omega_L_e=e[1] - e[0],
        delta_ss=(e[5] - e[1]) - (e[4] - e[0]),
        delta_gs=0.5 * (e[2] + e[3]) - 0.5 * (e[0] + e[1]),
        cyclicity=cyclicity(eig),
    )


def observables_at(epsilon, alpha, theta, b_field, defect=DefectConstants(),
                   constants=PhysicalConstants()):
    """Forward model: (epsilon, alpha, theta) + field magnitude -> observables."""
    h = build_hamiltonian(defect, StrainField(epsilon, alpha),
                          FieldConfig(b_field, theta), constants)
    return derived_observables(hermitian_eig(h))


def delta_gs_zero_field(epsilon, lambda_g=DefectConstants.lambda_g):
    """Closed-form ground-state splitting at B = 0: sqrt(lambda_g^2 + 8 eps^2)."""
    return math.sqrt(lambda_g ** 2 + 8.0 * epsilon ** 2)


# unit-strain direction of the gerade strain term, used by the Orbach rate
_UNIT_STRAIN_G = _kron3(_PROJ_G, _OZ + SX, IDENTITY2)


def orbach_rate(eig: Eigensystem, s: StrainField, temperature,
                constants=PhysicalConstants()):
    """Relative two-phonon Orbach spin-relaxation rate (proportionality constant 1).

    Cubic gap factor times a Bose occupation of the upper orbital branch,
    weighted by the interference of unit-strain matrix elements between the
    two ground-branch doublets.  Only ratios between calls are meaningful;
    normalization to a grid maximum is the caller's concern.
    """
    if not temperature > 0:
        raise ValueError("temperature must be > 0")
    e = eig.values / TWO_PI
    delta_gs = 0.5 * (e[2] + e[3]) - 0.5 * (e[0] + e[1])
    x = delta_gs / (constants.boltzmann_over_h * temperature)
    if x > 700.0:
        bose = 0.0
    else:
        bose = 1.0 / math.expm1(x)
    vec = eig.vectors
    d = lambda i, j: np.vdot(vec[:, i], _UNIT_STRAIN_G @ vec[:, j])
    d02, d12, d03, d13 = d(0, 2), d(1, 2), d(0, 3), d(1, 3)
    num = abs(d02 * np.conj(d12) + d03 * np.conj(d13)) ** 2
    den = abs(d02) ** 2 + abs(d12) ** 2 + abs(d03) ** 2 + abs(d13) ** 2
    if den < 1e-30:
        return 0.0
    return delta_gs ** 3 * bose * num / den


DEFAULT_BOUNDS = ((0.0, 1e12), (0.1, 2.0), (0.0, 60.0))  # epsilon (Hz), alpha, theta (deg)


def estimation_cost(params, targets, b_field, defect=DefectConstants(),
                    constants=PhysicalConstants(), bounds=DEFAULT_BOUNDS):
    """Relative-squared mismatch over the four observables, +inf outside physics."""
    eps, alpha, theta = params
    penalty = 0.0
    lo_hi = list(zip(*bounds))
    clipped = np.clip(params, lo_hi[0], lo_hi[1])
    penalty = 1e3 * float(np.sum(((params - clipped) / (np.array(lo_hi[1]) - np.array(lo_hi[0]))) ** 2))
    eps, alpha, theta = clipped
    try:
        obs = observables_at(eps, alpha, theta, b_field, defect, constants)
    except DegenerateStates:
        return math.inf
    cost = 0.0
    for model, target in zip(obs.as_tuple(), targets):
        if not math.isfinite(model):
            return math.inf
        cost += ((model - target) / target) ** 2
    return cost + penalty


def estimate_parameters(targets, b_field=None, larmor_n=3.5857929e6,
                        bounds=DEFAULT_BOUNDS, defect=DefectConstants(),
                        constants=PhysicalConstants()):
    """Estimate (epsilon, alpha, theta) from measured observables.

    targets -- (omega_L_e, delta_ss, delta_gs, cyclicity), Hz/Hz/Hz/ratio
    b_field -- field magnitude (T); defaults to larmor_n / gyromag_13C

    Multi-start Nelder-Mead (8 deterministic starts on a coarse grid inside
    the bounds box).  The ``converged`` flag is False when the best cost
    stalls above 1e-2; the best point is reported either way.
    """
    targets = tuple(float(t) for t in targets)
    if len(targets) != 4 or not all(math.isfinite(t) and t > 0 for t in targets):
        raise ValueError("targets must be four finite positive numbers")
    if b_field is None:
        b_field = field_from_nuclear_larmor(larmor_n, constants)

    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    span = hi - lo
    starts = [np.array([fe, fa, ft])
              for fe in (1.0 / 3.0, 2.0 / 3.0)
              for fa in (1.0 / 3.0, 2.0 / 3.0)
              for ft in (1.0 / 3.0, 2.0 / 3.0)]

    # optimize in box-normalized coordinates so the simplex tolerances are
    # meaningful across the very different parameter scales
    cost = lambda u: estimation_cost(lo + u * span, targets, b_field,
                                     defect, constants, bounds)
    best = None
    for start in starts:
        res = optimize.minimize(
            cost, start, method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 500})
        candidate = (float(res.fun), tuple(float(v) for v in lo + res.x * span))
        if best is None or candidate < best:
            best = candidate
    cost_opt, opt = best
    eps, alpha, theta = (float(v) for v in np.clip(opt, lo, hi))
    obs = observables_at(eps, alpha, theta, b_field, defect, constants)
    return EstimationResult(
        strain=StrainField(eps, alpha),
        theta=theta,
        cost=cost_opt,
        converged=bool(cost_opt <= 1e-2),
        observables=obs,
    )
