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

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import fitting
from .constants import PhysicalConstants
from .linalg import IDENTITY2, SX, SZ, Eigensystem, hermitian_eig, kron

SPEED_OF_LIGHT = 299792458.0  # m/s
TWO_PI = 2.0 * math.pi


class DegenerateStates(RuntimeError):
    """State labeling by energy order is ambiguous (E0 and E1 coincide)."""


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
    """Static magnetic field: magnitude (T) and polar angle theta (deg), in the x-z plane."""

    magnitude: float
    theta: float = 0.0

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
    """Best start of the strain estimate.

    sigma -- one-standard-deviation uncertainties (epsilon in Hz, alpha,
             theta in degrees) from the best start's Levenberg-Marquardt
             covariance s^2 (J^T J)^-1, s^2 the residual sum of squares per
             degree of freedom (More, Lecture Notes in Mathematics 630, 105
             (1978)).  A sigma is nan when the best point sits at a
             DEFAULT_BOUNDS edge: the covariance step there meets the +inf
             residual outside the bounds.
    """

    strain: StrainField
    theta: float
    cost: float
    converged: bool
    observables: DerivedObservables
    sigma: Tuple[float, float, float]


# --- operators in the parity x orbital x spin product basis -----------------

# Parity (g, u) and spin (down, up) slots use linalg.SX/SZ, so on the
# parity slot SZ = |u><u| - |g><g|; the orbital slot keeps the standard
# (+1, -1) convention of _OY and _OZ, with sigma_x = SX.
_PROJ_G = np.diag([1.0, 0.0]).astype(complex)
_PROJ_U = np.diag([0.0, 1.0]).astype(complex)

_OY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_OZ = np.diag([1.0, -1.0]).astype(complex)


def _kron3(a, b, c):
    return kron(kron(a, b), c)


def _manifold_operators(proj):
    """The six Hamiltonian operators of one parity manifold, in assembly order.

    spin-orbit (L_z sigma_z with L_z = -sigma_y orbital), orbital Zeeman
    (quenched, symmetry axis only), spin x, spin z, strain along _OZ and
    strain along SX (transverse strain in the orbital doublet).
    """
    return (_kron3(proj, -_OY, SZ), _kron3(proj, -_OY, IDENTITY2),
            _kron3(proj, IDENTITY2, SX / 2.0), _kron3(proj, IDENTITY2, SZ / 2.0),
            _kron3(proj, _OZ, IDENTITY2), _kron3(proj, SX, IDENTITY2))


_OPS_G = _manifold_operators(_PROJ_G)
_OPS_U = _manifold_operators(_PROJ_U)
_PARITY = _kron3(SZ, IDENTITY2, IDENTITY2)
_MU_B = PhysicalConstants().bohr_magneton_over_h


def field_from_nuclear_larmor(larmor_n):
    """Field magnitude (T) implied by a 13C nuclear Larmor frequency (Hz)."""
    return larmor_n / PhysicalConstants().gyromag_13C


def build_hamiltonian(c: DefectConstants, s: StrainField, f: FieldConfig):
    """Assemble the 8x8 electronic Hamiltonian (rad/s).

    H is a sum of scalar coefficients times the operators precomputed in
    _OPS_G/_OPS_U, plus the parity offset: no Kronecker product is formed
    per call.  The terms are added in the order of the term-by-term
    Kronecker assembly, and the spin x/z and strain pairs it added as one
    term have disjoint support, so H equals that assembly bit for bit
    (tests/test_electronic.py keeps it as the oracle).
    """
    theta = math.radians(f.theta)
    bx = f.magnitude * math.sin(theta)
    bz = f.magnitude * math.cos(theta)

    h = np.zeros((8, 8), dtype=complex)
    manifolds = [
        (_OPS_G, c.lambda_g, c.p_g, c.gL_g, c.deltaP_g, s.epsilon),
        (_OPS_U, c.lambda_u, c.p_u, c.gL_u, c.deltaP_u, s.alpha * s.epsilon),
    ]
    for (so, orb, spin_x, spin_z, strain_z, strain_x), lam, p, g_l, d_p, eps in manifolds:
        h += -lam / 2.0 * so
        h += _MU_B * p * g_l * bz * orb
        # spin Zeeman, full vector, plus its small anisotropy correction
        h += _MU_B * c.gS * bx * spin_x
        h += _MU_B * c.gS * bz * spin_z
        h += _MU_B * 2.0 * d_p * g_l * bz * spin_z
        h += eps * strain_z
        h += eps * strain_x

    # additive parity offset: pin the lowest u <- g gap to the optical C line
    e_g = hermitian_eig(TWO_PI * h[0:4, 0:4]).values / TWO_PI
    e_u = hermitian_eig(TWO_PI * h[4:8, 4:8]).values / TWO_PI
    f_c = SPEED_OF_LIGHT / c.transition_C_wavelength - (e_u[0] - e_g[0])
    h = h + f_c / 2.0 * _PARITY
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


def observables_at(epsilon, alpha, theta, b_field):
    """Forward model: (epsilon, alpha, theta) + field magnitude -> observables."""
    h = build_hamiltonian(DefectConstants(), StrainField(epsilon, alpha),
                          FieldConfig(b_field, theta))
    return derived_observables(hermitian_eig(h))


def delta_gs_zero_field(epsilon):
    """Closed-form ground-state splitting at B = 0: sqrt(lambda_g^2 + 8 eps^2)."""
    return math.sqrt(DefectConstants.lambda_g ** 2 + 8.0 * epsilon ** 2)


# unit-strain direction of the gerade strain term, used by the Orbach rate
_UNIT_STRAIN_G = _kron3(_PROJ_G, _OZ + SX, IDENTITY2)


def orbach_rate(eig: Eigensystem, temperature):
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
    x = delta_gs / (PhysicalConstants().boltzmann_over_h * temperature)
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
_STRAIN_PARAMS = tuple(map(fitting.ParamSpec, ("epsilon", "alpha", "theta"), ("Hz", "", "deg"),
                           DEFAULT_BOUNDS))


def _relative_observables(params, targets, b_field):
    """Model observables over targets; +inf outside DEFAULT_BOUNDS or on DegenerateStates."""
    if not all(lo <= v <= hi for v, (lo, hi) in zip(params, DEFAULT_BOUNDS)):
        return np.full(4, math.inf)
    try:
        obs = observables_at(*params, b_field)
    except DegenerateStates:
        return np.full(4, math.inf)
    return np.array(obs.as_tuple()) / targets


def estimation_cost(params, targets, b_field):
    """Relative-squared mismatch over the four observables, +inf outside physics."""
    return float(np.sum((_relative_observables(params, targets, b_field) - 1.0) ** 2))


def estimate_parameters(targets, b_field=None, larmor_n=3.5857929e6):
    """Estimate (epsilon, alpha, theta) from measured observables.

    targets -- (omega_L_e, delta_ss, delta_gs, cyclicity), Hz/Hz/Hz/ratio
    b_field -- field magnitude (T); defaults to larmor_n / gyromag_13C

    Multi-start Levenberg-Marquardt (fitting.least_squares on the four
    relative residuals, from 8 deterministic starts at 1/3 and 2/3 of each
    DEFAULT_BOUNDS side).  The ``converged`` flag is False when the best cost
    stalls above 1e-2; the best point is reported either way, with the
    sigmas of its covariance (see EstimationResult).
    """
    targets = np.array([float(t) for t in targets])
    if len(targets) != 4 or not all(math.isfinite(t) and t > 0 for t in targets):
        raise ValueError("targets must be four finite positive numbers")
    if b_field is None:
        b_field = field_from_nuclear_larmor(larmor_n)

    model = fitting.ModelSpec("strain", _STRAIN_PARAMS,
                              lambda x, *p: _relative_observables(p, targets, b_field))
    fits = []
    for start in itertools.product((1.0 / 3.0, 2.0 / 3.0), repeat=3):
        init = {name: lo + f * (hi - lo)
                for name, f, (lo, hi) in zip(model.param_names, start, DEFAULT_BOUNDS)}
        try:
            fits.append(fitting.least_squares(model, np.arange(4.0), np.ones(4), init=init))
        except (fitting.SingularNormalMatrix, fitting.MaxIterations):
            pass   # the other starts still count
    if not fits:
        raise fitting.SingularNormalMatrix("no start of the strain estimate converged")
    best = min(fits, key=lambda fit: fit.residual_norm)
    eps, alpha, theta = (float(v) for v in best.params)
    cost = best.residual_norm ** 2
    return EstimationResult(
        strain=StrainField(eps, alpha),
        theta=theta,
        cost=cost,
        converged=bool(cost <= 1e-2),
        observables=observables_at(eps, alpha, theta, b_field),
        sigma=tuple(float(v) for v in best.sigma),
    )
