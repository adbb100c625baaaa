"""8-level electronic model of a strained SiV center.

Basis ordering: parity {g, u} (slowest) x orbital {e_x, e_y} x spin {down, up}
(fastest).  Spin-orbit, orbital and spin Zeeman and strain act inside one
parity manifold, so H = H_g (+) H_u, plus the optical offset -f_c/2 (g),
+f_c/2 (u) that sets the lowest g -> u transition to c /
transition_C_wavelength.  Both 4x4 blocks are sums of one set of six orbital
x spin operators; each is solved once, and the 8-level Eigensystem holds the
ground manifold at indices 0..3 and the excited one at 4..7.

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


# --- operators of one parity block (orbital x spin) --------------------------

# The spin slot uses linalg.SX/SZ (SZ = |up><up| - |down><down|); the orbital
# slot keeps the standard (+1, -1) convention of _OY and _OZ, with sigma_x = SX.
_OY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_OZ = np.diag([1.0, -1.0]).astype(complex)

# spin-orbit (L_z sigma_z with L_z = -sigma_y orbital), orbital Zeeman
# (quenched, symmetry axis only), spin x, spin z, strain along _OZ and strain
# along SX (transverse strain in the orbital doublet), shared by both blocks
_SO, _ORB, _SPIN_X, _SPIN_Z, _STRAIN_Z, _STRAIN_X = (
    kron(-_OY, SZ), kron(-_OY, IDENTITY2), kron(IDENTITY2, SX / 2.0),
    kron(IDENTITY2, SZ / 2.0), kron(_OZ, IDENTITY2), kron(SX, IDENTITY2))
_EYE4 = np.eye(4, dtype=complex)
_MU_B = PhysicalConstants().bohr_magneton_over_h


def _direct_sum(g, u):
    """The 8x8 matrix g (+) u: g on the gerade indices 0..3, u on 4..7."""
    out = np.zeros((8, 8), dtype=complex)
    out[:4, :4], out[4:, 4:] = g, u
    return out


def field_from_nuclear_larmor(larmor_n):
    """Field magnitude (T) implied by a 13C nuclear Larmor frequency (Hz)."""
    return larmor_n / PhysicalConstants().gyromag_13C


def _parity_blocks(c: DefectConstants, s: StrainField, f: FieldConfig):
    """Assemble the g and u blocks and solve each once.

    Returns the two 4x4 blocks (Hz, no offset), their Eigensystems (rad/s,
    no offset) and the offset f_c (Hz) that pins the lowest u <- g gap to
    c / transition_C_wavelength.
    """
    theta = math.radians(f.theta)
    bx, bz = f.magnitude * math.sin(theta), f.magnitude * math.cos(theta)
    blocks = []
    for lam, p, g_l, d_p, eps in ((c.lambda_g, c.p_g, c.gL_g, c.deltaP_g, s.epsilon),
                                  (c.lambda_u, c.p_u, c.gL_u, c.deltaP_u, s.alpha * s.epsilon)):
        h = -lam / 2.0 * _SO
        h += _MU_B * p * g_l * bz * _ORB
        # spin Zeeman, full vector, plus its small anisotropy correction
        h += _MU_B * c.gS * bx * _SPIN_X
        h += _MU_B * c.gS * bz * _SPIN_Z
        h += _MU_B * 2.0 * d_p * g_l * bz * _SPIN_Z
        h += eps * _STRAIN_Z
        h += eps * _STRAIN_X
        blocks.append(h)
    eig_g, eig_u = (hermitian_eig(TWO_PI * h) for h in blocks)
    # divide first: subtracting at the rad/s scale would move f_c by an ulp
    gap = eig_u.values[0] / TWO_PI - eig_g.values[0] / TWO_PI
    return blocks, (eig_g, eig_u), SPEED_OF_LIGHT / c.transition_C_wavelength - gap


def build_hamiltonian(c: DefectConstants, s: StrainField, f: FieldConfig):
    """The 8x8 electronic Hamiltonian (rad/s): H_g - f_c/2 (+) H_u + f_c/2.

    Each block adds its terms in the order of the term-by-term Kronecker
    assembly, whose spin x/z and strain pairs have disjoint support, so H
    equals that assembly bit for bit (tests/test_electronic.py keeps it as
    the oracle).
    """
    (h_g, h_u), _, f_c = _parity_blocks(c, s, f)
    return TWO_PI * _direct_sum(h_g - f_c / 2.0 * _EYE4, h_u + f_c / 2.0 * _EYE4)


def eigensystem(c: DefectConstants, s: StrainField, f: FieldConfig):
    """Eigensystem of build_hamiltonian (rad/s) from the two block solves, no 8x8 solve.

    values are 2 pi [e_g - f_c/2, e_u + f_c/2]; vectors are embedded block by block.
    """
    _, (eig_g, eig_u), f_c = _parity_blocks(c, s, f)
    values = TWO_PI * np.concatenate((eig_g.values / TWO_PI - f_c / 2.0,
                                      eig_u.values / TWO_PI + f_c / 2.0))
    return Eigensystem(values, _direct_sum(eig_g.vectors, eig_u.vectors))


# optical dipole operators entering the cyclicity ratio: SX on the parity slot
_DIPOLES = tuple(kron(SX, d) for d in (_STRAIN_Z, -_STRAIN_X, 2.0 * _EYE4))


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
    return derived_observables(eigensystem(DefectConstants(), StrainField(epsilon, alpha),
                                           FieldConfig(b_field, theta)))


def delta_gs_zero_field(epsilon):
    """Closed-form ground-state splitting at B = 0: sqrt(lambda_g^2 + 8 eps^2)."""
    return math.sqrt(DefectConstants.lambda_g ** 2 + 8.0 * epsilon ** 2)


# unit-strain direction of the gerade strain term, used by the Orbach rate
_UNIT_STRAIN_G = _direct_sum(_STRAIN_Z + _STRAIN_X, np.zeros((4, 4)))


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
