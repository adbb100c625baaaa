"""8-level electronic model of a strained SiV center.

Basis ordering: parity {g, u} (slowest) x orbital {e_x, e_y} x spin {down, up}
(fastest).  Spin-orbit, orbital and spin Zeeman and strain act inside one
parity manifold, so H = H_g (+) H_u, plus the optical offset -f_c/2 (g),
+f_c/2 (u) that sets the lowest g -> u transition to c /
transition_C_wavelength.  Both 4x4 blocks are sums of one set of six orbital
x spin operators; each is solved once, and the 8-level Eigensystem holds the
ground manifold at indices 0..3 and the excited one at 4..7.  The forward
model (observables_and_jacobian, observables_at) reads its observables from
the offset-free block eigenvalues and, for the strain estimate, their
analytic derivatives in (epsilon, alpha, theta).

Inputs are ordinary frequencies (Hz); the assembled Hamiltonian and the
Eigensystems derived from it are angular (rad/s).  derived_observables
reads the same observables (Hz) from an 8-level Eigensystem, where they
carry the rounding of the ~2e14 Hz optical offset.
"""

import functools
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
             (1978)), J the analytic Jacobian of observables_and_jacobian
             that the steps use.
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


# optical dipole operators entering the cyclicity ratio: SX on the parity slot,
# so each couples g and u through one 4x4 block of _DIPOLE_BLOCKS
_DIPOLE_BLOCKS = np.stack((_STRAIN_Z, -_STRAIN_X, 2.0 * _EYE4))
_DIPOLES = tuple(kron(SX, d) for d in _DIPOLE_BLOCKS)


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


# the operators the parameter derivatives of a block are made of: strain
# pair, orbital Zeeman, spin x, spin z
_DERIVATIVE_OPS = np.stack((_STRAIN_Z + _STRAIN_X, _ORB, _SPIN_X, _SPIN_Z)).reshape(4, 16)


def _block_derivatives(c: DefectConstants, s: StrainField, f: FieldConfig):
    """d H_b / d (epsilon, alpha, theta) of the blocks of _parity_blocks.

    Shape (block g/u, param, 4, 4), in Hz per Hz, Hz and Hz per degree.
    epsilon and alpha enter through the strain pair (epsilon on g, alpha
    epsilon on u); theta only through the field terms, with d(bx, bz)/d theta
    = (bz, -bx) per radian.
    """
    theta = math.radians(f.theta)
    bx, bz = f.magnitude * math.sin(theta), f.magnitude * math.cos(theta)
    k = math.radians(1.0) * _MU_B
    coef = [[[strain_eps, 0.0, 0.0, 0.0], [strain_alpha, 0.0, 0.0, 0.0],
             [0.0, -k * p * g_l * bx, k * c.gS * bz, -k * (c.gS + 2.0 * d_p * g_l) * bx]]
            for strain_eps, strain_alpha, p, g_l, d_p in (
                (1.0, 0.0, c.p_g, c.gL_g, c.deltaP_g),
                (s.alpha, s.epsilon, c.p_u, c.gL_u, c.deltaP_u))]
    return (np.array(coef) @ _DERIVATIVE_OPS).reshape(2, 3, 4, 4)


@functools.lru_cache(maxsize=1)
def _block_solve(epsilon, alpha, theta, b_field):
    """The parity-block solves at one point: (constants, strain, field, eig_g, eig_u).

    Keeps the latest point: the strain estimate asks for each Jacobian at the point it
    has just evaluated, and that call reuses the solve."""
    c, s, f = DefectConstants(), StrainField(epsilon, alpha), FieldConfig(b_field, theta)
    _, (eig_g, eig_u), _ = _parity_blocks(c, s, f)
    return c, s, f, eig_g, eig_u


def observables_and_jacobian(epsilon, alpha, theta, b_field, jacobian=True):
    """Forward model and its analytic Jacobian from one solve of each parity block.

    Returns (DerivedObservables, jac) with jac[i, j] = d observable_i /
    d parameter_j, shape (4, 3), the parameters being epsilon (Hz), alpha and
    theta (degrees); jac is None when jacobian is False.  All four
    observables come from the offset-free block eigenvalues e_g, e_u (Hz):
    omega_L_e = e_g1 - e_g0, delta_ss = (e_u1 - e_u0) - (e_g1 - e_g0),
    delta_gs the mean gap of the upper and lower g pairs; cyclicity as in
    cyclicity().  Eigenvalue derivatives are Hellmann-Feynman, <v_n|dH|v_n>
    (Feynman, Phys. Rev. 56, 340 (1939)); the cyclicity also needs the
    first-order shifts dv_n = sum_{m != n} v_m <v_m|dH|v_n> / (E_n - E_m) of
    g0, g1 and u0 inside their blocks.  Raises DegenerateStates when e_g0 and
    e_g1 lie within 1 Hz.  The block solve of the latest point is kept (_block_solve).
    """
    c, s, f, eig_g, eig_u = _block_solve(epsilon, alpha, theta, b_field)
    e_g, e_u = eig_g.values / TWO_PI, eig_u.values / TWO_PI
    if e_g[1] - e_g[0] < 1.0:
        raise DegenerateStates("E0 and E1 degenerate within 1 Hz; ordering ambiguous")
    g01, u0 = eig_g.vectors[:, :2], eig_u.vectors[:, 0]
    dip_u0 = _DIPOLE_BLOCKS @ u0                      # (dipole, 4)
    amp = g01.conj().T @ dip_u0.T                     # <g_n| d |u0>, (n, dipole)
    num, den = np.sum(np.abs(amp) ** 2, axis=1)
    cyc = math.inf if den < 1e-30 else float(num / den)
    omega_l = e_g[1] - e_g[0]
    obs = DerivedObservables(
        omega_L_e=omega_l,
        delta_ss=(e_u[1] - e_u[0]) - omega_l,
        delta_gs=0.5 * (e_g[2] + e_g[3]) - 0.5 * (e_g[0] + e_g[1]),
        cyclicity=cyc,
    )
    if not jacobian:
        return obs, None

    vecs = np.stack((eig_g.vectors, eig_u.vectors))
    # <v_m| dH/dp |v_n> in each block, (block, param, m, n)
    m = np.swapaxes(vecs.conj(), 1, 2)[:, None] @ _block_derivatives(c, s, f) @ vecs[:, None]
    de_g, de_u = m.diagonal(axis1=2, axis2=3).real
    d_omega = de_g[:, 1] - de_g[:, 0]
    d_dss = (de_u[:, 1] - de_u[:, 0]) - d_omega
    d_dgs = 0.5 * (de_g[:, 2] + de_g[:, 3]) - 0.5 * (de_g[:, 0] + de_g[:, 1])

    # first-order shifts d v_n = sum_{m != n} v_m m_mn / (E_n - E_m): gap[m, n]
    # = E_n - E_m, infinite on the diagonal so v_n gets no component along itself
    e = np.stack((e_g, e_u))
    gap = e[:, None, :] - e[:, :, None] + np.diag(np.full(4, math.inf))
    dv = vecs[:, None] @ (m / gap[:, None])
    dg01, du0 = dv[0, :, :, :2], dv[1, :, :, 0]
    # d <g_n| d |u0> = <dg_n| d |u0> + <g_n| d |du0>, (param, n, dipole)
    d_amp = (np.einsum("pin,di->pnd", dg01.conj(), dip_u0)
             + np.einsum("in,dij,pj->pnd", g01.conj(), _DIPOLE_BLOCKS, du0))
    d_num, d_den = 2.0 * np.sum((amp.conj() * d_amp).real, axis=2).T
    d_cyc = (d_num - cyc * d_den) / den
    return obs, np.array([d_omega, d_dss, d_dgs, d_cyc])


def observables_at(epsilon, alpha, theta, b_field):
    """Forward model: (epsilon, alpha, theta) + field magnitude -> observables.

    The value half of observables_and_jacobian: two 4x4 block solves.
    """
    return observables_and_jacobian(epsilon, alpha, theta, b_field, jacobian=False)[0]


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


def _relative_jacobian(params, targets, b_field):
    """d _relative_observables / d params, (4, 3); nan on DegenerateStates."""
    try:
        _, jac = observables_and_jacobian(*params, b_field)
    except DegenerateStates:
        return np.full((4, 3), math.nan)
    return jac / targets[:, None]


def estimation_cost(params, targets, b_field):
    """Relative-squared mismatch over the four observables, +inf outside physics."""
    return float(np.sum((_relative_observables(params, targets, b_field) - 1.0) ** 2))


def estimate_parameters(targets, b_field=None, larmor_n=3.5857929e6):
    """Estimate (epsilon, alpha, theta) from measured observables.

    targets -- (omega_L_e, delta_ss, delta_gs, cyclicity), Hz/Hz/Hz/ratio
    b_field -- field magnitude (T); defaults to larmor_n / gyromag_13C

    Multi-start Levenberg-Marquardt (fitting.least_squares on the four
    relative residuals, from 8 deterministic starts at 1/3 and 2/3 of each
    DEFAULT_BOUNDS side).  Its steps use the analytic Jacobian of
    observables_and_jacobian, and so does the covariance behind the sigmas (see
    EstimationResult).  The ``converged`` flag is False when the best cost
    stalls above 1e-2; the best point is reported either way.
    """
    targets = np.array([float(t) for t in targets])
    if len(targets) != 4 or not all(math.isfinite(t) and t > 0 for t in targets):
        raise ValueError("targets must be four finite positive numbers")
    if b_field is None:
        b_field = field_from_nuclear_larmor(larmor_n)

    model = fitting.ModelSpec(
        "strain", _STRAIN_PARAMS,
        lambda x, *p: _relative_observables(p, targets, b_field),
        jacobian=lambda x, p: _relative_jacobian(p, targets, b_field))
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
