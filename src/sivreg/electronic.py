"""8-level electronic model of a strained SiV center.

Basis ordering: parity {g, u} (slowest) x orbital {e_x, e_y} x spin {down, up}
(fastest).  Spin-orbit, orbital and spin Zeeman and strain act inside one
parity manifold, so H = H_g (+) H_u, plus the optical offset -f_c/2 (g),
+f_c/2 (u) that sets the lowest g -> u transition to c /
TRANSITION_C_WAVELENGTH.  Both 4x4 blocks are sums of one set of six orbital
x spin operators; each is solved once, and the 8-level Eigensystem holds the
ground manifold at indices 0..3 and the excited one at 4..7.  The forward
model (observables_and_jacobian, observables_at) reads its observables from
the offset-free block eigenvalues and, for the strain estimate, their
analytic derivatives in (epsilon, alpha, theta); it takes arrays of points
and solves their (K, 2, 4, 4) blocks as one stack in numpy, with each point's
coefficients and observables in its Python floats (_forward_stack).  Nearly
every call is one point (K = 1); only the estimate's grid fallback has K = 8.
A point of observables_at takes 38 us of process time (42 us before; 2 cores).

The defect constants are the module constants below; a model point is a
StrainField and a FieldConfig.  Inputs are ordinary frequencies (Hz); the
assembled Hamiltonian and the Eigensystems derived from it are angular
(rad/s).
"""

import collections
import itertools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import fitting
from .constants import BOHR_MAGNETON_OVER_H as _MU_B, BOLTZMANN_OVER_H, GYROMAG_13C
from .linalg import IDENTITY2, SX, SZ, Eigensystem, hermitian_eig, kron

SPEED_OF_LIGHT = 299792458.0  # m/s
TWO_PI = 2.0 * math.pi

# defect constants (frequencies in Hz): spin-orbit coupling lambda, orbital
# quenching p, orbital g factor gL and spin-Zeeman anisotropy deltaP of the
# ground (g) and excited (u) manifolds, the spin g factor and the C-line
# wavelength
LAMBDA_G, LAMBDA_U = 50e9, 260e9
P_G, P_U = 0.308, 0.128
GL_G, GL_U = 0.328, 0.782
G_S = 2.0023
DELTA_P_G, DELTA_P_U = 0.003, 0.028
TRANSITION_C_WAVELENGTH = 736.9e-9  # m


class DegenerateStates(RuntimeError):
    """State labeling by energy order is ambiguous (E0 and E1 coincide)."""


# the domain of each input of the forward model, in the order it is checked
_DOMAINS = (("epsilon must be finite and >= 0", lambda v: 0.0 <= v < math.inf),
            ("alpha must be finite and > 0", lambda v: 0.0 < v < math.inf),
            ("field magnitude must be finite and >= 0", lambda v: 0.0 <= v < math.inf),
            ("theta must lie in [0, 90] degrees", lambda v: 0.0 <= v <= 90.0))


def _check_domains(*columns):
    """Raise the ValueError of the first input of _DOMAINS with a value outside it."""
    for (message, inside), values in zip(_DOMAINS, columns):
        if not all(map(inside, values)):
            raise ValueError(message)


@dataclass(frozen=True)
class StrainField:
    """Transverse strain epsilon (Hz) and ungerade/gerade ratio alpha."""

    epsilon: float
    alpha: float = 1.0

    def __post_init__(self):
        _check_domains([self.epsilon], [self.alpha])


@dataclass(frozen=True)
class FieldConfig:
    """Static magnetic field: magnitude (T) and polar angle theta (deg), in the x-z plane."""

    magnitude: float
    theta: float = 0.0

    def __post_init__(self):
        _check_domains((), (), [self.magnitude], [self.theta])


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
    """The strain estimate: its closed-form start or, on the fallback, the
    best start of the grid.

    sigma -- one-standard-deviation uncertainties (epsilon in Hz, alpha,
             theta in degrees) from that start's Levenberg-Marquardt
             covariance s^2 (J^T J)^-1, s^2 the residual sum of squares per
             degree of freedom (More, Lecture Notes in Mathematics 630, 105
             (1978)), J the analytic Jacobian of observables_and_jacobian
             that the steps use.
    path  -- "closed_form" when the one closed-form start gave the result,
             "grid" when it fell back to the 8-start grid.
    """

    strain: StrainField
    theta: float
    cost: float
    converged: bool
    observables: DerivedObservables
    sigma: Tuple[float, float, float]
    path: str


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


def _direct_sum(g, u):
    """The 8x8 matrix g (+) u: g on the gerade indices 0..3, u on 4..7."""
    out = np.zeros((8, 8), dtype=complex)
    out[:4, :4], out[4:, 4:] = g, u
    return out


def field_from_nuclear_larmor(larmor_n):
    """Field magnitude (T) implied by a 13C nuclear Larmor frequency (Hz)."""
    return larmor_n / GYROMAG_13C


# the seven terms of a block in the order of the term-by-term assembly:
# spin-orbit, orbital Zeeman, spin x, spin z and its anisotropy correction, and
# the strain pair; and the (g, u) factors of the first five coefficients
_TERMS = np.stack((_SO, _ORB, _SPIN_X, _SPIN_Z, _SPIN_Z, _STRAIN_Z, _STRAIN_X))[:, None]
_K_SO_G, _K_SO_U, _K_SPIN = -LAMBDA_G / 2.0, -LAMBDA_U / 2.0, _MU_B * G_S
_K_ORB_G, _K_ORB_U = _MU_B * P_G * GL_G, _MU_B * P_U * GL_U
_K_DP_G, _K_DP_U = _MU_B * 2.0 * DELTA_P_G * GL_G, _MU_B * 2.0 * DELTA_P_U * GL_U


def _block_stack(epsilon, alpha, theta, b_field):
    """Assemble the g and u blocks of K points (lists of floats, theta in degrees)
    and solve them as one stack.  Returns the (K, 2, 4, 4) blocks (Hz, no
    offset), their stacked Eigensystem (rad/s, no offset) and each point as
    (epsilon, alpha, bx, bz), with the field components bx and bz in T.
    """
    coef, points = [], []
    for eps, a, r in zip(epsilon, alpha, map(math.radians, theta)):
        bx, bz, eps_u = b_field * math.sin(r), b_field * math.cos(r), a * eps
        points.append((eps, a, bx, bz))
        coef += (_K_SO_G, _K_SO_U, _K_ORB_G * bz, _K_ORB_U * bz, _K_SPIN * bx, _K_SPIN * bx,
                 _K_SPIN * bz, _K_SPIN * bz, _K_DP_G * bz, _K_DP_U * bz, eps, eps_u, eps, eps_u)
    # a reduction over the term axis, not the innermost, adds the terms in order like the assembly
    h = np.add.reduce(np.array(coef).reshape(-1, 7, 2, 1, 1) * _TERMS, axis=1)
    return h, hermitian_eig(TWO_PI * h), points


def _parity_blocks(s: StrainField, f: FieldConfig):
    """_block_stack at one point: its two blocks (2, 4, 4), their Eigensystem
    (values (2, 4), vectors (2, 4, 4)) and the offset f_c (Hz) that pins the
    lowest u <- g gap to c / TRANSITION_C_WAVELENGTH."""
    h, eig, _ = _block_stack([s.epsilon], [s.alpha], [f.theta], f.magnitude)
    values = eig.values[0]
    # divide first: subtracting at the rad/s scale would move f_c by an ulp
    f_c = SPEED_OF_LIGHT / TRANSITION_C_WAVELENGTH - (values[1, 0] / TWO_PI - values[0, 0] / TWO_PI)
    return h[0], Eigensystem(values, eig.vectors[0]), f_c


def build_hamiltonian(s: StrainField, f: FieldConfig):
    """The 8x8 electronic Hamiltonian (rad/s): H_g - f_c/2 (+) H_u + f_c/2.

    Each block adds its terms in the order of the term-by-term Kronecker
    assembly, whose spin x/z and strain pairs have disjoint support, so H
    equals that assembly bit for bit (tests/test_electronic.py keeps it as
    the oracle).
    """
    (h_g, h_u), _, f_c = _parity_blocks(s, f)
    return TWO_PI * _direct_sum(h_g - f_c / 2.0 * _EYE4, h_u + f_c / 2.0 * _EYE4)


def eigensystem(s: StrainField, f: FieldConfig):
    """Eigensystem of build_hamiltonian (rad/s) from the two block solves, no 8x8 solve.

    values are 2 pi [e_g - f_c/2, e_u + f_c/2]; vectors are embedded block by block.
    """
    _, eig, f_c = _parity_blocks(s, f)
    (e_g, e_u), (v_g, v_u) = eig.values, eig.vectors
    values = TWO_PI * np.concatenate((e_g / TWO_PI - f_c / 2.0, e_u / TWO_PI + f_c / 2.0))
    return Eigensystem(values, _direct_sum(v_g, v_u))


# optical dipole operators entering the cyclicity ratio: each is SX on the parity
# slot times one of these 4x4 blocks, so it couples g and u through that block
_DIPOLE_BLOCKS = np.stack((_STRAIN_Z, -_STRAIN_X, 2.0 * _EYE4))


# the operators the parameter derivatives of a block are made of: strain
# pair, orbital Zeeman, spin x, spin z
_DERIVATIVE_OPS = np.stack((_STRAIN_Z + _STRAIN_X, _ORB, _SPIN_X, _SPIN_Z)).reshape(4, 16)


# added to the level gaps of a block in jacobian_of: infinite on the diagonal
_SELF_GAP = np.diag(np.full(4, math.inf))

_K_DEG = math.radians(1.0) * _MU_B
# the g and u factors of the theta derivative: orbital Zeeman (bx), spin x (bz), spin z (bx)
_K_DTHETA = ((-_K_DEG * P_G * GL_G, _K_DEG * G_S, -_K_DEG * (G_S + 2.0 * DELTA_P_G * GL_G)),
             (-_K_DEG * P_U * GL_U, _K_DEG * G_S, -_K_DEG * (G_S + 2.0 * DELTA_P_U * GL_U)))


def _block_derivatives(points):
    """d H_b / d (epsilon, alpha, theta) of the blocks of _block_stack at its points.

    Shape (K, block g/u, param, 4, 4), in Hz per Hz, Hz and Hz per degree.
    epsilon and alpha enter through the strain pair (epsilon on g, alpha
    epsilon on u); theta only through the field terms, with d(bx, bz)/d theta
    = (bz, -bx) per radian.
    """
    coef = []
    for eps, a, bx, bz in points:
        for (k_orb, k_sx, k_sz), d_eps, d_alpha in zip(_K_DTHETA, (1.0, a), (0.0, eps)):
            coef += (d_eps, 0.0, 0.0, 0.0, d_alpha, 0.0, 0.0, 0.0,
                     0.0, k_orb * bx, k_sx * bz, k_sz * bx)
    return (np.array(coef).reshape(-1, 2, 3, 4) @ _DERIVATIVE_OPS).reshape(-1, 2, 3, 4, 4)


def observables_and_jacobian(epsilon, alpha, theta, b_field, jacobian=True):
    """Forward model and its analytic Jacobian from one solve of each parity block.

    epsilon (Hz), alpha and theta (degrees) are scalars or arrays of one shape
    (K,); b_field (T) is one magnitude.  When any of the three is an array,
    returns (obs, jac): obs[k] = (omega_L_e, delta_ss, delta_gs, cyclicity),
    shape (K, 4), and jac[k, i, j] = d observable_i / d parameter_j, shape
    (K, 4, 3), or None when jacobian is False; the 2K blocks are checked and
    solved as one hermitian_eig stack.  A row whose e_g0 and e_g1 lie within
    1 Hz, where the state labelling by energy order is ambiguous, reads inf in
    obs and nan in jac.  For scalars, returns (DerivedObservables, jac of
    shape (4, 3)) and raises DegenerateStates for such a point.  An input
    outside its domain, nan or inf, raises a ValueError that names it.

    All four observables come from the offset-free block eigenvalues e_g, e_u
    (Hz): omega_L_e = e_g1 - e_g0, delta_ss = (e_u1 - e_u0) - (e_g1 - e_g0),
    delta_gs the mean gap of the upper and lower g pairs; cyclicity the
    squared-dipole ratio sum_d |<g0|d|u0>|^2 / sum_d |<g1|d|u0>|^2 of
    spin-preserving to spin-flipping optical decay over _DIPOLE_BLOCKS, and
    inf when the denominator is below 1e-30.  Eigenvalue derivatives are
    Hellmann-Feynman, <v_n|dH|v_n> (Feynman, Phys. Rev. 56, 340 (1939)); the
    cyclicity also needs the first-order shifts dv_n = sum_{m != n} v_m
    <v_m|dH|v_n> / (E_n - E_m) of g0, g1 and u0 inside their blocks.
    """
    scalar = all(isinstance(v, (int, float)) or np.ndim(v) == 0 for v in (epsilon, alpha, theta))
    obs, jacobian_of = _forward_stack(epsilon, alpha, theta, b_field)
    if not scalar:
        return obs, jacobian_of(slice(None)) if jacobian else None
    row = obs[0].tolist()
    if row[0] == math.inf:
        raise DegenerateStates("E0 and E1 degenerate within 1 Hz; ordering ambiguous")
    return DerivedObservables(*row), jacobian_of(slice(None))[0] if jacobian else None


def _forward_stack(epsilon, alpha, theta, b_field):
    """observables_and_jacobian of K points as (obs, jacobian_of): obs of shape
    (K, 4), from one hermitian_eig stack of their 2K blocks, and jacobian_of(rows),
    which forms the (len(rows), 4, 3) Jacobian of the chosen rows (a slice or an
    increasing index list) from the eigenvectors of that same solve.  Row for
    row, both equal the full stack's bit for bit.

    numpy runs the stack: the term sum, the one hermitian_eig, the amplitudes
    |<g_n|d|u0>| and the Jacobian's eigenvector products.  Each row's coefficients,
    observables and Jacobian entries are its Python floats, by the IEEE operations
    of the array form in its order.
    """
    epsilon, alpha, theta = [[float(v)] if isinstance(v, (int, float))
                             else np.array(v, dtype=float, ndmin=1).tolist()
                             for v in (epsilon, alpha, theta)]
    if not len(epsilon) == len(alpha) == len(theta):
        raise ValueError("epsilon, alpha and theta must have one shape")
    _check_domains(epsilon, alpha, [b_field], theta)
    _, eig, points = _block_stack(epsilon, alpha, theta, float(b_field))
    vecs = eig.vectors                                  # (K, block, 4, 4)
    dip_u0 = (_DIPOLE_BLOCKS @ vecs[:, None, 1, :, 0, None])[..., 0]   # d |u0>, (K, dipole, 4)
    amp = vecs[:, 0, :, :2].conj().mT @ dip_u0.mT       # <g_n| d |u0>, (K, n, dipole)
    obs_rows, sums = [], []
    for ((g0, g1, g2, g3), (u0, u1, _, _)), ((a0, a1, a2), (b0, b1, b2)) in zip(
            eig.values.tolist(), np.abs(amp).tolist()):
        # sum_d |<g_n|d|u0>|^2 of n = 0, 1, added in the order of the array sum
        num, den = (a0 * a0 + a1 * a1) + a2 * a2, (b0 * b0 + b1 * b1) + b2 * b2
        omega_l = g1 / TWO_PI - g0 / TWO_PI
        sums.append(den)
        obs_rows.append([math.inf] * 4 if omega_l < 1.0 else [
            omega_l, (u1 / TWO_PI - u0 / TWO_PI) - omega_l,
            0.5 * (g2 / TWO_PI + g3 / TWO_PI) - 0.5 * (g0 / TWO_PI + g1 / TWO_PI),
            math.inf if den < 1e-30 else num / den])
    obs = np.array(obs_rows)

    def jacobian_of(rows):
        picks = range(len(obs_rows))[rows] if isinstance(rows, slice) else rows
        e_r, vecs_r, amp_r, dip_r = (a[rows] for a in (eig.values / TWO_PI, vecs, amp, dip_u0))
        with np.errstate(divide="ignore", invalid="ignore"):
            # <v_m| dH/dp |v_n> in each block, (K, block, param, m, n)
            m = (vecs_r.conj().swapaxes(-1, -2)[:, :, None]
                 @ _block_derivatives([points[k] for k in picks])
                 @ vecs_r[:, :, None])
            # first-order shifts d v_n = sum_{m != n} v_m m_mn / (E_n - E_m): gap[m, n]
            # = E_n - E_m, infinite on the diagonal so v_n gets no component along itself
            gap = e_r[..., None, :] - e_r[..., :, None] + _SELF_GAP
            dv = vecs_r[:, :, None] @ (m / gap[:, :, None])
            # d <g_n|d|u0> = <dg_n|d|u0> + <g_n|d|du0>, (K, param, n, dipole); d|du0> exact
            d_du0 = (_DIPOLE_BLOCKS @ dv[:, 1, :, None, :, 0, None])[..., 0]
            d_amp = (np.einsum("kpin,kdi->kpnd", dv[:, 0, :, :, :2].conj(), dip_r)
                     + np.einsum("kin,kpdi->kpnd", vecs_r[:, 0, :, :2].conj(), d_du0))
            d_sums = 2.0 * (amp_r.conj()[:, None] * d_amp).real.sum(axis=-1)
        jac = []
        de = m.diagonal(axis1=-2, axis2=-1).real.tolist()           # (K, block, param, 4)
        for k, (de_g, de_u), d_sums_k in zip(picks, de, d_sums.tolist()):
            (omega_l, _, _, cyc), den = obs_rows[k], sums[k]
            d_omega = [d[1] - d[0] for d in de_g]
            d_cyc = [d_num - cyc * d_den for d_num, d_den in d_sums_k]
            jac += [math.nan] * 12 if omega_l == math.inf else (
                d_omega + [(du[1] - du[0]) - do for du, do in zip(de_u, d_omega)]
                + [0.5 * (d[2] + d[3]) - 0.5 * (d[0] + d[1]) for d in de_g]
                # d * inf is the IEEE d / +0.0, where Python would raise
                + [d / den if den else d * math.inf for d in d_cyc])
        return np.array(jac).reshape(-1, 4, 3)

    return obs, jacobian_of


def observables_at(epsilon, alpha, theta, b_field):
    """Forward model: (epsilon, alpha, theta) + field magnitude -> observables.

    The value half of observables_and_jacobian at one point: two 4x4 block solves.
    """
    return observables_and_jacobian(epsilon, alpha, theta, b_field, jacobian=False)[0]


def delta_gs_zero_field(epsilon):
    """Closed-form ground-state splitting at B = 0: sqrt(lambda_g^2 + 8 eps^2)."""
    return math.sqrt(LAMBDA_G ** 2 + 8.0 * epsilon ** 2)


def epsilon_from_delta_gs(delta_gs):
    """Inverse of delta_gs_zero_field: sqrt(max(delta_gs^2 - lambda_g^2, 0) / 8),
    so 0 for a splitting below lambda_g."""
    return math.sqrt(max((delta_gs - LAMBDA_G) * (delta_gs + LAMBDA_G), 0.0) / 8.0)


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
    x = delta_gs / (BOLTZMANN_OVER_H * temperature)
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
_STRAIN_PARAMS = tuple(map(fitting.ParamSpec, ("epsilon", "alpha", "theta"), DEFAULT_BOUNDS))


def _relative_stack(stack, targets, b_field):
    """Model observables over targets of a (K, 3) stack of (epsilon, alpha, theta)
    as (rel, jacobian_of), the strain model's evaluate: rel, shape (K, 4), is +inf
    at degenerate points; jacobian_of(rows) forms d rel / d params, (len(rows), 4,
    3), of the chosen rows (a slice or an increasing index list) only, from the
    solve that gave rel; nan at degenerate points.  The fit evaluates points
    inside DEFAULT_BOUNDS only: it clips its starts and its trial points into them."""
    obs, forward_jacobian = _forward_stack(*stack.T, b_field)
    return obs / targets, lambda rows: forward_jacobian(rows) / targets[:, None]


# the estimate's cost (sum of squared relative residuals) at or below which it
# is converged; a closed-form start that ends above it falls back to the grid
CONVERGED_COST = 1e-2

# the 8 starts of the strain estimate's grid: 1/3 and 2/3 of each DEFAULT_BOUNDS side
_STARTS = tuple({spec.name: lo + f * (hi - lo)
                 for spec, f, (lo, hi) in zip(_STRAIN_PARAMS, start, DEFAULT_BOUNDS)}
                for start in itertools.product((1.0 / 3.0, 2.0 / 3.0), repeat=3))


def _strain_model(targets, b_field):
    """The estimate's model: relative observables of (epsilon, alpha, theta), fitted
    to ones; each evaluation of a stack also returns the function that forms the
    Jacobians of its rows from the same solve (ModelSpec.evaluate)."""
    return fitting.ModelSpec("strain", _STRAIN_PARAMS,
                             lambda x, p: _relative_stack(p, targets, b_field))


def _closed_form_start(targets):
    """The estimate's first start: epsilon from the measured delta_gs through
    the zero-field closed form, alpha 0.7 and theta 30 deg."""
    return {"epsilon": epsilon_from_delta_gs(targets[2]), "alpha": 0.7, "theta": 30.0}


def _fit_rows(model, inits):
    """The strain model fitted from each start in inits, as the rows of one
    lockstep fit: a FitResult or the SingularNormalMatrix or MaxIterations
    that stopped it, per start."""
    return fitting.least_squares_rows(model, np.arange(4.0), np.ones((len(inits), 4)), init=inits)


def estimate_parameters(targets, b_field=None, larmor_n=3.5857929e6):
    """Estimate (epsilon, alpha, theta) from measured observables.

    targets -- (omega_L_e, delta_ss, delta_gs, cyclicity), Hz/Hz/Hz/ratio
    b_field -- field magnitude (T); defaults to larmor_n / gyromag_13C

    Levenberg-Marquardt (fitting.least_squares_rows) on the four relative
    residuals, first from one closed-form start: epsilon_from_delta_gs of the
    measured delta_gs (the zero-field splitting inverted), alpha 0.7 and theta
    30 deg.  When that start fails or ends above CONVERGED_COST, the estimate
    falls back to the grid: 8 deterministic starts at 1/3 and 2/3 of each
    DEFAULT_BOUNDS side, run as the 8 rows of one lockstep fit, of which the
    best is kept; the result then comes from the grid alone.  Each start stops
    by itself on the step and cost tests of fitting (XTOL, FTOL), so it ends
    once its steps reach the roundoff floor of the relative residuals.  Each
    round evaluates the trial points of all starts still stepping as one
    stack, and forms the analytic Jacobians (observables_and_jacobian) of the
    accepted points only, from the eigenvectors of the same solve; that Jacobian
    serves the steps and the covariance behind the sigmas (see
    EstimationResult).  The ``converged`` flag is False when the best cost
    stalls above CONVERGED_COST; the best point is reported either way.  When
    every grid start fails, raises the kind of failure most of them met
    (SingularNormalMatrix or MaxIterations), with the count of each kind.
    """
    targets = np.array([float(t) for t in targets])
    if len(targets) != 4 or not all(math.isfinite(t) and t > 0 for t in targets):
        raise ValueError("targets must be four finite positive numbers")
    if b_field is None:
        b_field = field_from_nuclear_larmor(larmor_n)

    model = _strain_model(targets, b_field)
    best, = _fit_rows(model, [_closed_form_start(targets)])
    path = "closed_form"
    if not (isinstance(best, fitting.FitResult) and best.residual_norm ** 2 <= CONVERGED_COST):
        path = "grid"
        rows = _fit_rows(model, _STARTS)
        # a start that failed (SingularNormalMatrix, MaxIterations) drops out; the others count
        fits = [fit for fit in rows if isinstance(fit, fitting.FitResult)]
        if not fits:
            # the failures' own kind, the most frequent one, with the count of each
            kinds = collections.Counter(type(fit) for fit in rows).most_common()
            raise kinds[0][0]("no start of the strain estimate converged: %s" % ", ".join(
                "%d %s" % (n, kind.__name__) for kind, n in kinds))
        best = min(fits, key=lambda fit: fit.residual_norm)
    eps, alpha, theta = (float(v) for v in best.params)
    cost = best.residual_norm ** 2
    return EstimationResult(
        strain=StrainField(eps, alpha),
        theta=theta,
        cost=cost,
        converged=bool(cost <= CONVERGED_COST),
        observables=observables_at(eps, alpha, theta, b_field),
        sigma=tuple(float(v) for v in best.sigma),
        path=path,
    )
