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
and solves their (K, 2, 4, 4) blocks as one stack.

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


def _direct_sum(g, u):
    """The 8x8 matrix g (+) u: g on the gerade indices 0..3, u on 4..7."""
    out = np.zeros((8, 8), dtype=complex)
    out[:4, :4], out[4:, 4:] = g, u
    return out


def field_from_nuclear_larmor(larmor_n):
    """Field magnitude (T) implied by a 13C nuclear Larmor frequency (Hz)."""
    return larmor_n / GYROMAG_13C


def _field_xz(theta, b_field):
    """Field components (bx, bz) (T) for a list of polar angles theta (deg), by
    the scalar sine and cosine of each."""
    bxz = b_field * np.array([(math.sin(r), math.cos(r)) for r in map(math.radians, theta)])
    return bxz[:, 0], bxz[:, 1]


# the seven terms of a block in the order of the term-by-term assembly:
# spin-orbit, orbital Zeeman, spin x, spin z and its anisotropy correction, and
# the strain pair; and the per-block (g, u) factors of the first five
# coefficients, each product formed in the order of that assembly
_TERMS = np.stack((_SO, _ORB, _SPIN_X, _SPIN_Z, _SPIN_Z, _STRAIN_Z, _STRAIN_X))[:, None, None]
_K_SO = np.array([-LAMBDA_G / 2.0, -LAMBDA_U / 2.0])
_K_FIELD = np.array([[_MU_B * P_G * GL_G, _MU_B * P_U * GL_U],                   # bz
                     [_MU_B * G_S] * 2,                                           # bx
                     [_MU_B * G_S] * 2,                                           # bz
                     [_MU_B * 2.0 * DELTA_P_G * GL_G, _MU_B * 2.0 * DELTA_P_U * GL_U]])  # bz


def _block_stack(epsilon, alpha, bx, bz):
    """Assemble the g and u blocks of K points and solve them as one stack.

    Takes arrays of shape (K,).  Returns the (K, 2, 4, 4) blocks (Hz, no
    offset), their stacked Eigensystem (rad/s, no offset) and the offsets f_c
    (Hz, shape (K,)) that pin each lowest u <- g gap to
    c / TRANSITION_C_WAVELENGTH.
    """
    coef = np.empty((len(_TERMS), epsilon.size, 2))     # (term, K, block)
    coef[0] = _K_SO
    coef[1:5] = _K_FIELD[:, None, :] * np.array([bz, bx, bz, bz])[..., None]
    coef[5:, :, 0] = epsilon
    coef[5:, :, 1] = alpha * epsilon
    # the terms added one by one, as the assembly does: a running sum, not a reduction
    h = np.add.accumulate(coef[..., None, None] * _TERMS)[-1]
    eig = hermitian_eig(TWO_PI * h)
    # divide first: subtracting at the rad/s scale would move f_c by an ulp
    gap = eig.values[:, 1, 0] / TWO_PI - eig.values[:, 0, 0] / TWO_PI
    return h, eig, SPEED_OF_LIGHT / TRANSITION_C_WAVELENGTH - gap


def _parity_blocks(s: StrainField, f: FieldConfig):
    """_block_stack at one point: its two blocks (2, 4, 4), their Eigensystem
    (values (2, 4), vectors (2, 4, 4)) and f_c."""
    h, eig, f_c = _block_stack(np.array([s.epsilon]), np.array([s.alpha]),
                               *_field_xz([f.theta], f.magnitude))
    return h[0], Eigensystem(eig.values[0], eig.vectors[0]), f_c[0]


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


_K_DEG = math.radians(1.0) * _MU_B
_K_DORB = np.array([-_K_DEG * P_G * GL_G, -_K_DEG * P_U * GL_U])
_K_DSPIN_X = _K_DEG * G_S
_K_DSPIN_Z = np.array([-_K_DEG * (G_S + 2.0 * DELTA_P_G * GL_G),
                       -_K_DEG * (G_S + 2.0 * DELTA_P_U * GL_U)])


def _block_derivatives(epsilon, alpha, bx, bz):
    """d H_b / d (epsilon, alpha, theta) of the blocks of _block_stack.

    Shape (K, block g/u, param, 4, 4), in Hz per Hz, Hz and Hz per degree.
    epsilon and alpha enter through the strain pair (epsilon on g, alpha
    epsilon on u); theta only through the field terms, with d(bx, bz)/d theta
    = (bz, -bx) per radian.
    """
    coef = np.zeros((epsilon.size, 2, 3, 4))
    coef[:, 0, 0, 0] = 1.0
    coef[:, 1, 0, 0] = alpha
    coef[:, 1, 1, 0] = epsilon
    coef[:, :, 2, 1] = _K_DORB * bx[:, None]
    coef[:, :, 2, 2] = (_K_DSPIN_X * bz)[:, None]
    coef[:, :, 2, 3] = _K_DSPIN_Z * bx[:, None]
    return (coef @ _DERIVATIVE_OPS).reshape(epsilon.size, 2, 3, 4, 4)


def observables_and_jacobian(epsilon, alpha, theta, b_field, jacobian=True):
    """Forward model and its analytic Jacobian from one solve of each parity block.

    epsilon (Hz), alpha and theta (degrees) are scalars or arrays of one shape
    (K,); b_field (T) is one magnitude.  For arrays, returns (obs, jac):
    obs[k] = (omega_L_e, delta_ss, delta_gs, cyclicity), shape (K, 4), and
    jac[k, i, j] = d observable_i / d parameter_j, shape (K, 4, 3), or None
    when jacobian is False; the 2K blocks are checked and solved as one
    hermitian_eig stack.  A row whose e_g0 and e_g1 lie within 1 Hz, where
    the state labelling by energy order is ambiguous, reads inf in obs and
    nan in jac.  For scalars, returns (DerivedObservables, jac of shape (4, 3))
    and raises DegenerateStates for such a point.

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
    scalar = np.ndim(epsilon) == 0
    obs, jacobian_of = _forward_stack(epsilon, alpha, theta, b_field)
    if scalar and obs[0, 0] == math.inf:
        raise DegenerateStates("E0 and E1 degenerate within 1 Hz; ordering ambiguous")
    jac = jacobian_of(slice(None)) if jacobian else None
    if scalar:
        return DerivedObservables(*obs[0].tolist()), None if jac is None else jac[0]
    return obs, jac


def _forward_stack(epsilon, alpha, theta, b_field):
    """observables_and_jacobian of K points as (obs, jacobian_of): obs of shape
    (K, 4), from one hermitian_eig stack of their 2K blocks, and jacobian_of(rows),
    which forms the (len(rows), 4, 3) Jacobian of the chosen rows (a slice or an
    increasing index list) from the eigenvectors of that same solve.  Row for
    row, both equal the full stack's bit for bit."""
    epsilon, alpha, theta = (np.array(v, dtype=float, ndmin=1)
                             for v in (epsilon, alpha, theta))
    theta_list = theta.tolist()
    if any(v < 0 for v in epsilon.tolist()):
        raise ValueError("epsilon must be >= 0")
    if not all(v > 0 for v in alpha.tolist()):
        raise ValueError("alpha must be > 0")
    if b_field < 0:
        raise ValueError("field magnitude must be >= 0")
    if not all(0.0 <= v <= 90.0 for v in theta_list):
        raise ValueError("theta must lie in [0, 90] degrees")
    bx, bz = _field_xz(theta_list, b_field)
    _, eig, _ = _block_stack(epsilon, alpha, bx, bz)
    e, vecs = eig.values / TWO_PI, eig.vectors         # (K, block, 4), (K, block, 4, 4)
    e_g, e_u = e[:, 0], e[:, 1]
    degenerate = e_g[:, 1] - e_g[:, 0] < 1.0
    g01, u0 = vecs[:, 0, :, :2], vecs[:, 1, :, 0]
    dip_u0 = (_DIPOLE_BLOCKS @ u0[:, None, :, None])[..., 0]          # (K, dipole, 4)
    amp = g01.conj().swapaxes(-1, -2) @ dip_u0.swapaxes(-1, -2)     # <g_n| d |u0>, (K, n, dipole)
    sums = (np.abs(amp) ** 2).sum(axis=-1)
    num, den = sums[:, 0], sums[:, 1]
    obs = np.empty((e.shape[0], 4))
    obs[:, 0] = omega_l = e_g[:, 1] - e_g[:, 0]
    obs[:, 1] = (e_u[:, 1] - e_u[:, 0]) - omega_l
    obs[:, 2] = 0.5 * (e_g[:, 2] + e_g[:, 3]) - 0.5 * (e_g[:, 0] + e_g[:, 1])
    obs[:, 3] = cyc = np.divide(num, den, out=np.full_like(num, math.inf), where=~(den < 1e-30))
    obs[degenerate] = math.inf

    def jacobian_of(rows):
        e_r, vecs_r, amp_r, dip_r, cyc_r, den_r = (
            a[rows] for a in (e, vecs, amp, dip_u0, cyc, den))
        g01_r = vecs_r[:, 0, :, :2]
        with np.errstate(divide="ignore", invalid="ignore"):
            # <v_m| dH/dp |v_n> in each block, (K, block, param, m, n)
            m = (vecs_r.conj().swapaxes(-1, -2)[:, :, None]
                 @ _block_derivatives(epsilon[rows], alpha[rows], bx[rows], bz[rows])
                 @ vecs_r[:, :, None])
            de = m.diagonal(axis1=-2, axis2=-1).real
            de_g, de_u = de[:, 0], de[:, 1]                             # (K, param, 4)
            d_omega = de_g[..., 1] - de_g[..., 0]
            d_dss = (de_u[..., 1] - de_u[..., 0]) - d_omega
            d_dgs = 0.5 * (de_g[..., 2] + de_g[..., 3]) - 0.5 * (de_g[..., 0] + de_g[..., 1])

            # first-order shifts d v_n = sum_{m != n} v_m m_mn / (E_n - E_m): gap[m, n]
            # = E_n - E_m, infinite on the diagonal so v_n gets no component along itself
            gap = e_r[..., None, :] - e_r[..., :, None] + np.diag(np.full(4, math.inf))
            dv = vecs_r[:, :, None] @ (m / gap[:, :, None])
            dg01, du0 = dv[:, 0, :, :, :2], dv[:, 1, :, :, 0]
            # d <g_n| d |u0> = <dg_n| d |u0> + <g_n| d |du0>, (K, param, n, dipole)
            d_amp = (np.einsum("kpin,kdi->kpnd", dg01.conj(), dip_r)
                     + np.einsum("kin,dij,kpj->kpnd", g01_r.conj(), _DIPOLE_BLOCKS, du0))
            d_sums = 2.0 * (amp_r.conj()[:, None] * d_amp).real.sum(axis=-1)
            d_num, d_den = d_sums[..., 0], d_sums[..., 1]
            d_cyc = (d_num - cyc_r[:, None] * d_den) / den_r[:, None]
            jac = np.stack((d_omega, d_dss, d_dgs, d_cyc), axis=1)
            jac[degenerate[rows]] = math.nan
        return jac

    return obs, jacobian_of


def observables_at(epsilon, alpha, theta, b_field):
    """Forward model: (epsilon, alpha, theta) + field magnitude -> observables.

    The value half of observables_and_jacobian at one point: two 4x4 block solves.
    """
    return observables_and_jacobian(epsilon, alpha, theta, b_field, jacobian=False)[0]


def delta_gs_zero_field(epsilon):
    """Closed-form ground-state splitting at B = 0: sqrt(lambda_g^2 + 8 eps^2)."""
    return math.sqrt(LAMBDA_G ** 2 + 8.0 * epsilon ** 2)


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


# the 8 starts of the strain estimate: 1/3 and 2/3 of each DEFAULT_BOUNDS side
_STARTS = tuple({spec.name: lo + f * (hi - lo)
                 for spec, f, (lo, hi) in zip(_STRAIN_PARAMS, start, DEFAULT_BOUNDS)}
                for start in itertools.product((1.0 / 3.0, 2.0 / 3.0), repeat=3))


def _strain_model(targets, b_field):
    """The estimate's model: relative observables of (epsilon, alpha, theta), fitted
    to ones; each evaluation of a stack also returns the function that forms the
    Jacobians of its rows from the same solve (ModelSpec.evaluate)."""
    return fitting.ModelSpec("strain", _STRAIN_PARAMS,
                             lambda x, p: _relative_stack(p, targets, b_field))


def estimate_parameters(targets, b_field=None, larmor_n=3.5857929e6):
    """Estimate (epsilon, alpha, theta) from measured observables.

    targets -- (omega_L_e, delta_ss, delta_gs, cyclicity), Hz/Hz/Hz/ratio
    b_field -- field magnitude (T); defaults to larmor_n / gyromag_13C

    Multi-start Levenberg-Marquardt (fitting.least_squares_rows on the four
    relative residuals, from 8 deterministic starts at 1/3 and 2/3 of each
    DEFAULT_BOUNDS side, run as the 8 rows of one lockstep fit).  Each round
    evaluates the trial points of all starts still stepping as one stack, and
    forms the analytic Jacobians (observables_and_jacobian) of the accepted
    points only, from the eigenvectors of the same solve; that Jacobian
    serves the steps and the covariance behind the sigmas (see
    EstimationResult).  The ``converged`` flag is False when the best cost
    stalls above 1e-2; the best point is reported either way.  When every start
    fails, raises the kind of failure most of them met (SingularNormalMatrix or
    MaxIterations), with the count of each kind.
    """
    targets = np.array([float(t) for t in targets])
    if len(targets) != 4 or not all(math.isfinite(t) and t > 0 for t in targets):
        raise ValueError("targets must be four finite positive numbers")
    if b_field is None:
        b_field = field_from_nuclear_larmor(larmor_n)

    rows = fitting.least_squares_rows(_strain_model(targets, b_field), np.arange(4.0),
                                      np.ones((len(_STARTS), 4)), init=_STARTS)
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
        converged=bool(cost <= 1e-2),
        observables=observables_at(eps, alpha, theta, b_field),
        sigma=tuple(float(v) for v in best.sigma),
    )
