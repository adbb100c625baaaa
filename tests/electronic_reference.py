"""The 8x8 reference for the electronic observables, kept as a test oracle.

derived_observables reads the four observables (Hz) from an 8-level
Eigensystem (rad/s), where they carry the rounding of the ~2e14 Hz optical
offset; sivreg.electronic.observables_and_jacobian reads them from the
offset-free parity-block eigenvalues.
"""

import math

import numpy as np

from sivreg.electronic import _DIPOLE_BLOCKS, TWO_PI, DegenerateStates, DerivedObservables
from sivreg.linalg import SX, Eigensystem, kron

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
