"""Dense complex linear algebra kernel.

Kronecker products (of two matrices or of two stacks, broadcast), Hermitian
eigendecomposition (LAPACK ``eigh``) and unitary propagators for the small
matrices this package works with (dim <= 16: the electronic parity blocks are
4x4, electron + two nuclei is 8x8).

Eigensystem values follow the internal convention of the package: whatever
units the Hamiltonian was assembled in (angular frequency, rad/s, for all
physics modules here).

SweepResult, the record every sweep of sequences and optics returns, lives
here, in the one module both import, so optics needs no sequences.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

DIM_CAP = 16

# Pauli matrices of one spin in the (down, up) ordering: index 0 is spin down
# and SZ = diag(-1, +1).
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SZ = np.diag([-1.0, 1.0]).astype(complex)
IDENTITY2 = np.eye(2, dtype=complex)


class NotHermitian(ValueError):
    """Raised when a matrix fails the Hermiticity tolerance."""


@dataclass
class Eigensystem:
    """Sorted eigendecomposition of a Hermitian matrix.

    values  -- real eigenvalues, ascending (angular frequency, rad/s, for
               Hamiltonians built by this package)
    vectors -- orthonormal eigenvectors as columns, vectors[:, i] <-> values[i]

    For a stack of matrices both carry the stack's leading axes.
    """

    values: np.ndarray
    vectors: np.ndarray


@dataclass
class SweepResult:
    """Sweep axis plus a bounded signal and optional auxiliary observables."""

    axis: np.ndarray
    signal: np.ndarray
    aux: Optional[dict] = None
    name: str = ""
    axis_label: str = ""

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=float)
        self.signal = np.asarray(self.signal, dtype=float)
        if self.axis.shape != self.signal.shape:
            raise ValueError("axis and signal lengths differ")
        if not (np.all(np.isfinite(self.axis)) and np.all(np.isfinite(self.signal))):
            raise ValueError("axis and signal values must be finite")
        if self.signal.size and (self.signal.min() < -1e-9 or self.signal.max() > 1 + 1e-9):
            raise ValueError("signal values must lie in [0, 1]")
        if self.aux:
            for key, values in self.aux.items():
                if len(values) != self.axis.size:
                    raise ValueError("aux %r length differs from axis" % key)


def _as_square(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them, got shape %r"
                         % (a.shape,))
    if a.shape[-1] > DIM_CAP:
        raise ValueError("dimension %d exceeds the cap of %d" % (a.shape[-1], DIM_CAP))
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def kron(a, b):
    """Kronecker product, left factor slowest, of two square matrices or stacks
    (..., m, m) and (..., n, n) broadcast over their leading axes: (..., mn, mn).
    Each entry is the one product a_ij b_kl, as ``np.kron`` forms it."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if any(m.ndim < 2 or m.shape[-1] != m.shape[-2] for m in (a, b)):
        raise ValueError("kron expects two square matrices or stacks of them")
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    n = a.shape[-1] * b.shape[-1]
    return out.reshape(out.shape[:-4] + (n, n))


def _squared_norms(a):
    """Squared Frobenius norm of each matrix of a complex stack."""
    v = np.ascontiguousarray(a).view(float)
    return np.einsum("...ij,...ij->...", v, v)


def _require_hermitian(h, h_dag):
    """Raise NotHermitian unless each matrix of h is within a 1e-10 relative
    Frobenius tolerance of its adjoint h_dag: ||h - h^dag|| <= 1e-10 max(||h||, 1).
    Returns whether every matrix equals its adjoint exactly."""
    defect = h - h_dag
    if not defect.any():
        return True
    defect2 = _squared_norms(defect)
    scale2 = _squared_norms(h)
    bad = defect2 > 1e-20 * np.maximum(scale2, 1.0)
    if bad.any():
        index = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        raise NotHermitian(
            "matrix%s is not Hermitian: ||h - h^dag|| = %.3e (scale %.3e)"
            % (" %s" % (index,) if index else "", math.sqrt(defect2[index]),
               math.sqrt(scale2[index])))
    return False


def hermitian_eig(h):
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a (..., d, d)
    stack, by LAPACK (``numpy.linalg.eigh``).

    Returns an Eigensystem with ascending eigenvalues (values (..., d), vectors
    (..., d, d)); one finiteness scan, one Hermiticity check and one ``eigh``
    serve the whole stack.  Raises NotHermitian, naming the index of the first
    offending matrix of a stack, if a matrix is not Hermitian within the 1e-10
    relative Frobenius tolerance of ``_require_hermitian``.
    """
    h = _as_square(h)
    h_dag = h.conj().swapaxes(-1, -2)
    if not _require_hermitian(h, h_dag):
        # Work on the exactly Hermitian part so roundoff in the input cannot
        # leak imaginary components into the eigenvalues.
        h = 0.5 * (h + h_dag)
    values, vectors = np.linalg.eigh(h)
    return Eigensystem(values=values, vectors=vectors)


def propagator_from_eig(eig, t):
    """exp(-i H t) assembled from a precomputed Eigensystem of H.

    An array of times gives the stack of propagators, shape t.shape + (d, d).
    """
    phases = np.exp(-1j * np.multiply.outer(t, eig.values))
    return (eig.vectors * phases[..., None, :]) @ eig.vectors.conj().T
