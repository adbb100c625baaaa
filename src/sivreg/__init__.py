"""sivreg: simulation and estimation toolkit for a strained SiV electron-nuclear spin register.

Subpackages/modules:
    linalg     -- dense complex linear algebra kernel (kron, LAPACK eigh eigensolver, propagators)
    electronic -- 8-level electronic Hamiltonian, the four observables and their Jacobian from
                  the parity blocks, strain estimation, Orbach rate
    register   -- electron + nuclear register model: parameters, state, Hamiltonian
    sequences  -- register propagation (Engine) and pulse-sequence experiments (Rabi, Ramsey,
                  DD, spin-lock, nuclear gates, RB)
    readout    -- optical pumping laws, single-shot-readout photon statistics and histogram fit
    optics     -- driven-dissipative two-level optical dipole dynamics
    fitting    -- Levenberg-Marquardt least squares (also behind the strain estimate), model registry
    constants  -- physical constants shared by electronic and fitting
    cli        -- command line front end

Unit convention: every public interface takes and returns ordinary frequencies in Hz
(the "/2pi" values); angular frequencies (rad/s) appear only internally.
"""

from . import linalg, electronic, register, sequences, readout, optics, fitting

__all__ = [
    "linalg",
    "electronic",
    "register",
    "sequences",
    "readout",
    "optics",
    "fitting",
]

__version__ = "0.1.0"
