"""sivreg: simulation and estimation toolkit for a strained SiV electron-nuclear spin register.

Subpackages/modules:
    linalg     -- dense complex linear algebra kernel (kron, LAPACK eigh eigensolver,
                  propagators) and the SweepResult every sweep returns
    electronic -- 8-level electronic Hamiltonian, the four observables and their Jacobian from
                  the parity blocks, strain estimation, Orbach rate
    register   -- electron + nuclear register model: parameters, state, Hamiltonian
    sequences  -- register propagation (Engine) and pulse-sequence experiments (Rabi, Ramsey,
                  DD, spin-lock, nuclear gates, RB)
    readout    -- optical pumping laws, single-shot-readout photon statistics and histogram fit
    optics     -- driven-dissipative two-level optical dipole dynamics
    fitting    -- Levenberg-Marquardt least squares (also behind the strain estimate), model registry
    constants  -- physical constants and the defaults the CLI reads when it loads
    cli        -- command line front end

``import sivreg`` loads no module: each name of ``__all__`` is imported on
first access (``sivreg.optics``, ``from sivreg import fitting``), by the
module ``__getattr__`` of PEP 562, so a ``sivreg`` subcommand loads only
the layers it runs.

Unit convention: every public interface takes and returns ordinary frequencies in Hz
(the "/2pi" values); angular frequencies (rad/s) appear only internally.
"""

import importlib

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


def __getattr__(name):
    if name in __all__:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
