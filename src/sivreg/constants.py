"""Constants shared across layers, in a module that imports nothing.

The physical constants serve the electronic model and the fit registry.
T_PI_DEFAULT (sequences) and RABI_MAX (optics) live here because the CLI
reads them when it loads, to fill its defaults and its help text: the CLI
so loads no layer before it knows the subcommand.
"""

BOHR_MAGNETON_OVER_H = 13.996245e9  # Hz/T
BOLTZMANN_OVER_H = 20.836619e9      # Hz/K
GYROMAG_13C = 10.7084e6             # Hz/T

T_PI_DEFAULT = 55.715e-9  # s, microwave pi-pulse duration used throughout
RABI_MAX = 1.14422658e9   # Hz, accepted maximum calibrated optical drive
