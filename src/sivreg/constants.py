"""Physical constants shared by the electronic model and the fit registry."""

BOHR_MAGNETON_OVER_H = 13.996245e9  # Hz/T
BOLTZMANN_OVER_H = 20.836619e9      # Hz/K
GYROMAG_13C = 10.7084e6             # Hz/T
