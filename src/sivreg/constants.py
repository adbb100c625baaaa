"""Physical constants shared by the electronic model and the fit registry."""

from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    bohr_magneton_over_h: float = 13.996245e9  # Hz/T
    boltzmann_over_h: float = 20.836619e9      # Hz/K
    gyromag_13C: float = 10.7084e6             # Hz/T
