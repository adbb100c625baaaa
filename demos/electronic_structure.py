"""Fine-structure tour: strain + field -> spectra, and back again.

Forward-models the eight-level defect Hamiltonian at the inferred working
point, inverts the four measured observables to recover (epsilon, alpha,
theta), checks the zero-field closed form, and sketches the two-phonon
relaxation curve implied by the strained orbital gap.
"""

import math

import numpy as np

from sivreg import electronic

B_FIELD = 0.3348577        # T, from the nuclear Larmor frequency
TARGETS = (9.431e9, 254.654e6, 1110.755e9, 816.285)

print("== forward model at the working point ==")
obs = electronic.observables_at(392.3119e9, 0.6837, 28.118, B_FIELD)
print("electron splitting    %8.4f GHz" % (obs.omega_L_e / 1e9))
print("spin-spin difference  %8.3f MHz" % (obs.delta_ss / 1e6))
print("orbital splitting     %8.3f GHz" % (obs.delta_gs / 1e9))
print("optical cyclicity     %8.1f" % obs.cyclicity)

print("\n== invert the measured observables ==")
res = electronic.estimate_parameters(TARGETS)
print("epsilon = %.2f GHz, alpha = %.4f, theta = %.2f deg (cost %.1e)"
      % (res.strain.epsilon / 1e9, res.strain.alpha, res.theta, res.cost))
for name, got, want in zip(("omega_L_e", "delta_ss", "delta_gs", "cyclicity"),
                           res.observables.as_tuple(), TARGETS):
    print("  %-10s %14.6g  (target %14.6g, %+.3f%%)"
          % (name, got, want, 100.0 * (got - want) / want))

print("\n== zero-field closed form ==")
for eps in (200e9, 392e9, 700e9):
    eig = electronic.eigensystem(electronic.StrainField(eps, 0.68),
                                 electronic.FieldConfig(0.0, 0.0))
    levels = eig.values / (2.0 * math.pi)
    split = 0.5 * (levels[2] + levels[3]) - 0.5 * (levels[0] + levels[1])
    closed = electronic.delta_gs_zero_field(eps)
    print("eps = %4.0f GHz: diagonalized %9.4f GHz, closed form %9.4f GHz"
          % (eps / 1e9, split / 1e9, closed / 1e9))

print("\n== two-phonon relaxation vs temperature (normalized at 10 K) ==")
strain = res.strain
eig = electronic.eigensystem(strain, electronic.FieldConfig(B_FIELD, res.theta))
temperatures = np.array([3.0, 4.0, 5.0, 7.0, 10.0])
rates = np.array([electronic.orbach_rate(eig, t) for t in temperatures])
for t, r in zip(temperatures, rates / rates[-1]):
    print("T = %4.1f K: rate %10.3e" % (t, r))
