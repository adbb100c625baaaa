"""Monte-Carlo single-shot readout of the nuclear spin.

Simulates photon-count windows with the published rates (bright 32, dark 10
counts per 3 ms window, 7% off-resonant ionization-like fraction, nuclear
repolarization time 41.6 ms), classifies by threshold, and fits the count
histogram with a three-component mixture.
"""

import numpy as np

from sivreg import readout

cfg = readout.SsrConfig(seed=0)
print("window %.1f ms over %d blocks, threshold %d counts"
      % (cfg.t_window / 1e-3, cfg.n_blocks, cfg.threshold))

record = readout.simulate_ssr(cfg, initial_nuclear="alternate", n_shots=20000)
result = readout.classify_threshold(record, cfg.threshold)
print("bright/dark classification fidelities: %.4f / %.4f"
      % (result.posterior_bright, result.posterior_dark))
print("conditioned on preparation instead:    %.4f / %.4f"
      % (result.fidelity_bright, result.fidelity_dark))
print("threshold equalizing the two error rates: %d counts"
      % result.equal_threshold)

bright = readout.simulate_ssr(cfg, initial_nuclear="bright", n_shots=20000)
loss = float(np.mean(bright.final_state == readout.DARK))
analytic = 1.0 - np.exp(-cfg.t_window / cfg.t_pol_n)
print("bright-state polarization loss per window: %.4f (analytic %.4f)"
      % (loss, analytic))

mixture = readout.fit_photon_histogram(record.counts)
print("count-histogram mixture components:")
for weight, mean, width in zip(mixture.weights, mixture.means, mixture.widths):
    print("  weight %.3f at %5.2f counts (width %.2f)" % (weight, mean, width))

# steady-state pumping numbers behind the window model
pump = readout.PumpParams(gamma0=96.251e6, eta=816.285, s=1.0)
print("optical pumping rate at saturation s=1: %.2f kHz"
      % (readout.polarization_rate(pump) / 1e3))
print("power-broadened linewidth at s=1: %.2f MHz"
      % (readout.saturation_linewidth(1.0, 96.251e6) / 1e6))
