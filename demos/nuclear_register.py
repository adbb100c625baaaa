"""The carbon-13 register: conditional rotations, initialization, two-qubit gates.

Everything here runs on the strongly coupled nucleus (A_par = 621.75 kHz,
A_perp = 140.1 kHz) with the weakly coupled one riding along where it
matters.  Prints the full-rotation pulse number, the polarization reached by
the transfer gate, the single-nucleus probe bias, and the beating electron
Rabi trace that witnesses the nuclear-state-dependent drive.
"""

import math

import numpy as np

from sivreg import sequences
from sivreg.register import RegisterParams, nuclear_sigma_z
from sivreg.sequences import GateSpec, T_PI_DEFAULT

LARMOR = 3.5857929e6
HYP1 = (621.75027e3, 140.1041e3)
HYP2 = (50.0e3, 101.19309e3)

p1 = RegisterParams(hyperfine=(HYP1,), n_nuclei=1, larmor_n=LARMOR)
p2 = RegisterParams(hyperfine=(HYP1, HYP2), n_nuclei=2, larmor_n=LARMOR)

# --- conditional rotation: sweep the pulse number at tau = T_L/2 - T_pi ----
tau_rot = 0.5 / LARMOR - T_PI_DEFAULT
sweep = sequences.run_nuclear_rotation(p1, None, tau_rot, range(0, 211))
n_star = sequences.extract_full_rotation(sweep.axis, sweep.aux["nuclear_sigma_z"])
print("conditional rotation: full turn at N = %d pulses" % n_star)
print("  -> rotation rate 1/(N T_L/2) = %.2f kHz"
      % (1.0 / (n_star * 0.5 / LARMOR) / 1e3))
quarter = sequences.calibrate_quarter_rotation(p1, tau_rot, force_even=True)
print("  quarter rotation (even N): %d pulses" % quarter)

# --- polarization transfer into the nuclear spin ---------------------------
gate = GateSpec(kind="UI", tau=81.5e-9, n_pulses=42, t_pi=T_PI_DEFAULT)
f_ie = 0.806
state = sequences.nuclear_init_gate(p2, None, gate, f_ie)
for i in range(2):
    sz = nuclear_sigma_z(state.rho, i)
    print("nucleus %d after transfer gate: sigma_z = %+.4f (population %.3f)"
          % (i, sz, 0.5 * (1.0 - sz)))

contrast = {}
for label, params in (("single-nucleus model", p1), ("two-nucleus model", p2)):
    contrast[label] = (
        sequences.ui_probe_signal(params, None, gate, f_ie)
        - sequences.ui_probe_signal(params, None, gate, f_ie, flip_first=True))
    print("probe contrast, %s: %.4f" % (label, contrast[label]))
print("single-nucleus analysis overestimates the probe by %.2fx"
      % (contrast["single-nucleus model"] / contrast["two-nucleus model"]))

# --- nuclear-state-dependent electron Rabi (two-tone beat) ------------------
a_par = HYP1[0]
omega = a_par / math.sqrt(3.0)
p_beat = RegisterParams(detuning=0.5 * a_par, hyperfine=((a_par, 0.0),),
                        n_nuclei=1, larmor_n=LARMOR)
times = np.linspace(0.0, 12e-6, 1600)
beat = np.asarray(sequences.run_rabi(p_beat, None, omega, times).signal)
spectrum = np.abs(np.fft.rfft((beat - beat.mean()) * np.hanning(beat.size),
                              n=2 ** 18))
axis = np.fft.rfftfreq(2 ** 18, times[1] - times[0])
main = int(np.argmax(spectrum))
away = np.abs(axis - axis[main]) > 0.6 * axis[main]
second = int(np.argmax(np.where(away, spectrum, 0.0)))
print("electron Rabi at Omega = A_par/sqrt(3) = %.1f kHz beats at %.1f and "
      "%.1f kHz" % (omega / 1e3, axis[main] / 1e3, axis[second] / 1e3))

# --- calibrated two-qubit gates ---------------------------------------------
cenotn = sequences.calibrate_cenotn(p1)
print("CeNOTn calibration: tau = %.2f ns, N = %d (unconditional %.2f ns, N=%d)"
      % (cenotn.tau / 1e-9, cenotn.n_pulses, cenotn.uncond_tau / 1e-9,
         cenotn.uncond_n))
cnnote = sequences.calibrate_cnnote(p1)
print("CnNOTe calibration: drive %.2f kHz = A_par/sqrt(3) (%.2f kHz)"
      % (cnnote.rabi / 1e3, omega / 1e3))
tm = sequences.transfer_matrix(p1, None, cenotn, 1.0, 1.0)
print("CeNOTn truth table (rows = prepared, columns = read):")
for i in range(4):
    print("  %s  " % tm.labels[i]
          + "  ".join("%.3f" % v for v in tm.matrix[i]))
