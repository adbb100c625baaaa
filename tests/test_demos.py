"""Smoke tests: the demo scripts run to completion against the current API.

Each demo runs in a fresh interpreter, as a user would start it, and must
exit 0.  Two demos are left out because they are too slow for the suite:
``optical_link.py`` (about 23 s, dominated by the fixed-step RK4 Lindblad
integration) and ``electronic_structure.py`` (about 7 s, dominated by the
pure-Python Jacobi eigensolver).  Add them once those solvers are fast.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["nuclear_register.py", "electron_coherence.py", "curve_fitting.py",
         "single_shot_readout.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
