"""The forward model's bits, pinned: float.hex of its observables and Jacobians.

tests/golden/forward_model_bits.json holds, as float.hex strings, the
observables and analytic Jacobian of observables_and_jacobian at 64 points of
the strain-map box (seed 9), at the 7 edge points of the assembly test (b =
0 among them, whose rows read inf in the observables and nan in the
Jacobian) and at 2 points whose cyclicity reads inf, each as a one-point
stack, and of the 8 grid starts of the strain estimate as one K = 8 stack.  Every value is compared by its float.hex, so a
change that moves any of them by one bit, or flips the sign of a zero, fails
here.  A change that means to move them regenerates the file with

    PYTHONPATH=src python tests/test_forward_bits.py

and states the differences it accepts.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from sivreg import electronic

GOLDEN = Path(__file__).resolve().parent / "golden" / "forward_model_bits.json"
B_REF = 0.3348577
EPS_REF, ALPHA_REF, THETA_REF = 392.3119e9, 0.6837, 28.118
# the edge points of test_electronic.test_assembly_equals_the_kron_reference_exactly
EDGES = [(0.0, 0.68, 28.0, B_REF), (EPS_REF, ALPHA_REF, 0.0, B_REF),
         (EPS_REF, ALPHA_REF, 90.0, B_REF), (EPS_REF, ALPHA_REF, THETA_REF, 0.0),
         (EPS_REF, 0.1, THETA_REF, B_REF), (EPS_REF, 2.0, THETA_REF, B_REF),
         (0.0, 0.1, 90.0, 0.0)]
# at theta = 0 the spin-flipping dipole sum is below 1e-30 (first point) or exactly 0
# (second point), so the cyclicity reads inf and its derivatives inf or nan
CYCLICITY_EDGES = [(0.0, 0.68, 0.0, B_REF), (0.0, 1.0, 0.0, 1.0)]


def _box_points(n, seed):
    """Seeded points of the strain-map box, as test_electronic._strain_map_box draws them."""
    rng = np.random.default_rng(seed)
    return [(float(e), float(a), float(t), B_REF) for e, a, t in zip(
        rng.uniform(250e9, 550e9, n), rng.uniform(0.5, 0.9, n), rng.uniform(10.0, 38.0, n))]


def _hex(values):
    return np.vectorize(float.hex, otypes=[object])(np.asarray(values, dtype=float)).tolist()


def _stack_bits(points):
    """float.hex of obs (K, 4) and jac (K, 4, 3) of one stack at one field magnitude."""
    (b_field,) = {p[3] for p in points}
    epsilon, alpha, theta = (np.array(column) for column in list(zip(*points))[:3])
    obs, jac = electronic.observables_and_jacobian(epsilon, alpha, theta, b_field)
    return {"points": _hex(points), "obs": _hex(obs), "jac": _hex(jac)}


def forward_bits():
    """What the golden file holds: one one-point stack per point, and the K = 8 stack."""
    grid = [tuple(start.values()) + (B_REF,) for start in electronic._STARTS]
    return {"points": [_stack_bits([p])
                       for p in _box_points(64, seed=9) + EDGES + CYCLICITY_EDGES],
            "stack": _stack_bits(grid)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_one_point_stacks_and_the_grid_stack_keep_their_bits(golden):
    assert forward_bits() == golden


def test_the_scalar_forms_keep_the_bits_of_the_one_point_stacks(golden):
    checked = 0
    for row in golden["points"]:
        (point,), (obs,), (jac,) = row["points"], row["obs"], row["jac"]
        point = [float.fromhex(v) for v in point]
        if math.isinf(float.fromhex(obs[0])):
            with pytest.raises(electronic.DegenerateStates):
                electronic.observables_at(*point)
            continue
        one_obs, one_jac = electronic.observables_and_jacobian(*point)
        assert isinstance(one_obs, electronic.DerivedObservables)
        assert _hex(one_obs.as_tuple()) == obs and _hex(one_jac) == jac
        assert _hex(electronic.observables_at(*point).as_tuple()) == obs
        checked += 1
    assert checked == 71


if __name__ == "__main__":
    bits = forward_bits()   # one line per stack
    GOLDEN.write_text('{"points": [\n%s],\n "stack":\n%s}\n' % (
        ",\n".join(map(json.dumps, bits["points"])), json.dumps(bits["stack"])))
