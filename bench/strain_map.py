"""Workload ``strain_map``: characterise one emitter per operation.

The seed draws (epsilon, alpha, theta) uniformly from a box around the
paper's working point, inside ``DEFAULT_BOUNDS``, at the default field.  An
operation estimates the parameters from the forward observables of that point
(a sequential chain of scalar forward calls), then evaluates a local
(epsilon, theta) map of independent forward points around the estimate.
Generating the targets is not timed.  ``register``, ``optics`` and
``readout`` do none of this work.
"""

import math

import numpy as np

from harness import Op, require, require_finite

LARMOR_N = 3.5857929e6
# epsilon (Hz), alpha, theta (deg).  theta stays below 38 deg: further up, at
# low strain, delta_ss turns negative and the estimator's positive-target
# contract excludes the point.
BOX = ((250e9, 550e9), (0.5, 0.9), (10.0, 38.0))
MAP_SIDE = {"full": 8, "tiny": 2}
MAP_SPAN = (0.05, 5.0)   # relative epsilon half-width, theta half-width (deg)


def warm_up():
    """One small untimed call into each layer this workload uses."""
    from sivreg import electronic
    b_field = electronic.field_from_nuclear_larmor(LARMOR_N)
    electronic.observables_at(392e9, 0.68, 28.0, b_field)


def draw_emitter(seed, index):
    """Generating point and its four target observables (untimed)."""
    from sivreg import electronic
    b_field = electronic.field_from_nuclear_larmor(LARMOR_N)
    rng = np.random.default_rng([seed, index])
    while True:
        point = tuple(float(rng.uniform(lo, hi)) for lo, hi in BOX)
        targets = electronic.observables_at(*point, b_field).as_tuple()
        if all(math.isfinite(t) and t > 0 for t in targets):
            return point, tuple(float(t) for t in targets)


def make_pass(seed, index, ctx):
    from sivreg import electronic

    b_field = electronic.field_from_nuclear_larmor(LARMOR_N)
    # the traced half of a traced run repeats the untraced half's emitters,
    # drawn before tracing started
    key = ("emitter", seed, index)
    if key not in ctx.cache:
        ctx.cache[key] = draw_emitter(seed, index)
    point, targets = ctx.cache[key]
    side = MAP_SIDE[ctx.scale]

    def characterise():
        est = electronic.estimate_parameters(targets, larmor_n=LARMOR_N)
        eps_grid = est.strain.epsilon * (1.0 + MAP_SPAN[0] * np.linspace(-1.0, 1.0, side))
        theta_grid = np.clip(est.theta + MAP_SPAN[1] * np.linspace(-1.0, 1.0, side), 0.0, 90.0)
        with ctx.span("bench.map") as span:
            rows = [electronic.observables_at(float(e), est.strain.alpha, float(t),
                                              b_field).as_tuple()
                    for e in eps_grid for t in theta_grid]
            span.items += len(rows)
        return est, rows

    def check(out):
        est, rows = out
        eps, alpha, theta = point
        require_finite([est.strain.epsilon, est.strain.alpha, est.theta, est.cost],
                       "estimate")
        require_finite(rows, "forward map")
        require(abs(est.strain.epsilon / eps - 1.0) <= 1e-3
                and abs(est.strain.alpha / alpha - 1.0) <= 1e-3
                and abs(est.theta - theta) <= 0.1,
                "estimate (%r, %r, %r) misses the generating point"
                % (est.strain.epsilon, est.strain.alpha, est.theta))
        ctx.recovered += 1

    inputs = {"seed": seed, "emitter": index, "epsilon": point[0], "alpha": point[1],
              "theta": point[2]}
    return [Op("characterise", inputs, characterise, check)]

