"""Electronic-structure model: closed forms, reference observables, estimator."""

import itertools
import math

import numpy as np
import pytest
from scipy import optimize

from electronic_reference import derived_observables
from sivreg import electronic
from sivreg.constants import BOHR_MAGNETON_OVER_H, BOLTZMANN_OVER_H
from sivreg.electronic import (DEFAULT_BOUNDS, DegenerateStates, FieldConfig,
                               StrainField, SPEED_OF_LIGHT,
                               build_hamiltonian, delta_gs_zero_field, eigensystem,
                               estimate_parameters, field_from_nuclear_larmor,
                               observables_at, orbach_rate)
from sivreg.fitting import MaxIterations, SingularNormalMatrix, least_squares, least_squares_rows
from sivreg.linalg import IDENTITY2, SX, SZ, Eigensystem, hermitian_eig, kron

# documented working point and its measured observables
EPS_REF = 392.3119e9
ALPHA_REF = 0.6837
THETA_REF = 28.118
B_REF = 0.3348577
TARGETS = (9.431e9, 254.654e6, 1110.755e9, 816.285)


def test_field_from_nuclear_larmor():
    b = field_from_nuclear_larmor(3.5857929e6)
    assert b == pytest.approx(0.3348577, rel=1e-6)


@pytest.mark.parametrize("epsilon", [0.0, 1e9, 50e9, 392e9, 1e12])
def test_zero_field_ground_splitting_closed_form(epsilon):
    # eigenvalue route (no field, orbital-only physics) vs the closed form
    h = build_hamiltonian(StrainField(epsilon, 1.0), FieldConfig(0.0, 0.0))
    e = hermitian_eig(h).values / (2 * math.pi)
    delta_gs = 0.5 * (e[2] + e[3]) - 0.5 * (e[0] + e[1])
    expected = delta_gs_zero_field(epsilon)
    assert delta_gs == pytest.approx(expected, rel=1e-9, abs=1e-3)


def _kron_reference_hamiltonian(s, f):
    """The term-by-term assembly: every operator is a fresh Kronecker product."""
    proj_g, proj_u = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    o_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    o_z = np.diag([1.0, -1.0]).astype(complex)

    def kron3(a, b, d):
        return kron(kron(a, b), d)

    theta = math.radians(f.theta)
    bx = f.magnitude * math.sin(theta)
    bz = f.magnitude * math.cos(theta)
    mu_b = BOHR_MAGNETON_OVER_H
    sx, sz = SX / 2.0, SZ / 2.0
    h = np.zeros((8, 8), dtype=complex)
    manifolds = [
        (proj_g, electronic.LAMBDA_G, electronic.P_G, electronic.GL_G, electronic.DELTA_P_G,
         s.epsilon, s.epsilon),
        (proj_u, electronic.LAMBDA_U, electronic.P_U, electronic.GL_U, electronic.DELTA_P_U,
         s.alpha * s.epsilon, s.alpha * s.epsilon),
    ]
    for proj, lam, p, g_l, d_p, eps_x, eps_y in manifolds:
        h += -lam / 2.0 * kron3(proj, -o_y, SZ)
        h += mu_b * p * g_l * bz * kron3(proj, -o_y, IDENTITY2)
        h += mu_b * electronic.G_S * kron3(proj, IDENTITY2, sx * bx + sz * bz)
        h += mu_b * 2.0 * d_p * g_l * bz * kron3(proj, IDENTITY2, sz)
        h += kron3(proj, eps_x * o_z + eps_y * SX, IDENTITY2)
    e_g = hermitian_eig(2 * math.pi * h[0:4, 0:4]).values / (2 * math.pi)
    e_u = hermitian_eig(2 * math.pi * h[4:8, 4:8]).values / (2 * math.pi)
    f_c = SPEED_OF_LIGHT / electronic.TRANSITION_C_WAVELENGTH - (e_u[0] - e_g[0])
    h = h + f_c / 2.0 * kron3(SZ, IDENTITY2, IDENTITY2)
    return 2 * math.pi * h


def test_assembly_equals_the_kron_reference_exactly():
    rng = np.random.default_rng(20)
    edges = [(0.0, 0.68, 28.0, B_REF), (EPS_REF, ALPHA_REF, 0.0, B_REF),
             (EPS_REF, ALPHA_REF, 90.0, B_REF), (EPS_REF, ALPHA_REF, THETA_REF, 0.0),
             (EPS_REF, 0.1, THETA_REF, B_REF), (EPS_REF, 2.0, THETA_REF, B_REF),
             (0.0, 0.1, 90.0, 0.0)]
    drawn = zip(rng.uniform(0.0, 1e12, 1000), rng.uniform(0.1, 2.0, 1000),
                rng.uniform(0.0, 90.0, 1000), rng.uniform(0.0, 1.0, 1000))
    for eps, alpha, theta, b in edges + list(drawn):
        s, f = StrainField(eps, alpha), FieldConfig(b, theta)
        assert np.array_equal(build_hamiltonian(s, f),
                              _kron_reference_hamiltonian(s, f)), (eps, alpha, theta, b)


def test_one_forward_call_forms_no_kron_and_solves_each_block_once(monkeypatch):
    calls = {"kron": [], "eig": []}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(np.shape(args[0]))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(electronic, "kron", counted("kron", electronic.kron))
    monkeypatch.setattr(electronic, "hermitian_eig",
                        counted("eig", electronic.hermitian_eig))
    observables_at(EPS_REF, ALPHA_REF, THETA_REF, B_REF)
    # one 4x4 solve per parity block, both in one stack, and no 8x8 solve
    assert calls == {"kron": [], "eig": [(1, 2, 4, 4)]}


def _strain_map_box(n, seed):
    """Seeded points of the strain-map box: eps 250-550 GHz, alpha 0.5-0.9, theta 10-38 deg."""
    rng = np.random.default_rng(seed)
    return zip(rng.uniform(250e9, 550e9, n), rng.uniform(0.5, 0.9, n), rng.uniform(10.0, 38.0, n))


def test_block_eigensystem_matches_the_full_eigensolve():
    b_field = field_from_nuclear_larmor(3.5857929e6)
    for eps, alpha, theta in _strain_map_box(300, seed=21):
        s, f = StrainField(eps, alpha), FieldConfig(b_field, theta)
        full = hermitian_eig(build_hamiltonian(s, f))
        np.testing.assert_allclose(eigensystem(s, f).values, full.values, rtol=1e-14)
        got = observables_at(eps, alpha, theta, b_field).as_tuple()
        want = derived_observables(full).as_tuple()
        for g, w, rtol in zip(got, want, (1e-10, 1e-7, 1e-12, 1e-8)):
            assert g == pytest.approx(w, rel=rtol), (eps, alpha, theta)


def test_block_observables_are_within_a_tenth_of_a_hertz_of_extended_precision():
    mpmath = pytest.importorskip("mpmath")
    b_field = field_from_nuclear_larmor(3.5857929e6)
    for eps, alpha, theta in _strain_map_box(5, seed=21):
        s, f = StrainField(eps, alpha), FieldConfig(b_field, theta)
        blocks, _, _ = electronic._parity_blocks(s, f)
        with mpmath.workdps(40):
            # the offset cancels in both splittings, so the float blocks suffice
            (g0, g1), (u0, u1) = (sorted(mpmath.eighe(mpmath.matrix((2 * math.pi * h).tolist()),
                                                      eigvals_only=True))[:2]
                                  for h in blocks)
            omega_l = float((g1 - g0) / (2 * math.pi))
            delta_ss = float(((u1 - u0) - (g1 - g0)) / (2 * math.pi))
        obs = observables_at(eps, alpha, theta, b_field)
        assert abs(obs.omega_L_e - omega_l) < 0.1, (eps, alpha, theta)
        # delta_ss comes from the offset-free block eigenvalues (about 7e-4 Hz off)
        assert abs(obs.delta_ss - delta_ss) < 0.01, (eps, alpha, theta)


# worst |J - J_cd| |p| / |obs| per observable row over the points below, times
# about 10: omega_L 7e-8, delta_ss 1e-5, delta_gs 5e-10, cyclicity 2e-6.  The
# central differences (step 1e-6 |p|) set these; their rounding noise shrinks
# as the step grows, the analytic Jacobian has none.
_JACOBIAN_ROW_TOL = (1e-6, 1e-4, 1e-8, 2e-5)


def _central_difference_jacobian(point, b_field):
    jac = np.empty((4, 3))
    for j in range(3):
        h = 1e-6 * abs(point[j])
        up, dn = list(point), list(point)
        up[j] += h
        dn[j] -= h
        jac[:, j] = (np.array(observables_at(*up, b_field).as_tuple())
                     - np.array(observables_at(*dn, b_field).as_tuple())) / (2.0 * h)
    return jac


def test_analytic_jacobian_matches_central_differences():
    b_field = field_from_nuclear_larmor(3.5857929e6)
    corners = list(itertools.product((250e9, 550e9), (0.5, 0.9), (10.0, 38.0)))
    for point in corners + list(_strain_map_box(300, seed=5)):
        obs, jac = electronic.observables_and_jacobian(*point, b_field)
        assert obs == observables_at(*point, b_field)
        scaled = (np.abs(jac - _central_difference_jacobian(point, b_field))
                  * np.abs(point) / np.abs(np.array(obs.as_tuple()))[:, None])
        assert np.all(scaled.max(axis=1) < _JACOBIAN_ROW_TOL), (point, scaled)


def test_jacobian_has_no_alpha_column_in_the_g_block_observables():
    # alpha enters only the u block: omega_L and delta_gs do not depend on it
    _, jac = electronic.observables_and_jacobian(EPS_REF, ALPHA_REF, THETA_REF, B_REF)
    assert jac.shape == (4, 3)
    assert jac[0, 1] == 0.0 and jac[2, 1] == 0.0
    with pytest.raises(DegenerateStates):
        electronic.observables_and_jacobian(392e9, 0.68, 28.0, 0.0)


def test_closed_form_reference_value():
    assert delta_gs_zero_field(392e9) == pytest.approx(1109.9e9, rel=1e-4)


def test_optical_gap_pinned_to_transition_wavelength():
    h = build_hamiltonian(StrainField(EPS_REF, ALPHA_REF), FieldConfig(B_REF, THETA_REF))
    e = hermitian_eig(h).values / (2 * math.pi)
    gap = e[4] - e[0]
    assert gap == pytest.approx(SPEED_OF_LIGHT / 736.9e-9, rel=1e-12)


def test_reference_observables_at_working_point():
    obs = observables_at(EPS_REF, ALPHA_REF, THETA_REF, B_REF)
    assert obs.omega_L_e == pytest.approx(TARGETS[0], rel=1e-2)
    assert obs.delta_ss == pytest.approx(TARGETS[1], rel=1e-2)
    assert obs.delta_gs == pytest.approx(TARGETS[2], rel=1e-2)
    assert obs.cyclicity == pytest.approx(TARGETS[3], rel=1e-2)


def test_cyclicity_diverges_without_field():
    with pytest.raises(DegenerateStates):
        observables_at(392e9, 0.68, 28.0, 0.0)


def _relative_observables(params, targets, b_field):
    """The strain model's relative observables at one point (epsilon, alpha, theta)."""
    model = electronic._strain_model(np.asarray(targets, dtype=float), b_field)
    return model(np.arange(4.0), params)


def _relative_cost(params, targets, b_field):
    """Sum of the squared relative residuals the estimator minimizes, +inf outside physics."""
    return float(np.sum((_relative_observables(params, targets, b_field) - 1.0) ** 2))


def test_cost_vanishes_at_generating_point():
    obs = observables_at(EPS_REF, ALPHA_REF, THETA_REF, B_REF)
    cost = _relative_cost((EPS_REF, ALPHA_REF, THETA_REF), obs.as_tuple(), B_REF)
    assert cost < 1e-20


@pytest.fixture(scope="module")
def estimate_result():
    return estimate_parameters(TARGETS)


def _grid_polish_oracle(targets, b_field):
    """Independent optimizer: coarse grid scan + cyclic parabolic refinement."""
    lo = np.array([100e9, 0.3, 5.0])
    hi = np.array([800e9, 1.2, 50.0])
    axes = [np.linspace(lo[i], hi[i], 11) for i in range(3)]
    best, best_cost = None, np.inf
    for e in axes[0]:
        for a in axes[1]:
            for t in axes[2]:
                c = _relative_cost((e, a, t), targets, b_field)
                if c < best_cost:
                    best, best_cost = np.array([e, a, t]), c
    step = (hi - lo) / 10.0
    for _ in range(40):                      # coordinate descent with shrinking steps
        for i in range(3):
            for trial in (best[i] - step[i], best[i] + step[i]):
                cand = best.copy()
                cand[i] = min(max(trial, lo[i]), hi[i])
                c = _relative_cost(tuple(cand), targets, b_field)
                if c < best_cost:
                    best, best_cost = cand, c
        step *= 0.6
    return best, best_cost


def test_default_estimate_makes_at_most_48_block_eigensolves(monkeypatch):
    # values and analytic Jacobian of each trial point from one solve: the closed-form
    # start's 6 evaluations and the reported point, 14 block solves (24 solving again
    # for each of its 5 Jacobians, 74 with central-difference columns, 148 with the
    # 8-start grid run after it)
    calls = []

    def counted(h):
        calls.append(np.shape(h))
        return hermitian_eig(h)

    monkeypatch.setattr(electronic, "hermitian_eig", counted)
    res = estimate_parameters(TARGETS)
    assert res.converged
    assert {shape[-2:] for shape in calls} == {(4, 4)}
    assert sum(math.prod(shape[:-2]) for shape in calls) <= 48


def test_estimate_jacobians_add_no_block_solve(monkeypatch):
    # each evaluation of a stack of points forms its Jacobians from the same solve
    solves, points, jacobian_rows = [], [], []
    forward = electronic._forward_stack

    def counted_eig(h):
        solves.append(math.prod(np.shape(h)[:-2]))
        return hermitian_eig(h)

    def counted_forward(epsilon, *args):
        points.append(np.size(epsilon))
        obs, jacobian_of = forward(epsilon, *args)

        def counted_jacobian(rows):
            jac = jacobian_of(rows)
            jacobian_rows.append(len(jac))
            return jac
        return obs, counted_jacobian

    monkeypatch.setattr(electronic, "hermitian_eig", counted_eig)
    monkeypatch.setattr(electronic, "_forward_stack", counted_forward)
    estimate_parameters(TARGETS)
    assert sum(jacobian_rows) > 0
    assert sum(solves) == 2 * sum(points)


def test_stacked_forward_model_equals_the_per_point_call_bit_for_bit():
    points = np.array(list(_strain_map_box(64, seed=9)))
    obs, jac = electronic.observables_and_jacobian(*points.T, B_REF)
    assert obs.shape == (64, 4) and jac.shape == (64, 4, 3)
    for k, point in enumerate(points):
        one_obs, one_jac = electronic.observables_and_jacobian(*point, B_REF)
        assert one_obs.as_tuple() == tuple(obs[k])
        assert np.array_equal(one_jac, jac[k])
        assert observables_at(*point, B_REF) == one_obs
    values, none = electronic.observables_and_jacobian(*points.T, B_REF, jacobian=False)
    assert none is None and np.array_equal(values, obs)
    _, jacobian_of = electronic._forward_stack(*points.T, B_REF)
    for rows in (list(range(0, 64, 3)), [5], [0, 63]):
        assert np.array_equal(jacobian_of(rows), jac[rows])


def test_stack_flags_degenerate_rows_only(monkeypatch):
    targets = np.array(TARGETS)
    points = [(EPS_REF, ALPHA_REF, THETA_REF), (300e9, 0.6, 20.0), (450e9, 0.8, 35.0)]
    stack = np.array(points)
    want = [(rel[0], jacobian_of(slice(None))[0]) for rel, jacobian_of in (
        electronic._relative_stack(np.array([p]), targets, B_REF) for p in points)]
    solve = electronic.hermitian_eig

    def degenerate_second_row(h):
        # E1 = E0 in the g block of the second point of the stack
        eig = solve(h)
        if len(h) > 1:
            eig.values[1, 0, 1] = eig.values[1, 0, 0]
        return eig

    monkeypatch.setattr(electronic, "hermitian_eig", degenerate_second_row)
    rel, jacobian_of = electronic._relative_stack(stack, targets, B_REF)
    jac = jacobian_of(slice(None))
    for rows in ([0, 2], [1, 2], [1], [2]):   # the Jacobians of chosen rows only
        assert np.array_equal(jacobian_of(rows), jac[rows], equal_nan=True)
    assert np.all(rel[1] == math.inf) and np.all(np.isnan(jac[1]))
    for row, (want_rel, want_jac) in zip((0, 2), (want[0], want[2])):
        assert np.array_equal(rel[row], want_rel) and np.array_equal(jac[row], want_jac)


def _emitter_targets(n, seed):
    """Forward observables of seeded strain-map points, as the benchmark draws them."""
    out = []
    for point in _strain_map_box(n, seed):
        targets = observables_at(*point, B_REF).as_tuple()
        if all(math.isfinite(t) and t > 0 for t in targets):
            out.append(targets)
    return out


def _same_fit(row, alone):
    if isinstance(alone, Exception):
        return type(row) is type(alone) and str(row) == str(alone)
    return (np.array_equal(row.params, alone.params) and np.array_equal(row.sigma, alone.sigma)
            and row.residual_norm == alone.residual_norm
            and (row.evaluations, row.jacobian_evaluations, row.iterations, row.stop_reason)
            == (alone.evaluations, alone.jacobian_evaluations, alone.iterations,
                alone.stop_reason))


def _fit_alone(model, init):
    try:
        return least_squares(model, np.arange(4.0), np.ones(4), init=init)
    except (SingularNormalMatrix, MaxIterations) as exc:
        return exc


@pytest.mark.parametrize("case", ["readme", "emitters"])
def test_each_start_of_the_lockstep_estimate_equals_its_fit_alone(case):
    cases = [TARGETS] if case == "readme" else _emitter_targets(24, seed=33)
    for targets in cases:
        model = electronic._strain_model(np.array(targets), B_REF)
        rows = least_squares_rows(model, np.arange(4.0), np.ones((8, 4)), init=electronic._STARTS)
        for row, init in zip(rows, electronic._STARTS):
            assert _same_fit(row, _fit_alone(model, init)), (targets, init)


def test_a_start_at_a_degenerate_point_drops_only_that_start(monkeypatch):
    targets = np.array(TARGETS)
    model = electronic._strain_model(targets, B_REF)
    clean = least_squares_rows(model, np.arange(4.0), np.ones((8, 4)), init=electronic._STARTS)
    forward = electronic._forward_stack
    first = tuple(electronic._STARTS[0].values())
    # the closed-form start is degenerate too, so that the estimate falls back to the grid
    closed_form = tuple(electronic._closed_form_start(targets).values())

    def degenerate_first_start(epsilon, alpha, theta, b_field):
        obs, jacobian_of = forward(epsilon, alpha, theta, b_field)
        if not np.ndim(epsilon):   # the estimate's last point, not a stack of the fit
            return obs, jacobian_of
        hit = np.zeros(np.shape(epsilon), dtype=bool)
        for point in (first, closed_form):
            hit |= (epsilon == point[0]) & (alpha == point[1]) & (theta == point[2])
        obs[hit] = math.inf

        def jacobian_with_nan_rows(rows):
            jac = jacobian_of(rows)
            jac[hit[rows]] = math.nan
            return jac
        return obs, jacobian_with_nan_rows

    monkeypatch.setattr(electronic, "_forward_stack", degenerate_first_start)
    rows = least_squares_rows(model, np.arange(4.0), np.ones((8, 4)), init=electronic._STARTS)
    assert isinstance(rows[0], SingularNormalMatrix)
    assert all(_same_fit(row, alone) for row, alone in zip(rows[1:], clean[1:]))
    estimate = estimate_parameters(TARGETS, b_field=B_REF)
    assert estimate.path == "grid"
    assert estimate.strain.epsilon == min(clean[1:], key=lambda f: f.residual_norm)["epsilon"]


def test_estimator_agrees_with_independent_search(estimate_result):
    res = estimate_result
    assert res.converged
    b_field = field_from_nuclear_larmor(3.5857929e6)
    oracle, oracle_cost = _grid_polish_oracle(TARGETS, b_field)
    assert res.strain.epsilon == pytest.approx(oracle[0], rel=2e-3)
    assert res.strain.alpha == pytest.approx(oracle[1], rel=2e-3)
    assert res.theta == pytest.approx(oracle[2], rel=5e-3)
    assert res.cost <= oracle_cost * 1.5 + 1e-12


def test_estimator_recovers_reference_parameters(estimate_result):
    res = estimate_result
    assert res.strain.epsilon == pytest.approx(392e9, abs=8e9)
    assert res.strain.alpha == pytest.approx(0.68, abs=0.03)
    assert res.theta == pytest.approx(28.0, abs=2.0)
    # forward observables reproduce the targets
    for got, want in zip(res.observables.as_tuple(), TARGETS):
        assert got == pytest.approx(want, rel=1e-2)


def test_estimate_reports_finite_small_sigmas_at_the_working_point(estimate_result):
    res = estimate_result
    for sigma, value in zip(res.sigma, (res.strain.epsilon, res.strain.alpha, res.theta)):
        assert math.isfinite(sigma)
        assert 0.0 <= sigma < 1e-2 * value


@pytest.mark.parametrize("alpha", DEFAULT_BOUNDS[1])
def test_estimate_sigma_is_finite_at_an_alpha_bound(alpha):
    # the best point sits on a DEFAULT_BOUNDS edge; the analytic Jacobian holds there
    targets = observables_at(700e9, alpha, THETA_REF, field_from_nuclear_larmor(3.5857929e6))
    res = estimate_parameters(targets.as_tuple())
    assert res.converged
    assert res.strain.alpha == pytest.approx(alpha, rel=1e-9)
    for sigma, value in zip(res.sigma, (res.strain.epsilon, res.strain.alpha, res.theta)):
        assert 0.0 <= sigma < 1e-6 * value


def test_estimate_sigma_is_nan_at_a_bound():
    # targets no strain reproduces: the best start ends on DEFAULT_BOUNDS edges at
    # epsilon = 0, where alpha has no effect, so its Jacobian column vanishes and the
    # normal matrix is singular
    res = estimate_parameters((1.0, 2.0, 3.0, 4.0))
    assert not res.converged
    assert (res.strain.epsilon, res.strain.alpha) == (DEFAULT_BOUNDS[0][0], DEFAULT_BOUNDS[1][0])
    assert all(math.isnan(sigma) for sigma in res.sigma)


def _nelder_mead_reference(targets, b_field):
    """The former estimator: 8-start Nelder-Mead in box-normalized coordinates,
    with the parameters clipped into DEFAULT_BOUNDS plus a quadratic penalty."""
    lo, hi = np.array(DEFAULT_BOUNDS).T

    def cost(u):
        clipped = np.clip(u, 0.0, 1.0)
        try:
            obs = observables_at(*(lo + clipped * (hi - lo)), b_field)
        except DegenerateStates:
            return math.inf
        return (sum(((m - t) / t) ** 2 for m, t in zip(obs.as_tuple(), targets))
                + 1e3 * float(np.sum((u - clipped) ** 2)))

    best = None
    for start in ([a, b, c] for a in (1 / 3, 2 / 3) for b in (1 / 3, 2 / 3) for c in (1 / 3, 2 / 3)):
        res = optimize.minimize(cost, start, method="Nelder-Mead",
                                options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 500})
        if best is None or res.fun < best[0]:
            best = (float(res.fun), lo + np.clip(res.x, 0.0, 1.0) * (hi - lo))
    return best


@pytest.mark.parametrize("scale", [(1.0, 1.0, 1.0, 1.0), (1.01, 0.99, 1.01, 0.99)])
def test_estimator_matches_the_nelder_mead_reference(scale):
    targets = tuple(t * f for t, f in zip(TARGETS, scale))
    b_field = field_from_nuclear_larmor(3.5857929e6)
    nm_cost, nm_params = _nelder_mead_reference(targets, b_field)
    res = estimate_parameters(targets)
    np.testing.assert_allclose((res.strain.epsilon, res.strain.alpha, res.theta),
                               nm_params, rtol=1e-5)
    assert res.cost <= nm_cost * (1 + 1e-6)
    assert res.cost == pytest.approx(_relative_cost(
        (res.strain.epsilon, res.strain.alpha, res.theta), targets, b_field), rel=1e-9)


def test_relative_residuals_are_infinite_at_a_degenerate_point():
    obs = observables_at(EPS_REF, ALPHA_REF, THETA_REF, B_REF).as_tuple()
    assert np.all(_relative_observables((EPS_REF, ALPHA_REF, THETA_REF), obs, 0.0) == math.inf)


def test_the_estimate_evaluates_only_points_inside_the_bounds(monkeypatch):
    # the strain model computes any stack it is given: the fit's clipped starts
    # and clipped trial points are what keep it inside DEFAULT_BOUNDS
    forward, points = electronic._forward_stack, []

    def recorded(*args):
        points.extend(np.column_stack(np.broadcast_arrays(*map(np.atleast_1d, args[:3]))))
        return forward(*args)

    monkeypatch.setattr(electronic, "_forward_stack", recorded)
    b_field = field_from_nuclear_larmor(3.5857929e6)
    edges = [observables_at(700e9, alpha, THETA_REF, b_field).as_tuple()
             for alpha in DEFAULT_BOUNDS[1]]
    paths = set()
    for targets in [TARGETS] + edges + [(1.0, 2.0, 3.0, 4.0)]:
        count = len(points)
        paths.add(estimate_parameters(targets).path)
        assert len(points) > count
    assert paths == {"closed_form", "grid"}
    lo, hi = np.array(DEFAULT_BOUNDS).T
    assert np.all((lo <= np.array(points)) & (np.array(points) <= hi))


def test_estimate_rejects_bad_targets():
    with pytest.raises(ValueError):
        estimate_parameters((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        estimate_parameters((1.0, -2.0, 3.0, 4.0))


def test_estimate_without_field_finds_no_start():
    # every start is Kramers-degenerate: +inf residuals, nan analytic Jacobian
    with pytest.raises(SingularNormalMatrix, match="converged: 8 SingularNormalMatrix$"):
        estimate_parameters(TARGETS, b_field=0.0)


def test_estimate_whose_starts_all_run_out_of_iterations_says_so():
    # every start steps on past the iteration limit here: the failure names that
    # kind, not a singular normal matrix
    targets = (9404078777.780762, 315991.8559875488, 2357470594908.6807, 103.00051462781191)
    with pytest.raises(MaxIterations, match="converged: 8 MaxIterations$"):
        estimate_parameters(targets)


@pytest.mark.parametrize("epsilon", [0.0, 1e9, 392e9, 1e12])
def test_epsilon_from_delta_gs_inverts_the_zero_field_closed_form(epsilon):
    got = electronic.epsilon_from_delta_gs(delta_gs_zero_field(epsilon))
    assert got == pytest.approx(epsilon, rel=1e-12, abs=0.0)


def test_epsilon_from_delta_gs_is_zero_below_the_spin_orbit_splitting():
    assert electronic.epsilon_from_delta_gs(0.5 * electronic.LAMBDA_G) == 0.0


def _grid_best(targets, b_field):
    """The best row of the 8-start grid, fitted on its own."""
    model = electronic._strain_model(np.array(targets), b_field)
    rows = least_squares_rows(model, np.arange(4.0), np.ones((8, 4)), init=electronic._STARTS)
    return min((row for row in rows if not isinstance(row, Exception)),
               key=lambda fit: fit.residual_norm)


def _agreement_targets():
    """Forward observables of 15 seeded points of the strain-map box and of 15 drawn
    over all of DEFAULT_BOUNDS, each point's four finite and > 0."""
    box = _emitter_targets(15, seed=32)
    assert len(box) == 15
    lo, hi = np.array(DEFAULT_BOUNDS).T
    rng = np.random.default_rng(32)
    wide = []
    while len(wide) < 15:
        targets = observables_at(*(lo + rng.random(3) * (hi - lo)), B_REF).as_tuple()
        if all(math.isfinite(t) and t > 0 for t in targets):
            wide.append(targets)
    return box + wide


# how far the closed-form start's estimate may lie from the grid's best row, relative,
# per parameter (epsilon, alpha, theta): both end at one minimum by the same stopping
# rule, which leaves each within about 4e-11 of the other on 162 targets (epsilon
# within 4e-13); the minimum itself is far sharper than that in epsilon
AGREEMENT_RTOL = (1e-11, 1e-9, 1e-9)


def test_the_closed_form_start_agrees_with_the_grid():
    for targets in _agreement_targets():
        res = estimate_parameters(targets, b_field=B_REF)
        assert res.path == "closed_form", targets
        grid = _grid_best(targets, B_REF)
        got = (res.strain.epsilon, res.strain.alpha, res.theta)
        agrees = all(g == pytest.approx(w, rel=rtol, abs=0.0)
                     for g, w, rtol in zip(got, grid.params, AGREEMENT_RTOL))
        assert agrees or res.cost < grid.residual_norm ** 2, (targets, got, tuple(grid.params))


def test_the_closed_form_start_stops_at_its_roundoff_floor(monkeypatch):
    # the step test ends each estimate of the strain-map box within 14 model
    # evaluations, once its steps bounce at a cost of about 1e-24; a rule that waits
    # for 3 accepted steps each lowering the cost by less than 1e-10 takes 22-38
    fits = []
    rows = least_squares_rows

    def recorded(*args, **kwargs):
        out = rows(*args, **kwargs)
        fits.extend(out)
        return out

    monkeypatch.setattr(electronic.fitting, "least_squares_rows", recorded)
    for targets in _emitter_targets(15, seed=32):
        fits.clear()
        assert estimate_parameters(targets, b_field=B_REF).path == "closed_form"
        (fit,) = fits
        assert fit.evaluations <= 14, (targets, fit.evaluations, fit.stop_reason)


def test_a_closed_form_start_above_the_converged_cost_falls_back_to_the_grid():
    # no strain reproduces these targets: the one start ends above the threshold,
    # and the result is the grid's best row, bit for bit
    targets = (1.0, 2.0, 3.0, 4.0)
    b_field = field_from_nuclear_larmor(3.5857929e6)
    model = electronic._strain_model(np.array(targets), b_field)
    one, = least_squares_rows(model, np.arange(4.0), np.ones((1, 4)),
                              init=[electronic._closed_form_start(targets)])
    assert one.residual_norm ** 2 > electronic.CONVERGED_COST
    res = estimate_parameters(targets)
    grid = _grid_best(targets, b_field)
    assert res.path == "grid" and not res.converged
    assert (res.strain.epsilon, res.strain.alpha, res.theta) == tuple(grid.params)
    assert res.cost == grid.residual_norm ** 2
    assert np.array_equal(res.sigma, grid.sigma, equal_nan=True)
    assert res.observables == observables_at(*grid.params, b_field)


def test_orbach_rate_follows_bose_occupation():
    s = StrainField(EPS_REF, ALPHA_REF)
    h = build_hamiltonian(s, FieldConfig(B_REF, THETA_REF))
    eig = hermitian_eig(h)
    kb = BOLTZMANN_OVER_H
    e = eig.values / (2 * math.pi)
    delta = 0.5 * (e[2] + e[3]) - 0.5 * (e[0] + e[1])
    r1, r2 = orbach_rate(eig, 4.0), orbach_rate(eig, 10.0)
    assert 0 < r1 < r2
    expected_ratio = math.expm1(delta / (kb * 4.0)) ** -1 \
        / math.expm1(delta / (kb * 10.0)) ** -1
    assert r1 / r2 == pytest.approx(expected_ratio, rel=1e-6)


@pytest.mark.parametrize("epsilon, alpha, theta", [(392e9, 0.68, 28.0), (150e9, 1.1, 47.0)])
def test_observables_ignore_eigenvector_phases(monkeypatch, epsilon, alpha, theta):
    # each eigenvector is defined only up to a unit phase; the observables
    # built from them must not depend on the solver's choice
    point = (epsilon, alpha, theta, B_REF)
    obs, jac = electronic.observables_and_jacobian(*point)
    rng = np.random.default_rng(7)

    def rephased_eig(h):
        eig = hermitian_eig(h)
        phases = np.exp(2j * np.pi * rng.random(eig.values.shape))
        return Eigensystem(eig.values, eig.vectors * phases[..., None, :])

    monkeypatch.setattr(electronic, "hermitian_eig", rephased_eig)
    rephased_obs, rephased_jac = electronic.observables_and_jacobian(*point)
    np.testing.assert_allclose(rephased_obs.as_tuple(), obs.as_tuple(), rtol=1e-12)
    # the Jacobian as relative sensitivities, as in the central-difference test: an
    # entry such as d omega_L / d epsilon (about 1e-4) is a difference of Hellmann-Feynman
    # terms of order 1, so alone it carries a relative rounding above 1e-12
    scaled = np.abs(rephased_jac - jac) * np.abs(point[:3]) / np.abs(obs.as_tuple())[:, None]
    assert np.all(scaled < 1e-12), scaled

    s = StrainField(epsilon, alpha)
    eig = hermitian_eig(build_hamiltonian(s, FieldConfig(B_REF, theta)))
    phases = np.exp(2j * np.pi * np.random.default_rng(7).random(eig.values.size))
    rephased = Eigensystem(eig.values, eig.vectors * phases)
    for temperature in (4.0, 10.0):
        assert orbach_rate(rephased, temperature) == pytest.approx(
            orbach_rate(eig, temperature), rel=1e-12)
