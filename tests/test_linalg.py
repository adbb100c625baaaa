"""Linear-algebra kernel checked against independent numpy oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sivreg.linalg import Eigensystem, NotHermitian, hermitian_eig, kron, propagator_from_eig


def random_hermitian(n, rng, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (m + m.conj().T) / 2.0


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_eigenvalues_match_numpy(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        h = random_hermitian(n, rng)
        eig = hermitian_eig(h)
        np.testing.assert_allclose(eig.values, np.linalg.eigvalsh(h),
                                   rtol=0, atol=1e-10 * max(1.0, np.abs(h).max()))


def test_eigenpairs_satisfy_definition():
    rng = np.random.default_rng(11)
    h = random_hermitian(8, rng, scale=2 * np.pi * 1e9)
    eig = hermitian_eig(h)
    for i in range(8):
        v = eig.vectors[:, i]
        np.testing.assert_allclose(h @ v, eig.values[i] * v,
                                   atol=1e-5 * np.abs(eig.values).max())
    # columns orthonormal
    np.testing.assert_allclose(eig.vectors.conj().T @ eig.vectors, np.eye(8),
                               atol=1e-12)
    # ascending order
    assert np.all(np.diff(eig.values) >= 0)


def test_eigenvalues_match_characteristic_polynomial_roots():
    # independent oracle: roots of det(H - x I) for a small matrix
    rng = np.random.default_rng(3)
    h = random_hermitian(3, rng)
    coeffs = np.poly(h)          # characteristic polynomial coefficients
    roots = np.sort(np.roots(coeffs).real)
    np.testing.assert_allclose(hermitian_eig(h).values, roots, atol=1e-10)


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0j], [1.0j, 0.0]]))


def _expm_taylor(a, terms=40):
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def test_propagator_matches_taylor_series():
    rng = np.random.default_rng(5)
    h = random_hermitian(4, rng)          # norm ~ 1, Taylor converges fast
    t = 0.7
    u = propagator_from_eig(hermitian_eig(h), t)
    np.testing.assert_allclose(u, _expm_taylor(-1j * h * t), atol=1e-12)


def test_propagator_is_unitary_and_composes():
    rng = np.random.default_rng(6)
    h = random_hermitian(6, rng, scale=1e9)
    eig = hermitian_eig(h)
    u1 = propagator_from_eig(eig, 1e-9)
    u2 = propagator_from_eig(eig, 2e-9)
    np.testing.assert_allclose(u1 @ u1.conj().T, np.eye(6), atol=1e-12)
    np.testing.assert_allclose(u1 @ u1, u2, atol=1e-12)
    assert isinstance(eig, Eigensystem) and eig.values.shape == (6,)


def test_propagator_of_a_time_array_stacks_the_single_time_propagators():
    eig = hermitian_eig(random_hermitian(8, np.random.default_rng(7), scale=1e7))
    times = np.array([[0.0, 1e-8], [3e-7, 2.5e-6]])
    stack = propagator_from_eig(eig, times)
    assert stack.shape == (2, 2, 8, 8)
    for index in np.ndindex(times.shape):
        np.testing.assert_allclose(stack[index], propagator_from_eig(eig, times[index]),
                                   rtol=0, atol=1e-15)


small_matrix = st.integers(min_value=0, max_value=2).flatmap(
    lambda seed: st.just(np.random.default_rng(seed)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       na=st.integers(min_value=1, max_value=3),
       nb=st.integers(min_value=1, max_value=3))
def test_kron_mixed_product_property(seed, na, nb):
    rng = np.random.default_rng(seed)
    a, c = (rng.normal(size=(na, na)) + 1j * rng.normal(size=(na, na)) for _ in "ac")
    b, d = (rng.normal(size=(nb, nb)) + 1j * rng.normal(size=(nb, nb)) for _ in "bd")
    np.testing.assert_allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d),
                               atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_kron_bilinearity(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
    np.testing.assert_allclose(kron(a + b, c), kron(a, c) + kron(b, c), atol=1e-12)
    np.testing.assert_allclose(kron(c, a + b), kron(c, a) + kron(c, b), atol=1e-12)


@pytest.mark.parametrize("na, nb", [(2, 2), (2, 4), (4, 2), (1, 3)])
def test_kron_of_stacks_is_each_np_kron_bit_for_bit(na, nb):
    rng = np.random.default_rng(na + 10 * nb)
    a = rng.normal(size=(5, na, na)) + 1j * rng.normal(size=(5, na, na))
    b = rng.normal(size=(5, nb, nb)) + 1j * rng.normal(size=(5, nb, nb))
    stacked = kron(a, b)
    assert stacked.shape == (5, na * nb, na * nb)
    assert np.array_equal(stacked, [np.kron(a_k, b_k) for a_k, b_k in zip(a, b)])
    # a stack against one matrix broadcasts it over the stack, and 2-D inputs are np.kron
    assert np.array_equal(kron(a, b[0]), [np.kron(a_k, b[0]) for a_k in a])
    assert np.array_equal(kron(a[0], b[0]), np.kron(a[0], b[0]))


def test_kron_rejects_non_square():
    for a, b in [(np.ones((2, 3)), np.eye(2)), (np.eye(2), np.ones((3, 2, 3))),
                 (np.ones((3, 2, 3)), np.ones((3, 2, 2))), (np.ones(4), np.eye(2))]:
        with pytest.raises(ValueError, match="square"):
            kron(a, b)


def test_degenerate_spectrum_gives_orthonormal_eigenpairs():
    # kron(diag(1, 2), I2) has two exactly doubly degenerate levels; inside each
    # eigenspace any orthonormal basis is valid, so check the definition only
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    h = q @ kron(np.diag([1.0, 2.0]), np.eye(2)) @ q.conj().T
    eig = hermitian_eig(h)
    np.testing.assert_allclose(eig.values, [1.0, 1.0, 2.0, 2.0], atol=1e-12)
    assert np.all(np.diff(eig.values) >= 0)
    np.testing.assert_allclose(eig.vectors.conj().T @ eig.vectors, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(h @ eig.vectors, eig.vectors * eig.values, atol=1e-12)
