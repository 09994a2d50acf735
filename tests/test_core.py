import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import random_mixed_state, random_unitary
from ddgrape.core import (
    ID4,
    InvalidStateError,
    SIGMA_X,
    TAYLOR_THETA,
    batched_unitary_exp,
    collective_operator,
    entropy_2x2,
    is_unitary,
    partial_trace,
    spin_operator,
    unitarity_error,
    unitary_exp,
    von_neumann_entropy,
)


def test_spin_operator_z_diagonals():
    assert np.allclose(np.diag(spin_operator(1, "z")), [0.5, 0.5, -0.5, -0.5])
    assert np.allclose(np.diag(spin_operator(2, "z")), [0.5, -0.5, 0.5, -0.5])


def test_spin_operator_commutation():
    ix, iy, iz = (spin_operator(1, a) for a in "xyz")
    assert np.allclose(ix @ iy - iy @ ix, 1j * iz, atol=1e-14)


def test_spin_operator_rejects_bad_index():
    with pytest.raises(ValueError):
        spin_operator(3, "x")


def test_unitary_exp_zero_time_is_identity():
    h = spin_operator(1, "x") + 0.3 * spin_operator(2, "y")
    assert np.allclose(unitary_exp(h, 0.0), ID4, atol=1e-14)


def test_unitary_exp_collective_pi_x():
    u = unitary_exp(collective_operator("x"), np.pi)
    assert np.allclose(u, -np.kron(SIGMA_X, SIGMA_X), atol=1e-12)
    out = u @ np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(out, [0, 0, 0, -1], atol=1e-12)


def test_unitary_exp_matches_taylor_series():
    # independent oracle: term-by-term Taylor series of exp(-i*s*H)
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (z + z.conj().T) / 2
    s = 0.7
    term = ID4.copy()
    total = ID4.copy()
    for k in range(1, 60):
        term = term @ (-1j * s * h) / k
        total = total + term
    assert np.max(np.abs(unitary_exp(h, s) - total)) < 1e-12


def test_unitary_exp_diagonal_generator():
    theta = 0.83
    u = unitary_exp(spin_operator(1, "z"), theta)
    expected = np.diag(np.exp([-1j * theta / 2, -1j * theta / 2, 1j * theta / 2, 1j * theta / 2]))
    assert np.allclose(u, expected, atol=1e-14)


def test_unitary_exp_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(InvalidStateError):
        unitary_exp(m, 1.0)


def test_unitary_exp_inverse_and_composition():
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (z + z.conj().T) / 2
        t1, t2 = rng.normal(), rng.normal()
        assert np.max(np.abs(unitary_exp(h, t1) @ unitary_exp(h, -t1) - ID4)) < 1e-10
        lhs = unitary_exp(h, t1) @ unitary_exp(h, t2)
        assert np.max(np.abs(lhs - unitary_exp(h, t1 + t2))) < 1e-10
        assert is_unitary(unitary_exp(h, t1))


def _hermitian_stack(rng, d, norms):
    """Random Hermitian (len(norms), d, d) stack with the given 1-norms."""
    n = len(norms)
    z = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    h = (z + np.swapaxes(z.conj(), -1, -2)) / 2
    return h * (norms / np.linalg.norm(h, 1, axis=(-2, -1)))[:, None, None]


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("n", [0, 1, 1470])
def test_batched_unitary_exp_matches_expm(n, d):
    # 1-norms of scale * H from 1e-3 to 40: at most TAYLOR_THETA needs no
    # squaring, 40 needs seven; a DD hard pulse is about pi * 1.1.
    rng = np.random.default_rng(100 * d + n)
    scale = 0.5
    norms = np.geomspace(1e-3, 40.0, n) if n > 1 else np.full(n, np.pi * 1.1)
    h = _hermitian_stack(rng, d, norms / scale)
    u = batched_unitary_exp(h, scale)
    assert u.shape == (n, d, d) and u.dtype == complex
    if n > 1:
        assert norms.min() < TAYLOR_THETA < norms.max()
    for uk, hk, norm in zip(u, h, norms):
        assert np.abs(uk - scipy.linalg.expm(-1j * scale * hk)).max() <= 1e-14 * max(1.0, norm)
    assert np.all(unitarity_error(u) <= 1e-13)


def test_batched_unitary_exp_of_a_zero_generator_is_exactly_the_identity():
    h = np.zeros((3, 4, 4), dtype=complex)
    h[1] = _hermitian_stack(np.random.default_rng(7), 4, [10.0])[0]  # squared in the same block
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = batched_unitary_exp(h, 2.0)
        assert np.array_equal(unitary_exp(np.zeros((4, 4), dtype=complex), 2.0), ID4)
    assert np.array_equal(u[[0, 2]], [ID4, ID4])
    assert np.abs(u[1] - scipy.linalg.expm(-2j * h[1])).max() <= 1e-13


def test_unitarity_error_is_per_matrix_and_a_nan_fails():
    u = random_unitary(np.random.default_rng(5))
    nan = u.copy()
    nan[1, 2] = np.nan
    err = unitarity_error(np.array([u, 1.001 * u, nan]))
    assert err.shape == (3,) and err[0] < 1e-14 and err[1] > 1e-3 and np.isnan(err[2])
    assert is_unitary(u) and not is_unitary(1.001 * u) and not is_unitary(nan)


def test_partial_trace_product_and_bell():
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    assert np.allclose(partial_trace(rho00, "S"), [[1, 0], [0, 0]])
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(rho, "A"), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_random_products():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho_s = random_mixed_state(rng, n=2, ancilla=2)
        rho_a = random_mixed_state(rng, n=2, ancilla=2)
        rho = np.kron(rho_s, rho_a)
        assert np.max(np.abs(partial_trace(rho, "S") - rho_s)) <= 1e-12
        assert np.max(np.abs(partial_trace(rho, "A") - rho_a)) <= 1e-12
        assert abs(np.trace(partial_trace(rho, "S")) - 1) < 1e-10
        assert abs(np.trace(partial_trace(rho, "A")) - 1) < 1e-10


def test_entropy_examples():
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    assert von_neumann_entropy(rho00) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(ID4 / 4) == pytest.approx(2.0, abs=1e-12)
    assert von_neumann_entropy(np.diag([0.5, 0.5, 0, 0]).astype(complex)) == pytest.approx(1.0, abs=1e-12)


def test_entropy_rejects_negative_eigenvalue():
    with pytest.raises(InvalidStateError):
        von_neumann_entropy(np.diag([1.1, -0.1, 0, 0]).astype(complex))


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(8)
    for _ in range(10):
        rho = random_mixed_state(rng)
        u = random_unitary(rng)
        assert abs(von_neumann_entropy(rho) - von_neumann_entropy(u @ rho @ u.conj().T)) <= 1e-9


def test_entropy_2x2_matches_eigendecomposition():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rho = random_mixed_state(rng, n=2, ancilla=3)
        p = rng.uniform(0.1, 1.0)
        m = p * rho
        expected = p * von_neumann_entropy(rho)
        got = p * entropy_2x2(1.0, np.linalg.det(m).real / p**2)
        assert got == pytest.approx(expected, abs=1e-10)
