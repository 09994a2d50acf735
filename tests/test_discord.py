import math

import numpy as np
import pytest

from conftest import random_mixed_state, random_pure_state, random_unitary
from ddgrape.core import SIGMA_X, SIGMA_Y, SIGMA_Z, von_neumann_entropy, partial_trace
from ddgrape.discord import (
    LN2,
    MeasurementBasis,
    _bloch_axes,
    _conditional_entropy_bases,
    _measurement_blocks,
    brute_force_min_conditional_entropy,
    check_epsilon,
    load_state,
    min_conditional_entropy,
    quantum_discord,
    save_state,
)
from ddgrape.grover import GroverSpec, ideal_trajectory
from ddgrape.nmr import pseudopure_state


def bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / math.sqrt(2)
    return np.outer(psi, psi.conj())


def grover_post_oracle_state():
    psi = np.array([1, -1, 1, 1], dtype=complex) / 2
    return np.outer(psi, psi.conj())


def test_mutual_information_examples():
    rng = np.random.default_rng(7)
    rho = np.kron(random_mixed_state(rng, 2, 2), random_mixed_state(rng, 2, 2))
    assert quantum_discord(rho).mutual_information == pytest.approx(0.0, abs=1e-10)
    assert quantum_discord(bell_state()).mutual_information == pytest.approx(2.0, abs=1e-10)
    assert quantum_discord(np.eye(4, dtype=complex) / 4).mutual_information == pytest.approx(0.0, abs=1e-12)


def test_conditional_entropy_examples():
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    assert _reference_at(rho00, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(8)
    for _ in range(5):
        theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        assert _reference_at(bell_state(), theta, phi) == pytest.approx(0.0, abs=1e-10)
        assert _reference_at(np.eye(4, dtype=complex) / 4, theta, phi) == pytest.approx(1.0, abs=1e-10)


def _kernel(rho, thetas, phis):
    return _conditional_entropy_bases(_measurement_blocks(rho), _bloch_axes(thetas, phis))


def test_vectorized_kernel_matches_scalar_conditional_entropy():
    # dual route: the grid kernel must agree with the reference taken one axis at a time
    rng = np.random.default_rng(9)
    for _ in range(8):
        rho = random_mixed_state(rng)
        thetas = rng.uniform(0, math.pi, 5)
        phis = rng.uniform(0, 2 * math.pi, 5)
        fast = _kernel(rho, thetas, phis)
        slow = [_reference_at(rho, t, p) for t, p in zip(thetas, phis)]
        assert np.max(np.abs(fast - np.array(slow))) < 1e-10


def test_min_conditional_entropy_not_above_theta_zero():
    rng = np.random.default_rng(10)
    for _ in range(5):
        rho = random_mixed_state(rng)
        h_min, _ = min_conditional_entropy(rho)
        assert h_min >= -1e-12
        assert h_min <= _reference_at(rho, 0.0, 0.0) + 1e-9


def test_discord_product_states_vanish():
    rng = np.random.default_rng(11)
    for _ in range(5):
        rho = np.kron(random_mixed_state(rng, 2, 2), random_mixed_state(rng, 2, 2))
        assert quantum_discord(rho).discord <= 1e-7


def test_discord_bell_and_grover_states():
    assert quantum_discord(bell_state()).discord == pytest.approx(1.0, abs=1e-6)
    assert quantum_discord(grover_post_oracle_state()).discord == pytest.approx(1.0, abs=1e-6)


def test_discord_pure_states_equal_entanglement_entropy():
    rng = np.random.default_rng(12)
    for _ in range(20):
        rho = random_pure_state(rng)
        ent = von_neumann_entropy(partial_trace(rho, "S"))
        assert quantum_discord(rho).discord == pytest.approx(ent, abs=1e-6)


def test_discord_nonnegative_and_refinement_beats_bruteforce():
    rng = np.random.default_rng(13)
    for _ in range(10):
        rho = random_mixed_state(rng)
        result = quantum_discord(rho)
        assert result.discord >= -1e-8
        assert result.discord <= result.mutual_information + 1e-8
        refined, _ = min_conditional_entropy(rho)
        brute, _ = brute_force_min_conditional_entropy(rho, 301, 601)
        assert refined <= brute + 1e-6


def test_discord_local_unitary_invariance():
    rng = np.random.default_rng(14)
    from conftest import random_unitary

    for _ in range(5):
        rho = random_mixed_state(rng)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        d1 = quantum_discord(rho).discord
        d2 = quantum_discord(u @ rho @ u.conj().T).discord
        assert d1 == pytest.approx(d2, abs=1e-6)


def test_discord_epsilon_scaling_units():
    rho = grover_post_oracle_state()
    eps = 0.01
    pp = (1 - eps) * np.eye(4) / 4 + eps * rho
    result = quantum_discord(pp, epsilon=eps)
    assert result.scaled_discord == pytest.approx(result.discord * math.log(2) / eps**2, rel=1e-12)
    assert result.discord < 1e-3  # epsilon^2 suppression


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, 1.5])
def test_an_epsilon_outside_the_unit_interval_is_an_error_naming_epsilon(eps):
    with pytest.raises(ValueError, match="epsilon"):
        quantum_discord(bell_state(), epsilon=eps)


@pytest.mark.parametrize(
    "rho, eps", [(pseudopure_state(1e-170), 1e-170), (bell_state(), 1e-160)], ids=["pseudopure-1e-170", "bell-1e-160"]
)
def test_a_scaled_discord_beyond_float64_is_an_error_naming_epsilon(rho, eps):
    # Both are below the 1e-6 floor. Without it, epsilon^2 would underflow to 0
    # at 1e-170 (0 / 0 here, the discord being 0), and to a subnormal that
    # overflows D ln2 / epsilon^2 at 1e-160.
    with pytest.raises(ValueError, match="epsilon"):
        quantum_discord(rho, epsilon=eps)


def test_the_epsilon_floor_is_1e_6():
    assert quantum_discord(bell_state(), epsilon=1e-6).scaled_discord == pytest.approx(LN2 * 1e12, rel=1e-12)
    with pytest.raises(ValueError, match=r"epsilon must be in \[1e-6, 1\]"):
        check_epsilon(math.nextafter(1e-6, 0.0))


def test_state_file_roundtrip(tmp_path):
    rng = np.random.default_rng(15)
    rho = random_mixed_state(rng)
    path = tmp_path / "state.txt"
    save_state(path, rho)
    back = load_state(path)
    assert np.max(np.abs(back - rho)) < 1e-15


def test_kernel_at_the_poles_and_with_a_zero_probability_outcome():
    ket0 = np.array([1, 0], dtype=complex)
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    rng = np.random.default_rng(16)
    states = [np.outer(v, v.conj()) for v in (np.kron(ket0, ket0), np.kron(ket0, plus))]
    states += [random_mixed_state(rng), random_pure_state(rng), bell_state()]
    thetas = np.array([0.0, math.pi, 0.0, math.pi, math.pi / 2, math.pi / 2])
    phis = np.array([0.0, 0.0, 1.3, 4.0, 0.0, math.pi])
    for rho in states:
        fast = _kernel(rho, thetas, phis)
        assert np.max(np.abs(fast - _reference_conditional_entropy_bases(rho, thetas, phis))) < 1e-12
    # |00>: measuring z on A has an outcome of probability 0, and S is pure.
    assert np.all(np.abs(_kernel(states[0], thetas, phis)) < 1e-12)


# A test-only copy of the einsum kernel and the one-start-at-a-time zoom
# that the closed-form kernel and the batched zoom replaced, the kernel
# taking each outcome's entropy from eigvalsh rather than a closed form:
# the oracle for the kernel, at any axis, and for the minimizer.


def _reference_conditional_entropy_bases(rho, thetas, phis):
    half = thetas / 2.0
    kets = np.stack([np.cos(half), np.sin(half) * np.exp(1j * phis)], axis=1)  # (B, 2)
    r = rho.reshape(2, 2, 2, 2)  # (s, a, s', a')
    m0 = np.einsum("Ba,saSA,BA->BsS", kets.conj(), r, kets)
    m = np.stack([m0, partial_trace(rho, "S")[None, :, :] - m0])  # both outcomes, (2, B, 2, 2)
    p = np.einsum("oBss->oB", m).real
    mask = p > 1e-12
    # p * H(M/p) from the eigenvalues of M/p, with 0 log 0 = 0
    lam = np.clip(np.linalg.eigvalsh(m / np.where(mask, p, 1.0)[..., None, None]), 0.0, None)
    h = -np.sum(lam * np.log2(np.where(lam > 0, lam, 1.0)), axis=-1)
    return np.where(mask, p * h, 0.0).sum(axis=0)


def _reference_at(rho, theta, phi):
    """The reference conditional entropy at one measurement axis."""
    return _reference_conditional_entropy_bases(rho, np.array([theta]), np.array([phi]))[0]


def _reference_grid_min(rho, thetas, phis):
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    values = _reference_conditional_entropy_bases(rho, tt.ravel(), pp.ravel()).reshape(tt.shape)
    flat = int(np.argmin(values))
    i, j = np.unravel_index(flat, values.shape)
    return float(values[i, j]), float(tt[i, j]), float(pp[i, j]), values


def _reference_min_conditional_entropy(rho, n_starts=3):
    thetas = np.linspace(0.0, math.pi, 61)
    phis = np.linspace(0.0, 2.0 * math.pi, 121, endpoint=False)
    _, _, _, values = _reference_grid_min(rho, thetas, phis)

    order = np.argsort(values.ravel(), kind="stable")
    starts = []
    for flat in order[: max(n_starts * 8, n_starts)]:
        i, j = np.unravel_index(int(flat), values.shape)
        th, ph = float(thetas[i]), float(phis[j])
        if any(abs(th - t) < 0.2 and min(abs(ph - p), 2 * math.pi - abs(ph - p)) < 0.2 for t, p in starts):
            continue
        starts.append((th, ph))
        if len(starts) >= n_starts:
            break

    dth = thetas[1] - thetas[0]
    dph = phis[1] - phis[0]
    best_val = math.inf
    best_axis = (0.0, 0.0)
    for th0, ph0 in starts:
        val, th, ph = _reference_zoom(rho, th0, ph0, dth, dph)
        if val < best_val - 1e-15:
            best_val = val
            best_axis = (th, ph)
    return best_val, MeasurementBasis(min(best_axis[0], math.pi), best_axis[1] % (2.0 * math.pi))


def _reference_zoom(rho, th0, ph0, dth, dph):
    best = _reference_conditional_entropy_bases(rho, np.array([th0]), np.array([ph0]))[0]
    th, ph = th0, ph0
    wt, wp = dth, dph
    for _ in range(200):
        ts = np.clip(np.linspace(th - wt, th + wt, 9), 0.0, math.pi)
        ps = np.linspace(ph - wp, ph + wp, 9)
        tt, pp = np.meshgrid(ts, ps, indexing="ij")
        vals = _reference_conditional_entropy_bases(rho, tt.ravel(), pp.ravel())
        k = int(np.argmin(vals))
        improvement = best - vals[k]
        if vals[k] < best:
            best = float(vals[k])
            th, ph = float(tt.ravel()[k]), float(pp.ravel()[k])
        wt /= 3.0
        wp /= 3.0
        if improvement < 1e-8 and wt < 1e-9:
            break
    return best, th, ph


def _two_basin_state(seed):
    """Bell-diagonal state with nearly equal x and z correlations, rotated on
    A: two basins of almost the same depth, so more than one zoom start
    decides the result (the first coarse start alone ends 3e-7 to 1e-6 high)."""
    c = (0.5, 0.1, -0.4999)
    rho = (np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, (SIGMA_X, SIGMA_Y, SIGMA_Z)))) / 4
    u = np.kron(np.eye(2), random_unitary(np.random.default_rng(seed), 2))
    return u @ rho @ u.conj().T


def _oracle_states():
    rng = np.random.default_rng(17)
    states = [random_mixed_state(rng) for _ in range(12)]
    states += [random_pure_state(rng) for _ in range(12)]
    states += [np.kron(random_mixed_state(rng, 2, 2), random_mixed_state(rng, 2, 2)) for _ in range(6)]
    for eps in (1.0, 0.01):
        states += [rho for _, rho in ideal_trajectory(GroverSpec(1, 6), epsilon=eps)]
    states += [_two_basin_state(seed) for seed in (2, 7, 13)]
    return states


def test_min_conditional_entropy_matches_the_reference_minimizer():
    states = _oracle_states()
    assert len(states) == 61
    for rho in states:
        got, basis = min_conditional_entropy(rho)
        want, _ = _reference_min_conditional_entropy(rho)
        assert abs(got - want) <= 1e-12
        # the reported basis attains the reported minimum
        assert abs(_reference_at(rho, basis.theta, basis.phi) - got) <= 1e-10


def test_kernel_matches_the_reference_kernel_on_the_coarse_grid():
    thetas = np.linspace(0.0, math.pi, 61)
    phis = np.linspace(0.0, 2.0 * math.pi, 121, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    for rho in _oracle_states()[::5]:
        want = _reference_conditional_entropy_bases(rho, tt.ravel(), pp.ravel())
        assert np.max(np.abs(_kernel(rho, tt.ravel(), pp.ravel()) - want)) <= 1e-12


def test_brute_force_takes_the_first_grid_minimum():
    # |00><00| reaches its minimum 0 at every phi of theta = 0 and theta = pi;
    # the oracle reports the first grid point in (theta, phi) order.
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    val, basis = brute_force_min_conditional_entropy(rho, 31, 61)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert (basis.theta, basis.phi) == (0.0, 0.0)
    rng = np.random.default_rng(18)
    for _ in range(3):
        rho = random_mixed_state(rng)
        val, basis = brute_force_min_conditional_entropy(rho, 101, 201)
        thetas = np.linspace(0.0, math.pi, 101)
        phis = np.linspace(0.0, 2.0 * math.pi, 201, endpoint=False)
        want, th, ph, _ = _reference_grid_min(rho, thetas, phis)
        assert abs(val - want) <= 1e-12
        assert (basis.theta, basis.phi) == (th, ph)
