import numpy as np
import pytest

from ddgrape.core import ID4, is_unitary
from ddgrape.grover import (
    HADAMARD2,
    GroverSpec,
    StageLabel,
    diffusion_unitary,
    ideal_trajectory,
    marked_probability,
    oracle_unitary,
    uniform_superposition,
)
from ddgrape.nmr import pseudopure_state


def test_uniform_superposition():
    psi = uniform_superposition()
    assert np.allclose(psi, 0.5)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
    rho = np.outer(psi, psi.conj())
    for k in range(4):
        assert marked_probability(rho, k) == pytest.approx(0.25, abs=1e-14)


def test_oracle_unitary():
    u = oracle_unitary(1)
    assert np.allclose(u, np.diag([1, -1, 1, 1]))
    assert np.allclose(u @ u, ID4)
    assert np.linalg.det(u).real == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        oracle_unitary(4)


def test_diffusion_unitary():
    d = diffusion_unitary()
    psi = uniform_superposition()
    assert np.allclose(d @ psi, psi, atol=1e-14)
    assert np.allclose(d @ d, ID4, atol=1e-14)
    assert np.allclose(d.sum(axis=1), 1.0, atol=1e-14)
    assert np.allclose(d, 0.5 - np.eye(4))
    assert is_unitary(d)


def test_ideal_trajectory_probabilities():
    stages = ideal_trajectory(GroverSpec(1, 6))
    post_diffusion = [marked_probability(rho, 1) for label, rho in stages if label.kind == "D"]
    assert np.allclose(post_diffusion, [1, 0.25, 0.25, 1, 0.25, 0.25], atol=1e-12)
    # analytic sin^2((2r+1) pi / 6) pattern for N = 4
    for r, p in enumerate(post_diffusion, start=1):
        assert p == pytest.approx(np.sin((2 * r + 1) * np.pi / 6) ** 2, abs=1e-12)


def test_ideal_trajectory_stage_structure():
    stages = ideal_trajectory(GroverSpec(1, 0))
    assert [str(label) for label, _ in stages] == ["PPS", "H"]
    stages = ideal_trajectory(GroverSpec(1, 2))
    assert [str(label) for label, _ in stages] == ["PPS", "H", "W1", "D1", "W2", "D2"]


def test_ideal_trajectory_probability_sums_to_one():
    for label, rho in ideal_trajectory(GroverSpec(1, 6)):
        assert sum(marked_probability(rho, k) for k in range(4)) == pytest.approx(1.0, abs=1e-10)
        assert abs(np.trace(rho).real - 1) < 1e-12


def test_grover_iterate_period_three():
    u_g = diffusion_unitary() @ oracle_unitary(1)
    assert is_unitary(u_g)
    psi = uniform_superposition()
    rho = np.outer(psi, psi.conj())
    cubed = np.linalg.matrix_power(u_g, 3)
    rho3 = cubed @ rho @ cubed.conj().T
    assert marked_probability(rho3, 1) == pytest.approx(marked_probability(rho, 1), abs=1e-10)


def test_pseudopure_trajectory_shares_unitaries():
    eps = 0.01
    pure = ideal_trajectory(GroverSpec(1, 3))
    pp = ideal_trajectory(GroverSpec(1, 3), epsilon=eps)
    for (_, rho_pure), (_, rho_pp) in zip(pure, pp):
        expected = (1 - eps) * np.eye(4) / 4 + eps * rho_pure
        assert np.max(np.abs(rho_pp - expected)) < 1e-12


def _reference_ideal_trajectory(spec, epsilon=None):
    """The ideal run as a hand-written conjugation loop, one stage at a time."""
    rho = pseudopure_state(1.0 if epsilon is None else epsilon)
    stages = [(StageLabel("PPS"), rho)]

    def apply(u, r):
        return u @ r @ u.conj().T

    rho = apply(HADAMARD2, rho)
    stages.append((StageLabel("H"), rho))
    u_w = oracle_unitary(spec.marked)
    u_d = diffusion_unitary()
    for r in range(1, spec.iterations + 1):
        rho = apply(u_w, rho)
        stages.append((StageLabel("W", r), rho))
        rho = apply(u_d, rho)
        stages.append((StageLabel("D", r), rho))
    return stages


@pytest.mark.parametrize("epsilon", [None, 1.0, 0.01])
@pytest.mark.parametrize("iterations", [0, 2, 6])
def test_ideal_trajectory_is_bitwise_the_conjugation_loop(epsilon, iterations):
    spec = GroverSpec(1, iterations)
    got = ideal_trajectory(spec, epsilon=epsilon)
    want = _reference_ideal_trajectory(spec, epsilon=epsilon)
    assert [label for label, _ in got] == [label for label, _ in want]
    for (_, rho_got), (_, rho_want) in zip(got, want):
        assert np.array_equal(rho_got, rho_want)
