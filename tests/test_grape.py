import math

import numpy as np
import pytest

from conftest import random_unitary
from ddgrape.core import ID4, collective_operator, spin_operator, unitary_exp
from ddgrape.dd import DDScheme, freeze_into, place_dd
from ddgrape.grape import (
    OptimizationConfig,
    TargetGate,
    _fidelity_and_gradient,
    fidelity_gradient,
    gate_fidelity,
    optimize,
    random_initial_pulse,
    robust_fidelity,
)
from ddgrape.grover import diffusion_unitary, oracle_unitary
from ddgrape.harness import ExperimentConfig
from ddgrape.nmr import (
    FX,
    FY,
    NoiseEnsemble,
    NoiseRealization,
    PulseSequence,
    SystemParams,
    save_pulse,
    segment_hamiltonians,
    sequence_propagator,
)

OMEGA_MAX = 2 * math.pi * 1e5


def test_gate_fidelity_examples():
    rng = np.random.default_rng(1)
    u = random_unitary(rng)
    assert gate_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)
    assert gate_fidelity(np.exp(1j * 0.8) * u, u) == pytest.approx(1.0, abs=1e-12)
    assert gate_fidelity(ID4, np.kron([[0, 1], [1, 0]], np.eye(2)).astype(complex)) == pytest.approx(0.0, abs=1e-12)


def test_gate_fidelity_symmetry_and_dimension_check():
    rng = np.random.default_rng(2)
    a, b = random_unitary(rng), random_unitary(rng)
    assert gate_fidelity(a, b) == pytest.approx(gate_fidelity(b, a), abs=1e-12)
    with pytest.raises(ValueError):
        gate_fidelity(a, np.eye(2, dtype=complex))


def test_robust_fidelity_identity_and_convexity():
    rng = np.random.default_rng(3)
    params = SystemParams(436, -436, 7)
    pulse = random_initial_pulse(10, 5.1e-6, OMEGA_MAX, 0.2, 5)
    target = TargetGate(random_unitary(rng), "t")
    single = robust_fidelity(pulse, target, params, NoiseEnsemble.identity())
    assert single.fidelity == pytest.approx(
        gate_fidelity(sequence_propagator(pulse, params), target.unitary), abs=1e-12
    )
    report = robust_fidelity(pulse, target, params, ExperimentConfig().rfi_ensemble())
    assert report.fidelity <= max(f for _, f in report.per_realization) + 1e-12


def test_robust_fidelity_symmetric_rf_pair_on_resonant_rotation():
    # +-5% over/under-rotation of a resonant collective pulse give equal |Tr| overlaps
    dt = 5.1e-6
    params = SystemParams(0, 0, 0)
    pulse = PulseSequence(np.array([0.5 * math.pi / dt]), np.array([0.0]), np.zeros(1, bool), dt, OMEGA_MAX)
    target = TargetGate(unitary_exp(collective_operator("x"), 0.5 * math.pi))
    ens = NoiseEnsemble((NoiseRealization(rf_scale=0.95, weight=0.5), NoiseRealization(rf_scale=1.05, weight=0.5)))
    report = robust_fidelity(pulse, target, params, ens)
    f1, f2 = (f for _, f in report.per_realization)
    assert f1 == pytest.approx(f2, abs=1e-12)


def test_sequence_propagator_scores_desk_pulses_as_robust_fidelity_does(desk_gates):
    # sequence_propagator (the sweep and trajectories) exponentiates in each
    # segment's control-phase frame with a real eigh; robust_fidelity (gate
    # builds and gates.csv) uses the Taylor core.batched_unitary_exp of
    # segment_hamiltonians. Both must score the ten shipped pulses alike
    # under every RFI member.
    cfg, gates = desk_gates
    rfi = cfg.rfi_ensemble()
    targets = {"uw": TargetGate(oracle_unitary(cfg.marked), "uw"), "ud": TargetGate(diffusion_unitary(), "ud")}
    checked = 0
    for gate_set in gates.values():
        for label, pulse in (("uw", gate_set.pulse_w), ("ud", gate_set.pulse_d)):
            target = targets[label]
            for real, f in robust_fidelity(pulse, target, cfg.system, rfi).per_realization:
                u = sequence_propagator(pulse, cfg.system, real)
                assert abs(gate_fidelity(u, target.unitary) - f) <= 1e-12
                checked += 1
    assert checked == 10 * len(rfi.realizations)


def test_gradient_zero_for_all_frozen_pulse():
    params = SystemParams(436, -436, 7)
    pulse = random_initial_pulse(6, 5.1e-6, OMEGA_MAX, 0.2, 9)
    pulse.frozen[:] = True
    gx, gy = fidelity_gradient(pulse, TargetGate(ID4.copy()), params)
    assert not gx.any() and not gy.any()


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    params = SystemParams(436, -436, 70)
    target = TargetGate(random_unitary(rng))
    noise = NoiseRealization(rf_scale=1.03, offset_shift=-4.0, flip_scale=0.98, phase_offset=0.2)
    pulse = random_initial_pulse(12, 5.1e-6, OMEGA_MAX, 0.3, 33)
    gx, gy = fidelity_gradient(pulse, target, params, noise)
    h = 1e-3
    for k in range(pulse.n_segments):
        for arrname, g in (("omega_x", gx), ("omega_y", gy)):
            p1, p2 = pulse.copy(), pulse.copy()
            getattr(p1, arrname)[k] += h
            getattr(p2, arrname)[k] -= h
            fd = (
                gate_fidelity(sequence_propagator(p1, params, noise), target.unitary)
                - gate_fidelity(sequence_propagator(p2, params, noise), target.unitary)
            ) / (2 * h)
            if abs(g[k]) < 1e-6:
                assert g[k] == pytest.approx(fd, abs=1e-9)
            else:
                assert g[k] == pytest.approx(fd, rel=1e-6)


def test_gradient_vanishes_at_exact_optimum():
    # pulse that reproduces the target exactly: target = its own propagator
    params = SystemParams(436, -436, 70)
    pulse = random_initial_pulse(8, 5.1e-6, OMEGA_MAX, 0.2, 55)
    target = TargetGate(sequence_propagator(pulse, params))
    gx, gy = fidelity_gradient(pulse, target, params)
    assert max(np.max(np.abs(gx)), np.max(np.abs(gy))) <= 1e-8


def test_optimize_returns_immediately_when_target_met():
    params = SystemParams(436, -436, 70)
    pulse = random_initial_pulse(8, 5.1e-6, OMEGA_MAX, 0.2, 3)
    target = TargetGate(sequence_propagator(pulse, params))
    out, report, log = optimize(pulse, target, params, OptimizationConfig(fidelity_goal=0.999))
    assert len(log) == 1
    assert report.fidelity > 0.999
    assert np.array_equal(out.omega_x, pulse.omega_x)


def test_optimize_reaches_collective_pi_target():
    params = SystemParams(0, 0, 0)
    target = TargetGate(unitary_exp(collective_operator("x"), math.pi))
    pulse = random_initial_pulse(50, 5.1e-6, OMEGA_MAX, 0.05, 1)
    cfg = OptimizationConfig(max_iterations=500, fidelity_goal=0.999)
    out, report, log = optimize(pulse, target, params, cfg)
    assert report.fidelity >= 0.999
    assert len(log) - 1 <= 500
    # monotone acceptance
    fids = [f for _, f, _ in log]
    assert all(b >= a - 1e-12 for a, b in zip(fids, fids[1:]))
    # clipping invariant
    assert np.max(np.hypot(out.omega_x, out.omega_y)) <= out.omega_max * (1 + 1e-9)


def test_optimize_determinism_bitwise(tmp_path):
    params = SystemParams(436, -436, 70)
    target = TargetGate(unitary_exp(spin_operator(1, "z") + spin_operator(2, "z"), 0.4))
    cfg = OptimizationConfig(max_iterations=40, fidelity_goal=0.9999)
    files = []
    for run in range(2):
        pulse = random_initial_pulse(30, 5.1e-6, OMEGA_MAX, 0.05, 7)
        out, _, _ = optimize(pulse, target, params, cfg)
        path = tmp_path / f"run{run}.txt"
        save_pulse(path, out)
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_optimize_preserves_frozen_segments_exactly():
    params = SystemParams(436, -436, 70)
    pulse = random_initial_pulse(40, 5.1e-6, OMEGA_MAX, 0.05, 13)
    placement = place_dd(40, DDScheme(90, ("x", "y"), 10))
    pulse = freeze_into(pulse, placement)
    target = TargetGate(unitary_exp(collective_operator("y"), 0.5 * math.pi))
    cfg = OptimizationConfig(max_iterations=60, fidelity_goal=0.9999)
    out, _, _ = optimize(pulse, target, params, cfg)
    assert np.array_equal(out.frozen, pulse.frozen)
    assert np.array_equal(out.omega_x[pulse.frozen], pulse.omega_x[pulse.frozen])
    assert np.array_equal(out.omega_y[pulse.frozen], pulse.omega_y[pulse.frozen])
    # and the optimizer actually moved the free segments
    assert not np.array_equal(out.omega_x[~pulse.frozen], pulse.omega_x[~pulse.frozen])


def test_optimize_rejects_overdriven_frozen_segment():
    pulse = PulseSequence(np.array([2.0 * OMEGA_MAX, 0.0]), np.zeros(2), np.array([True, False]), 5.1e-6, OMEGA_MAX)
    with pytest.raises(ValueError):
        optimize(pulse, TargetGate(ID4.copy()), SystemParams(0, 0, 0), OptimizationConfig())


def test_random_initial_pulse_contracts():
    a = random_initial_pulse(1000, 5.1e-6, OMEGA_MAX, 0.3, 99)
    b = random_initial_pulse(1000, 5.1e-6, OMEGA_MAX, 0.3, 99)
    assert np.array_equal(a.omega_x, b.omega_x) and np.array_equal(a.omega_y, b.omega_y)
    assert np.max(np.abs(a.omega_x)) <= 0.3 * OMEGA_MAX
    assert np.max(np.abs(a.omega_y)) <= 0.3 * OMEGA_MAX
    with pytest.raises(ValueError):
        random_initial_pulse(10, 5.1e-6, OMEGA_MAX, 0.0, 1)


# ---------------------------------------------------------------------------
# The batched gradient kernel against the one-realization-at-a-time kernel
# it replaced, which is kept here verbatim as an oracle.


def _oracle_fidelity_and_gradient(pulse, target, params, realization):
    k_count = pulse.n_segments
    dt = pulse.dt
    hs = segment_hamiltonians(pulse, params, realization)
    w, v = np.linalg.eigh(hs)
    phases = np.exp(-1j * dt * w)
    us = (v * phases[:, None, :]) @ v.conj().swapaxes(-1, -2)
    n = 4
    ut_dag = target.unitary.conj().T
    prefix = np.empty((k_count, n, n), dtype=complex)
    acc = np.eye(n, dtype=complex)
    for k in range(k_count):
        prefix[k] = acc
        acc = us[k] @ acc
    u_total = acc
    suffix = np.empty((k_count, n, n), dtype=complex)
    acc = np.eye(n, dtype=complex)
    for k in range(k_count - 1, -1, -1):
        suffix[k] = acc
        acc = acc @ us[k]
    g = np.trace(ut_dag @ u_total)
    fidelity = abs(g) / n
    if abs(g) < 1e-14:
        return fidelity, np.zeros(k_count), np.zeros(k_count)
    c = (prefix @ ut_dag) @ suffix
    lam_i = w[:, :, None]
    lam_j = w[:, None, :]
    num = phases[:, :, None] - phases[:, None, :]
    den = lam_i - lam_j
    small = np.abs(den) < 1e-12
    gamma = np.where(small, -1j * dt * phases[:, :, None] * np.ones_like(den), num / np.where(small, 1.0, den))
    scale = realization.rf_scale * realization.flip_scale
    cph, sph = math.cos(realization.phase_offset), math.sin(realization.phase_offset)
    dx = scale * (cph * FX + sph * FY)
    dy = scale * (-sph * FX + cph * FY)
    v_dag = v.conj().swapaxes(-1, -2)
    c_tilde_t = (v_dag @ c @ v).swapaxes(-1, -2)
    x_x = v_dag @ (dx @ v)
    x_y = v_dag @ (dy @ v)
    dg_x = np.sum(c_tilde_t * (x_x * gamma), axis=(1, 2))
    dg_y = np.sum(c_tilde_t * (x_y * gamma), axis=(1, 2))
    coeff = (g.conjugate() / abs(g)) / n
    grad_x = np.real(coeff * dg_x)
    grad_y = np.real(coeff * dg_y)
    grad_x[pulse.frozen] = 0.0
    grad_y[pulse.frozen] = 0.0
    return fidelity, grad_x, grad_y


MIXED_ENSEMBLE = NoiseEnsemble(
    (
        NoiseRealization(rf_scale=0.93, weight=0.25),
        NoiseRealization(offset_shift=-7.0, weight=0.25),
        NoiseRealization(flip_scale=1.04, weight=0.25),
        NoiseRealization(rf_scale=1.05, offset_shift=3.0, phase_offset=0.3, weight=0.25),
    )
)


def test_ensemble_gradient_bitwise_equals_per_realization_oracle():
    # The desk U_D start: K = 1470 with frozen xy:90:100 segments. The size
    # matters, because the oracle's c_tilde^T * (X * gamma) is evaluated in
    # place, with its operands swapped, only from K = 1024 up.
    cfg = ExperimentConfig()
    k = cfg.n_segments_per_gate
    pulse = random_initial_pulse(k, cfg.dt, cfg.omega_max, cfg.amplitude_fraction, 2024)
    pulse = freeze_into(pulse, place_dd(k, DDScheme.parse("xy:90:100")))
    target = TargetGate(diffusion_unitary(), "ud")
    mean_f, gx, gy = 0.0, np.zeros(k), np.zeros(k)
    for real in MIXED_ENSEMBLE.realizations:
        f, rx, ry = _oracle_fidelity_and_gradient(pulse, target, cfg.system, real)
        mean_f += real.weight * f
        gx += real.weight * rx
        gy += real.weight * ry
    fids, rx, ry = _fidelity_and_gradient(pulse, target, cfg.system, MIXED_ENSEMBLE.realizations)
    got_f, got_x, got_y = (MIXED_ENSEMBLE.mean(values) for values in (fids, rx, ry))
    assert got_f == mean_f
    assert np.array_equal(got_x, gx) and np.array_equal(got_y, gy)
    assert not got_x[pulse.frozen].any() and got_x[~pulse.frozen].any()


def _zero_trace_case():
    # A collective x rotation without a system Hamiltonian: U = r (x) r and
    # Tr(Z1 U) = Tr(Z r) Tr(r) = 0 up to round-off, for the noiseless and
    # the RF-scaled member. An offset shift makes the trace nonzero.
    k = 20
    pulse = PulseSequence(np.full(k, 2e4), np.zeros(k), np.zeros(k, bool), 5.1e-6, OMEGA_MAX)
    target = TargetGate(np.diag([1, 1, -1, -1]).astype(complex), "z1")
    reals = (NoiseRealization(), NoiseRealization(offset_shift=900.0), NoiseRealization(rf_scale=1.1))
    return pulse, target, SystemParams(0, 0, 0), reals


def _random_case():
    rng = np.random.default_rng(8)
    pulse = random_initial_pulse(50, 5.1e-6, OMEGA_MAX, 0.3, 8)
    pulse = freeze_into(pulse, place_dd(50, DDScheme(90, ("x", "y"), 20)))
    return pulse, TargetGate(random_unitary(rng)), SystemParams(436, -436, 70), MIXED_ENSEMBLE.realizations[1:]


@pytest.mark.parametrize("case", [_random_case, _zero_trace_case])
def test_batched_gradient_rows_equal_single_realization_calls(case):
    pulse, target, params, reals = case()
    fids, gx, gy = _fidelity_and_gradient(pulse, target, params, reals)
    assert fids.shape == (3,) and gx.shape == gy.shape == (3, pulse.n_segments)
    for r, real in enumerate(reals):
        f1, gx1, gy1 = _fidelity_and_gradient(pulse, target, params, (real,))
        assert fids[r] == f1[0]
        assert np.array_equal(gx[r], gx1[0]) and np.array_equal(gy[r], gy1[0])
    if case is _zero_trace_case:
        assert fids[0] < 1e-14 and fids[2] < 1e-14 and fids[1] > 0.1
        assert not gx[[0, 2]].any() and not gy[[0, 2]].any()
        assert gx[1].any() or gy[1].any()
