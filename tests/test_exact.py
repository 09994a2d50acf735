import numpy as np
import pytest

from exact import LONGDOUBLE_IS_EXTENDED, first_segments, longdouble_gradient, longdouble_propagator, mpmath_propagator
from conftest import sweep_members
from ddgrape.core import batched_unitary_exp
from ddgrape.grape import TargetGate, fidelity_gradient, gate_fidelity, robust_fidelity
from ddgrape.grover import diffusion_unitary, oracle_unitary
from ddgrape.nmr import NoiseRealization, ordered_product, segment_hamiltonians, sequence_propagator

# Largest entry error against the exact propagator, measured on the four toy
# pulses: sequence_propagator 1.06e-14 over the sweep members (9.95e-15 with
# the batched-matmul products it had before), robust_fidelity's member
# products 4.05e-15 over the RFI members (4.28e-15 before).
SEQUENCE_PROPAGATOR_BOUND = 2e-14
ROBUST_PRODUCT_BOUND = 1e-14
# Largest gradient error against the exact gradient, relative to the largest
# exact entry: 6.46e-14 over the four toy pulses and their RFI members (the
# unit-scale members, where the gradient is smallest, the worst).
GRADIENT_BOUND = 1.3e-13
# Where long double is no wider than float64, mpmath takes over on the first
# MPMATH_SEGMENTS segments of each pulse and the sweep's plain members.
MPMATH_SEGMENTS = 4


def test_longdouble_propagator_matches_mpmath_on_a_short_pulse(toy_gates):
    pytest.importorskip("mpmath")
    if not LONGDOUBLE_IS_EXTENDED:
        pytest.skip("long double is no wider than float64 here")
    cfg, gates = toy_gates
    pulse = first_segments(gates["xy:90:20"].pulse_d, 6)
    for member in (NoiseRealization(), NoiseRealization(1.05, 200.0, 0.17)):
        exact = mpmath_propagator(pulse, cfg.system, member)
        assert np.max(np.abs(longdouble_propagator(pulse, cfg.system, member) - exact)) <= 1e-18


def test_forward_kernels_stay_within_measured_bounds_of_the_exact_propagator(toy_gates):
    cfg, gates = toy_gates
    pulses = {"uw": [g.pulse_w for g in gates.values()], "ud": [g.pulse_d for g in gates.values()]}
    members, exact = sweep_members(cfg), longdouble_propagator
    if not LONGDOUBLE_IS_EXTENDED:
        pytest.importorskip("mpmath")
        members, exact = members[:6], mpmath_propagator
        pulses = {label: [first_segments(p, MPMATH_SEGMENTS) for p in ps] for label, ps in pulses.items()}
    targets = {"uw": TargetGate(oracle_unitary(cfg.marked)), "ud": TargetGate(diffusion_unitary())}
    rfi = cfg.rfi_ensemble()
    for label, pulse in ((label, p) for label, ps in pulses.items() for p in ps):
        for member in members:
            u = sequence_propagator(pulse, cfg.system, member)
            assert np.max(np.abs(u - exact(pulse, cfg.system, member))) <= SEQUENCE_PROPAGATOR_BOUND, member
        # robust_fidelity's products, the ones it scores the pulse by
        us = [ordered_product(batched_unitary_exp(segment_hamiltonians(pulse, cfg.system, r), pulse.dt)) for r in rfi.realizations]
        target = targets[label].unitary
        assert robust_fidelity(pulse, targets[label], cfg.system, rfi).fidelity == rfi.mean(gate_fidelity(u, target) for u in us)
        for u, r in zip(us, rfi.realizations):
            assert np.max(np.abs(u - exact(pulse, cfg.system, r))) <= ROBUST_PRODUCT_BOUND, r


def test_fidelity_gradient_stays_within_a_measured_bound_of_the_exact_gradient(toy_gates):
    if not LONGDOUBLE_IS_EXTENDED:
        pytest.skip("long double is no wider than float64 here")
    cfg, gates = toy_gates
    targets = {"uw": TargetGate(oracle_unitary(cfg.marked)), "ud": TargetGate(diffusion_unitary())}
    for gate in gates.values():
        for label, pulse in (("uw", gate.pulse_w), ("ud", gate.pulse_d)):
            for member in cfg.rfi_ensemble().realizations:
                got = np.array(fidelity_gradient(pulse, targets[label], cfg.system, member))
                exact = np.array(longdouble_gradient(pulse, targets[label], cfg.system, member))
                assert np.max(np.abs(got - exact)) <= GRADIENT_BOUND * np.max(np.abs(exact)), (label, member)
