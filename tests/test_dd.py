import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unitary
from ddgrape.core import ID4, SIGMA_X, collective_operator, global_phase_distance
from ddgrape.dd import (
    DDPlacement,
    DDScheme,
    freeze_into,
    hard_pulse_amplitude,
    ideal_dd_propagator,
    place_dd,
    toggling_check,
)
from ddgrape.nmr import PulseSequence


def test_place_dd_single_center_pulse():
    p = place_dd(2000, DDScheme(90, ("x",), 2000))
    assert p.indices == (1000,)
    assert p.phases == ("x",)


def test_place_dd_alternating_phases():
    p = place_dd(2000, DDScheme(90, ("x", "y"), 1000))
    assert p.indices == (500, 1500)
    assert p.phases == ("x", "y")

    p = place_dd(8, DDScheme(180, ("x", "y"), 4))
    assert p.indices == (2, 6)
    assert p.phases == ("x", "y")


def test_place_dd_partial_block_gets_no_pulse():
    p = place_dd(250, DDScheme(90, ("x", "y"), 100))
    assert p.indices == (50, 150)


def test_place_dd_rejects_short_sequences():
    with pytest.raises(ValueError):
        place_dd(3, DDScheme(90, ("x",), 4))


def test_ideal_dd_propagator_pi_x():
    u = ideal_dd_propagator(180, "x")
    assert np.max(np.abs(u + np.kron(SIGMA_X, SIGMA_X))) < 1e-12
    assert abs((u @ np.array([1, 0, 0, 0]))[3] + 1) < 1e-12


@pytest.mark.parametrize("phase", ["x", "y"])
@pytest.mark.parametrize("flip_deg", [90, 180, 45, 270, -90, 123.4])
def test_ideal_dd_propagator_is_the_collective_rotation(flip_deg, phase):
    # the closed form r (x) r against the matrix exponential exp(-i beta F_a)
    want = scipy.linalg.expm(-1j * math.radians(flip_deg) * collective_operator(phase))
    assert np.max(np.abs(ideal_dd_propagator(flip_deg, phase) - want)) <= 1e-15


def test_ideal_dd_propagator_composition():
    half = ideal_dd_propagator(90, "x")
    assert np.max(np.abs(half @ half - ideal_dd_propagator(180, "x"))) < 1e-12
    quarter = ideal_dd_propagator(90, "y")
    full = quarter @ quarter @ quarter @ quarter
    assert global_phase_distance(full, ID4) < 1e-12


def test_freeze_into_amplitudes_and_idempotence():
    dt = 5.1e-6
    pulse = PulseSequence.zeros(8, dt, 2 * math.pi * 1e5)
    placement = place_dd(8, DDScheme(180, ("x", "y"), 4))
    frozen = freeze_into(pulse, placement)
    assert frozen.omega_x[2] == pytest.approx(math.pi / dt, rel=1e-12)
    assert frozen.omega_x[2] == pytest.approx(6.160e5, rel=1e-3)
    assert frozen.omega_y[6] == pytest.approx(math.pi / dt, rel=1e-12)
    assert frozen.omega_y[2] == 0.0 and frozen.omega_x[6] == 0.0
    assert np.count_nonzero(frozen.frozen) == len(placement.indices)
    again = freeze_into(frozen, placement)
    assert np.array_equal(again.omega_x, frozen.omega_x)
    assert np.array_equal(again.omega_y, frozen.omega_y)
    assert np.array_equal(again.frozen, frozen.frozen)


def test_freeze_into_empty_placement_is_noop():
    pulse = PulseSequence.zeros(8, 5.1e-6, 1e6)
    out = freeze_into(pulse, DDPlacement((), 90.0, ()))
    assert np.array_equal(out.omega_x, pulse.omega_x)
    assert not out.frozen.any()


def test_freeze_into_rejects_amplitude_above_omega_max():
    pulse = PulseSequence.zeros(8, 5.1e-6, 1e5)  # pi/dt > omega_max
    with pytest.raises(ValueError):
        freeze_into(pulse, place_dd(8, DDScheme(180, ("x",), 4)))


@pytest.mark.parametrize("scheme", ["xy:nan:20", "xy:-200:20"])
def test_freeze_into_rejects_a_nan_or_too_strong_negative_flip(scheme):
    pulse = PulseSequence.zeros(60, 5.1e-6, 2 * math.pi * 1e5)  # 200 degrees need 6.8e5 rad/s
    with pytest.raises(ValueError, match="not within omega_max"):
        freeze_into(pulse, place_dd(60, DDScheme.parse(scheme)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(flip=st.floats() | st.floats(-720.0, 720.0), dt=st.floats(), omega_max=st.floats())
def test_fuzz_hard_pulse_amplitude(flip, dt, omega_max):
    # dt and omega_max reach the helper as a PulseSequence holds them.
    try:
        pulse = PulseSequence.zeros(1, dt, omega_max)
        amp = hard_pulse_amplitude(flip, pulse.dt, pulse.omega_max)
    except ValueError:
        return
    assert amp == math.radians(flip) / dt
    assert math.isfinite(amp) and abs(amp) <= omega_max * (1 + 1e-12)


def test_toggling_check_no_pulses():
    rng = np.random.default_rng(2)
    placement = DDPlacement((), 90.0, ())
    assert toggling_check([random_unitary(rng)], placement) == pytest.approx(0.0, abs=1e-12)


def test_toggling_check_xy4():
    rng = np.random.default_rng(9)
    placement = DDPlacement((0, 1, 2, 3), 180, ("x", "y", "x", "y"))
    us = [random_unitary(rng) for _ in range(5)]
    assert toggling_check(us, placement) < 1e-10


def test_toggling_check_single_pi_pulse_needs_net_rotation():
    # one pulse is not a cyclic scheme; agreement relies on the net-rotation prefix
    rng = np.random.default_rng(10)
    placement = DDPlacement((0,), 180, ("x",))
    us = [random_unitary(rng) for _ in range(2)]
    assert toggling_check(us, placement) < 1e-10


def test_toggling_identity_random_schemes():
    rng = np.random.default_rng(12)
    for m in range(1, 9):
        flip = float(rng.choice([90.0, 180.0]))
        phases = tuple(rng.choice(["x", "y"]) for _ in range(m))
        placement = DDPlacement(tuple(range(m)), flip, phases)
        us = [random_unitary(rng) for _ in range(m + 1)]
        assert toggling_check(us, placement) < 1e-10


def test_scheme_descriptor_parse():
    assert DDScheme.parse("xy:90:1000") == DDScheme(90.0, ("x", "y"), 1000)
    assert DDScheme.parse("yxy:180.5:10") == DDScheme(180.5, ("y", "x", "y"), 10)
    with pytest.raises(ValueError):
        DDScheme.parse("xz:90:100")
    with pytest.raises(ValueError):
        DDScheme.parse("xy:90")
