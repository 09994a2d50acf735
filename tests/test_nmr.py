import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unitary, sweep_members
from ddgrape.core import ID4, is_unitary
from ddgrape.dd import DDScheme, freeze_into, ideal_dd_propagator, place_dd
from ddgrape.nmr import (
    FX,
    FY,
    NoiseEnsemble,
    NoiseRealization,
    PulseSequence,
    SystemParams,
    _mul4,
    apply_noise_to_amplitudes,
    evolve_ensemble,
    load_pulse,
    ordered_product,
    pseudopure_state,
    rotation_bound,
    save_pulse,
    segment_hamiltonians,
    sequence_propagator,
    shifted_params,
    system_hamiltonian,
    within_omega_max,
)

TWO_PI = 2 * math.pi
FUZZ = settings(max_examples=200, deadline=None, derandomize=True)


def test_system_hamiltonian_zero():
    assert np.allclose(system_hamiltonian(SystemParams(0, 0, 0)), np.zeros((4, 4)))


def test_system_hamiltonian_paper_offsets():
    h = system_hamiltonian(SystemParams(436.0, -436.0, 7.0))
    assert np.allclose(np.diag(h).real / TWO_PI, [1.75, -437.75, 434.25, 1.75], atol=1e-12)
    assert np.allclose(h, np.diag(np.diag(h)))


def test_system_hamiltonian_symmetric_offsets():
    h = system_hamiltonian(SystemParams(100.0, 100.0, 0.0))
    assert np.allclose(np.diag(h).real / TWO_PI, [-100, 0, 0, 100], atol=1e-12)


def _one_segment(omega_x, omega_y, dt):
    return PulseSequence(np.array([omega_x]), np.array([omega_y]), np.zeros(1, bool), dt, 1e6)


def test_segment_propagator_trivial_identity():
    u = sequence_propagator(_one_segment(0.0, 0.0, 1e-5), SystemParams(0, 0, 0))
    assert np.allclose(u, ID4, atol=1e-14)


def test_segment_propagator_collective_pi_pulse():
    dt = 5.1e-6
    u = sequence_propagator(_one_segment(math.pi / dt, 0.0, dt), SystemParams(0, 0, 0))
    expected = ideal_dd_propagator(180, "x")
    assert np.max(np.abs(u - expected)) < 1e-12


def test_segment_propagator_phase_noise_matches_rotated_control():
    # oracle: rebuild the control Hamiltonian with explicitly rotated amplitudes
    dt = 5.1e-6
    params = SystemParams(436, -436, 7)
    phi = 0.37
    ox, oy = 2e4, -1.3e4
    noise = NoiseRealization(phase_offset=phi)
    u = sequence_propagator(_one_segment(ox, oy, dt), params, noise)
    rx = ox * math.cos(phi) - oy * math.sin(phi)
    ry = ox * math.sin(phi) + oy * math.cos(phi)
    h = system_hamiltonian(params) + rx * FX + ry * FY
    assert np.max(np.abs(u - scipy.linalg.expm(-1j * dt * h))) < 1e-12


def test_segment_propagator_unitary_under_noise():
    rng = np.random.default_rng(4)
    params = SystemParams(436, -436, 7)
    for _ in range(10):
        # An RF scale in [0.8, 1.2] times a flip-angle scale in [0.9, 1.1].
        rf, shift, flip = rng.uniform(0.8, 1.2), rng.uniform(-20, 20), rng.uniform(0.9, 1.1)
        noise = NoiseRealization(rf_scale=rf * flip, offset_shift=shift, phase_offset=rng.uniform(-0.5, 0.5))
        pulse = _one_segment(rng.uniform(-1e5, 1e5), rng.uniform(-1e5, 1e5), 5.1e-6)
        assert is_unitary(sequence_propagator(pulse, params, noise))


def test_sequence_propagator_identity_and_commuting():
    pulse = PulseSequence.zeros(5, 1e-5, 1e6)
    assert np.allclose(sequence_propagator(pulse, SystemParams(0, 0, 0)), ID4, atol=1e-14)

    # two segments with the same generator == one segment of doubled duration
    dt = 5.1e-6
    two = PulseSequence(np.array([3e4, 3e4]), np.array([1e4, 1e4]), np.zeros(2, bool), dt, 1e6)
    one = PulseSequence(np.array([3e4]), np.array([1e4]), np.zeros(1, bool), 2 * dt, 1e6)
    params = SystemParams(436, -436, 7)
    assert np.max(np.abs(sequence_propagator(two, params) - sequence_propagator(one, params))) < 1e-10


def test_sequence_propagator_against_bruteforce_product():
    rng = np.random.default_rng(17)
    params = SystemParams(436, -436, 7)
    pulse = PulseSequence(
        rng.uniform(-1e5, 1e5, 20), rng.uniform(-1e5, 1e5, 20), np.zeros(20, bool), 5.1e-6, 2e5
    )
    # independent left-multiplication loop over single-matrix exponentials
    expected = ID4.copy()
    for ox, oy in zip(pulse.omega_x, pulse.omega_y):
        h = system_hamiltonian(params) + ox * FX + oy * FY
        expected = scipy.linalg.expm(-1j * h * pulse.dt) @ expected
    assert np.max(np.abs(sequence_propagator(pulse, params) - expected)) < 1e-10


def _dd_pulse_with_idle_segments(k=400, seed=5):
    """Random shaped segments, frozen xy:90:100 DD pulses along +-x and +-y,
    and seven free segments with zero amplitude."""
    rng = np.random.default_rng(seed)
    omega_max = TWO_PI * 1e5
    lim = 0.2 * omega_max
    pulse = PulseSequence(rng.uniform(-lim, lim, k), rng.uniform(-lim, lim, k), np.zeros(k, bool), 5.1e-6, omega_max)
    pulse = freeze_into(pulse, place_dd(k, DDScheme.parse("xy:90:100")))
    idle = rng.choice(np.flatnonzero(~pulse.frozen), 7, replace=False)
    ox, oy = pulse.omega_x.copy(), pulse.omega_y.copy()
    ox[idle] = oy[idle] = 0.0
    return pulse.with_amplitudes(ox, oy)


def test_sequence_propagator_matches_expm_left_fold():
    params = SystemParams(436.0, -436.0, 70.0)
    pulse = _dd_pulse_with_idle_segments()
    noise = NoiseRealization(rf_scale=1.04 * 0.97, offset_shift=-6.5, phase_offset=0.31)
    expected = ID4.copy()
    for h in segment_hamiltonians(pulse, params, noise):
        expected = scipy.linalg.expm(-1j * h * pulse.dt) @ expected
    assert np.max(np.abs(sequence_propagator(pulse, params, noise) - expected)) <= 1e-13


def test_rotation_bound_bounds_every_segment_hamiltonian():
    rng = np.random.default_rng(17)
    omega_max, dt, k = TWO_PI * 1e5, 5.1e-6, 50
    for _ in range(20):
        params = SystemParams(*rng.uniform(-2e4, 2e4, 2), rng.uniform(0, 2e3))
        member = NoiseRealization(rng.uniform(0.5, 2.0), rng.uniform(-1e3, 1e3), rng.uniform(-math.pi, math.pi))
        norm = omega_max * np.sqrt(rng.uniform(0, 1, k))
        phase = rng.uniform(-math.pi, math.pi, k)
        pulse = PulseSequence(norm * np.cos(phase), norm * np.sin(phase), np.zeros(k, bool), dt, omega_max)
        norms = np.linalg.norm(segment_hamiltonians(pulse, params, member), ord=2, axis=(1, 2)) * dt
        assert rotation_bound(params, member, omega_max, dt) >= norms.max(), (params, member)


def test_rotation_bound_is_the_norm_of_an_on_axis_omega_max_segment():
    params, omega_max, dt = SystemParams(0.0, 0.0, 0.0), TWO_PI * 1e5, 5.1e-6
    member = NoiseRealization(rf_scale=1.1)
    pulse = PulseSequence([omega_max], [0.0], [False], dt, omega_max)
    norm = np.linalg.norm(segment_hamiltonians(pulse, params, member)[0], ord=2) * dt
    assert rotation_bound(params, member, omega_max, dt) == pytest.approx(norm, rel=1e-12)


def test_rotation_bound_less_its_control_term_is_the_norm_of_an_idle_segment_at_equal_offsets():
    # With nu1 + d = nu2 + d > 0, H_S's |11> entry is pi (nu1 + nu2 + 2 d) + pi J / 2.
    params, omega_max, dt = SystemParams(436.0, 436.0, 70.0), TWO_PI * 1e5, 5.1e-6
    member = NoiseRealization(rf_scale=1.1, offset_shift=-10.0)
    pulse = PulseSequence([0.0], [0.0], [False], dt, omega_max)
    norm = np.linalg.norm(segment_hamiltonians(pulse, params, member)[0], ord=2) * dt
    control = dt * member.rf_scale * omega_max
    assert rotation_bound(params, member, omega_max, dt) - control == pytest.approx(norm, rel=1e-12)


def test_phase_error_is_a_collective_z_rotation_of_the_propagator():
    # H_S' commutes with F_z, so a phase error phi conjugates the whole
    # product by R_z(phi) = exp(-i phi F_z) = diag(e^{-i phi}, 1, 1, e^{i phi}).
    params = SystemParams(436.0, -436.0, 70.0)
    pulse = _dd_pulse_with_idle_segments()
    phi = 0.31
    base = dict(rf_scale=1.04 * 0.97, offset_shift=-6.5)
    u0 = sequence_propagator(pulse, params, NoiseRealization(**base))
    u_phi = sequence_propagator(pulse, params, NoiseRealization(phase_offset=phi, **base))
    r = np.exp(-1j * phi * np.array([1.0, 0.0, 0.0, -1.0]))
    assert np.max(np.abs(u_phi - r[:, None] * u0 * r.conj()[None, :])) <= 1e-13


def _evolve(rho0, pulses, params, ensemble):
    """evolve_ensemble with each member's propagator for every pulse."""
    stages = [[sequence_propagator(p, params, real) for real in ensemble.realizations] for p in pulses]
    return evolve_ensemble(rho0, ensemble, stages)


def test_evolve_ensemble_identity_reduces_to_conjugation():
    rng = np.random.default_rng(23)
    params = SystemParams(436, -436, 7)
    pulse = PulseSequence(
        rng.uniform(-5e4, 5e4, 10), rng.uniform(-5e4, 5e4, 10), np.zeros(10, bool), 5.1e-6, 2e5
    )
    rho0 = pseudopure_state(1.0)
    out = _evolve(rho0, [pulse], params, NoiseEnsemble.identity())
    u = sequence_propagator(pulse, params)
    assert len(out) == 2
    assert np.array_equal(out[0], rho0)
    assert np.max(np.abs(out[1] - u @ rho0 @ u.conj().T)) < 1e-10


def _plus_zero_state():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    zero = np.array([1, 0], dtype=complex)
    psi = np.kron(plus, zero)
    return np.outer(psi, psi.conj())


def test_evolve_ensemble_symmetric_offsets_give_real_coherence():
    params = SystemParams(0, 0, 0)
    t = 3.4e-3
    pulse = PulseSequence.zeros(1, t, 1e6)
    delta = 7.0
    ens = NoiseEnsemble((NoiseRealization(offset_shift=delta), NoiseRealization(offset_shift=-delta)))
    out = _evolve(_plus_zero_state(), [pulse], params, ens)[-1]
    # oracle: average of conjugate phases e^{+-i 2 pi delta t} is cos(2 pi delta t)
    assert abs(out[0, 2].imag) < 1e-12
    assert out[0, 2].real == pytest.approx(0.5 * math.cos(TWO_PI * delta * t), abs=1e-12)


def test_evolve_ensemble_incoherence_grid_dephasing_envelope():
    params = SystemParams(0, 0, 0)
    t = 20e-3
    pulse = PulseSequence.zeros(1, t, 1e6)
    shifts = np.linspace(-10, 10, 21)
    ens = NoiseEnsemble(tuple(NoiseRealization(offset_shift=s) for s in shifts))
    out = _evolve(_plus_zero_state(), [pulse], params, ens)[-1]
    # oracle: discrete average of the accumulated phases over the grid
    envelope = np.mean(np.cos(TWO_PI * shifts * t))
    assert out[0, 2].real == pytest.approx(0.5 * envelope, abs=1e-12)
    # populations never move under free evolution
    assert np.allclose(np.diag(out).real, np.diag(_plus_zero_state()).real, atol=1e-12)


def test_evolve_ensemble_preserves_trace_each_stage():
    rng = np.random.default_rng(31)
    params = SystemParams(436, -436, 7)
    pulses = [
        PulseSequence(rng.uniform(-5e4, 5e4, 8), rng.uniform(-5e4, 5e4, 8), np.zeros(8, bool), 5.1e-6, 2e5)
        for _ in range(3)
    ]
    ens = NoiseEnsemble(tuple(NoiseRealization(rf_scale=s) for s in (0.90, 0.95, 1.00, 1.05, 1.10)))
    out = _evolve(pseudopure_state(0.5), pulses, params, ens)
    assert len(out) == 4
    for rho in out:
        assert abs(np.trace(rho).real - 1) < 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def test_evolve_ensemble_rejects_a_mean_state_without_unit_trace():
    ens = NoiseEnsemble(tuple(NoiseRealization(rf_scale=s) for s in (0.9, 1.1)))
    rho0 = pseudopure_state(0.5)
    assert len(evolve_ensemble(rho0, ens, [[ID4, ID4]])) == 2
    with pytest.raises(ValueError, match=r"state 1 .*trace"):
        evolve_ensemble(rho0, ens, [[ID4, 1.001 * ID4]])
    with pytest.raises(ValueError, match=r"state 0 .*trace"):
        evolve_ensemble(2.0 * rho0, ens, [])


def test_pseudopure_state_examples():
    assert np.allclose(pseudopure_state(1.0), np.diag([1, 0, 0, 0]))
    evals = sorted(np.linalg.eigvalsh(pseudopure_state(0.01)), reverse=True)
    assert np.allclose(evals, [0.2575, 0.2475, 0.2475, 0.2475], atol=1e-14)
    for epsilon in (0.0, 1.5):
        with pytest.raises(ValueError, match="epsilon"):
            pseudopure_state(epsilon)


def test_mean_is_the_left_fold_in_member_order():
    ens = NoiseEnsemble(tuple(NoiseRealization(offset_shift=s) for s in (0.0, 1.0, 2.0)))
    w = 1 / 3
    values = [1e16, 1.0, -1e16]
    fold = ((0.0 + w * values[0]) + w * values[1]) + w * values[2]
    # Order matters here: the exactly rounded sum is 1/3, the fold gives 0.5.
    assert fold != math.fsum(w * v for v in values)
    assert ens.mean(values) == fold
    rng = np.random.default_rng(5)
    arrays = [rng.normal(size=(4, 4)) * 10.0**e for e in (16, 0, 16)]
    arrays[2] = -arrays[0] + 1j * arrays[1]
    assert np.array_equal(ens.mean(arrays), ((0.0 + w * arrays[0]) + w * arrays[1]) + w * arrays[2])
    with pytest.raises(ValueError):
        ens.mean(values[:2])
    # Every member counts 1/n, so an ensemble needs one.
    with pytest.raises(ValueError, match="at least one"):
        NoiseEnsemble(())


def test_combined_with_is_the_row_major_outer_product():
    outer = NoiseEnsemble((NoiseRealization(0.5, 1.0, 0.25), NoiseRealization(2.0, -3.0, 0.0)))
    inner = NoiseEnsemble(
        (NoiseRealization(1.5, 0.0, 0.5), NoiseRealization(1.0, 4.0, -0.25), NoiseRealization(0.75, -1.0, 0.0))
    )
    combined = outer.combined_with(inner)
    # self's members outer, other's inner; rf_scale multiplies, offsets and phases add.
    expected = [
        (0.75, 1.0, 0.75), (0.5, 5.0, 0.0), (0.375, 0.0, 0.25),
        (3.0, -3.0, 0.5), (2.0, 1.0, -0.25), (1.5, -4.0, 0.0),
    ]
    assert combined.realizations == tuple(NoiseRealization(*fields) for fields in expected)
    # Each of the n * m members counts 1 / (n * m) in the mean.
    assert np.array_equal(combined.mean(np.eye(6)), np.full(6, 1 / 6))
    values = [1e16, 1.0, -1e16, 3.0, 5.0, 7.0]
    fold = 0.0
    for v in values:
        fold = fold + (1 / 6) * v
    assert combined.mean(values) == fold


@pytest.mark.parametrize("field", ["rf_scale"])
def test_noise_realization_rejects_non_positive_scales(field):
    with pytest.raises(ValueError, match=field):
        NoiseRealization(**{field: 0.0})


@pytest.mark.parametrize(
    "make",
    [
        lambda: NoiseRealization(rf_scale=math.nan),
        lambda: NoiseRealization(offset_shift=math.inf),
    ],
    ids=["rf_scale-nan", "offset_shift-inf"],
)
def test_noise_constructors_reject_non_finite_values(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@FUZZ
@given(rf=st.floats(), shift=st.floats(), phase=st.floats())
def test_fuzz_noise_realization(rf, shift, phase):
    try:
        real = NoiseRealization(rf, shift, phase)
    except ValueError:
        return
    assert all(map(math.isfinite, dataclasses.astuple(real)))
    assert real.rf_scale > 0


@pytest.mark.parametrize(
    "change, message",
    [
        ({"dt": math.nan}, "must be finite and > 0"),
        ({"omega_max": -1.0}, "must be finite and > 0"),
        ({"omega_x": [0.0, math.nan, 0.0]}, "segment 1 has a non-finite amplitude"),
        ({"omega_x": np.zeros((3, 1)), "omega_y": np.zeros((3, 1)), "frozen": np.zeros((3, 1), bool)}, "1-D"),
    ],
    ids=["dt-nan", "omega_max-negative", "amplitude-nan", "2-D"],
)
def test_pulse_sequence_rejects_bad_values(change, message):
    fields = dict(omega_x=np.zeros(3), omega_y=np.zeros(3), frozen=np.zeros(3, bool), dt=5.1e-6, omega_max=1e6)
    fields.update(change)
    with pytest.raises(ValueError, match=message):
        PulseSequence(**fields)


# omega_x and omega_y of one length, 0 to 3 segments.
amplitude_pairs = st.integers(0, 3).flatmap(lambda n: st.tuples(*[st.lists(st.floats(), min_size=n, max_size=n)] * 2))


@FUZZ
@given(
    amplitudes=amplitude_pairs,
    ragged=st.booleans(),
    column=st.booleans(),
    dt=st.floats() | st.floats(1e-9, 1e-3),
    omega_max=st.floats() | st.floats(1e3, 1e7),
)
def test_fuzz_pulse_sequence(amplitudes, ragged, column, dt, omega_max):
    ox, oy = amplitudes
    shape = (-1, 1) if column else (-1,)
    frozen = np.zeros(len(ox) + ragged, bool)
    try:
        pulse = PulseSequence(np.reshape(ox, shape), np.reshape(oy, shape), frozen.reshape(shape), dt, omega_max)
    except ValueError:
        return
    assert pulse.omega_x.ndim == 1 and pulse.n_segments >= 1
    assert pulse.omega_x.shape == pulse.omega_y.shape == pulse.frozen.shape
    assert np.all(np.isfinite(pulse.omega_x)) and np.all(np.isfinite(pulse.omega_y))
    assert math.isfinite(pulse.dt) and pulse.dt > 0 and math.isfinite(pulse.omega_max) and pulse.omega_max > 0


def test_pulse_file_roundtrip(tmp_path):
    rng = np.random.default_rng(41)
    pulse = PulseSequence(
        rng.uniform(-1e5, 1e5, 12), rng.uniform(-1e5, 1e5, 12),
        rng.random(12) < 0.3, 5.1e-6, 2 * math.pi * 1e5,
    )
    path = tmp_path / "pulse.txt"
    save_pulse(path, pulse)
    back = load_pulse(path)
    assert np.array_equal(back.omega_x, pulse.omega_x)
    assert np.array_equal(back.omega_y, pulse.omega_y)
    assert np.array_equal(back.frozen, pulse.frozen)
    assert back.dt == pulse.dt and back.omega_max == pulse.omega_max


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 1470])
def test_ordered_product_matches_left_fold(k):
    rng = np.random.default_rng(k)
    us = np.array([random_unitary(rng) for _ in range(k)])
    fold = us[0]
    for u in us[1:]:
        fold = u @ fold
    assert np.max(np.abs(ordered_product(us) - fold)) <= 1e-13
    # Each round is one _mul4 over (4, 4, n) stacks; it also takes a complex
    # stack times a real one (and the reverse), giving what matmul gives.
    real = np.linalg.qr(rng.normal(size=(k, 4, 4)))[0]
    for a, b in ((us, real), (real, us), (real, real)):
        product = np.moveaxis(_mul4(np.moveaxis(a, 0, -1), np.moveaxis(b, 0, -1)), -1, 0)
        assert product.dtype == (a @ b).dtype
        assert np.max(np.abs(product - a @ b)) <= 2e-15


def _two_real_matmul_propagator(pulse, params, noise):
    """sequence_propagator as it was before its 4 x 4 products became
    elementwise: the recompose as two real batched matmuls, the pairwise
    tree as complex ones."""
    hs = np.diag(system_hamiltonian(shifted_params(params, noise))).real
    ox, oy = apply_noise_to_amplitudes(pulse.omega_x, pulse.omega_y, noise)
    omega = np.hypot(ox, oy)
    w, v = np.linalg.eigh(np.diag(hs) + omega[:, None, None] * FX.real)
    vt = v.swapaxes(-1, -2)
    us = np.empty(v.shape, dtype=complex)
    us.real = (v * np.cos(w * pulse.dt)[:, None, :]) @ vt
    us.imag = (v * -np.sin(w * pulse.dt)[:, None, :]) @ vt
    phase = np.divide(ox + 1j * oy, omega, out=np.ones(omega.shape, dtype=complex), where=omega > 0)
    us[:, 0, :] *= phase.conj()[:, None]
    us[:, 3, :] *= phase[:, None]
    us[:, :, 0] *= phase[:, None]
    us[:, :, 3] *= phase.conj()[:, None]
    while us.shape[0] > 1:
        pairs = us[1::2] @ us[0:-1:2]
        us = np.concatenate((pairs, us[-1:])) if us.shape[0] % 2 else pairs
    return us[0]


def test_sequence_propagator_matches_its_two_real_matmul_form_on_desk_pulses(desk_gates):
    cfg, gates = desk_gates
    members = sweep_members(cfg)[::2]
    worst = 0.0
    for gate_set in gates.values():
        for pulse in (gate_set.pulse_w, gate_set.pulse_d):
            for member in members:
                u = sequence_propagator(pulse, cfg.system, member)
                worst = max(worst, np.max(np.abs(u - _two_real_matmul_propagator(pulse, cfg.system, member))))
    assert worst <= 1e-13


def _pulse_file(tmp_path):
    pulse = PulseSequence(
        np.array([1e5, -2e5, 0.0]), np.array([0.0, 1e5, 3e5]), np.array([False, True, False]), 5.1e-6, TWO_PI * 1e5
    )
    path = tmp_path / "pulse.txt"
    save_pulse(path, pulse)
    return path, path.read_text().splitlines()


@pytest.mark.parametrize(
    "line, text, message",
    [
        (3, "1 1e300 0.0 1", "amplitude norm above omega_max"),
        (3, "1 0.0 -628318.6 1", "amplitude norm above omega_max"),
        (3, "1 nan 0.0 1", "non-finite"),
        (3, "1 0.0 -inf 1", "non-finite"),
        (3, "1 0.0 0.0 2", "frozen flag '2'"),
        (3, "1 0.0 0.0 True", "frozen flag 'True'"),
        (3, "2 0.0 0.0 1", "row 1 has index '2'"),
        (2, "1 100000.0 0.0 0", "row 0 has index '1'"),
        (3, "1 0.0 0.0", "bad pulse row"),
        (3, "1 zero 0.0 1", "could not convert"),
        (0, "# dt_seconds=nan", "must be finite"),
        (1, "# omega_max_rad_s=-1.0", "must be finite"),
        (0, "# dt=5.1e-6", "missing"),
    ],
)
def test_load_pulse_rejects_what_save_pulse_cannot_write(tmp_path, line, text, message):
    path, lines = _pulse_file(tmp_path)
    lines[line] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message) as info:
        load_pulse(path)
    assert str(path) in str(info.value)


def test_load_pulse_allows_round_off_above_omega_max(tmp_path):
    path, lines = _pulse_file(tmp_path)
    omega_max = TWO_PI * 1e5
    lines[3] = f"1 {omega_max * (1 + 5e-13)!r} 0.0 1"
    path.write_text("\n".join(lines) + "\n")
    assert load_pulse(path).omega_x[1] > omega_max
    lines[3] = f"1 {omega_max * (1 + 1e-11)!r} 0.0 1"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="above omega_max"):
        load_pulse(path)


def test_within_omega_max_allows_round_off_and_fails_nan_and_inf():
    norms = np.array([1.0, 1.0 + 5e-13, 1.0 + 1e-11, math.nan, math.inf])
    assert within_omega_max(norms, 1.0).tolist() == [True, True, False, False, False]
    assert not within_omega_max(math.inf, math.inf)
