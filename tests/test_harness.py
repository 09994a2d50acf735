import dataclasses
import json
import math
import re
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import desk_config, toy_config
from ddgrape import harness
from ddgrape.grape import gate_fidelity
from ddgrape.grover import diffusion_unitary, oracle_unitary
from ddgrape.harness import (
    ExperimentConfig,
    SweepRow,
    TrajectoryRecord,
    _record,
    build_protected_gates,
    ideal_records,
    rms_deviation,
    robustness_sweep,
    run_trajectory,
    worker_count,
)
from ddgrape.grover import HADAMARD2, StageLabel
from ddgrape.nmr import (
    NoiseEnsemble,
    NoiseRealization,
    SystemParams,
    evolve_ensemble,
    pseudopure_state,
    sequence_propagator,
)


def _mk_records(probs, discords):
    return [
        TrajectoryRecord(StageLabel("W", i), p, d, d)
        for i, (p, d) in enumerate(zip(probs, discords), start=1)
    ]


def test_rms_deviation_examples():
    a = _mk_records([0.1, 0.5, 0.9], [0.0, 1.0, 0.0])
    assert rms_deviation(a, a).rms_prob == 0.0
    assert rms_deviation(a, a).rms_discord == 0.0

    shifted = _mk_records([0.2, 0.6, 1.0], [0.0, 1.0, 0.0])
    assert rms_deviation(shifted, a).rms_prob == pytest.approx(0.1, abs=1e-12)

    spike = _mk_records([0.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    flat = _mk_records([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    # discord series [0,1,0] vs [0,0,0]; the ideal (second arg) max is 0 so no rescale
    assert rms_deviation(spike, flat, normalize=True).rms_discord == pytest.approx(math.sqrt(1 / 3), abs=1e-12)


def test_rms_deviation_normalization_divides_by_ideal_peak():
    ideal = _mk_records([0, 0], [0.0, 2.0])
    meas = _mk_records([0, 0], [0.0, 1.0])
    assert rms_deviation(meas, ideal, normalize=True).rms_discord == pytest.approx(
        math.sqrt(0.25 / 2), abs=1e-12
    )
    assert rms_deviation(meas, ideal, normalize=False).rms_discord == pytest.approx(
        math.sqrt(0.5), abs=1e-12
    )


def test_rms_deviation_length_mismatch():
    with pytest.raises(ValueError):
        rms_deviation(_mk_records([1], [0]), _mk_records([1, 1], [0, 0]))


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("DDGRAPE_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("DDGRAPE_THREADS", "0")
    assert worker_count() >= 1
    monkeypatch.delenv("DDGRAPE_THREADS")
    assert worker_count() >= 1
    for bad in ("abc", "-1", "2.5", ""):
        monkeypatch.setenv("DDGRAPE_THREADS", bad)
        with pytest.raises(ValueError, match="DDGRAPE_THREADS"):
            worker_count()


def test_config_json_roundtrip(tmp_path):
    cfg = toy_config(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = ExperimentConfig.from_json(path)
    assert back == cfg


def test_config_reads_an_integer_for_a_float_key_as_a_float():
    # numpy takes no int beyond the int64 range; phase_offsets is the one
    # float key whose size the rotation rule leaves free.
    system = {"offset1": 436, "offset2": -436, "coupling": 70}
    cfg = ExperimentConfig.from_dict({"phase_offsets": [0, -(2**63) - 1], "system": system})
    assert cfg.phase_offsets == (0.0, -(2.0**63)) and cfg.system == SystemParams(436.0, -436.0, 70.0)
    assert all(type(v) is float for v in (*cfg.phase_offsets, *dataclasses.astuple(cfg.system)))


def test_the_desk_config_builds_with_the_largest_whole_flip_scale_the_rotation_rule_accepts():
    # Each of the 1470 segments may rotate by 304.4 rad at flip scale 95 and by
    # 307.6 rad at 96, against UNITARITY_TOL / eps / 1470 = 306.4 rad.
    assert desk_config(flip_scales=(95.0,)).flip_scales == (95.0,)
    with pytest.raises(ValueError, match="'flip_scales'"):
        desk_config(flip_scales=(96.0,))


def test_config_rejects_spacing_larger_than_gate():
    with pytest.raises(ValueError):
        toy_config("/tmp", schemes=("xy:90:100",), n_segments_per_gate=50)


@pytest.mark.parametrize(
    "override, key",
    [
        ({"rfi_scales": ()}, "rfi_scales"),
        ({"flip_scales": ()}, "flip_scales"),
        ({"phase_offsets": ()}, "phase_offsets"),
        ({"incoherence_points": 0}, "incoherence_points"),
        ({"incoherence_range": (-10.0,)}, "incoherence_range"),
        ({"incoherence_range": (-10.0, 0.0, 10.0)}, "incoherence_range"),
        ({"epsilon": 1.5}, "epsilon"),
        ({"dt": math.nan}, "dt"),
        ({"dt": 0.0}, "dt"),
        ({"omega_max": math.nan}, "omega_max"),
        ({"omega_max": -1.0}, "omega_max"),
        ({"free_amplitude_bound": math.inf}, "free_amplitude_bound"),
        ({"rfi_scales": (1.0, 0.0)}, "rfi_scales"),
        ({"rfi_scales": (math.inf,)}, "rfi_scales"),
        ({"flip_scales": (-1.0,)}, "flip_scales"),
        ({"flip_scales": (math.nan,)}, "flip_scales"),
        ({"phase_offsets": (math.inf,)}, "phase_offsets"),
        ({"incoherence_range": (math.nan, 1.0)}, "incoherence_range"),
        ({"dt": 10**400}, "dt"),
        ({"max_iterations": 0}, "max_iterations"),
        ({"seed": -1}, "seed"),
        ({"fidelity_goal": 1.5}, "fidelity_goal"),
        ({"amplitude_fraction": 2.0}, "amplitude_fraction"),
        ({"marked": 7}, "marked"),
    ],
)
def test_config_rejects_empty_noise_grids(tmp_path, override, key):
    with pytest.raises(ValueError, match=repr(key)):
        toy_config(tmp_path, **override)


@pytest.mark.parametrize("scheme, dt", [("xy:90:20", 1e-6), ("xy:-90:20", 1e-6), ("xy:nan:20", 5.1e-6)])
def test_config_rejects_a_dd_pulse_above_omega_max(tmp_path, scheme, dt):
    # A 90-degree pulse at dt = 1 us needs (pi/2) / dt = 1.57e6 rad/s > omega_max.
    with pytest.raises(ValueError, match=re.escape(repr(scheme)) + ".*'dt'"):
        toy_config(tmp_path, schemes=("none", scheme), dt=dt)
    toy_config(tmp_path, dt=1e-6, omega_max=math.pi / 2 / 1e-6)


@pytest.mark.parametrize("scheme", ["z:90:10", "xy:90:0", "xy:abc:10", "xy:90"])
def test_config_rejects_a_bad_scheme_naming_the_key_and_the_descriptor(tmp_path, scheme):
    with pytest.raises(ValueError, match=re.escape(repr(scheme)) + ".*'schemes'"):
        toy_config(tmp_path, schemes=("none", scheme))


@pytest.mark.parametrize(
    "schemes, repeated",
    [
        (("none", "none"), "none"),
        (("none", "xy:90:20", "xy:90.0:20"), "xy:90.0:20"),
        (("xy:90:20", " xy:90:20"), " xy:90:20"),
    ],
)
def test_config_rejects_a_repeated_scheme_naming_the_key_and_the_descriptor(tmp_path, schemes, repeated):
    with pytest.raises(ValueError, match=re.escape(repr(repeated)) + ".*'schemes'"):
        toy_config(tmp_path, schemes=schemes)


def test_config_ensembles_equal_the_former_factory_grids():
    # The realizations NoiseEnsemble's rf_inhomogeneity, incoherence,
    # flip_errors and phase_errors factories gave for the default config.
    cfg = ExperimentConfig()
    rfi = tuple(NoiseRealization(rf_scale=s) for s in (0.90, 0.95, 1.00, 1.05, 1.10))
    incoherence = tuple(NoiseRealization(offset_shift=float(s)) for s in range(-10, 11))
    flip = tuple(NoiseRealization(rf_scale=s) for s in (0.95, 1.00, 1.05))
    phase = tuple(NoiseRealization(phase_offset=p) for p in (-0.17, 0.0, 0.17))
    assert cfg.rfi_ensemble().realizations == rfi
    assert cfg.incoherence_ensemble().realizations == incoherence
    grids = cfg.error_ensembles()
    assert list(grids) == ["flip", "phase"]
    assert grids["flip"].realizations == flip
    assert grids["phase"].realizations == phase


def test_trajectory_records_within_bounds(toy_gates):
    cfg, gates = toy_gates
    records = run_trajectory(cfg, "xy:90:20", cfg.incoherence_ensemble(), gates)
    assert len(records) == 2 + 2 * cfg.iterations
    for r in records:
        assert -1e-9 <= r.marked_prob <= 1 + 1e-9
        assert r.discord >= -1e-8


def test_trajectory_with_engineered_gates_tracks_ideal(toy_gates):
    cfg, gates = toy_gates
    records = run_trajectory(cfg, "none", NoiseEnsemble.identity(), gates)
    ideal = ideal_records(cfg)
    # toy gates are only ~0.9-fidelity; just require qualitative agreement early on
    assert records[3].marked_prob > 0.7  # first diffusion stage amplifies the marked state
    assert abs(records[1].marked_prob - ideal[1].marked_prob) < 0.05


def test_robustness_sweep_table_shape_and_bounds(toy_gates):
    cfg, gates = toy_gates
    rows = robustness_sweep(cfg, gates)
    assert {(r.scheme, r.error_kind) for r in rows} == {
        (s, k) for s in cfg.schemes for k in ("flip", "phase")
    }
    for r in rows:
        assert 0 <= r.mean_fidelity <= 1 + 1e-9
        assert 0 <= r.mean_fidelity_incoherent <= 1 + 1e-9


def test_build_is_deterministic_and_cached(toy_gates, tmp_path):
    cfg, gates = toy_gates
    # second call hits the pulse cache and must reproduce identical pulses
    again = build_protected_gates(cfg)
    for scheme in cfg.schemes:
        assert np.array_equal(gates[scheme].pulse_w.omega_x, again[scheme].pulse_w.omega_x)
        assert gates[scheme].report_w.fidelity == again[scheme].report_w.fidelity


def _bits(rows):
    return [repr(dataclasses.astuple(r)) for r in rows]


def test_threaded_paths_are_bitwise_equal_to_serial(toy_gates, monkeypatch):
    cfg, gates = toy_gates
    scheme = "xy:90:20"
    noise = cfg.incoherence_ensemble()
    monkeypatch.setenv("DDGRAPE_THREADS", "1")
    traj1, sweep1 = run_trajectory(cfg, scheme, noise, gates), robustness_sweep(cfg, gates)
    monkeypatch.setenv("DDGRAPE_THREADS", "2")
    traj2, sweep2 = run_trajectory(cfg, scheme, noise, gates), robustness_sweep(cfg, gates)
    assert _bits(traj1) == _bits(traj2)
    assert _bits(sweep1) == _bits(sweep2)

    # The same trajectory from serial propagator calls and evolve_ensemble.
    gate_set = gates[scheme]
    members = noise.realizations
    uw = [sequence_propagator(gate_set.pulse_w, cfg.system, real) for real in members]
    ud = [sequence_propagator(gate_set.pulse_d, cfg.system, real) for real in members]
    stages = [[HADAMARD2] * len(members)] + [uw, ud] * cfg.iterations
    states = evolve_ensemble(pseudopure_state(cfg.epsilon), noise, stages)
    expected = [_record(cfg, r.stage, rho) for r, rho in zip(traj1, states)]
    assert len(states) == len(traj1)
    assert _bits(traj1) == _bits(expected)


def _sweep_one_cell_at_a_time(config, gates):
    """robustness_sweep as it was when each (scheme, kind, ensemble) cell got
    its own propagators, with serial calls in place of that cell's pool; each
    cell is averaged by NoiseEnsemble.mean, as the sweep does."""

    def iterate_mean_fidelity(uw_pulse, ud_pulse, noise_members):
        u_g = diffusion_unitary() @ oracle_unitary(config.marked)
        ideal_powers = [np.eye(4, dtype=complex)]
        for _ in range(config.iterations):
            ideal_powers.append(u_g @ ideal_powers[-1])
        uws = [sequence_propagator(uw_pulse, config.system, real) for real in noise_members]
        uds = [sequence_propagator(ud_pulse, config.system, real) for real in noise_members]
        means = []
        for uw, ud in zip(uws, uds):
            u_pg = ud @ uw
            acc_p = np.eye(4, dtype=complex)
            mean = 0.0
            for u_g_j in ideal_powers[1:]:
                acc_p = u_pg @ acc_p
                mean += gate_fidelity(acc_p, u_g_j)
            means.append(mean / config.iterations)
        return NoiseEnsemble(tuple(noise_members)).mean(means)

    incoherence = config.incoherence_ensemble()
    rows = []
    for scheme in config.schemes:
        gate_set = gates[scheme]
        for kind, err in config.error_ensembles().items():
            f_plain = iterate_mean_fidelity(gate_set.pulse_w, gate_set.pulse_d, err.realizations)
            combined = err.combined_with(incoherence).realizations
            f_inc = iterate_mean_fidelity(gate_set.pulse_w, gate_set.pulse_d, combined)
            rows.append(SweepRow(scheme, kind, f_plain, f_inc))
    return rows


def test_sweep_rows_equal_the_cell_by_cell_sweep(toy_gates):
    cfg, gates = toy_gates
    assert _bits(robustness_sweep(cfg, gates)) == _bits(_sweep_one_cell_at_a_time(cfg, gates))


def test_one_pool_per_sweep_and_per_trajectory(toy_gates, monkeypatch):
    cfg, gates = toy_gates
    pools = []

    class CountingPool(harness.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", CountingPool)
    robustness_sweep(cfg, gates)
    assert len(pools) == 1
    run_trajectory(cfg, "xy:90:20", cfg.incoherence_ensemble(), gates)
    assert len(pools) == 2


def test_the_sweep_pool_is_shut_down_before_the_sweep_returns_or_raises(toy_gates, monkeypatch):
    cfg, gates = toy_gates
    pools, shut = [], []

    class RecordingPool(harness.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            shut.append(self)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
    robustness_sweep(cfg, gates)
    assert shut == pools
    # A failure in the reduction, after the first cell arrived.
    monkeypatch.setattr(harness, "gate_fidelity", lambda *args: 1 / 0)
    # The kept traceback holds the sweep's frame, and with it the generator.
    with pytest.raises(ZeroDivisionError) as failure:
        robustness_sweep(cfg, gates)
    assert len(pools) == 2 and shut == pools, failure


def test_a_propagator_that_is_not_unitary_is_an_error_naming_its_member(toy_gates, monkeypatch):
    cfg, gates = toy_gates
    noise = cfg.incoherence_ensemble()
    propagator = harness.sequence_propagator
    monkeypatch.setattr(harness, "sequence_propagator", lambda *args: 1.001 * propagator(*args))
    with pytest.raises(ValueError, match=r"NoiseRealization\(.*not unitary"):
        robustness_sweep(cfg, gates)
    with pytest.raises(ValueError, match=re.escape(repr(noise.realizations[0])) + ".*not unitary"):
        run_trajectory(cfg, "none", noise, gates)


def test_a_propagator_that_is_not_unitary_cancels_the_jobs_not_yet_started(toy_gates, monkeypatch):
    cfg, gates = toy_gates
    jobs = 2 * sum(len(e.realizations) * (1 + cfg.incoherence_points) for e in cfg.error_ensembles().values())
    jobs *= len(cfg.schemes)
    calls = []
    propagator = harness.sequence_propagator

    def counted(*args):
        calls.append(None)
        return 1.001 * propagator(*args)

    monkeypatch.setattr(harness, "sequence_propagator", counted)
    with pytest.raises(ValueError, match="not unitary"):
        robustness_sweep(cfg, gates)
    assert len(calls) < jobs // 4, (len(calls), jobs)


def test_a_nan_propagator_is_an_error_naming_the_first_such_member_in_job_order(toy_gates, monkeypatch):
    cfg, gates = toy_gates
    noise = cfg.incoherence_ensemble()
    # Job order is member by member, each member's oracle job and then its
    # diffusion job: the diffusion job of member 1 comes before the oracle job
    # of member 2.
    nan_jobs = [(gates["none"].pulse_w, noise.realizations[2]), (gates["none"].pulse_d, noise.realizations[1])]
    propagator = harness.sequence_propagator

    def with_nan(pulse, system, member):
        u = propagator(pulse, system, member)
        if any(p is pulse and m == member for p, m in nan_jobs):
            u[3, 3] = np.nan
        return u

    monkeypatch.setattr(harness, "sequence_propagator", with_nan)
    with pytest.raises(ValueError, match=re.escape(repr(noise.realizations[1])) + ".*not unitary"):
        run_trajectory(cfg, "none", noise, gates)


def test_sweep_memory_does_not_grow_with_the_number_of_jobs(toy_gates):
    # More schemes (reusing the xy:90:20 gates) give more members of the same
    # ensembles, 192 propagator jobs and then 960.
    cfg, gates = toy_gates
    more = cfg.schemes + ("xy:90:30", "xy:180:20", "xy:180:30", "xx:90:20", "xx:90:30", "xx:180:20", "xx:180:30")
    more += ("xy:90:60",)
    gate_sets = dict.fromkeys(more, gates["xy:90:20"]) | gates
    peaks = []
    for schemes in (cfg.schemes, more):
        tracemalloc.start()
        try:
            robustness_sweep(dataclasses.replace(cfg, schemes=schemes), gate_sets)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


@pytest.mark.parametrize("points", [3, 41])
def test_the_sweep_holds_a_bounded_number_of_propagators(toy_gates, monkeypatch, points):
    # The sweep reduces each member as its pair arrives, so the propagators
    # alive at once are the window's, the pair being checked and the pair
    # being reduced, however many members an ensemble has.
    cfg, gates = toy_gates
    monkeypatch.setenv("DDGRAPE_THREADS", "2")
    live, peak, lock = [0], [0], threading.Lock()
    propagator = harness.sequence_propagator

    def dropped():
        with lock:
            live[0] -= 1

    def counted(*args):
        u = propagator(*args)
        weakref.finalize(u, dropped)
        with lock:
            live[0] += 1
            peak[0] = max(peak[0], live[0])
        return u

    monkeypatch.setattr(harness, "sequence_propagator", counted)
    robustness_sweep(dataclasses.replace(cfg, incoherence_points=points), gates)
    assert peak[0] <= 2 * worker_count() + 4, peak[0]
