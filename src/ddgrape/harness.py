"""Experiment orchestration: protected-gate builds, noisy Grover trajectories,
RMS-deviation analysis, and robustness sweeps.

Gate pulses are cached as text files keyed by (scheme, target, seed) so
repeated runs with one config reuse the optimization results. A trajectory,
and a whole sweep, gets its gate propagators from one `_gate_propagators`
generator, which runs them on one pool of `worker_count()` threads
(DDGRAPE_THREADS=1 runs them serially) through a window of at most
2 * worker_count() pending jobs and yields them member by member, as one
(U_W, U_D) pair each, in a fixed order. All ensemble and sweep reductions
run in that order, so outputs are identical for any worker count and
deterministic for a given config and seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from itertools import groupby, islice
from pathlib import Path

import numpy as np

from ddgrape.core import UNITARITY_TOL
from ddgrape.dd import DDScheme, complete_blocks, freeze_into, hard_pulse_amplitude, place_dd
from ddgrape.discord import check_epsilon, quantum_discord
from ddgrape.grape import (
    FidelityReport,
    OptimizationConfig,
    TargetGate,
    gate_fidelity,
    optimize,
    random_initial_pulse,
    robust_fidelity,
)
from ddgrape.grover import (
    GroverSpec,
    StageLabel,
    diffusion_unitary,
    grover_stages,
    ideal_trajectory,
    marked_probability,
    oracle_unitary,
)
from ddgrape.nmr import (
    NoiseEnsemble,
    NoiseRealization,
    PulseSequence,
    SystemParams,
    check_unitary,
    load_pulse,
    phase_frame_factors,
    pseudopure_state,
    rotation_bound,
    save_pulse,
    sequence_propagator,
)

UNPROTECTED = "none"
RESTARTS = 8
CANDIDATES = 3


def worker_count() -> int:
    """Worker bound from DDGRAPE_THREADS, an integer >= 0 (0 or unset = one
    per CPU this process may run on, where the platform says which, else one
    per CPU); any other value raises a ValueError."""
    raw = os.environ.get("DDGRAPE_THREADS", "0")
    if not raw.isdecimal():
        raise ValueError(f"DDGRAPE_THREADS must be an integer >= 0, got {raw!r}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return int(raw) or cpus or 1


@dataclass
class ExperimentConfig:
    """Desk-scale defaults: J scaled x10 and DD spacings /10 relative to the
    published experiment so gate-time * J is preserved while each gate stays
    under ten milliseconds of simulated evolution."""

    system: SystemParams = field(default_factory=lambda: SystemParams(436.0, -436.0, 70.0))
    dt: float = 5.1e-6
    n_segments_per_gate: int = 1470
    schemes: tuple[str, ...] = (UNPROTECTED, "xy:90:100", "xy:180:100", "xx:180:100", "xy:90:200")
    epsilon: float = 1.0
    iterations: int = 6
    marked: int = 1
    rfi_scales: tuple[float, ...] = (0.90, 0.95, 1.00, 1.05, 1.10)
    incoherence_range: tuple[float, float] = (-10.0, 10.0)
    incoherence_points: int = 21
    flip_scales: tuple[float, ...] = (0.95, 1.00, 1.05)
    phase_offsets: tuple[float, ...] = (-0.17, 0.0, 0.17)
    seed: int = 2024
    output_dir: str = "runs"
    omega_max: float = 2.0 * math.pi * 1.0e5
    # Shaped (non-frozen) segments are limited to low RF power; the hard DD
    # pulses alone use the full omega_max budget. Weak shaped segments keep
    # the unprotected gate genuinely exposed to slow offset noise instead of
    # letting continuous strong driving decouple it by brute force.
    free_amplitude_bound: float = 2.0 * math.pi * 3.0e3
    amplitude_fraction: float = 0.01
    fidelity_goal: float = 0.9905
    max_iterations: int = 1500

    def __post_init__(self):
        # First the rules that no library object holds.
        if not self.iterations >= 1:
            raise ValueError(f"config key 'iterations' must be >= 1, got {self.iterations!r}")
        if len(self.incoherence_range) != 2:
            raise ValueError("config key 'incoherence_range' must hold 2 values")
        if not _finite(self.free_amplitude_bound):
            raise ValueError(f"config key 'free_amplitude_bound' must be finite, got {self.free_amplitude_bound!r}")
        # Every other value is checked by building from it what a run builds.
        self._build(
            ("n_segments_per_gate", "dt", "omega_max", "amplitude_fraction", "seed"),
            lambda c: random_initial_pulse(c.n_segments_per_gate, c.dt, c.omega_max, c.amplitude_fraction, c.seed),
        )
        # The one overflow check, ahead of every noise grid it keeps finite.
        self._build(
            ("system", "incoherence_range", "rfi_scales", "flip_scales", "omega_max", "dt", "n_segments_per_gate"),
            _rotation,
        )
        self._build(("rfi_scales",), ExperimentConfig.rfi_ensemble)
        self._build(("incoherence_range", "incoherence_points"), ExperimentConfig.incoherence_ensemble)
        self._build(("flip_scales", "phase_offsets"), ExperimentConfig.error_ensembles)
        self._build(("max_iterations", "fidelity_goal", "free_amplitude_bound"), ExperimentConfig.optimization)
        self._build(("marked",), ExperimentConfig.grover_spec)
        self._build(("epsilon",), lambda c: pseudopure_state(check_epsilon(c.epsilon)))
        # Two descriptors of one scheme would give it two sweep rows and two cached builds.
        seen = {}
        for s in self.schemes:
            d = UNPROTECTED
            if s != UNPROTECTED:
                where = f"scheme {s!r}: "
                d = self._build(("schemes",), lambda c: DDScheme.parse(s), where)
                self._build(("n_segments_per_gate",), lambda c: complete_blocks(c.n_segments_per_gate, d), where)
                self._build(("dt", "omega_max"), lambda c: hard_pulse_amplitude(d.flip_deg, c.dt, c.omega_max), where)
            if d in seen:
                raise ValueError(f"scheme {s!r}: config key 'schemes': repeats scheme {seen[d]!r}")
            seen[d] = s

    def _build(self, keys, build, where=""):
        """build(self). A ValueError, OverflowError or MemoryError becomes a
        ValueError naming those of `keys` that fail the build alone, with
        every other key at its default (all of them when none does)."""
        try:
            return build(self)
        except (ValueError, OverflowError, MemoryError) as exc:
            at_fault = [k for k in keys if _fails(build, k, getattr(self, k))] or keys
            raise ValueError(f"{where}config key {' or '.join(map(repr, at_fault))}: {exc}") from exc

    def optimization(self) -> OptimizationConfig:
        return OptimizationConfig(
            self.max_iterations, self.fidelity_goal, self.rfi_ensemble(), self.omega_max, self.free_amplitude_bound
        )

    def grover_spec(self) -> GroverSpec:
        return GroverSpec(self.marked, self.iterations)

    def rfi_ensemble(self) -> NoiseEnsemble:
        """RF-amplitude miscalibration grid, the GRAPE objective's ensemble."""
        return NoiseEnsemble(tuple(NoiseRealization(rf_scale=s) for s in self.rfi_scales))

    def incoherence_ensemble(self) -> NoiseEnsemble:
        """Common-mode offset grid modeling static field inhomogeneity."""
        shifts = np.linspace(*self.incoherence_range, self.incoherence_points)
        return NoiseEnsemble(tuple(NoiseRealization(offset_shift=float(s)) for s in shifts))

    def error_ensembles(self) -> dict[str, NoiseEnsemble]:
        """The robustness sweep's flip-angle and phase error grids, by kind;
        a flip-angle error scales the amplitudes as rf_scale does."""
        return {
            "flip": NoiseEnsemble(tuple(NoiseRealization(rf_scale=float(s)) for s in self.flip_scales)),
            "phase": NoiseEnsemble(tuple(NoiseRealization(phase_offset=float(p)) for p in self.phase_offsets)),
        }

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """Inverse of to_dict. Keys left out keep their defaults; an unknown,
        missing or mistyped key raises a ValueError that names it."""
        if not isinstance(d, dict):
            raise ValueError("config must be a JSON object")
        defaults = ExperimentConfig()
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        kwargs = {}
        for key, value in d.items():
            if key not in names:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = _parse_value(key, value, getattr(defaults, key))
        return ExperimentConfig(**kwargs)

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                d = json.load(fh)
            except (ValueError, RecursionError) as exc:  # UnicodeDecodeError included
                raise ValueError(f"config file {path}: {exc}") from None
        return ExperimentConfig.from_dict(d)


def _finite(v) -> bool:
    """math.isfinite, and False for an int too large for a float."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _rotation(c: ExperimentConfig) -> None:
    """A gate's K segments must rotate by at most UNITARITY_TOL / eps (about 4.5e5 rad) in all:
    the rounding error of a product of K factors grows like K * eps (Higham 2002, sec. 3.5), and
    each factor's like its rotation theta, so K * theta * eps must stay within UNITARITY_TOL.
    theta is rotation_bound at the largest rf or flip scale, unshifted and at each end of
    incoherence_range. Plain Python floats: an overflow gives inf, which fails. phase_offsets
    is exempt: a phase enters once, through cos and sin, which are accurate for any finite float."""
    scale = max((*c.rfi_scales, *c.flip_scales), default=1.0)
    limit = UNITARITY_TOL / sys.float_info.epsilon
    for shift in (0.0, *c.incoherence_range):
        member = NoiseRealization(rf_scale=scale, offset_shift=shift)
        total = c.n_segments_per_gate * rotation_bound(c.system, member, c.omega_max, c.dt)
        if not total <= limit:
            raise ValueError(f"a gate under {member} may rotate by {total:.4g} rad, beyond {limit:.4g} rad")


def _fails(build, key: str, value) -> bool:
    """Whether build raises a ValueError, OverflowError or MemoryError on
    the default config with `key` set to `value`."""
    trial = ExperimentConfig()
    setattr(trial, key, value)
    try:
        build(trial)
    except (ValueError, OverflowError, MemoryError):
        return True
    return False


def _parse_value(key: str, value, default):
    """`value` checked against the type of the field's default. Lists become tuples, the system
    object SystemParams, and an int for a float a float (numpy takes no int beyond int64)."""
    if isinstance(default, SystemParams):
        if not isinstance(value, dict):
            raise ValueError(f"config key {key!r} must be an object")
        names = [f.name for f in dataclasses.fields(SystemParams)]
        unknown = sorted(set(value) - set(names))
        if unknown:
            raise ValueError(f"unknown config key '{key}.{unknown[0]}'")
        missing = [n for n in names if n not in value]
        if missing:
            raise ValueError(f"config key {key!r} is missing {missing[0]!r}")
        return SystemParams(*(_parse_value(f"{key}.{n}", value[n], getattr(default, n)) for n in names))
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"config key {key!r} must be a list")
        return tuple(_parse_value(f"{key}[{i}]", v, default[0]) for i, v in enumerate(value))
    expected = (int, float) if isinstance(default, float) else type(default)
    if isinstance(value, bool) or not isinstance(value, expected):
        raise ValueError(f"config key {key!r} must be of type {type(default).__name__}")
    if isinstance(default, float) and isinstance(value, int) and not _finite(value):
        raise ValueError(f"config key {key!r} is too large for a float")
    return float(value) if isinstance(default, float) else value


@dataclass
class TrajectoryRecord:
    stage: StageLabel
    marked_prob: float
    discord: float
    scaled_discord: float


@dataclass
class RmsReport:
    scheme: str
    rms_discord: float
    rms_prob: float


@dataclass
class GateSet:
    """Optimized pulses for one scheme's oracle and diffusion gates."""

    pulse_w: PulseSequence
    pulse_d: PulseSequence
    report_w: FidelityReport
    report_d: FidelityReport


def _scheme_tag(scheme: str) -> str:
    return scheme.replace(":", "-")


def _pulse_path(config: ExperimentConfig, scheme: str, target_label: str) -> Path:
    base = Path(config.output_dir) / "pulses"
    return base / f"{_scheme_tag(scheme)}__{target_label}__seed{config.seed}.txt"


def _with_scheme_dd(pulse: PulseSequence, config: ExperimentConfig, scheme: str) -> PulseSequence:
    """`pulse` with the scheme's DD pulses frozen in at their placed segments;
    the unprotected scheme freezes nothing."""
    if scheme == UNPROTECTED:
        return pulse
    return freeze_into(pulse, place_dd(config.n_segments_per_gate, DDScheme.parse(scheme)))


def _optimized(config: ExperimentConfig, scheme: str, target: TargetGate, incoherence: NoiseEnsemble):
    """The pulse and report kept from up to RESTARTS optimizations, with
    seeds derived deterministically. Attempts that reach the fidelity goal
    become candidates, and the most offset-robust one (mean fidelity over
    `incoherence`) is kept once CANDIDATES exist or the attempts run out;
    with no candidate, the attempt of highest fidelity is kept. Ties go to
    the earliest attempt. GRAPE solutions of equal RFI-averaged fidelity
    differ wildly in offset sensitivity, so this calibration-style
    selection is applied uniformly to every scheme; the optimizer itself
    never sees the incoherence ensemble."""
    attempts, reached = [], []
    for attempt in range(RESTARTS):
        seed = config.seed + 1000 * attempt + (0 if target.label == "uw" else 17)
        initial = random_initial_pulse(
            config.n_segments_per_gate, config.dt, config.omega_max, config.amplitude_fraction, seed
        )
        initial = _with_scheme_dd(initial, config, scheme)
        pulse, report, _ = optimize(initial, target, config.system, config.optimization())
        attempts.append((report.fidelity, pulse, report))
        if report.fidelity >= config.fidelity_goal:
            reached.append((robust_fidelity(pulse, target, config.system, incoherence).fidelity, pulse, report))
            if len(reached) >= CANDIDATES:
                break
    _, pulse, report = max(reached or attempts, key=lambda c: c[0])
    return pulse, report


def _check_cached_pulse(path, pulse: PulseSequence, config: ExperimentConfig, scheme: str) -> None:
    """Raise a ValueError naming `path` unless the cached pulse has the config's
    dt, omega_max and segment count, and exactly the frozen mask and frozen
    amplitudes that _with_scheme_dd gives the scheme (no frozen segment for
    the unprotected scheme). The system parameters are not checked."""
    found = (pulse.dt, pulse.omega_max, pulse.n_segments)
    wanted = (config.dt, config.omega_max, config.n_segments_per_gate)
    if found != wanted:
        raise ValueError(
            f"cached pulse file {path} has (dt, omega_max, segments) {found}, but the config "
            f"asks for {wanted}; move it away to rebuild"
        )
    zeros = PulseSequence.zeros(config.n_segments_per_gate, config.dt, config.omega_max)
    expected = _with_scheme_dd(zeros, config, scheme)
    mask = expected.frozen
    if not (
        np.array_equal(pulse.frozen, mask)
        and np.array_equal(pulse.omega_x[mask], expected.omega_x[mask])
        and np.array_equal(pulse.omega_y[mask], expected.omega_y[mask])
    ):
        raise ValueError(
            f"cached pulse file {path} does not carry the frozen DD segments of scheme {scheme!r}; "
            "move it away to rebuild"
        )


def build_protected_gates(config: ExperimentConfig, verbose: bool = False):
    """Optimize (`_optimized`) or load cached U_W and U_D pulses for every
    scheme, each with its fidelity report over the RFI ensemble."""
    targets = (TargetGate(oracle_unitary(config.marked), "uw"), TargetGate(diffusion_unitary(), "ud"))
    gates: dict[str, GateSet] = {}
    rfi = config.rfi_ensemble()
    incoherence = config.incoherence_ensemble()
    for scheme in config.schemes:
        built = []
        for target in targets:
            path = _pulse_path(config, scheme, target.label)
            if path.exists():
                pulse = load_pulse(path)
                _check_cached_pulse(path, pulse, config, scheme)
                report = robust_fidelity(pulse, target, config.system, rfi)
            else:
                pulse, report = _optimized(config, scheme, target, incoherence)
                path.parent.mkdir(parents=True, exist_ok=True)
                save_pulse(path, pulse)
            if verbose:
                print(f"scheme={scheme} target={target.label} fidelity={report.fidelity:.6f}")
            built.append((pulse, report))
        (pulse_w, report_w), (pulse_d, report_d) = built
        gates[scheme] = GateSet(pulse_w, pulse_d, report_w, report_d)
    return gates


def run_trajectory(config: ExperimentConfig, scheme: str, noise: NoiseEnsemble, gates: dict[str, GateSet]):
    """Stage-by-stage noisy Grover run with the scheme's engineered gates.

    Each noise member's oracle and diffusion propagators are computed once
    from the scheme's pulses (quasi-static noise, fixed per member across
    all gates) and run through grover_stages from the pseudopure state.
    Records marked-state probability, discord, and epsilon-scaled discord
    after every stage.
    """
    uw, ud = zip(*_gate_propagators(config, [(gates[scheme], m) for m in noise.realizations]))
    stages = grover_stages(config.grover_spec(), pseudopure_state(config.epsilon), noise, uw, ud)
    return [_record(config, label, rho) for label, rho in stages]


def ideal_records(config: ExperimentConfig):
    """Analytic trajectory in TrajectoryRecord form (reference for RMS)."""
    spec = config.grover_spec()
    return [_record(config, label, rho) for label, rho in ideal_trajectory(spec, epsilon=config.epsilon)]


def _record(config: ExperimentConfig, label: StageLabel, rho: np.ndarray) -> TrajectoryRecord:
    """Marked-state probability and discord of one stage's state."""
    d = quantum_discord(rho, epsilon=config.epsilon)
    return TrajectoryRecord(
        stage=label,
        marked_prob=marked_probability(rho, config.marked),
        discord=d.discord,
        scaled_discord=d.scaled_discord,
    )


def rms_deviation(records, ideal, normalize: bool = True, scheme: str = "") -> RmsReport:
    """Per-observable RMS over stages vs the ideal trajectory.

    With normalize set, both discord series are divided by the ideal
    series' maximum before comparison (the published analysis overlays
    epsilon-squared-unit data on 0-1 ideal curves, so only the shape is
    compared).
    """
    if len(records) != len(ideal):
        raise ValueError(f"length mismatch: {len(records)} records vs {len(ideal)} ideal")
    probs = np.array([r.marked_prob for r in records])
    probs_ideal = np.array([r.marked_prob for r in ideal])
    disc = np.array([r.scaled_discord for r in records])
    disc_ideal = np.array([r.scaled_discord for r in ideal])
    if normalize:
        peak = np.max(disc_ideal)
        if peak > 0:
            disc = disc / peak
            disc_ideal = disc_ideal / peak
    rms_p = float(np.sqrt(np.mean((probs - probs_ideal) ** 2)))
    rms_d = float(np.sqrt(np.mean((disc - disc_ideal) ** 2)))
    return RmsReport(scheme=scheme, rms_discord=rms_d, rms_prob=rms_p)


@dataclass
class SweepRow:
    scheme: str
    error_kind: str
    mean_fidelity: float
    mean_fidelity_incoherent: float


def _frame_key(job):
    """Jobs with equal keys share their gate pulses' phase_frame_factors."""
    gate_set, member = job
    return id(gate_set), member.rf_scale, member.offset_shift


def _gate_propagators(config: ExperimentConfig, jobs):
    """Yield each (gate_set, member) job's oracle and diffusion propagators as
    a (uw, ud) pair, in job order. A member's two propagations are queued next
    to each other and run on one pool of worker_count() threads, with at most
    2 * worker_count() of them submitted and not yet taken, so memory does not
    grow with the job count. A run of two or more consecutive jobs with one
    gate set, rf_scale and offset_shift first queues one phase_frame_factors
    task per pulse, and each of the run's propagations takes the result as its
    factors; a job alone in its run builds its own. Nothing outlives the call.
    Each pair passes check_unitary as it is taken. The pool is shut down, with
    the tasks not yet started cancelled, when the generator ends, raises or is
    closed."""
    workers = worker_count()
    pool = ThreadPoolExecutor(max_workers=workers)

    def shared(pulse, member, frame):
        # The frame task was queued ahead of this one, so a worker has it.
        return sequence_propagator(pulse, config.system, member, frame.result())

    def submitted():
        """(member, its two propagation futures) per job, submitted as taken."""
        for _, run in groupby(jobs, _frame_key):
            run = list(run)
            g, m = run[0]
            pulses = (g.pulse_w, g.pulse_d)
            if len(run) == 1:
                yield m, [pool.submit(sequence_propagator, p, config.system, m) for p in pulses]
                continue
            frames = [pool.submit(phase_frame_factors, p, config.system, m) for p in pulses]
            for _, m in run:
                yield m, [pool.submit(shared, p, m, f) for p, f in zip(pulses, frames)]

    try:
        calls = submitted()
        window = deque(islice(calls, workers))
        while window:
            m, futures = window.popleft()
            window.extend(islice(calls, 1))
            uw, ud = (f.result() for f in futures)
            check_unitary(np.array([uw, ud]), (m, m))
            yield uw, ud
    finally:
        pool.shutdown(cancel_futures=True)


def robustness_sweep(config: ExperimentConfig, gates: dict[str, GateSet]):
    """Mean Grover-iterate fidelity F_bar = (1/6) sum_j F(U_PG^j, U_G^j),
    averaged by NoiseEnsemble.mean over a noise grid, per scheme under each
    flip/phase error grid, without and with the incoherence ensemble. Each
    kind's two grids are built once and paired with every scheme. The
    propagators of every member come from one _gate_propagators call, each
    scheme's members ordered by (rf_scale, offset_shift) so that members
    differing only in phase offset are neighbours and share their frames.
    Each member is reduced to its iterate fidelity as its pair arrives, and
    its propagators are then dropped; once a scheme is done, each cell is
    averaged in member order."""
    errors, incoherence = config.error_ensembles(), config.incoherence_ensemble()
    grids = {kind: (e, e.combined_with(incoherence)) for kind, e in errors.items()}
    members = [m for pair in grids.values() for e in pair for m in e.realizations]
    order = sorted(range(len(members)), key=lambda i: (members[i].rf_scale, members[i].offset_shift))
    jobs = ((gates[s], members[i]) for s in config.schemes for i in order)
    u_g = diffusion_unitary() @ oracle_unitary(config.marked)
    ideal_powers = [np.eye(4, dtype=complex)]
    for _ in range(config.iterations):
        ideal_powers.append(u_g @ ideal_powers[-1])

    def iterate_fidelity(uw, ud):
        u_pg, acc_p, total = ud @ uw, np.eye(4, dtype=complex), 0.0
        for u_g_j in ideal_powers[1:]:
            acc_p = u_pg @ acc_p
            total += gate_fidelity(acc_p, u_g_j)
        return total / config.iterations

    rows = []
    with closing(_gate_propagators(config, jobs)) as props:
        for s in config.schemes:
            fidelities = [0.0] * len(members)
            for i, (uw, ud) in zip(order, props):
                fidelities[i] = iterate_fidelity(uw, ud)
            cells = iter(fidelities)
            for k in errors:
                plain, combined = (e.mean(islice(cells, len(e.realizations))) for e in grids[k])
                rows.append(SweepRow(s, k, plain, combined))
    return rows
