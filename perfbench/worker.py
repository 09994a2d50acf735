"""One benchmark workload, run in a process of its own by `run.py`.

The process imports `ddgrape` from the checkout's `src/`, builds the
workload's inputs from the seed (its set-up), then runs rounds of the
workload until `--seconds` have passed, checking every output. Its last
line of standard output is one JSON object that `run.py` turns into the
benchmark's metrics.

    PYTHONPATH=src python3 perfbench/worker.py --workload discord --seed 1 \
        --seconds 5 --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ddgrape import core, dd, discord, grape, grover, harness, nmr
from ddgrape.harness import UNPROTECTED, ExperimentConfig

import tracer

ROOT = Path(__file__).resolve().parent.parent
GATE_CACHE = ROOT / "tests" / "_gate_cache"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"

# The ROADMAP's refactor gate for outputs on the cached desk gates.
EVALUATE_TOL = 1e-12
# Thirty L-BFGS iterations amplify kernel round-off, so the final fidelity
# of a fixed-budget build is held to a looser bound than forward-only output.
SYNTHESIZE_TOL = 1e-8
PURE_TOL = 1e-6
PRODUCT_TOL = 1e-7
# Trajectory passes per untraced evaluate round. Trajectories of about a
# second each follow the machine's speed more closely than a 14 s sweep, so
# they need more samples, spread over the run, for a steady median.
TRAJECTORY_PASSES = 2


class SetupError(Exception):
    """The workload's inputs are missing or invalid; nothing is measured."""


@dataclass
class Op:
    kind: str
    seconds: float
    errors: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def mismatches(observed, expected, tol: float, path: str = "") -> list[str]:
    """Every place where `observed` differs from `expected` (numbers by > tol)."""
    if expected is None:
        return [f"{path}: no reference value"]
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or observed.keys() != expected.keys():
            return [f"{path}: keys differ"]
        out = []
        for key in expected:
            out += mismatches(observed[key], expected[key], tol, f"{path}/{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(observed, list) or len(observed) != len(expected):
            return [f"{path}: length differs"]
        out = []
        for i, (o, e) in enumerate(zip(observed, expected)):
            out += mismatches(o, e, tol, f"{path}[{i}]")
        return out
    if isinstance(expected, str):
        return [] if observed == expected else [f"{path}: {observed!r} != {expected!r}"]
    if not math.isfinite(observed) or abs(observed - expected) > tol:
        return [f"{path}: {observed!r} differs from reference {expected!r} by more than {tol:g}"]
    return []


# ---------------------------------------------------------------------------
# Workloads. Each builds its inputs in __init__ (the set-up) and runs one
# round of user work per call to round().


class Synthesize:
    """Two fixed-budget L-BFGS gate builds: unprotected U_W, `xy:90:100` U_D."""

    OP = "gate_build"
    BATCH = None  # a batch is one round: both gates

    def __init__(self, seed: int, toy: bool, reference: dict):
        # The optimizer imports scipy lazily; a user pays that once per process.
        import scipy.optimize  # noqa: F401

        self.config = ExperimentConfig(n_segments_per_gate=200) if toy else ExperimentConfig()
        self.budget = 3 if toy else 30
        self.reference = reference["synthesize"]["toy" if toy else "desk"].get(str(seed))
        self.seed = seed
        cfg = self.config
        k = cfg.n_segments_per_gate
        self.options = grape.OptimizationConfig(
            max_iterations=self.budget,
            fidelity_goal=1.0,
            rfi_ensemble=cfg.rfi_ensemble(),
            omega_max=cfg.omega_max,
            free_bound=cfg.free_amplitude_bound,
        )
        self.gates = []
        for scheme, target in (
            (UNPROTECTED, grape.TargetGate(grover.oracle_unitary(cfg.marked), "uw")),
            ("xy:90:100", grape.TargetGate(grover.diffusion_unitary(), "ud")),
        ):
            start = grape.random_initial_pulse(k, cfg.dt, cfg.omega_max, cfg.amplitude_fraction, seed)
            if scheme != UNPROTECTED:
                start = dd.freeze_into(start, dd.place_dd(k, dd.DDScheme.parse(scheme)))
            self.gates.append((scheme, target, start))
        self.iterations = 0

    def build(self, scheme, target, start) -> Op:
        (pulse, report, log), seconds = _timed(grape.optimize, start, target, self.config.system, self.options)
        key = f"{scheme}/{target.label}"
        errors = []
        fids = [f for _, f, _ in log]
        if any(b < a for a, b in zip(fids, fids[1:])):
            errors.append(f"{key}: fidelity log decreases")
        if len(log) - 1 != self.budget:
            errors.append(f"{key}: {len(log) - 1} iterations logged, budget {self.budget}")
        frozen = start.frozen
        if not (
            np.array_equal(pulse.frozen, frozen)
            and np.array_equal(pulse.omega_x[frozen], start.omega_x[frozen])
            and np.array_equal(pulse.omega_y[frozen], start.omega_y[frozen])
        ):
            errors.append(f"{key}: frozen segments changed")
        bound = self.config.free_amplitude_bound * (1.0 + 1e-12)
        if np.any(np.hypot(pulse.omega_x, pulse.omega_y)[~frozen] > bound):
            errors.append(f"{key}: free amplitude above free_amplitude_bound")
        outputs = {key: report.fidelity}
        if self.reference is not None:
            errors += mismatches(outputs, {key: self.reference[key]}, SYNTHESIZE_TOL, "final_fidelity")
        self.iterations += len(log) - 1
        return Op(self.OP, seconds, errors, outputs)

    def round(self) -> list[Op]:
        self.iterations = 0
        return [self.build(*gate) for gate in self.gates]

    def record(self, ops, reference: dict, toy: bool) -> None:
        section = reference["synthesize"]["toy" if toy else "desk"]
        section[str(self.seed)] = {k: v for op in ops for k, v in op.outputs.items()}

    def close(self) -> None:
        pass


@contextlib.contextmanager
def refuse_reoptimization():
    """Make a cache miss in build_protected_gates fail instead of spending
    60-90 minutes re-optimizing: that would measure a different program."""

    def refuse(*args, **kwargs):
        raise SetupError("build_protected_gates tried to re-optimize a shipped gate")

    saved = harness.optimize
    harness.optimize = refuse
    try:
        yield
    finally:
        harness.optimize = saved


class Evaluate:
    """The ten shipped desk pulses: robustness sweep, then one incoherence
    trajectory with its RMS against the ideal run for every scheme."""

    OP = "trajectory"
    BATCH = "sweep"

    def __init__(self, seed: int, toy: bool, reference: dict, passes: int = 1):
        self.reference = reference["evaluate"]["toy" if toy else "desk"]
        OUT_DIR.mkdir(exist_ok=True)
        self._scratch = tempfile.TemporaryDirectory(prefix="evaluate-", dir=OUT_DIR)
        scratch = Path(self._scratch.name)
        cfg = ExperimentConfig(output_dir=str(scratch))
        if toy:
            cfg = replace(
                cfg,
                schemes=(UNPROTECTED, "xy:90:100"),
                incoherence_points=3,
                flip_scales=(1.0,),
                phase_offsets=(0.0,),
            )
        shipped = replace(cfg, output_dir=str(GATE_CACHE))
        missing = [
            str(path)
            for scheme in cfg.schemes
            for label in ("uw", "ud")
            if not (path := harness._pulse_path(shipped, scheme, label)).is_file()
        ]
        if missing:
            self.close()
            raise SetupError("shipped gate pulses missing: " + ", ".join(missing))
        # Copy, so that nothing the library writes can reach tests/_gate_cache.
        shutil.copytree(GATE_CACHE / "pulses", scratch / "pulses")
        try:
            with refuse_reoptimization():
                self.gates = harness.build_protected_gates(cfg)
        except BaseException:
            self.close()
            raise
        self.config = cfg
        self.noise = cfg.incoherence_ensemble()
        rng = np.random.default_rng(seed)
        self.orders = [[cfg.schemes[i] for i in rng.permutation(len(cfg.schemes))] for _ in range(passes)]

    def round(self) -> list[Op]:
        """Each pass runs one trajectory per scheme. With one pass the sweep
        comes first; with more, half of them run before the sweep and the
        rest after it, so that trajectories are timed across the whole run."""
        cfg = self.config
        ideal = harness.ideal_records(cfg)
        before = len(self.orders) // 2
        ops = []
        for order in self.orders[:before]:
            ops += self._trajectories(order, ideal)
        rows, seconds = _timed(harness.robustness_sweep, cfg, self.gates)
        outputs = {
            "sweep": [[r.scheme, r.error_kind, r.mean_fidelity, r.mean_fidelity_incoherent] for r in rows]
        }
        ops.append(Op("sweep", seconds, self._check(outputs), outputs))
        for order in self.orders[before:]:
            ops += self._trajectories(order, ideal)
        return ops

    def _trajectories(self, order, ideal) -> list[Op]:
        cfg = self.config
        ops = []
        for scheme in order:
            t0 = time.perf_counter()
            records = harness.run_trajectory(cfg, scheme, self.noise, self.gates)
            rms = harness.rms_deviation(records, ideal, scheme=scheme)
            seconds = time.perf_counter() - t0
            outputs = {
                "trajectory": {
                    scheme: [[str(r.stage), r.marked_prob, r.discord, r.scaled_discord] for r in records]
                },
                "rms": {scheme: [rms.rms_discord, rms.rms_prob]},
            }
            ops.append(Op(self.OP, seconds, self._check(outputs), outputs))
        return ops

    def _check(self, outputs: dict) -> list[str]:
        expected = {}
        for key, value in outputs.items():
            ref = self.reference.get(key)
            expected[key] = {k: (ref or {}).get(k) for k in value} if isinstance(value, dict) else ref
        return mismatches(outputs, expected, EVALUATE_TOL)

    def record(self, ops, reference: dict, toy: bool) -> None:
        section = {"sweep": None, "trajectory": {}, "rms": {}}
        for op in ops:
            for key, value in op.outputs.items():
                if key == "sweep":
                    section["sweep"] = value
                else:
                    section[key].update(value)
        reference["evaluate"]["toy" if toy else "desk"] = section

    def close(self) -> None:
        self._scratch.cleanup()


def _ginibre(rng, n: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _entanglement_entropy(rho: np.ndarray) -> float:
    """Entropy in bits of qubit 2's reduced state, computed with numpy alone."""
    reduced = np.einsum("sasb->ab", rho.reshape(2, 2, 2, 2))
    evals = np.clip(np.linalg.eigvalsh(reduced), 0.0, None)
    evals = evals[evals > 1e-300]
    return float(-np.sum(evals * np.log2(evals)))


class Discord:
    """Discord of a seeded batch: random full-rank mixed, random pure and
    product states, plus the ideal Grover stage states at eps 1 and 0.01."""

    OP = "state"
    BATCH = None  # a batch is one round: the whole state batch

    def __init__(self, seed: int, toy: bool, reference: dict):
        rng = np.random.default_rng(seed)
        n = 2 if toy else 16
        states = []  # (label, rho, expected discord or None)
        for i in range(n):
            states.append((f"mixed{i}", _ginibre(rng, 4, 4), None))
        for i in range(n):
            pure = _ginibre(rng, 4, 1)
            states.append((f"pure{i}", pure, _entanglement_entropy(pure)))
        for i in range(n // 2):
            states.append((f"product{i}", np.kron(_ginibre(rng, 2, 2), _ginibre(rng, 2, 2)), 0.0))
        spec = grover.GroverSpec(marked=1, iterations=1 if toy else 6)
        for eps in (1.0, 0.01):
            for label, rho in grover.ideal_trajectory(spec, epsilon=eps):
                expected = _entanglement_entropy(rho) if eps == 1.0 else None
                states.append((f"grover-eps{eps:g}-{label}", rho, expected))
        self.states = [states[i] for i in rng.permutation(len(states))]

    def round(self) -> list[Op]:
        ops = []
        for label, rho, expected in self.states:
            result, seconds = _timed(discord.quantum_discord, rho)
            d = result.discord
            errors = []
            if not d >= 0.0:
                errors.append(f"{label}: discord {d!r} < 0")
            if d > result.mutual_information + 1e-9:
                errors.append(f"{label}: discord {d!r} above mutual information {result.mutual_information!r}")
            if expected is not None:
                tol = PRODUCT_TOL if expected == 0.0 else PURE_TOL
                if abs(d - expected) > tol:
                    errors.append(f"{label}: discord {d!r} != {expected!r} within {tol:g}")
            ops.append(Op(self.OP, seconds, errors))
        return ops

    def close(self) -> None:
        pass


WORKLOADS = {"synthesize": Synthesize, "evaluate": Evaluate, "discord": Discord}


# ---------------------------------------------------------------------------
# Per-layer numbers for a traced run.


def isolated_ms(toy: bool) -> dict:
    """Median wall time of each layer kernel on its own, on fixed inputs."""
    cfg = ExperimentConfig(n_segments_per_gate=200) if toy else ExperimentConfig()
    k = cfg.n_segments_per_gate
    pulse = grape.random_initial_pulse(k, cfg.dt, cfg.omega_max, cfg.amplitude_fraction, 2024)
    pulse = dd.freeze_into(pulse, dd.place_dd(k, dd.DDScheme.parse("xy:90:100")))
    target = grape.TargetGate(grover.diffusion_unitary(), "ud")
    stack = nmr.segment_hamiltonians(pulse, cfg.system)
    rfi = cfg.rfi_ensemble()
    rho = _ginibre(np.random.default_rng(2024), 4, 4)
    kernels = {
        "core.batched_unitary_exp.ms": lambda: core.batched_unitary_exp(stack, pulse.dt),
        "nmr.sequence_propagator.ms": lambda: nmr.sequence_propagator(pulse, cfg.system),
        "grape.fidelity_gradient.ms": lambda: grape.fidelity_gradient(pulse, target, cfg.system),
        "grape.robust_fidelity.ms": lambda: grape.robust_fidelity(pulse, target, cfg.system, rfi),
        "discord.quantum_discord.ms": lambda: discord.quantum_discord(rho),
        "discord.min_conditional_entropy.ms": lambda: discord.min_conditional_entropy(rho),
    }
    out = {}
    for name, fn in kernels.items():
        fn()  # warm-up
        out[name] = 1e3 * statistics.median(_timed(fn)[1] for _ in range(3 if toy else 11))
    return out


def layer_metrics(setup_spans, round_spans, isolated: dict, iterations: float) -> dict:
    """Per-layer metrics over the set-up plus one traced round (the mean of
    the traced rounds), with the isolated kernel times."""

    def per_run(fn, name):
        return fn(setup_spans, name) + statistics.fmean(fn(r, name) for r in round_spans)

    stretch = []
    for spans in round_spans:
        inside = tracer.within(spans, "nmr.sequence_propagator", "harness.robustness_sweep")
        if inside:
            per_call_ms = 1e3 * sum(s.end - s.start for s in inside) / len(inside)
            stretch.append(per_call_ms / isolated["nmr.sequence_propagator.ms"])
    metrics = dict(isolated)
    for name in (
        "core.batched_unitary_exp",
        "nmr.sequence_propagator",
        "nmr.segment_hamiltonians",
        "nmr.load_pulse",
        "grape.robust_fidelity",
        "discord.quantum_discord",
    ):
        metrics[f"{name}.calls"] = per_run(tracer.calls, name)
    for name in (
        "nmr.sequence_propagator",
        "nmr.load_pulse",
        "grape.robust_fidelity",
        "grape.optimize",
        "discord.quantum_discord",
        "harness.build_protected_gates",
        "harness.robustness_sweep",
    ):
        metrics[f"{name}.busy_s"] = per_run(tracer.busy_s, name)
    metrics["nmr.sequence_propagator.stretch"] = statistics.fmean(stretch) if stretch else 0.0
    metrics["grape.optimize.iterations"] = iterations
    metrics["harness.run_trajectory.self_s"] = per_run(tracer.self_s, "harness.run_trajectory")
    for layer in ("dd", "grover", "cli"):
        metrics[f"{layer}.calls"] = per_run(
            lambda spans, prefix: sum(1 for s in spans if s.name.startswith(prefix)), layer + "."
        )
    metrics["trace.spans"] = len(setup_spans) + statistics.fmean(len(r) for r in round_spans)
    return metrics


# ---------------------------------------------------------------------------
# Run environment


def _blas() -> dict:
    info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line and ".so" in line}
    except OSError:  # not Linux: leave the thread count unknown
        libs = set()
    getters = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in getters:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _git_sha() -> str | None:
    """HEAD of the checkout; None when it is not a git work tree (git must
    not walk up into a repository that merely contains the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "cpu_count": os.cpu_count(),
        "DDGRAPE_THREADS": os.environ.get("DDGRAPE_THREADS"),
        "sweep_workers": harness.worker_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True, help="CLOCK_MONOTONIC when the parent spawned us")
    parser.add_argument("--setup-only", action="store_true", help="exit after the set-up")
    parser.add_argument("--toy", action="store_true", help="toy-sized inputs, for the self-test")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    parser.add_argument("--record", action="store_true", help="write this run's outputs as the reference")
    parser.add_argument("--trace-file", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    if args.record and not hasattr(WORKLOADS[args.workload], "record"):
        parser.error(f"{args.workload} checks invariants only; it has no reference to record")

    with open(args.reference) as fh:
        reference = json.load(fh)
    workload_cls = WORKLOADS[args.workload]
    trace = tracer.Tracer() if args.trace else None
    # A traced run keeps evaluate's round at the unit its call counts are
    # quoted for: one sweep and one trajectory per scheme.
    extra = {"passes": 1 if args.trace else TRAJECTORY_PASSES} if workload_cls is Evaluate else {}
    try:
        with trace or contextlib.nullcontext():
            workload = workload_cls(args.seed, args.toy, reference, **extra)
    except SetupError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    try:
        setup_spans = list(trace.spans) if trace else []
        ops, batch_s, round_s, traced_round_s, round_spans, iterations = [], [], [], [], [], []
        t_start = time.perf_counter()
        while (
            not round_s
            or (trace is not None and not traced_round_s)
            or time.perf_counter() - t_start < args.seconds
        ):
            # A traced run alternates untraced and traced rounds; the
            # difference between them is the tracing overhead.
            traced_now = trace is not None and len(round_s) > len(traced_round_s)
            if traced_now:
                mark = len(trace.spans)
            t0 = time.perf_counter()
            try:
                with trace if traced_now else contextlib.nullcontext():
                    round_ops = workload.round()
            except Exception:
                traceback.print_exc()
                round_ops = [Op("round", time.perf_counter() - t0, ["round raised; see stderr"])]
            seconds = time.perf_counter() - t0
            if traced_now:
                traced_round_s.append(seconds)
                round_spans.append(trace.spans[mark:])
                iterations.append(getattr(workload, "iterations", 0))
            else:
                round_s.append(seconds)
            ops += round_ops
            if workload_cls.BATCH:
                batch_s += [op.seconds for op in round_ops if op.kind == workload_cls.BATCH]
            else:
                batch_s.append(seconds)
        if args.record:
            workload.record(round_ops, reference, args.toy)
            with open(args.reference, "w") as fh:
                json.dump(reference, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        workload.close()

    failures = [e for op in ops for e in op.errors]
    for message in failures[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    result = {
        "workload": args.workload,
        "setup_s": setup_s,
        "op_s": [op.seconds for op in ops if op.kind == workload_cls.OP],
        "batch_s": batch_s,
        "round_s": round_s,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.errors),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(args.seed),
    }
    if trace:
        result["traced_round_s"] = traced_round_s
        result["layers"] = layer_metrics(
            setup_spans, round_spans, isolated_ms(args.toy), statistics.fmean(iterations)
        )
        if args.trace_file:
            with open(args.trace_file, "w") as fh:
                json.dump([s.as_dict() for s in trace.spans], fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
