"""ddgrape benchmark: one workload per call, metrics as JSON on the last line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synthesize --seed 1 --seconds 40 --trace 0

Workloads (see perfbench/README.md): `synthesize`, `evaluate`, `discord`.
With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run. The workload
runs in a child process (`worker.py`) that imports `ddgrape` from this
checkout's `src/`; set-up time is measured on several such processes and
reported as their median. Exit code 2 means the checkout lacks what the
workload needs, 3 that a worker failed or overran; neither prints a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("synthesize", "evaluate", "discord")
# Set-up is timed in this many processes that stop after it, half of them
# before the measuring process and half after it, plus the measuring
# process itself; the median is reported.
SETUP_PROBES = 4
# Every run, set-up probes included, must end well inside 180 s.
DEADLINE_S = 170.0


class WorkerError(Exception):
    pass


def tree_digest(paths) -> str:
    """SHA-256 over the relative names and bytes of every file under `paths`
    (bytecode caches excluded)."""
    h = hashlib.sha256()
    for base in paths:
        for path in sorted(p for p in base.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run_worker(args, extra, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spawned_at = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--spawned-at={spawned_at!r}",
        *extra,
    ]
    if args.toy:
        cmd.append("--toy")
    if args.reference:
        cmd.append(f"--reference={args.reference}")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker for {args.workload} overran the {DEADLINE_S:g} s deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise WorkerError(f"worker for {args.workload} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker for {args.workload} printed no result")
    return json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; with ten samples or fewer, the maximum (100th)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def upper_decile(samples: list[float]) -> float:
    """The 90th percentile (inclusive, interpolated); one sample is its own."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def end_to_end(workload: str, setups: list[float], result: dict, failed: int, attempted: int):
    """The JSON metrics, and the summary lines in the workload's own terms.

    Operations are gated on their 90th percentile, not their median. On a
    shared host, single-threaded work runs for spells of 10-100 s at
    0.6-0.8 of its usual time; how much of a one-minute run such spells
    cover decides its median, while the upper decile stays at the usual
    speed. The summary lines still give the medians."""
    ops, batches = result["op_s"], result["batch_s"]
    op_ms = 1e3 * statistics.median(ops)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_p90_ms": {"value": 1e3 * upper_decile(ops), "unit": "ms"},
        "batch_s": {"value": statistics.median(batches), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
    }
    lines = [("setup_s", metrics["setup_s"]["value"], "s", f"median of {len(setups)} processes")]
    if workload == "synthesize":
        lines.append(("gate_build_s", op_ms / 1e3, "s", f"median of {len(ops)} builds"))
    elif workload == "evaluate":
        lines.append(("sweep_s", metrics["batch_s"]["value"], "s", f"median of {len(batches)} sweeps"))
        lines.append(("trajectory_s", op_ms / 1e3, "s", f"median of {len(ops)} trajectories with RMS"))
    else:
        pct, tail_s = tail(ops)
        lines.append(("discord_ms", op_ms, "ms", f"median of {len(ops)} states"))
        # Printed, not gated: interference spikes on a shared machine move it
        # by more than any bound the benchmark may set.
        lines.append(("discord_ms_tail", 1e3 * tail_s, "ms", f"p{pct:.4g} of {len(ops)} states"))
    lines.append(("peak_rss_mb", result["peak_rss_mb"], "MiB", "measuring process"))
    lines.append(("fail_frac", failed / attempted, "fraction", f"{failed} of {attempted} operations"))
    return metrics, lines


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(".stretch") else "count"


def per_layer(result: dict):
    layers = dict(result["layers"])
    untraced = statistics.median(result["round_s"])
    traced = statistics.median(result["traced_round_s"])
    layers["trace.overhead_ms"] = 1e3 * (traced - untraced)
    metrics = {}
    for name, value in layers.items():
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    note = f"per round: traced {traced:.4f} s, untraced {untraced:.4f} s"
    lines = [(name, m["value"], m["unit"], note if name == "trace.overhead_ms" else "") for name, m in metrics.items()]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy-sized inputs, for the self-test")
    parser.add_argument("--reference", type=Path, help="reference outputs to check against")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ddgrape" / "__init__.py").is_file():
        print(f"perfbench: no ddgrape sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    guarded = [ROOT / "tests" / "_gate_cache", ROOT / "src" / "ddgrape"]
    digest_before = tree_digest(guarded)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [run_worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(probes // 2)]
        extra = [f"--trace-file={out_dir / (tag + '-spans.json')}"] if args.trace else []
        result = run_worker(args, extra, deadline)
        setups.append(result["setup_s"])
        setups += [run_worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(probes - probes // 2)]
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    attempted, failed = result["attempted"], result["failed"]
    # Neither the shipped gate cache nor a library source may change.
    attempted += 1
    if tree_digest(guarded) != digest_before:
        print("perfbench: tests/_gate_cache or src/ddgrape changed during the run", file=sys.stderr)
        failed += 1

    if not (result["op_s"] and result["batch_s"]):
        print("perfbench: no operation completed, so nothing was measured", file=sys.stderr)
        return 3
    if args.trace:
        metrics, lines = per_layer(result)
    else:
        metrics, lines = end_to_end(args.workload, setups, result, failed, attempted)
    for name, value, unit, note in lines:
        print(f"{args.workload}: {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print("env " + json.dumps(result["env"], sort_keys=True))
    record = {"metrics": metrics, "env": result["env"], "setup_samples_s": setups, "worker": result}
    with open(out_dir / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
