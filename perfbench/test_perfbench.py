"""Self-test of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench

The toy runs check the output contract; the desk-size tests pin the traced
call counts that perfbench/README.md quotes (about a minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
from ddgrape import harness  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# The names that performance claims use, per workload, with their units.
SUMMARY = {
    "synthesize": {"setup_s": "s", "gate_build_s": "s", "peak_rss_mb": "MiB", "fail_frac": "fraction"},
    "evaluate": {"setup_s": "s", "sweep_s": "s", "trajectory_s": "s", "peak_rss_mb": "MiB", "fail_frac": "fraction"},
    "discord": {
        "setup_s": "s",
        "discord_ms": "ms",
        "discord_ms_tail": "ms",
        "peak_rss_mb": "MiB",
        "fail_frac": "fraction",
    },
}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(proc, workload) -> dict:
    """{name: (value, unit)} from the `<workload>: name = value unit` lines."""
    out = {}
    for line in proc.stdout.splitlines():
        if line.startswith(workload + ": "):
            name, rest = line[len(workload) + 2 :].split(" = ", 1)
            value, unit = rest.split()[:2]
            out[name] = (float(value), unit)
    return out


@pytest.mark.parametrize("workload", sorted(SUMMARY))
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(f"--workload={workload}", "--seed=2024", "--seconds=0.1", f"--trace={trace}", "--toy")
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    printed = summary(proc, workload)
    if trace:
        assert printed["trace.overhead_ms"][1] == "ms"
    else:
        assert {name: unit for name, (_, unit) in printed.items()} == SUMMARY[workload]
        assert printed["fail_frac"][0] == 0.0


def test_corrupted_reference_fails_the_check(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    reference["evaluate"]["toy"]["sweep"][0][2] += 1e-9
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    proc = bench("--workload=evaluate", "--seed=1", "--seconds=0.1", "--toy", f"--reference={corrupted}")
    result = last_json(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert summary(proc, "evaluate")["fail_frac"][0] > 0


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload=synthesize", "--seed=1", "--seconds=1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_shipped_pulse_is_an_error(tmp_path, monkeypatch):
    shutil.copytree(worker.GATE_CACHE / "pulses", tmp_path / "pulses")
    (tmp_path / "pulses" / "xy-90-100__ud__seed2024.txt").unlink()
    monkeypatch.setattr(worker, "GATE_CACHE", tmp_path)
    with pytest.raises(worker.SetupError, match="xy-90-100__ud"):
        worker.Evaluate(1, False, json.loads((HERE / "reference.json").read_text()))


def test_cache_miss_does_not_reoptimize(tmp_path):
    cfg = harness.ExperimentConfig(output_dir=str(tmp_path), schemes=("none",))
    with worker.refuse_reoptimization(), pytest.raises(worker.SetupError, match="re-optimize"):
        harness.build_protected_gates(cfg)
    assert not any(tmp_path.iterdir())


def test_evaluate_traced_counts():
    """1530 propagator and 84 discord calls per round, 10 pulse loads in
    set-up; none of them depends on the seed."""
    reference = json.loads((HERE / "reference.json").read_text())
    trace = tracer.Tracer()
    with trace:
        workload = worker.Evaluate(7, False, reference)
    setup = list(trace.spans)
    try:
        with trace:
            ops = workload.round()
    finally:
        workload.close()
    rounds = trace.spans[len(setup) :]
    assert [e for op in ops for e in op.errors] == []
    assert tracer.calls(setup, "nmr.load_pulse") == 10
    assert tracer.calls(setup, "grape.robust_fidelity") == 10
    assert tracer.calls(rounds, "nmr.sequence_propagator") == 1530
    assert tracer.calls(setup + rounds, "discord.quantum_discord") == 84
    # Propagations inside the sweep run on its pool threads, parented to it.
    sweep = next(s for s in rounds if s.name == "harness.robustness_sweep")
    inside = tracer.within(rounds, "nmr.sequence_propagator", "harness.robustness_sweep")
    assert len(inside) == 1320 and all(s.parent == sweep.index for s in inside)


def test_synthesize_traced_counts():
    """A 30-iteration U_D build from random_initial_pulse(..., seed=2024):
    5 RFI members x 34 forward-only evaluations, and x 72 Hamiltonian stacks
    (34 forward + 38 gradient)."""
    reference = json.loads((HERE / "reference.json").read_text())
    workload = worker.Synthesize(2024, False, reference)
    scheme, target, start = workload.gates[1]
    assert (scheme, target.label) == ("xy:90:100", "ud")
    trace = tracer.Tracer()
    with trace:
        op = workload.build(scheme, target, start)
    assert op.errors == []
    assert tracer.calls(trace.spans, "core.batched_unitary_exp") == 170
    assert tracer.calls(trace.spans, "nmr.segment_hamiltonians") == 360
    assert workload.iterations == 30
