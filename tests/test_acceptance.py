"""Acceptance suite: one test per top-level claim, each printing a PASS/FAIL
line (to the real stdout so it survives pytest capture)."""

import json
import math
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from conftest import CRITERION_LINES, random_mixed_state, random_pure_state, random_unitary, toy_config
from ddgrape.cli import main as cli_main
from ddgrape.core import partial_trace, von_neumann_entropy
from ddgrape.dd import DDScheme, place_dd, toggling_check
from ddgrape.discord import brute_force_min_conditional_entropy, min_conditional_entropy, quantum_discord
from ddgrape.grape import TargetGate, fidelity_gradient, random_initial_pulse, robust_fidelity
from ddgrape.grover import GroverSpec, ideal_trajectory, marked_probability
from ddgrape.harness import ideal_records, rms_deviation, robustness_sweep, run_trajectory
from ddgrape.nmr import NoiseEnsemble, SystemParams


def _report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {number}] {verdict}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    CRITERION_LINES.append(line)


def test_criterion_1_grover_analytics():
    t0 = time.time()
    stages = ideal_trajectory(GroverSpec(1, 6))
    probs = [marked_probability(rho, 1) for label, rho in stages if label.kind == "D"]
    prob_err = np.max(np.abs(np.array(probs) - np.array([1, 0.25, 0.25, 1, 0.25, 0.25])))
    discords = np.array([quantum_discord(rho).discord for _, rho in stages])
    pattern = np.array([0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0], dtype=float)
    disc_err = np.max(np.abs(discords - pattern))
    elapsed = time.time() - t0
    ok = prob_err < 1e-10 and disc_err < 1e-6 and elapsed < 1.0
    _report(1, ok, f"prob_err={prob_err:.2e} discord_err={disc_err:.2e} time={elapsed:.2f}s")
    assert prob_err < 1e-10
    assert disc_err < 1e-6
    assert elapsed < 1.0


def test_criterion_2_discord_oracles():
    t0 = time.time()
    rng = np.random.default_rng(101)

    worst_product = 0.0
    for _ in range(20):
        rho = np.kron(random_mixed_state(rng, 2, 2), random_mixed_state(rng, 2, 2))
        worst_product = max(worst_product, quantum_discord(rho).discord)

    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    grover = np.array([1, -1, 1, 1], dtype=complex) / 2
    unit_err = max(
        abs(quantum_discord(np.outer(v, v.conj())).discord - 1.0) for v in (bell, grover)
    )

    worst_pure = 0.0
    for _ in range(200):
        rho = random_pure_state(rng)
        ent = von_neumann_entropy(partial_trace(rho, "S"))
        worst_pure = max(worst_pure, abs(quantum_discord(rho).discord - ent))

    worst_neg = 0.0
    worst_gap = -math.inf
    for _ in range(200):
        rho = random_mixed_state(rng)
        d = quantum_discord(rho).discord
        worst_neg = min(worst_neg, d)
        refined, _ = min_conditional_entropy(rho)
        brute, _ = brute_force_min_conditional_entropy(rho)
        worst_gap = max(worst_gap, refined - brute)

    elapsed = time.time() - t0
    ok = worst_product <= 1e-7 and unit_err <= 1e-6 and worst_pure <= 1e-6 and worst_neg >= -1e-8 and worst_gap <= 1e-6 and elapsed < 300
    _report(
        2,
        ok,
        f"product_max={worst_product:.1e} unit_err={unit_err:.1e} pure_err={worst_pure:.1e} "
        f"min_d={worst_neg:.1e} refine_gap={worst_gap:.1e} time={elapsed:.0f}s",
    )
    assert worst_product <= 1e-7
    assert unit_err <= 1e-6
    assert worst_pure <= 1e-6
    assert worst_neg >= -1e-8
    assert worst_gap <= 1e-6
    assert elapsed < 300


def test_criterion_3_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(202)
    params = SystemParams(436.0, -436.0, 70.0)
    worst_rel = 0.0
    for trial in range(20):
        n = int(rng.integers(5, 51))
        pulse = random_initial_pulse(n, 5.1e-6, 2 * math.pi * 1e5, 0.3, seed=300 + trial)
        target = TargetGate(random_unitary(rng), "rand")
        gx, gy = fidelity_gradient(pulse, target, params)
        h = 1e-3
        checks = min(n, 6)
        idx = rng.choice(n, size=checks, replace=False)
        for k in idx:
            for arr, grad in ((pulse.omega_x, gx), (pulse.omega_y, gy)):
                orig = arr[k]
                arr[k] = orig + h
                f_plus = robust_fidelity(pulse, target, params, NoiseEnsemble.identity()).fidelity
                arr[k] = orig - h
                f_minus = robust_fidelity(pulse, target, params, NoiseEnsemble.identity()).fidelity
                arr[k] = orig
                fd = (f_plus - f_minus) / (2 * h)
                if abs(fd) < 1e-6:
                    assert abs(grad[k] - fd) < 1e-9
                else:
                    rel = abs(grad[k] - fd) / abs(fd)
                    worst_rel = max(worst_rel, rel)
    elapsed = time.time() - t0
    ok = worst_rel < 1e-6 and elapsed < 60
    _report(3, ok, f"worst_rel={worst_rel:.2e} time={elapsed:.1f}s")
    assert worst_rel < 1e-6
    assert elapsed < 60


def test_criterion_4_protected_gate_fidelities(desk_gates):
    cfg, gates = desk_gates
    rows = []
    worst = 1.0
    for scheme in cfg.schemes:
        gs = gates[scheme]
        rows.append(f"{scheme}:uw={gs.report_w.fidelity:.4f},ud={gs.report_d.fidelity:.4f}")
        worst = min(worst, gs.report_w.fidelity, gs.report_d.fidelity)
    ok = worst >= 0.99
    _report(4, ok, f"min_rfi_avg_fidelity={worst:.4f} ({'; '.join(rows)})")
    assert worst >= 0.99


def test_criterion_5_toggling_identity():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst = 0.0
    for scheme_str in ("xy:90:100", "xy:180:100", "xx:180:100", "xy:90:200"):
        scheme = DDScheme.parse(scheme_str)
        for m in (1, 4, 8):
            unitaries = [random_unitary(rng) for _ in range(m + 1)]
            placement = place_dd(m, DDScheme(scheme.flip_deg, scheme.phases, 1))
            worst = max(worst, toggling_check(unitaries, placement))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _report(5, ok, f"max_identity_residual={worst:.2e} time={elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_6_incoherence_protection(desk_gates):
    t0 = time.time()
    cfg, gates = desk_gates
    rows = robustness_sweep(cfg, gates)

    def mean_over_kinds(scheme, attr):
        vals = [getattr(r, attr) for r in rows if r.scheme == scheme]
        return sum(vals) / len(vals)

    f_inc = {s: mean_over_kinds(s, "mean_fidelity_incoherent") for s in cfg.schemes}
    drops = {s: mean_over_kinds(s, "mean_fidelity") - f_inc[s] for s in cfg.schemes}

    ordering_ok = f_inc["none"] < f_inc["xy:90:100"]
    drop_ok = all(drops["none"] > drops[s] for s in cfg.schemes if s != "none")

    incoherence = cfg.incoherence_ensemble()
    ideal = ideal_records(cfg)
    rms_none = rms_deviation(run_trajectory(cfg, "none", incoherence, gates), ideal, scheme="none")
    rms_prot = rms_deviation(
        run_trajectory(cfg, "xy:90:100", incoherence, gates), ideal, scheme="xy:90:100"
    )
    rms_ok = (
        rms_prot.rms_discord < rms_none.rms_discord and rms_prot.rms_prob < rms_none.rms_prob
    )
    elapsed = time.time() - t0
    ok = ordering_ok and drop_ok and rms_ok and elapsed < 1800
    _report(
        6,
        ok,
        f"F_inc(none)={f_inc['none']:.4f} F_inc(xy:90:100)={f_inc['xy:90:100']:.4f} "
        f"drop(none)={drops['none']:.4f} max_other_drop={max(d for s, d in drops.items() if s != 'none'):.4f} "
        f"rms_prob {rms_prot.rms_prob:.4f}<{rms_none.rms_prob:.4f} "
        f"rms_discord {rms_prot.rms_discord:.4f}<{rms_none.rms_discord:.4f} time={elapsed:.0f}s",
    )
    assert ordering_ok, f"F_inc(none)={f_inc['none']} !< F_inc(xy:90:100)={f_inc['xy:90:100']}"
    assert drop_ok, f"drops={drops}"
    assert rms_ok, f"rms none={rms_none} xy:90:100={rms_prot}"
    assert elapsed < 1800


def test_criterion_7_pseudopure_scaling():
    t0 = time.time()
    psi = np.array([1, -1, 1, 1], dtype=complex) / 2
    rho_pure = np.outer(psi, psi.conj())
    epsilons = np.array([3e-3, 1e-2, 3e-2])
    discords = []
    for eps in epsilons:
        rho = (1 - eps) * np.eye(4) / 4 + eps * rho_pure
        discords.append(quantum_discord(rho).discord)
    slope = np.polyfit(np.log(epsilons), np.log(discords), 1)[0]
    elapsed = time.time() - t0
    ok = abs(slope - 2.0) <= 0.05 and elapsed < 60
    _report(7, ok, f"loglog_slope={slope:.4f} time={elapsed:.1f}s")
    assert abs(slope - 2.0) <= 0.05
    assert elapsed < 60


def test_criterion_8_determinism(tmp_path, toy_gates):
    # Run a optimizes the toy gates from scratch; run b loads the session's
    # own toy build from a copy of its pulse cache. Two independent builds
    # are compared, their pulse files as well as the CSVs.
    session_cfg, _ = toy_gates
    shutil.copytree(Path(session_cfg.output_dir) / "pulses", tmp_path / "b" / "pulses")
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = toy_config(out)
        config_path = tmp_path / f"config_{run}.json"
        config_path.write_text(json.dumps(cfg.to_dict()))
        assert cli_main(["optimize", "--config", str(config_path), "--quiet"]) == 0
        assert cli_main(["simulate", "--config", str(config_path), "--scheme", "xy:90:20"]) == 0
        assert cli_main(["sweep", "--config", str(config_path)]) == 0
        names = ["gates.csv", "trajectory__xy-90-20__none.csv", "sweep.csv"]
        names += sorted(f"pulses/{p.name}" for p in (out / "pulses").iterdir())
        outputs.append({name: (out / name).read_bytes() for name in names})
    identical = outputs[0] == outputs[1]
    pulses = len(outputs[0]) - 3
    _report(8, identical, f"optimize+simulate+sweep CSVs and {pulses} pulse files byte-identical across two builds")
    assert identical
