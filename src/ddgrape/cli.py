"""Command-line interface.

Subcommands: optimize (build protected gates), simulate (noisy Grover
trajectory), discord (single-state discord), sweep (robustness table),
analyze (RMS deviations vs the ideal trajectory). Exit codes: 0 success,
1 usage error, 2 numerical/validation failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from ddgrape.discord import load_state, quantum_discord
from ddgrape.harness import (
    ExperimentConfig,
    build_protected_gates,
    ideal_records,
    rms_deviation,
    robustness_sweep,
    run_trajectory,
    write_gates_csv,
    write_manifest,
    write_rms_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from ddgrape.nmr import NoiseEnsemble


def _noise_ensemble(config: ExperimentConfig, name: str) -> NoiseEnsemble:
    if name == "none":
        return NoiseEnsemble.identity()
    if name == "incoherence":
        return config.incoherence_ensemble()
    raise ValueError(f"unknown noise ensemble {name!r} (expected none|incoherence)")


def cmd_optimize(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    gates = build_protected_gates(config, verbose=not args.quiet)
    write_gates_csv(out / "gates.csv", gates)
    write_manifest(config)
    return 0


def cmd_simulate(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    noise = _noise_ensemble(config, args.noise)
    if args.scheme not in config.schemes:
        raise ValueError(f"scheme {args.scheme!r} is not in the config's schemes {list(config.schemes)}")
    gates = build_protected_gates(config, verbose=False)
    records = run_trajectory(config, args.scheme, noise, gates)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    tag = args.scheme.replace(":", "-")
    path = out / f"trajectory__{tag}__{args.noise}.csv"
    write_trajectory_csv(path, records)
    write_manifest(config)
    print(f"wrote {path}")
    return 0


def cmd_discord(args) -> int:
    eps = args.epsilon
    if eps is not None and not (math.isfinite(eps) and 0.0 < eps <= 1.0):
        raise ValueError(f"--epsilon must be a finite value in (0, 1], got {eps!r}")
    rho = load_state(args.state)
    result = quantum_discord(rho, epsilon=eps)
    print(f"discord={result.discord:.6f}")
    print(f"mutual_information={result.mutual_information:.6f}")
    print(f"classical_correlation={result.classical_correlation:.6f}")
    if result.scaled_discord is not None:
        print(f"scaled_discord={result.scaled_discord:.6f}")
    return 0


def cmd_sweep(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    gates = build_protected_gates(config, verbose=False)
    rows = robustness_sweep(config, gates)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(out / "sweep.csv", rows)
    write_manifest(config)
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_analyze(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    noise = _noise_ensemble(config, args.noise)
    gates = build_protected_gates(config, verbose=False)
    ideal = ideal_records(config)
    reports = []
    for scheme in config.schemes:
        records = run_trajectory(config, scheme, noise, gates)
        reports.append(rms_deviation(records, ideal, normalize=not args.no_normalize, scheme=scheme))
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"rms__{args.noise}.csv"
    write_rms_csv(path, reports, incoherence=args.noise == "incoherence")
    write_manifest(config)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddgrape",
        description="Dynamically protected two-qubit gates: synthesis, Grover simulation, discord analysis.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("optimize", help="build protected gate pulses for every configured scheme")
    p.add_argument("--config", required=True)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="run a noisy Grover trajectory for one scheme")
    p.add_argument("--config", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--noise", default="none", choices=["none", "incoherence"])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("discord", help="quantum discord of a state file")
    p.add_argument("--state", required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.set_defaults(func=cmd_discord)

    p = sub.add_parser("sweep", help="flip/phase robustness sweep over all schemes")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="RMS deviation of trajectories vs the ideal run")
    p.add_argument("--config", required=True)
    p.add_argument("--noise", default="none", choices=["none", "incoherence"])
    p.add_argument("--no-normalize", action="store_true")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
