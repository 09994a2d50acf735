"""Command-line interface.

Subcommands: optimize (build protected gates), simulate (noisy Grover
trajectory), discord (single-state discord), sweep (robustness table),
analyze (RMS deviations vs the ideal trajectory). Exit codes: 0 success,
1 usage error, 2 numerical/validation failure.

Every config command returns one table, and `run_config_command` alone
writes it as a CSV into the config's `output_dir`, followed by
`run_manifest.json`. Floats are written as their `repr`, so every value
reads back exactly and a rerun writes byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

import ddgrape
from ddgrape.discord import load_state, quantum_discord
from ddgrape.harness import (
    ExperimentConfig,
    _scheme_tag,
    build_protected_gates,
    ideal_records,
    rms_deviation,
    robustness_sweep,
    run_trajectory,
    worker_count,
)
from ddgrape.nmr import NoiseEnsemble


def _noise_ensemble(config: ExperimentConfig, name: str) -> NoiseEnsemble:
    return config.incoherence_ensemble() if name == "incoherence" else NoiseEnsemble.identity()


def cmd_optimize(args, config: ExperimentConfig):
    gates = build_protected_gates(config, verbose=not args.quiet)
    rows = []
    for scheme, gs in gates.items():
        # `not >=` flags a NaN fidelity too, which `<` and min() would let through.
        warning = int(not all(r.fidelity >= config.fidelity_goal for r in (gs.report_w, gs.report_d)))
        rows += [(scheme, "uw", gs.report_w.fidelity, warning), (scheme, "ud", gs.report_d.fidelity, warning)]
    return "gates.csv", "scheme,target,mean_fidelity,warning", rows


def cmd_simulate(args, config: ExperimentConfig):
    noise = _noise_ensemble(config, args.noise)
    if args.scheme not in config.schemes:
        raise ValueError(f"scheme {args.scheme!r} is not in the config's schemes {list(config.schemes)}")
    records = run_trajectory(config, args.scheme, noise, build_protected_gates(config))
    rows = [(r.stage, r.marked_prob, r.discord, r.scaled_discord) for r in records]
    header = "stage,marked_prob,discord_bits,scaled_discord"
    return f"trajectory__{_scheme_tag(args.scheme)}__{args.noise}.csv", header, rows


def cmd_sweep(args, config: ExperimentConfig):
    rows = [
        (r.scheme, r.error_kind, r.mean_fidelity, r.mean_fidelity_incoherent)
        for r in robustness_sweep(config, build_protected_gates(config))
    ]
    return "sweep.csv", "scheme,error_kind,mean_fidelity,mean_fidelity_incoherent", rows


def cmd_analyze(args, config: ExperimentConfig):
    noise = _noise_ensemble(config, args.noise)
    gates = build_protected_gates(config)
    ideal = ideal_records(config)
    rows = []
    for scheme in config.schemes:
        records = run_trajectory(config, scheme, noise, gates)
        r = rms_deviation(records, ideal, normalize=not args.no_normalize, scheme=scheme)
        rows.append((scheme, r.rms_discord, r.rms_prob, int(args.noise == "incoherence")))
    return f"rms__{args.noise}.csv", "scheme,rms_discord,rms_prob,incoherence", rows


def run_config_command(args) -> int:
    """Load the config, run the command, and write its table and then
    `run_manifest.json` into the config's `output_dir`. The manifest holds
    the config, the seed, the Python, ddgrape, numpy and scipy versions and
    the number of pool workers, resolved before the command runs."""
    config = ExperimentConfig.from_json(args.config)
    workers = worker_count()
    name, header, rows = args.table(args, config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    (out / name).write_text("\n".join([header, *lines]) + "\n")
    versions = {
        "ddgrape": ddgrape.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
    }
    manifest = {"config": config.to_dict(), "seed": config.seed, "versions": versions, "workers": workers}
    (out / "run_manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if args.table is not cmd_optimize:  # optimize prints each gate's fidelity instead
        print(f"wrote {out / name}")
    return 0


def cmd_discord(args) -> int:
    result = quantum_discord(load_state(args.state), epsilon=args.epsilon)
    print(f"discord={result.discord:.6f}")
    print(f"mutual_information={result.mutual_information:.6f}")
    print(f"classical_correlation={result.classical_correlation:.6f}")
    if result.scaled_discord is not None:
        print(f"scaled_discord={result.scaled_discord:.6f}")
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
    p.set_defaults(func=run_config_command, table=cmd_optimize)

    p = sub.add_parser("simulate", help="run a noisy Grover trajectory for one scheme")
    p.add_argument("--config", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--noise", default="none", choices=["none", "incoherence"])
    p.set_defaults(func=run_config_command, table=cmd_simulate)

    p = sub.add_parser("discord", help="quantum discord of a state file")
    p.add_argument("--state", required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.set_defaults(func=cmd_discord)

    p = sub.add_parser("sweep", help="flip/phase robustness sweep over all schemes")
    p.add_argument("--config", required=True)
    p.set_defaults(func=run_config_command, table=cmd_sweep)

    p = sub.add_parser("analyze", help="RMS deviation of trajectories vs the ideal run")
    p.add_argument("--config", required=True)
    p.add_argument("--noise", default="none", choices=["none", "incoherence"])
    p.add_argument("--no-normalize", action="store_true")
    p.set_defaults(func=run_config_command, table=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 after a usage error
        return 0 if exc.code == 0 else 1
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
