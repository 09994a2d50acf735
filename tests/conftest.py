import math
from pathlib import Path

import numpy as np
import pytest

from ddgrape.harness import ExperimentConfig
from ddgrape.nmr import NoiseEnsemble, NoiseRealization, SystemParams

GATE_CACHE = Path(__file__).parent / "_gate_cache"

# One line per acceptance criterion, filled in by tests/test_acceptance.py and
# echoed after the test summary (pytest's fd capture swallows direct prints).
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for line in CRITERION_LINES:
        terminalreporter.write_line(line)


def random_unitary(rng, n=4):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def random_pure_state(rng, n=4):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_mixed_state(rng, n=4, ancilla=4):
    """Reduced state of a random pure purification; full rank a.s."""
    psi = rng.normal(size=(n, ancilla)) + 1j * rng.normal(size=(n, ancilla))
    psi /= np.linalg.norm(psi)
    return psi @ psi.conj().T


def random_density_2x2(rng):
    return random_mixed_state(rng, n=2, ancilla=2)


def sweep_members(cfg: ExperimentConfig) -> list[NoiseRealization]:
    """The robustness sweep's flip and phase members, first alone, then at
    both ends of the config's incoherence grid."""
    ends = NoiseEnsemble(tuple(NoiseRealization(offset_shift=s) for s in cfg.incoherence_range))
    grids = list(cfg.error_ensembles().values())
    return [m for grid in grids + [g.combined_with(ends) for g in grids] for m in grid.realizations]


def desk_config(**overrides) -> ExperimentConfig:
    kwargs = dict(output_dir=str(GATE_CACHE))
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def toy_config(tmpdir, **overrides) -> ExperimentConfig:
    """Small, fast-to-optimize system: 60 segments, strong coupling so the
    entangling phase fits in the short gate."""
    kwargs = dict(
        system=SystemParams(5000.0, -5000.0, 1800.0),
        dt=5.1e-6,
        n_segments_per_gate=60,
        schemes=("none", "xy:90:20"),
        epsilon=1.0,
        iterations=6,
        marked=1,
        incoherence_range=(-200.0, 200.0),
        incoherence_points=7,
        seed=11,
        output_dir=str(tmpdir),
        max_iterations=250,
        fidelity_goal=0.90,
        # short toy gates need stronger shaped segments than the desk default
        free_amplitude_bound=2.0 * math.pi * 2.0e4,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


@pytest.fixture(scope="session")
def desk_gates():
    from ddgrape.harness import build_protected_gates

    cfg = desk_config()
    GATE_CACHE.mkdir(exist_ok=True)
    return cfg, build_protected_gates(cfg)


@pytest.fixture(scope="session")
def toy_gates(tmp_path_factory):
    """The toy config and a fresh in-process build of its gates, made once per
    session for the harness and CLI tests; later builds of this config hit
    its pulse cache."""
    from ddgrape.harness import build_protected_gates

    cfg = toy_config(tmp_path_factory.mktemp("toy") / "out")
    return cfg, build_protected_gates(cfg)
