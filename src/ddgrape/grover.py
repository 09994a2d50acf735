"""Grover's search for N = 4: oracle, diffusion, and the stage schedule of
every trajectory, ideal or noisy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ddgrape.core import ID4
from ddgrape.nmr import NoiseEnsemble, evolve_ensemble, pseudopure_state

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
HADAMARD2 = np.kron(HADAMARD, HADAMARD)


@dataclass(frozen=True)
class GroverSpec:
    marked: int
    iterations: int

    def __post_init__(self):
        if self.marked not in range(4):
            raise ValueError("marked index must be in 0..3")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")


@dataclass(frozen=True)
class StageLabel:
    """Stage kind is one of PPS, H, W (oracle) or D (diffusion) with a round."""

    kind: str
    round: int = 0

    def __str__(self):
        if self.kind in ("PPS", "H"):
            return self.kind
        return f"{self.kind}{self.round}"


def uniform_superposition() -> np.ndarray:
    """(|00> + |01> + |10> + |11>) / 2, same as H (x) H acting on |00>."""
    return np.full(4, 0.5, dtype=complex)


def oracle_unitary(k0: int) -> np.ndarray:
    if k0 not in range(4):
        raise ValueError("marked index must be in 0..3")
    u = ID4.copy()
    u[k0, k0] = -1.0
    return u


def diffusion_unitary() -> np.ndarray:
    """2|psi0><psi0| - Id: inversion about the mean, entries 1/2 - delta_ij."""
    psi = uniform_superposition()
    return 2.0 * np.outer(psi, psi.conj()) - ID4


def marked_probability(rho: np.ndarray, k0: int) -> float:
    return float(rho[k0, k0].real)


def grover_stages(spec: GroverSpec, rho0: np.ndarray, ensemble: NoiseEnsemble, uw, ud):
    """Stage-by-stage states: PPS, Hadamard, then alternating oracle/diffusion.

    Every ensemble member starts in rho0 and is evolved by the ideal
    Hadamard, then by its own oracle and diffusion propagators uw[m] and
    ud[m] each round (nmr.evolve_ensemble). Returns a list of
    (StageLabel, ensemble-mean DensityMatrix).
    """
    labels = [StageLabel("PPS"), StageLabel("H")]
    labels += [StageLabel(kind, r) for r in range(1, spec.iterations + 1) for kind in ("W", "D")]
    stages = [[HADAMARD2] * len(ensemble.realizations)] + [uw, ud] * spec.iterations
    return list(zip(labels, evolve_ensemble(rho0, ensemble, stages)))


def ideal_trajectory(spec: GroverSpec, epsilon: float | None = None):
    """grover_stages with one noiseless member and the exact oracle and
    diffusion, from |00><00| (or the pseudopure state when epsilon is given)."""
    rho0 = pseudopure_state(1.0 if epsilon is None else epsilon)
    return grover_stages(spec, rho0, NoiseEnsemble.identity(), [oracle_unitary(spec.marked)], [diffusion_unitary()])
