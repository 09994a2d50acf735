"""Dynamically protected two-qubit gates.

Synthesizes quantum gates with dynamical-decoupling pulses frozen inside an
L-BFGS GRAPE pulse optimizer, then evaluates the protection by simulating
Grover's search (marked-state probability and quantum discord) under coherent
noise ensembles.
"""

from ddgrape.core import (
    partial_trace,
    spin_operator,
    von_neumann_entropy,
)
from ddgrape.nmr import (
    NoiseEnsemble,
    NoiseRealization,
    PulseSequence,
    SystemParams,
    evolve_ensemble,
    pseudopure_state,
    sequence_propagator,
    system_hamiltonian,
)
from ddgrape.dd import DDPlacement, DDScheme, freeze_into, ideal_dd_propagator, place_dd
from ddgrape.grape import gate_fidelity, optimize, random_initial_pulse, robust_fidelity
from ddgrape.grover import (
    diffusion_unitary,
    ideal_trajectory,
    marked_probability,
    oracle_unitary,
    uniform_superposition,
)
from ddgrape.discord import quantum_discord

__version__ = "0.1.0"
