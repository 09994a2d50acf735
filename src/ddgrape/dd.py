"""Dynamical-decoupling schemes: placement, ideal propagators, toggling check.

A scheme places one collective pulse in the middle of every block of
`spacing` segments, cycling phases from its pattern. Descriptor grammar:
``<phases>:<flip_deg>:<spacing>``, e.g. ``xy:90:1000`` or ``xx:180:2000``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ddgrape.core import ID2, ID4, SIGMA_X, SIGMA_Y, global_phase_distance
from ddgrape.nmr import PulseSequence, within_omega_max


@dataclass(frozen=True)
class DDScheme:
    """Flip angle (deg), cyclic phase pattern over {x, y}, block spacing."""

    flip_deg: float
    phases: tuple[str, ...]
    spacing: int

    def __post_init__(self):
        if not self.phases:
            raise ValueError("phase pattern must be non-empty")
        if any(p not in ("x", "y") for p in self.phases):
            raise ValueError(f"phases must be 'x' or 'y', got {self.phases}")
        if self.spacing < 1:
            raise ValueError("spacing must be >= 1")

    @staticmethod
    def parse(text: str) -> "DDScheme":
        parts = text.strip().split(":")
        if len(parts) != 3:
            raise ValueError(f"scheme descriptor must be <phases>:<flip_deg>:<spacing>, got {text!r}")
        phases, flip, spacing = parts
        return DDScheme(flip_deg=float(flip), phases=tuple(phases), spacing=int(spacing))


@dataclass(frozen=True)
class DDPlacement:
    """Resolved pulse positions: 0-based segment indices, one flip (deg), a phase per index."""

    indices: tuple[int, ...]
    flip_deg: float
    phases: tuple[str, ...]

    def __post_init__(self):
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("placement indices must be strictly increasing")
        if len(self.indices) != len(self.phases):
            raise ValueError("placement phases must align with indices")


def complete_blocks(n_segments: int, scheme: DDScheme) -> int:
    """Whole blocks of the scheme in n_segments, of which at least one must fit."""
    if not n_segments >= scheme.spacing:
        raise ValueError(f"n_segments={n_segments} smaller than spacing={scheme.spacing}")
    return n_segments // scheme.spacing


def hard_pulse_amplitude(flip_deg: float, dt: float, omega_max: float) -> float:
    """beta/dt (rad/s) of a one-segment flip, for dt and omega_max as a PulseSequence
    holds them; it must be finite and within omega_max (1e-12 relative slack)."""
    amp = math.radians(flip_deg) / dt
    if not within_omega_max(abs(amp), omega_max):
        raise ValueError(f"DD amplitude {amp:.4g} rad/s is not within omega_max {omega_max:.4g}")
    return amp


def place_dd(n_segments: int, scheme: DDScheme) -> DDPlacement:
    """One pulse per complete block, at index b*spacing + spacing//2.

    A trailing partial block receives no pulse; phases cycle through the
    scheme pattern.
    """
    n_blocks = complete_blocks(n_segments, scheme)
    indices = tuple(b * scheme.spacing + scheme.spacing // 2 for b in range(n_blocks))
    phases = tuple(scheme.phases[b % len(scheme.phases)] for b in range(n_blocks))
    return DDPlacement(indices, scheme.flip_deg, phases)


def ideal_dd_propagator(flip_deg: float, phase: str) -> np.ndarray:
    """exp(-i beta (I1a + I2a)), the collective rotation of both spins about
    a = x or y, as r (x) r with r = cos(beta/2) 1 - i sin(beta/2) sigma_a:
    exact, because the two spins' terms commute."""
    half = math.radians(flip_deg) / 2.0
    r = math.cos(half) * ID2 - 1j * math.sin(half) * {"x": SIGMA_X, "y": SIGMA_Y}[phase]
    return np.kron(r, r)


def freeze_into(pulse: PulseSequence, placement: DDPlacement) -> PulseSequence:
    """Return a copy with the DD amplitudes frozen at the placement indices.

    The pulse at each index becomes a single full segment of amplitude
    beta/dt along its phase axis, exempt from optimization.
    """
    out = pulse.copy()
    amp = hard_pulse_amplitude(placement.flip_deg, out.dt, out.omega_max)
    for idx, phase in zip(placement.indices, placement.phases):
        if not 0 <= idx < out.n_segments:
            raise ValueError(f"placement index {idx} out of bounds")
        out.omega_x[idx] = amp if phase == "x" else 0.0
        out.omega_y[idx] = amp if phase == "y" else 0.0
        out.frozen[idx] = True
    return out


def toggling_check(unitaries, placement: DDPlacement) -> float:
    """Max deviation between the interleaved and toggling-frame products.

    Computes U_{M+1} P_M U_M ... P_1 U_1 directly, and again as
    U_{M+1} T_{M+1} prod_j (T_j^dag U_j T_j) with T_j = P_{j-1}...P_1, and
    returns the max entrywise difference after fixing the global phase.
    For cyclic schemes (net rotation = identity up to phase) the prefix
    T_{M+1} drops out and this is the textbook toggling identity.
    """
    m = len(placement.indices)
    if len(unitaries) != m + 1:
        raise ValueError(f"expected {m + 1} unitaries for {m} DD pulses, got {len(unitaries)}")
    pulses = [ideal_dd_propagator(placement.flip_deg, p) for p in placement.phases]

    interleaved = np.array(unitaries[0], dtype=complex)
    for j in range(m):
        interleaved = unitaries[j + 1] @ (pulses[j] @ interleaved)

    t = ID4.copy()
    toggled = ID4.copy()
    for j in range(m):
        toggled = (t.conj().T @ unitaries[j] @ t) @ toggled
        t = pulses[j] @ t
    toggling_product = np.asarray(unitaries[m], dtype=complex) @ t @ toggled

    return global_phase_distance(interleaved, toggling_product)
