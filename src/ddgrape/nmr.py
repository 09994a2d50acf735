"""Two-qubit rotating-frame model: Hamiltonians, propagators, noise ensembles.

Conventions: offsets and the scalar coupling are stored in Hz and converted
to angular frequency (2*pi) inside the Hamiltonian builders; control
amplitudes are stored in rad/s. Noise is quasi-static: each realization
keeps its parameters fixed for an entire multi-pulse run.

Forward propagation (sequence_propagator, behind the robustness sweep and
the Grover trajectories) works in each segment's control-phase frame: the
diagonal H_S' commutes with F_z, so a segment is a z rotation of a real
symmetric generator, and one real eigh of the segment stack serves it
(phase_frame_factors). That generator does not depend on the member's
phase offset, so the sweep builds it once for all members that differ
only in their phase offset.
GRAPE (ddgrape.grape) keeps the complex eigenbasis of segment_hamiltonians:
its Daleckii-Krein gradient needs that basis, and L-BFGS amplifies any
change in the gradient's rounding into a different optimized pulse.

The 4 x 4 products of the forward path, each segment's recompose and
ordered_product's pairwise tree, are elementwise multiply-adds over the
whole stack (_mul4), not numpy's batched matmul. matmul makes one BLAS call
per 4 x 4 matrix, and two sweep-pool threads making those calls at once each
ran 2.6-3.3x slower than one thread alone; _mul4's ufuncs make no BLAS call
and release the GIL, so the pool scales (numbers in ordered_product and
phase_frame_factors, measured on a 2-vCPU x86-64 host, numpy 2.4,
OpenBLAS 0.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ddgrape.core import UNITARITY_TOL, collective_operator, spin_operator, unitarity_error

I1Z = spin_operator(1, "z")
I2Z = spin_operator(2, "z")
FX = collective_operator("x")
FY = collective_operator("y")
I1ZI2Z = I1Z @ I2Z

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SystemParams:
    """Resonance offsets (Hz) and scalar coupling J (Hz)."""

    offset1: float
    offset2: float
    coupling: float

    def __post_init__(self):
        for v in (self.offset1, self.offset2, self.coupling):
            if not math.isfinite(v):
                raise ValueError("system parameters must be finite")
        if self.coupling < 0:
            raise ValueError("coupling must be >= 0")


@dataclass(frozen=True)
class NoiseRealization:
    """One coherent-error realization, held fixed for a whole run.

    rf_scale is the one amplitude scale (RF miscalibration and flip-angle
    errors alike): it multiplies both control amplitudes. offset_shift (Hz)
    is added to both offsets, phase_offset (rad) rotates every segment's
    control phase.
    """

    rf_scale: float = 1.0
    offset_shift: float = 0.0
    phase_offset: float = 0.0

    def __post_init__(self):
        if not (all(map(math.isfinite, (self.rf_scale, self.offset_shift, self.phase_offset))) and self.rf_scale > 0):
            raise ValueError(f"fields must be finite and rf_scale > 0; got {self!r}")


IDENTITY_NOISE = NoiseRealization()


@dataclass(frozen=True)
class NoiseEnsemble:
    """Unweighted grid of noise realizations: every member counts 1/n."""

    realizations: tuple[NoiseRealization, ...]

    def __post_init__(self):
        if not self.realizations:
            raise ValueError("ensemble must contain at least one realization")

    @staticmethod
    def identity() -> "NoiseEnsemble":
        return NoiseEnsemble((IDENTITY_NOISE,))

    def mean(self, values):
        """sum_r w * values[r], w = 1/n, over values given in member order, added
        left to right, so floats and arrays alike get a deterministic result."""
        w = 1.0 / len(self.realizations)
        total = 0.0
        for _, value in zip(self.realizations, values, strict=True):
            total = total + w * value
        return total

    def combined_with(self, other: "NoiseEnsemble") -> "NoiseEnsemble":
        """Outer product of two ensembles (independent error sources): self's
        members outer, other's inner; scales multiply, offsets and phases add."""
        return NoiseEnsemble(
            tuple(
                NoiseRealization(
                    rf_scale=a.rf_scale * b.rf_scale,
                    offset_shift=a.offset_shift + b.offset_shift,
                    phase_offset=a.phase_offset + b.phase_offset,
                )
                for a in self.realizations
                for b in other.realizations
            )
        )


def within_omega_max(norm, omega_max: float):
    """Whether amplitude norms are finite and within omega_max (1e-12 relative slack)."""
    return np.isfinite(norm) & (norm <= omega_max * (1 + 1e-12))


@dataclass
class PulseSequence:
    """Piecewise-constant control amplitudes with a frozen-segment mask.

    Arrays are treated as immutable; operations that modify a pulse return
    a new instance.
    """

    omega_x: np.ndarray
    omega_y: np.ndarray
    frozen: np.ndarray
    dt: float
    omega_max: float

    def __post_init__(self):
        self.omega_x = np.asarray(self.omega_x, dtype=float)
        self.omega_y = np.asarray(self.omega_y, dtype=float)
        self.frozen = np.asarray(self.frozen, dtype=bool)
        if not (self.omega_x.ndim == 1 and self.omega_x.shape == self.omega_y.shape == self.frozen.shape):
            raise ValueError("amplitude and mask arrays must be 1-D and of equal length")
        if self.omega_x.size == 0:
            raise ValueError("pulse must have at least one segment")
        if not (math.isfinite(self.dt) and self.dt > 0 and math.isfinite(self.omega_max) and self.omega_max > 0):
            raise ValueError(f"dt={self.dt!r} and omega_max={self.omega_max!r} must be finite and > 0")
        bad = ~(np.isfinite(self.omega_x) & np.isfinite(self.omega_y))
        if np.any(bad):
            raise ValueError(f"segment {int(np.argmax(bad))} has a non-finite amplitude")

    @property
    def n_segments(self) -> int:
        return int(self.omega_x.size)

    @staticmethod
    def zeros(n_segments: int, dt: float, omega_max: float) -> "PulseSequence":
        return PulseSequence(
            np.zeros(n_segments), np.zeros(n_segments), np.zeros(n_segments, dtype=bool), dt, omega_max
        )

    def with_amplitudes(self, omega_x: np.ndarray, omega_y: np.ndarray) -> "PulseSequence":
        return PulseSequence(np.array(omega_x), np.array(omega_y), self.frozen.copy(), self.dt, self.omega_max)

    def copy(self) -> "PulseSequence":
        return PulseSequence(self.omega_x.copy(), self.omega_y.copy(), self.frozen.copy(), self.dt, self.omega_max)


def system_hamiltonian(params: SystemParams) -> np.ndarray:
    """-2*pi*nu1*I1z - 2*pi*nu2*I2z + 2*pi*J*I1z*I2z, diagonal, in rad/s."""
    return (
        -TWO_PI * params.offset1 * I1Z
        - TWO_PI * params.offset2 * I2Z
        + TWO_PI * params.coupling * I1ZI2Z
    )


def apply_noise_to_amplitudes(omega_x, omega_y, noise: NoiseRealization):
    """Scaled and phase-rotated control amplitudes under a noise realization.

    Amplitude scaling is applied first, then the phase rotation (the
    miscalibration acts on the emitted field). Works elementwise on arrays.
    """
    c, s = math.cos(noise.phase_offset), math.sin(noise.phase_offset)
    ox = noise.rf_scale * (np.asarray(omega_x) * c - np.asarray(omega_y) * s)
    oy = noise.rf_scale * (np.asarray(omega_x) * s + np.asarray(omega_y) * c)
    return ox, oy


def shifted_params(params: SystemParams, noise: NoiseRealization) -> SystemParams:
    return SystemParams(params.offset1 + noise.offset_shift, params.offset2 + noise.offset_shift, params.coupling)


def segment_hamiltonians(
    pulse: PulseSequence, params: SystemParams, noise: NoiseRealization = IDENTITY_NOISE
) -> np.ndarray:
    """Stack (K, 4, 4) of total Hamiltonians H_S' + H_C,k' under the noise."""
    hs = system_hamiltonian(shifted_params(params, noise))
    ox, oy = apply_noise_to_amplitudes(pulse.omega_x, pulse.omega_y, noise)
    return hs[None, :, :] + ox[:, None, None] * FX[None, :, :] + oy[:, None, None] * FY[None, :, :]


def rotation_bound(params: SystemParams, member: NoiseRealization, omega_max: float, dt: float) -> float:
    """Upper bound on ||H_k||_2 * dt for any segment of segment_hamiltonians within omega_max:
    dt * (pi (|nu1 + d| + |nu2 + d|) + pi J / 2 + s * omega_max), with d the member's offset
    shift and s its rf_scale. H_S' is diagonal and ||F_x cos phi + F_y sin phi||_2 = 1.
    Plain Python floats, so an overflow gives inf."""
    d = member.offset_shift
    return dt * (
        math.pi * (abs(params.offset1 + d) + abs(params.offset2 + d))
        + math.pi * params.coupling / 2
        + member.rf_scale * omega_max
    )


def _mul4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[..., k] @ b[..., k] over two stacks of 4 x 4 matrices held as
    (4, 4, n) arrays, real or complex: out[i, l] = sum_j a[i, j] b[j, l],
    added in the order j = 0, 1, 2, 3. order="C" makes every ufunc loop run
    over the n matrices, wherever the inputs' strides put them."""
    out = np.multiply(a[:, 0, None], b[None, 0], order="C")
    for j in range(1, 4):
        out += np.multiply(a[:, j, None], b[None, j], order="C")
    return out


def ordered_product(us: np.ndarray) -> np.ndarray:
    """u_K ... u_2 u_1 of a (K, 4, 4) stack (u_1 acts first).

    A pairwise reduction: each round multiplies every neighbour pair
    (u_{2i} u_{2i-1}) in one _mul4 and carries an odd last factor up, so K
    factors take ceil(log2 K) rounds instead of K - 1 Python-level
    products. It agrees with the left fold to round-off (~1e-15).

    A round of a 1470-factor stack multiplies 735 pairs: as one complex
    matmul it took 0.32 ms alone and 1.05 ms a call on two threads at once,
    as one _mul4 0.20 and 0.25 ms.
    """
    us = np.moveaxis(us, 0, -1)
    while us.shape[-1] > 1:
        pairs = _mul4(us[..., 1::2], us[..., 0:-1:2])
        us = np.concatenate((pairs, us[..., -1:]), axis=-1) if us.shape[-1] % 2 else pairs
    return us[..., 0]


def phase_frame_factors(
    pulse: PulseSequence, params: SystemParams, noise: NoiseRealization = IDENTITY_NOISE
) -> np.ndarray:
    """The middle factors exp(-i (H_S' + Omega_k F_x) dt) of
    sequence_propagator, as one complex (4, 4, K) stack (segment index last).

    The generator is real symmetric: one real eigh of the (K, 4, 4) stack
    gives w and v, and the factor is v cos(w dt) v^T - i v sin(w dt) v^T:
    two real _mul4 calls on v with the segment index last. On a
    1470-segment stack they took 0.80 ms alone and 0.55 ms a call on two
    threads at once; two real matmuls took 0.75 and 1.93 ms. One
    complex-by-real _mul4 of v (cos - i sin) and v^T gives the same bits and
    is slower (0.95 and 1.13 ms, against 0.81 and 1.00 ms in one run).

    Omega_k = hypot(s omega_x, s omega_y) is taken from the unrotated
    amplitudes, with s the member's rf_scale, so the factors depend on the
    member only through rf_scale and offset_shift: members that differ only
    in phase_offset share them.
    """
    hs = np.diag(system_hamiltonian(shifted_params(params, noise))).real
    omega = np.hypot(noise.rf_scale * pulse.omega_x, noise.rf_scale * pulse.omega_y)
    w, v = np.linalg.eigh(np.diag(hs) + omega[:, None, None] * FX.real)
    v, wdt = np.ascontiguousarray(np.moveaxis(v, 0, -1)), w.T * pulse.dt
    us = np.empty(v.shape, dtype=complex)
    us.real = _mul4(v * np.cos(wdt), v.swapaxes(0, 1))
    us.imag = _mul4(v * -np.sin(wdt), v.swapaxes(0, 1))
    return us


def sequence_propagator(
    pulse: PulseSequence,
    params: SystemParams,
    noise: NoiseRealization = IDENTITY_NOISE,
    factors: np.ndarray | None = None,
) -> np.ndarray:
    """Ordered product u_K ... u_2 u_1 (segment 1 acts first).

    Each segment is exponentiated in the frame of its control phase. Write
    the noisy amplitudes as Omega_k e^{i theta_k} and let R_z(theta) =
    exp(-i theta F_z) = diag(e^{-i theta}, 1, 1, e^{i theta}). H_S' is
    diagonal, so it commutes with F_z, and

        u_k = R_z(theta_k) exp(-i (H_S' + Omega_k F_x) dt) R_z(theta_k)^dagger.

    The middle factors are phase_frame_factors(pulse, params, noise); pass
    them as `factors` to share them between members that differ only in
    phase_offset. They are copied, never changed; when they are not given,
    the ones built here are rotated in place. The rotation scales rows 0
    and 3 by e^{-i theta_k}, e^{i theta_k} and columns 0 and 3 by the
    conjugates. A zero-amplitude segment has no phase and keeps
    e^{i theta_k} = 1. This agrees with exponentiating segment_hamiltonians
    to round-off (~1e-13 on a 1470-segment product).
    """
    us = phase_frame_factors(pulse, params, noise) if factors is None else factors.copy()
    ox, oy = apply_noise_to_amplitudes(pulse.omega_x, pulse.omega_y, noise)
    omega = np.hypot(ox, oy)
    phase = np.divide(ox + 1j * oy, omega, out=np.ones(omega.shape, dtype=complex), where=omega > 0)
    us[0] *= phase.conj()
    us[3] *= phase
    us[:, 0] *= phase
    us[:, 3] *= phase.conj()
    return ordered_product(np.moveaxis(us, -1, 0))


def check_unitary(us: np.ndarray, members) -> None:
    """Raise a ValueError naming the first member whose propagator is not
    unitary to 1e-10 (a NaN fails); entry i of `us` is members[i]'s."""
    bad = np.flatnonzero(~(unitarity_error(us) <= UNITARITY_TOL))
    if bad.size:
        raise ValueError(f"the propagator of noise member {members[bad[0]]} is not unitary to 1e-10")


def evolve_ensemble(rho0: np.ndarray, ensemble: NoiseEnsemble, stages) -> list[np.ndarray]:
    """Ensemble-mean states of the members evolved stage by stage.

    Every member starts in rho0; stage s conjugates member m's state by
    stages[s][m]. A member keeps its own propagators through all stages
    (quasi-static noise). Returns ensemble.mean of the states before the
    first stage and after each stage; each must have unit trace to 1e-10.
    """
    states = [np.array(rho0, dtype=complex) for _ in ensemble.realizations]
    averaged = [ensemble.mean(states)]
    for us in stages:
        states = [u @ rho @ u.conj().T for u, rho in zip(us, states)]
        averaged.append(ensemble.mean(states))
    for s, rho in enumerate(averaged):
        if not abs(np.trace(rho) - 1.0) <= 1e-10:
            raise ValueError(f"ensemble-mean state {s} (0 = before the first stage) has trace {np.trace(rho)}, not 1")
    return averaged


def pseudopure_state(epsilon: float) -> np.ndarray:
    """(1-eps) * Id/4 + eps * |00><00|."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    rho = np.eye(4, dtype=complex) * (1.0 - epsilon) / 4.0
    rho[0, 0] += epsilon
    return rho


def save_pulse(path, pulse: PulseSequence) -> None:
    """Write the text pulse format: header comments then one row per segment."""
    with open(path, "w") as fh:
        fh.write(f"# dt_seconds={float(pulse.dt)!r}\n")
        fh.write(f"# omega_max_rad_s={float(pulse.omega_max)!r}\n")
        for i in range(pulse.n_segments):
            fh.write(
                f"{i} {float(pulse.omega_x[i])!r} {float(pulse.omega_y[i])!r} "
                f"{1 if pulse.frozen[i] else 0}\n"
            )


def load_pulse(path) -> PulseSequence:
    """Read the text pulse format that save_pulse writes.

    Raises ValueError, naming the file, unless the header gives a finite
    positive dt_seconds and omega_max_rad_s and every row is `index
    omega_x omega_y frozen` with the index equal to its position, finite
    amplitudes whose norm is within omega_max (1e-12 relative slack) and a
    frozen flag of 0 or 1.
    """
    try:
        return _parse_pulse(path)
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"pulse file {path}: {exc}") from exc


def _parse_pulse(path) -> PulseSequence:
    header = {"dt_seconds": None, "omega_max_rad_s": None}
    ox, oy, fr = [], [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                if key in header:
                    header[key] = float(value)
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"bad pulse row: {line!r}")
            if parts[0] != str(len(ox)):
                raise ValueError(f"row {len(ox)} has index {parts[0]!r}")
            if parts[3] not in ("0", "1"):
                raise ValueError(f"row {len(ox)} has frozen flag {parts[3]!r}, expected 0 or 1")
            ox.append(float(parts[1]))
            oy.append(float(parts[2]))
            fr.append(parts[3] == "1")
    dt, omega_max = header["dt_seconds"], header["omega_max_rad_s"]
    if dt is None or omega_max is None:
        raise ValueError("missing dt_seconds / omega_max_rad_s header")
    pulse = PulseSequence(np.array(ox), np.array(oy), np.array(fr, dtype=bool), dt, omega_max)
    over = ~within_omega_max(np.hypot(pulse.omega_x, pulse.omega_y), omega_max)
    if np.any(over):
        raise ValueError(f"row {int(np.argmax(over))} has an amplitude norm above omega_max_rad_s={omega_max!r}")
    return pulse
