"""L-BFGS GRAPE pulse optimization with frozen DD segments.

Fidelity convention is |Tr(U_T^dag U_P)| / N, which is invariant under a
global phase of either unitary. The gradient is exact: each segment
exponential is differentiated in its own eigenbasis (Daleckii-Krein), so
the optimizer needs no small-dt approximation. One gradient call covers the
whole RF-inhomogeneity ensemble: its realizations share the batched
eigendecomposition and the serial prefix/suffix chains, and the result is
bitwise equal to evaluating them one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ddgrape.core import batched_unitary_exp, is_unitary
from ddgrape.nmr import (
    FX,
    FY,
    IDENTITY_NOISE,
    NoiseEnsemble,
    NoiseRealization,
    PulseSequence,
    SystemParams,
    check_unitary,
    ordered_product,
    segment_hamiltonians,
    within_omega_max,
)


@dataclass(frozen=True)
class TargetGate:
    unitary: np.ndarray
    label: str = ""

    def __post_init__(self):
        if not is_unitary(self.unitary):
            raise ValueError(f"target {self.label!r} is not unitary within 1e-10")


@dataclass
class OptimizationConfig:
    max_iterations: int = 2000
    fidelity_goal: float = 0.99
    rfi_ensemble: NoiseEnsemble = field(default_factory=NoiseEnsemble.identity)
    omega_max: float = 2.0 * math.pi * 1.0e5
    # Optional tighter per-component bound for the non-frozen amplitudes
    # (shaped low-power segments vs hard DD pulses); inf = omega_max only.
    free_bound: float = math.inf

    def __post_init__(self):
        if not self.max_iterations >= 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations!r}")
        if not 0.0 < self.fidelity_goal <= 1.0:
            raise ValueError(f"fidelity_goal must be in (0, 1], got {self.fidelity_goal!r}")
        if not self.free_bound > 0:
            raise ValueError(f"free_bound must be > 0, got {self.free_bound!r}")


@dataclass
class FidelityReport:
    fidelity: float


def gate_fidelity(u_p: np.ndarray, u_t: np.ndarray) -> float:
    """|Tr(U_T^dag U_P)| / N, global-phase invariant."""
    if u_p.shape != u_t.shape:
        raise ValueError(f"dimension mismatch: {u_p.shape} vs {u_t.shape}")
    n = u_p.shape[0]
    return float(abs(np.trace(u_t.conj().T @ u_p)) / n)


def robust_fidelity(
    pulse: PulseSequence,
    target: TargetGate,
    params: SystemParams,
    ensemble: NoiseEnsemble,
) -> FidelityReport:
    """Ensemble-mean gate fidelity, once every member's propagator passes check_unitary.
    ExperimentConfig's rotation rule keeps its members' products finite; a member beyond
    it can overflow them, with numpy's warnings, and then fails check_unitary."""
    members = ensemble.realizations
    us = [ordered_product(batched_unitary_exp(segment_hamiltonians(pulse, params, r), pulse.dt)) for r in members]
    check_unitary(np.array(us), members)
    return FidelityReport(ensemble.mean(gate_fidelity(u, target.unitary) for u in us))


# Matrices (segments x realizations) per block of the forward pass and the
# Daleckii-Krein contraction: bounds their temporaries to about 40 kB each,
# while a one-realization call still takes few enough blocks that their
# Python overhead does not show.
BLOCK_MATRICES = 160


def _fidelity_and_gradient(pulse, target, params, realizations):
    """Fidelities (R,) and exact gradients (R, K) x2 for R noise realizations.

    Each segment exponential is differentiated in its own eigenbasis
    (Daleckii-Krein), so the gradient needs the prefix and the suffix
    product at every segment. The R realizations share one batched `eigh`
    and one pass of each chain; the stacks are K-major, so a chain step is
    one matmul over an (R, 4, 4) slice. The suffixes are formed first, in
    place of the propagators; the forward pass then rebuilds the
    propagators a block at a time and contracts each block as its prefixes
    appear, so no (K, R) prefix stack is stored.

    Both chains are serial folds taking every product in the order a single
    realization would, so row r is bitwise equal to the R = 1 result for
    realizations[r]. Do not reassociate them (a log-depth scan, or suffix =
    total @ prefix^dag): that moves the gradient by ~1e-13, and L-BFGS
    amplifies it into a different pulse. Frozen segments report gradient 0.
    """
    k_count = pulse.n_segments
    r_count = len(realizations)
    dt = pulse.dt
    n = 4
    hs = np.empty((k_count, r_count, n, n), dtype=complex)
    for r, real in enumerate(realizations):
        hs[:, r] = segment_hamiltonians(pulse, params, real)
    w, v = np.linalg.eigh(hs)  # (K,R,4), (K,R,4,4)
    del hs  # freed before the chain stack is allocated
    phases = np.exp(-1j * dt * w)  # (K,R,4)
    block = max(1, BLOCK_MATRICES // r_count)
    blocks = [slice(a, min(a + block, k_count)) for a in range(0, k_count, block)]

    def propagators(s):
        return (v[s] * phases[s, :, None, :]) @ v[s].conj().swapaxes(-1, -2)

    # chain[k] = u_{k+1} for k < K and chain[K] = 1, then the backward pass
    # turns chain[k + 1] into suffix[k] = u_K ... u_{k+2}.
    chain = np.empty((k_count + 1, r_count, n, n), dtype=complex)
    for s in blocks:
        chain[s] = propagators(s)
    chain[k_count] = np.eye(n)
    for k in range(k_count - 1, 0, -1):
        np.matmul(chain[k + 1], chain[k], out=chain[k])
    suffix = chain[1:]

    # Control derivative directions under each realization's noise transform,
    # kept in this term order: apply_noise_to_amplitudes would round them
    # differently, and L-BFGS amplifies that into a different pulse.
    dx, dy = [], []
    for real in realizations:
        cph, sph = math.cos(real.phase_offset), math.sin(real.phase_offset)
        dx.append(real.rf_scale * (cph * FX + sph * FY))
        dy.append(real.rf_scale * (-sph * FX + cph * FY))
    dx, dy = np.stack(dx), np.stack(dy)

    # prefix[j] = u_{a+j} ... u_1 within block a:b; prefix[0] carries over.
    ut_dag = target.unitary.conj().T
    prefix = np.empty((block + 1, r_count, n, n), dtype=complex)
    prefix[0] = np.eye(n)
    dg_x = np.empty((r_count, k_count), dtype=complex)
    dg_y = np.empty((r_count, k_count), dtype=complex)
    for s in blocks:
        m = s.stop - s.start
        us = propagators(s)
        for j in range(m):
            np.matmul(us[j], prefix[j], out=prefix[j + 1])
        # dG_k = Tr(C_k du_k) with C_k = prefix_k U_T^dag suffix_k.
        c = (prefix[:m] @ ut_dag) @ suffix[s]
        dg_x[:, s], dg_y[:, s] = _contract(c, w[s], phases[s], v[s], dx, dy, dt)
        prefix[0] = prefix[m]
    u_total = prefix[0]

    fids = np.empty(r_count)
    grad_x = np.zeros((r_count, k_count))
    grad_y = np.zeros((r_count, k_count))
    for r in range(r_count):
        g = np.trace(ut_dag @ u_total[r])
        fids[r] = abs(g) / n
        if abs(g) < 1e-14:
            # |Tr| is non-differentiable at 0; return a zero gradient there.
            continue
        # dF/dtheta = Re(conj(G) * dG) / (|G| N). The factor stays a scalar
        # per realization: as an (R, 1) array it rounds differently.
        coeff = (g.conjugate() / abs(g)) / n
        grad_x[r] = np.real(coeff * dg_x[r])
        grad_y[r] = np.real(coeff * dg_y[r])
    grad_x[:, pulse.frozen] = 0.0
    grad_y[:, pulse.frozen] = 0.0
    return fids, grad_x, grad_y


def _contract(c, w, phases, v, dx, dy, dt):
    """dG along dx and dy for a (B, R) block of segments, as two (R, B) arrays.

    du is taken in each segment's eigenbasis with the Daleckii-Krein
    coefficients gamma: Tr(C du) = sum_{mn} c_tilde[n,m] * (X * gamma)[m,n].
    """
    lam_i = w[..., :, None]
    lam_j = w[..., None, :]
    num = phases[..., :, None] - phases[..., None, :]
    den = lam_i - lam_j
    small = np.abs(den) < 1e-12
    gamma = np.where(small, -1j * dt * phases[..., :, None] * np.ones_like(den), num / np.where(small, 1.0, den))

    v_dag = v.conj().swapaxes(-1, -2)
    c_tilde_t = (v_dag @ c @ v).swapaxes(-1, -2)
    dg = []
    for d in (dx, dy):
        term = (v_dag @ (d @ v)) * gamma
        # (X * gamma) * c_tilde^T in this operand order, which is how numpy
        # evaluates the unblocked c_tilde^T * (X * gamma) in place once it
        # spans 256 KiB (K >= 1024); complex products round differently
        # with their operands swapped.
        np.multiply(term, c_tilde_t, out=term)
        dg.append(np.sum(term, axis=(-2, -1)).T)
    return dg


def fidelity_gradient(
    pulse: PulseSequence,
    target: TargetGate,
    params: SystemParams,
    realization: NoiseRealization = IDENTITY_NOISE,
):
    """Exact gradient of gate_fidelity w.r.t. each non-frozen amplitude."""
    _, gx, gy = _fidelity_and_gradient(pulse, target, params, (realization,))
    return gx[0], gy[0]


def clip_amplitudes(pulse: PulseSequence, free_bound: float = math.inf) -> PulseSequence:
    """Rescale non-frozen segments whose amplitude norm exceeds the bound.

    The bound is omega_max, or free_bound when that is tighter (hard DD
    pulses stay untouched either way since they are frozen)."""
    bound = min(pulse.omega_max, free_bound)
    norm = np.hypot(pulse.omega_x, pulse.omega_y)
    over = (norm > bound) & ~pulse.frozen
    if not np.any(over):
        return pulse
    factor = np.ones_like(norm)
    factor[over] = bound / norm[over]
    return pulse.with_amplitudes(pulse.omega_x * factor, pulse.omega_y * factor)


def random_initial_pulse(
    n_segments: int, dt: float, omega_max: float, amplitude_fraction: float, seed: int
) -> PulseSequence:
    """Seeded uniform amplitudes in [-f*omega_max, +f*omega_max] per component."""
    if not 0.0 < amplitude_fraction <= 1.0:
        raise ValueError(f"amplitude_fraction must be in (0, 1], got {amplitude_fraction!r}")
    pulse = PulseSequence.zeros(n_segments, dt, omega_max)
    rng = np.random.default_rng(seed)
    lim = amplitude_fraction * omega_max
    ox = rng.uniform(-lim, lim, n_segments)
    oy = rng.uniform(-lim, lim, n_segments)
    return pulse.with_amplitudes(ox, oy)


def optimize(
    initial: PulseSequence,
    target: TargetGate,
    params: SystemParams,
    config: OptimizationConfig,
):
    """Maximize the ensemble-mean fidelity over the non-frozen amplitudes.

    L-BFGS over the free amplitude vector with the exact gradient. The run
    is deterministic, produces a non-decreasing accepted-iterate fidelity
    log, never touches frozen segments, and keeps every amplitude within
    omega_max. Returns (pulse, FidelityReport, log of (iteration,
    mean_fidelity, step)); the step column is always 0.
    """
    if not np.all(within_omega_max(np.hypot(initial.omega_x, initial.omega_y)[initial.frozen], initial.omega_max)):
        raise ValueError("initial pulse violates omega_max on frozen segments")

    pulse = clip_amplitudes(initial, config.free_bound)
    ensemble = config.rfi_ensemble
    report = robust_fidelity(pulse, target, params, ensemble)
    log = [(0, report.fidelity, 0.0)]
    if report.fidelity >= config.fidelity_goal:
        return pulse, report, log

    from scipy.optimize import minimize

    free = ~pulse.frozen
    n_free = int(np.count_nonzero(free))

    def expand(x):
        ox = pulse.omega_x.copy()
        oy = pulse.omega_y.copy()
        ox[free] = x[:n_free]
        oy[free] = x[n_free:]
        return pulse.with_amplitudes(ox, oy)

    def fun(x):
        fids, gx, gy = _fidelity_and_gradient(expand(x), target, params, ensemble.realizations)
        return -ensemble.mean(fids), -np.concatenate([ensemble.mean(gx)[free], ensemble.mean(gy)[free]])

    x0 = np.concatenate([pulse.omega_x[free], pulse.omega_y[free]])
    best, best_x, mark = report.fidelity, x0, None  # mark: log index of the last window start

    def callback(x):
        # Past the goal, keep iterating while the fidelity still gains 1e-4
        # per 25 iterations (otherwise a gate that could cheaply reach 0.996
        # would be returned the moment it crosses a 0.99 goal).
        nonlocal best, best_x, mark
        f = robust_fidelity(expand(x), target, params, ensemble).fidelity
        if f >= best:
            best, best_x = f, x
        it = len(log)
        log.append((it, best, 0.0))
        if best < config.fidelity_goal:
            return
        if mark is None:
            mark = it
        elif it - mark >= 25:
            if best - log[mark][1] < 1e-4:
                raise StopIteration
            mark = it

    # Componentwise bound keeps the amplitude norm within omega_max.
    lim = min(pulse.omega_max / math.sqrt(2.0), config.free_bound / math.sqrt(2.0))
    res = minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(-lim, lim)] * (2 * n_free),
        callback=callback,
        options={"maxiter": config.max_iterations, "ftol": 1e-14, "gtol": 1e-14},
    )
    x_final = res.x
    if robust_fidelity(expand(res.x), target, params, ensemble).fidelity < best:
        x_final = best_x
    out = clip_amplitudes(expand(x_final), config.free_bound)
    # The L-BFGS terminal point can differ from the best logged iterate only
    # by line-search round-off; keep it if it is at least as good.
    f_out = robust_fidelity(out, target, params, ensemble).fidelity
    if f_out + 1e-12 < best:
        log.append((len(log), f_out, 0.0))
    return out, robust_fidelity(out, target, params, ensemble), log
