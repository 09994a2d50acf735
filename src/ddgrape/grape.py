"""L-BFGS GRAPE pulse optimization with frozen DD segments.

Fidelity convention is |Tr(U_T^dag U_P)| / N, which is invariant under a
global phase of either unitary. The gradient is exact: each segment
exponential is differentiated in its own eigenbasis (Daleckii-Krein), so
the optimizer needs no small-dt approximation.
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
    ordered_product,
    segment_hamiltonians,
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
    # (shaped low-power segments vs hard DD pulses); None = omega_max only.
    free_bound: float | None = None

    def __post_init__(self):
        if not 0.0 < self.fidelity_goal <= 1.0:
            raise ValueError("fidelity_goal must be in (0, 1]")


@dataclass
class FidelityReport:
    fidelity: float
    per_realization: list


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
    """Ensemble-weighted mean gate fidelity, per-realization values retained."""
    per = []
    mean = 0.0
    for real in ensemble.realizations:
        us = batched_unitary_exp(segment_hamiltonians(pulse, params, real), pulse.dt)
        f = gate_fidelity(ordered_product(us), target.unitary)
        per.append((real, f))
        mean += real.weight * f
    return FidelityReport(fidelity=mean, per_realization=per)


def _fidelity_and_gradient(pulse, target, params, realization):
    """Fidelity and exact gradient arrays (dF/dOx, dF/dOy) for one realization.

    Forward/backward propagator caches plus the eigenbasis derivative of
    each segment exponential. Frozen segments report gradient 0.
    """
    k_count = pulse.n_segments
    dt = pulse.dt
    hs = segment_hamiltonians(pulse, params, realization)
    w, v = np.linalg.eigh(hs)  # (K,4), (K,4,4)
    phases = np.exp(-1j * dt * w)  # (K,4)
    us = (v * phases[:, None, :]) @ v.conj().swapaxes(-1, -2)

    n = 4
    ut_dag = target.unitary.conj().T

    # prefix[k] = u_{k-1} ... u_1 (identity for k=0); suffix[k] = u_K ... u_{k+1}
    prefix = np.empty((k_count, n, n), dtype=complex)
    acc = np.eye(n, dtype=complex)
    for k in range(k_count):
        prefix[k] = acc
        acc = us[k] @ acc
    u_total = acc
    suffix = np.empty((k_count, n, n), dtype=complex)
    acc = np.eye(n, dtype=complex)
    for k in range(k_count - 1, -1, -1):
        suffix[k] = acc
        acc = acc @ us[k]

    g = np.trace(ut_dag @ u_total)
    fidelity = abs(g) / n
    if abs(g) < 1e-14:
        # |Tr| is non-differentiable at 0; return a zero gradient there.
        return fidelity, np.zeros(k_count), np.zeros(k_count)

    # dF/dtheta = Re(conj(G) * dG) / (|G| N); dG = Tr(C_k du_k) with
    # C_k = prefix_k U_T^dag suffix_k.
    c = (prefix @ ut_dag) @ suffix

    # Daleckii-Krein coefficients in each segment eigenbasis.
    lam_i = w[:, :, None]
    lam_j = w[:, None, :]
    num = phases[:, :, None] - phases[:, None, :]
    den = lam_i - lam_j
    small = np.abs(den) < 1e-12
    gamma = np.where(small, -1j * dt * phases[:, :, None] * np.ones_like(den), num / np.where(small, 1.0, den))

    # Control derivative directions under the noise transform.
    scale = realization.rf_scale * realization.flip_scale
    cph, sph = math.cos(realization.phase_offset), math.sin(realization.phase_offset)
    dx = scale * (cph * FX + sph * FY)
    dy = scale * (-sph * FX + cph * FY)

    v_dag = v.conj().swapaxes(-1, -2)
    c_tilde_t = (v_dag @ c @ v).swapaxes(-1, -2)
    x_x = v_dag @ (dx @ v)
    x_y = v_dag @ (dy @ v)

    # Tr(C du) = sum_{mn} c_tilde[n,m] * (X * gamma)[m,n]
    dg_x = np.sum(c_tilde_t * (x_x * gamma), axis=(1, 2))
    dg_y = np.sum(c_tilde_t * (x_y * gamma), axis=(1, 2))

    coeff = (g.conjugate() / abs(g)) / n
    grad_x = np.real(coeff * dg_x)
    grad_y = np.real(coeff * dg_y)
    grad_x[pulse.frozen] = 0.0
    grad_y[pulse.frozen] = 0.0
    return fidelity, grad_x, grad_y


def fidelity_gradient(
    pulse: PulseSequence,
    target: TargetGate,
    params: SystemParams,
    realization: NoiseRealization = IDENTITY_NOISE,
):
    """Exact gradient of gate_fidelity w.r.t. each non-frozen amplitude."""
    _, gx, gy = _fidelity_and_gradient(pulse, target, params, realization)
    return gx, gy


def _ensemble_fidelity_and_gradient(pulse, target, params, ensemble):
    mean_f = 0.0
    gx = np.zeros(pulse.n_segments)
    gy = np.zeros(pulse.n_segments)
    for real in ensemble.realizations:
        f, rx, ry = _fidelity_and_gradient(pulse, target, params, real)
        mean_f += real.weight * f
        gx += real.weight * rx
        gy += real.weight * ry
    return mean_f, gx, gy


def clip_amplitudes(pulse: PulseSequence, free_bound: float | None = None) -> PulseSequence:
    """Rescale non-frozen segments whose amplitude norm exceeds the bound.

    The bound is omega_max, or free_bound when that is tighter (hard DD
    pulses stay untouched either way since they are frozen)."""
    bound = pulse.omega_max if free_bound is None else min(pulse.omega_max, free_bound)
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
        raise ValueError("amplitude_fraction must be in (0, 1]")
    rng = np.random.default_rng(seed)
    lim = amplitude_fraction * omega_max
    ox = rng.uniform(-lim, lim, n_segments)
    oy = rng.uniform(-lim, lim, n_segments)
    return PulseSequence(ox, oy, np.zeros(n_segments, dtype=bool), dt, omega_max)


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
    if np.any(np.hypot(initial.omega_x, initial.omega_y)[initial.frozen] > initial.omega_max * (1 + 1e-12)):
        raise ValueError("initial pulse violates omega_max on frozen segments")

    pulse = clip_amplitudes(initial.copy(), config.free_bound)
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
        p = expand(x)
        f, gx, gy = _ensemble_fidelity_and_gradient(p, target, params, ensemble)
        return -f, -np.concatenate([gx[free], gy[free]])

    class _GoalReached(Exception):
        pass

    # Past the goal, keep iterating while the fidelity still improves at a
    # meaningful rate (otherwise a gate that could cheaply reach 0.996 would
    # be returned the moment it crosses a 0.99 goal).
    refine_window = 25
    refine_tol = 1e-4
    state = {"best": report.fidelity, "it": 0, "mark": None}

    def callback(x):
        f = robust_fidelity(expand(x), target, params, ensemble).fidelity
        state["it"] += 1
        if f >= state["best"]:
            state["best"] = f
            state["x"] = x
        log.append((state["it"], state["best"], 0.0))
        if state["best"] < config.fidelity_goal:
            return
        if state["mark"] is None:
            state["mark"] = (state["it"], state["best"])
            return
        it0, f0 = state["mark"]
        if state["it"] - it0 >= refine_window:
            if state["best"] - f0 < refine_tol:
                raise _GoalReached
            state["mark"] = (state["it"], state["best"])

    x0 = np.concatenate([pulse.omega_x[free], pulse.omega_y[free]])
    # Componentwise bound keeps the amplitude norm within omega_max.
    lim = pulse.omega_max / math.sqrt(2.0)
    if config.free_bound is not None:
        lim = min(lim, config.free_bound / math.sqrt(2.0))
    bounds = [(-lim, lim)] * (2 * n_free)
    try:
        res = minimize(
            fun,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            callback=callback,
            options={"maxiter": config.max_iterations, "ftol": 1e-14, "gtol": 1e-14},
        )
        x_final = res.x
        if "x" in state and robust_fidelity(expand(res.x), target, params, ensemble).fidelity < state["best"]:
            x_final = state["x"]
    except _GoalReached:
        x_final = state["x"]
    out = clip_amplitudes(expand(x_final), config.free_bound)
    # The L-BFGS terminal point can differ from the best logged iterate only
    # by line-search round-off; keep it if it is at least as good.
    f_out = robust_fidelity(out, target, params, ensemble).fidelity
    if f_out + 1e-12 < state["best"]:
        log.append((state["it"] + 1, f_out, 0.0))
    return out, robust_fidelity(out, target, params, ensemble), log
