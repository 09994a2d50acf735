"""Quantum discord for two-qubit states with measurement-basis minimization.

The measured subsystem is A = qubit 2 throughout (D(S|A) convention).
The minimum over rank-1 projective bases is found by a coarse (theta, phi)
grid followed by local zoom refinement; a dense brute-force grid serves as
the verification oracle in the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ddgrape.core import check_density_matrix, partial_trace, von_neumann_entropy

LN2 = math.log(2.0)

COARSE_THETAS = 61
COARSE_PHIS = 121
REFINE_TOL_BITS = 1e-8
ZOOM_STARTS = 3
# Axes per kernel call on the coarse and brute-force grids: bigger blocks
# make temporaries that fall out of cache and cost more per axis.
KERNEL_CHUNK = 2048


@dataclass(frozen=True)
class MeasurementBasis:
    """Bloch angles of the +n projector axis: theta in [0, pi], phi in [0, 2pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi + 1e-12:
            raise ValueError("theta must be in [0, pi]")


@dataclass
class DiscordResult:
    discord: float
    mutual_information: float
    classical_correlation: float
    scaled_discord: float | None = None


def check_epsilon(epsilon: float) -> float:
    """Return epsilon if it is in [1e-6, 1], NaN excluded; raise a ValueError otherwise.

    D carries about 1e-15 bits of rounding, so the scaled discord
    D ln2 / epsilon^2 loses its meaning as epsilon^2 approaches that: on the
    ideal W1 stage of GroverSpec(1, 2) it reads 1.00003 at epsilon = 1e-6,
    0.977 at 1e-7 and 0.770 at 1e-8.
    """
    if not 1e-6 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [1e-6, 1], got {epsilon!r}")
    return epsilon


def _measurement_blocks(rho: np.ndarray) -> np.ndarray:
    """rho_S and T_k = tr_A[rho (1 x sigma_k)] for k = x, y, z, as a real (4, 4) array.

    Each row holds one Hermitian 2x2 block as (M00, M11, Re M01, Im M01).
    Outcome +-n of the measurement on A leaves qubit S in the unnormalized
    state M_+-(n) = (rho_S +- n.T) / 2, which is linear in the axis n.
    """
    r = rho.reshape(2, 2, 2, 2)  # (s, a, s', a')
    aa, bb, ab, ba = r[:, 0, :, 0], r[:, 1, :, 1], r[:, 0, :, 1], r[:, 1, :, 0]
    m = np.stack([aa + bb, ab + ba, 1j * (ab - ba), aa - bb])
    return np.stack([m[:, 0, 0].real, m[:, 1, 1].real, m[:, 0, 1].real, m[:, 0, 1].imag], axis=1)


def _bloch_axes(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Unit axes (sin th cos ph, sin th sin ph, cos th) stacked on a leading
    axis of length 3, broadcast over the angle arrays."""
    sin_t = np.sin(thetas)
    axes = np.empty((3,) + np.broadcast_shapes(np.shape(thetas), np.shape(phis)))
    axes[0] = sin_t * np.cos(phis)
    axes[1] = sin_t * np.sin(phis)
    axes[2] = np.cos(thetas)
    return axes


_HALF_SIGNS = np.array([[0.5], [-0.5]])


def _conditional_entropy_bases(blocks: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """H_Pi(S|A) in bits for every measurement axis in `axes` (3, ...).

    One (4, 3) @ (3, B) product gives n.T for all axes. An outcome with
    trace p and determinant det leaves S in M/p, whose Bloch length is
    x = sqrt(p^2 - 4 det) / p, so it contributes p h2(q) with q = (1 + x) / 2
    and h2 the binary entropy. The discriminant is clipped to [0, p^2]; a
    pure outcome (det <= 0 after rounding) gets x = 1 and adds exactly 0.
    Outcomes with p <= 1e-12 contribute nothing.
    """
    shift = blocks[1:].T @ axes.reshape(3, -1)  # n.T, (4, B)
    m = 0.5 * blocks[0][:, None, None] + _HALF_SIGNS * shift[:, None, :]  # M_+ and M_-, (4, 2, B)
    p = m[0] + m[1]
    det = m[0] * m[1] - m[2] * m[2] - m[3] * m[3]
    mask = p > 1e-12
    safe_p = np.where(mask, p, 1.0)
    p2 = safe_p * safe_p
    x = np.sqrt(np.clip(p2 - 4.0 * det, 0.0, p2)) / safe_p
    q, r = 0.5 + 0.5 * x, 0.5 - 0.5 * x
    # r is 0 for a pure outcome: 0 * log2(tiny) adds the 0 log 0 = 0 term.
    h = -safe_p * (q * np.log2(q) + r * np.log2(np.maximum(r, np.finfo(float).tiny)))
    return np.where(mask, h, 0.0).sum(axis=0).reshape(axes.shape[1:])


@functools.lru_cache(maxsize=4)
def _grid(n_theta: int, n_phi: int):
    """A (theta, phi) grid's angles and its axes in blocks of whole theta
    rows, at most KERNEL_CHUNK points each unless one row is longer; built
    once per grid."""
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    rows = max(1, KERNEL_CHUNK // n_phi)
    axes = [_bloch_axes(thetas[i0 : i0 + rows, None], phis) for i0 in range(0, n_theta, rows)]
    for a in (thetas, phis, *axes):
        a.flags.writeable = False
    return thetas, phis, axes


def _grid_values(blocks: np.ndarray, n_theta: int, n_phi: int):
    """The grid's angles and the conditional entropy at every grid point,
    flat in row-major (theta, phi) order."""
    thetas, phis, axes = _grid(n_theta, n_phi)
    return thetas, phis, np.concatenate([_conditional_entropy_bases(blocks, a).ravel() for a in axes])


def min_conditional_entropy(rho: np.ndarray):
    """Grid + zoom minimization of the conditional entropy over bases.

    Refines around up to ZOOM_STARTS non-adjacent coarse-grid points
    (deterministic ordering: lowest value, then lowest theta, then lowest
    phi) until the improvement per round drops below 1e-8 bits.
    """
    blocks = _measurement_blocks(rho)
    thetas, phis, values = _grid_values(blocks, COARSE_THETAS, COARSE_PHIS)

    starts = []
    order = np.argsort(values, kind="stable")
    for flat in order[: 8 * ZOOM_STARTS]:
        i, j = divmod(int(flat), COARSE_PHIS)
        th, ph = float(thetas[i]), float(phis[j])
        # Skip starts adjacent to one already chosen.
        if any(abs(th - t) < 0.2 and min(abs(ph - p), 2 * math.pi - abs(ph - p)) < 0.2 for t, p, _ in starts):
            continue
        starts.append((th, ph, values[flat]))
        if len(starts) >= ZOOM_STARTS:
            break

    vals, ths, phs = _zoom(blocks, np.array(starts), thetas[1] - thetas[0], phis[1] - phis[0])
    best_val = math.inf
    best_axis = (0.0, 0.0)
    for val, th, ph in zip(vals.tolist(), ths.tolist(), phs.tolist()):
        if val < best_val - 1e-15:
            best_val = val
            best_axis = (th, ph)
    return best_val, MeasurementBasis(min(best_axis[0], math.pi), best_axis[1] % (2.0 * math.pi))


_WINDOW = np.linspace(-1.0, 1.0, 9)


def _zoom(blocks, starts, dth, dph):
    """Refine all starts (rows theta, phi, value) together, one kernel call per round.

    Each round evaluates a 9x9 angle window around every start still
    running, moves each start to its window's minimum if that is lower, and
    shrinks the windows threefold. A start stops once a round improved it
    by less than 1e-8 bits with the theta window below 1e-9 rad, or after
    200 rounds.
    """
    th, ph, best = (starts[:, k].copy() for k in range(3))
    running = np.arange(len(starts))
    wt, wp = dth, dph
    for _ in range(200):
        ts = np.clip(th[running, None] + wt * _WINDOW, 0.0, math.pi)
        ps = ph[running, None] + wp * _WINDOW
        vals = _conditional_entropy_bases(blocks, _bloch_axes(ts[:, :, None], ps[:, None, :]))
        vals = vals.reshape(len(running), 81)
        k = np.argmin(vals, axis=1)
        low = vals[np.arange(len(running)), k]
        improvement = best[running] - low
        moved = low < best[running]
        idx, i, j = running[moved], k[moved] // 9, k[moved] % 9
        best[idx] = low[moved]
        th[idx] = ts[moved, i]
        ph[idx] = ps[moved, j]
        wt /= 3.0
        wp /= 3.0
        if wt < 1e-9:
            running = running[improvement >= REFINE_TOL_BITS]
            if running.size == 0:
                break
    return best, th, ph


def brute_force_min_conditional_entropy(rho: np.ndarray, n_theta: int = 601, n_phi: int = 1201):
    """Dense-grid oracle for the basis minimization (no refinement).

    Ties go to the first point in row-major (theta, phi) order.
    """
    thetas, phis, values = _grid_values(_measurement_blocks(rho), n_theta, n_phi)
    flat = int(np.argmin(values))
    i, j = divmod(flat, n_phi)
    return float(values[flat]), MeasurementBasis(float(thetas[i]), float(phis[j]))


def quantum_discord(rho: np.ndarray, epsilon: float | None = None) -> DiscordResult:
    """D(S|A) = H(A) - H(S,A) + min_Pi H_Pi(S|A), in bits.

    Results within -1e-8 of zero are clamped to 0. When epsilon is given
    (pseudopure input), scaled_discord = D * ln2 / epsilon^2 is populated;
    an epsilon that check_epsilon rejects raises a ValueError.
    """
    if epsilon is not None:
        check_epsilon(epsilon)
    h_a = von_neumann_entropy(partial_trace(rho, "A"))
    h_s = von_neumann_entropy(partial_trace(rho, "S"))
    h_sa = von_neumann_entropy(rho)
    h_min, _ = min_conditional_entropy(rho)

    discord = h_a - h_sa + h_min
    if discord < 0:
        if discord < -1e-8:
            raise ValueError(f"discord {discord:.3e} below -1e-8; state or minimizer invalid")
        discord = 0.0
    info = h_s + h_a - h_sa
    classical = h_s - h_min
    return DiscordResult(
        discord=discord,
        mutual_information=info,
        classical_correlation=classical,
        scaled_discord=None if epsilon is None else discord * LN2 / (epsilon * epsilon),
    )


def save_state(path, rho: np.ndarray) -> None:
    """Write a 4x4 complex matrix, row-major, one `re+imj` token per entry."""
    with open(path, "w") as fh:
        fh.write("# two-qubit density matrix, row-major\n")
        for row in rho:
            fh.write(" ".join(f"{float(z.real)!r}{float(z.imag):+}j" for z in row) + "\n")


def load_state(path) -> np.ndarray:
    """Read the 4x4 density matrix that save_state writes; a ValueError names the file."""
    try:
        return _parse_state(path)
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"state file {path}: {exc}") from exc


def _parse_state(path) -> np.ndarray:
    entries = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            entries.extend(complex(tok) for tok in line.split())
    if len(entries) != 16:
        raise ValueError(f"must contain 16 entries, found {len(entries)}")
    rho = np.array(entries, dtype=complex).reshape(4, 4)
    check_density_matrix(rho)
    return rho
