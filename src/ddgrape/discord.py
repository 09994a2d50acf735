"""Quantum discord for two-qubit states with measurement-basis minimization.

The measured subsystem is A = qubit 2 throughout (D(S|A) convention).
The minimum over rank-1 projective bases is found by a coarse (theta, phi)
grid followed by local zoom refinement; a dense brute-force grid serves as
the verification oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ddgrape.core import check_density_matrix, entropy_2x2, partial_trace, von_neumann_entropy

LN2 = math.log(2.0)

COARSE_THETAS = 61
COARSE_PHIS = 121
REFINE_TOL_BITS = 1e-8


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
    argmin_basis: MeasurementBasis
    scaled_discord: float | None = None


def _bloch_ket(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(1j * phi)], dtype=complex)


def projectors(basis: MeasurementBasis):
    """Rank-1 projectors onto the +/- n-hat spin-coherent states."""
    up = _bloch_ket(basis.theta, basis.phi)
    down = _bloch_ket(math.pi - basis.theta, basis.phi + math.pi)
    return np.outer(up, up.conj()), np.outer(down, down.conj())


def mutual_information(rho: np.ndarray) -> float:
    """H(S) + H(A) - H(S,A) in bits."""
    return (
        von_neumann_entropy(partial_trace(rho, "S"))
        + von_neumann_entropy(partial_trace(rho, "A"))
        - von_neumann_entropy(rho)
    )


def conditional_entropy(rho: np.ndarray, basis: MeasurementBasis) -> float:
    """sum_a p_a H(rho_{S|a}) for a projective measurement on qubit A."""
    total = 0.0
    for proj in projectors(basis):
        op = np.kron(np.eye(2, dtype=complex), proj)
        post = op @ rho @ op
        p = np.trace(post).real
        if p < 1e-12:
            continue
        total += p * von_neumann_entropy(partial_trace(post, "S") / p)
    return total


def _conditional_entropy_bases(rho: np.ndarray, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Vectorized H_Pi(S|A) for every measurement axis in the flat angle lists.

    Uses the 2x2 closed-form entropy on the unnormalized conditional blocks
    M_n[s,s'] = <n| rho_{a a'}^{(s,s')} |n>; the second outcome is
    rho_S - M_n, so only one contraction per axis is needed.
    """
    half = thetas / 2.0
    kets = np.stack([np.cos(half), np.sin(half) * np.exp(1j * phis)], axis=1)  # (B, 2)
    r = rho.reshape(2, 2, 2, 2)  # (s, a, s', a')
    m0 = np.einsum("Ba,saSA,BA->BsS", kets.conj(), r, kets, optimize=True)
    rho_s = partial_trace(rho, "S")
    m1 = rho_s[None, :, :] - m0

    out = np.zeros(len(thetas))
    for m in (m0, m1):
        p = np.einsum("Bss->B", m).real
        det = (m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]).real
        mask = p > 1e-12
        # entropy of M/p scaled by p: p * H2(tr=1, det/p^2)
        safe_p = np.where(mask, p, 1.0)
        h = entropy_2x2(np.ones_like(p), np.clip(det, 0.0, None) / (safe_p * safe_p))
        out += np.where(mask, p * h, 0.0)
    return out


def _grid_min(rho, thetas, phis):
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    values = _conditional_entropy_bases(rho, tt.ravel(), pp.ravel()).reshape(tt.shape)
    flat = int(np.argmin(values))
    i, j = np.unravel_index(flat, values.shape)
    return float(values[i, j]), float(tt[i, j]), float(pp[i, j]), values


def min_conditional_entropy(rho: np.ndarray, n_starts: int = 3):
    """Grid + zoom minimization of the conditional entropy over bases.

    Refines around the best few coarse-grid points (deterministic ordering:
    lowest value, then lowest theta, then lowest phi) until the improvement
    per round drops below 1e-8 bits.
    """
    thetas = np.linspace(0.0, math.pi, COARSE_THETAS)
    phis = np.linspace(0.0, 2.0 * math.pi, COARSE_PHIS, endpoint=False)
    _, _, _, values = _grid_min(rho, thetas, phis)

    order = np.argsort(values.ravel(), kind="stable")
    starts = []
    for flat in order[: max(n_starts * 8, n_starts)]:
        i, j = np.unravel_index(int(flat), values.shape)
        th, ph = float(thetas[i]), float(phis[j])
        # Skip starts adjacent to one already chosen.
        if any(abs(th - t) < 0.2 and min(abs(ph - p), 2 * math.pi - abs(ph - p)) < 0.2 for t, p in starts):
            continue
        starts.append((th, ph))
        if len(starts) >= n_starts:
            break

    dth = thetas[1] - thetas[0]
    dph = phis[1] - phis[0]
    best_val = math.inf
    best_axis = (0.0, 0.0)
    for th0, ph0 in starts:
        val, th, ph = _zoom(rho, th0, ph0, dth, dph)
        if val < best_val - 1e-15:
            best_val = val
            best_axis = (th, ph)
    return best_val, MeasurementBasis(min(best_axis[0], math.pi), best_axis[1] % (2.0 * math.pi))


def _zoom(rho, th0, ph0, dth, dph):
    best = _conditional_entropy_bases(rho, np.array([th0]), np.array([ph0]))[0]
    th, ph = th0, ph0
    wt, wp = dth, dph
    for _ in range(200):
        ts = np.clip(np.linspace(th - wt, th + wt, 9), 0.0, math.pi)
        ps = np.linspace(ph - wp, ph + wp, 9)
        tt, pp = np.meshgrid(ts, ps, indexing="ij")
        vals = _conditional_entropy_bases(rho, tt.ravel(), pp.ravel())
        k = int(np.argmin(vals))
        improvement = best - vals[k]
        if vals[k] < best:
            best = float(vals[k])
            th, ph = float(tt.ravel()[k]), float(pp.ravel()[k])
        wt /= 3.0
        wp /= 3.0
        if improvement < REFINE_TOL_BITS and wt < 1e-9:
            break
    return best, th, ph


def brute_force_min_conditional_entropy(rho: np.ndarray, n_theta: int = 601, n_phi: int = 1201):
    """Dense-grid oracle for the basis minimization (no refinement)."""
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    val, th, ph, _ = _grid_min(rho, thetas, phis)
    return val, MeasurementBasis(th, ph)


def quantum_discord(rho: np.ndarray, epsilon: float | None = None) -> DiscordResult:
    """D(S|A) = H(A) - H(S,A) + min_Pi H_Pi(S|A), in bits.

    Results within -1e-8 of zero are clamped to 0. When epsilon is given
    (pseudopure input), scaled_discord = D * ln2 / epsilon^2 is populated.
    """
    h_a = von_neumann_entropy(partial_trace(rho, "A"))
    h_s = von_neumann_entropy(partial_trace(rho, "S"))
    h_sa = von_neumann_entropy(rho)
    h_min, basis = min_conditional_entropy(rho)

    discord = h_a - h_sa + h_min
    if discord < 0:
        if discord < -1e-8:
            raise ValueError(f"discord {discord:.3e} below -1e-8; state or minimizer invalid")
        discord = 0.0
    info = h_s + h_a - h_sa
    classical = h_s - h_min
    scaled = None
    if epsilon is not None and epsilon > 0:
        scaled = discord * LN2 / (epsilon * epsilon)
    return DiscordResult(
        discord=discord,
        mutual_information=info,
        classical_correlation=classical,
        argmin_basis=basis,
        scaled_discord=scaled,
    )


def save_state(path, rho: np.ndarray) -> None:
    """Write a 4x4 complex matrix, row-major, one `re+imj` token per entry."""
    with open(path, "w") as fh:
        fh.write("# two-qubit density matrix, row-major\n")
        for row in rho:
            fh.write(" ".join(f"{float(z.real)!r}{float(z.imag):+}j" for z in row) + "\n")


def load_state(path) -> np.ndarray:
    entries = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            entries.extend(complex(tok) for tok in line.split())
    if len(entries) != 16:
        raise ValueError(f"state file must contain 16 entries, found {len(entries)}")
    rho = np.array(entries, dtype=complex).reshape(4, 4)
    check_density_matrix(rho)
    return rho
