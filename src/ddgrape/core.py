"""Complex linear algebra and spin-operator primitives for two qubits.

Basis ordering is |q1 q2> with index 2*q1 + q2, and |0> is the +1/2
eigenstate of sigma_z/2 (standard NMR convention). All operators are dense
complex128 arrays; everything here is a pure function over 2x2 or 4x4
matrices.
"""

from __future__ import annotations

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)

_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10
EIGENVALUE_CLAMP = 1e-10


class InvalidStateError(ValueError):
    """Raised when a matrix violates density-matrix or Hermiticity contracts."""


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def spin_operator(spin_index: int, axis: str) -> np.ndarray:
    """4x4 embedding of sigma_axis/2 on the given spin (1 or 2)."""
    if spin_index not in (1, 2):
        raise ValueError(f"spin_index must be 1 or 2, got {spin_index}")
    half = _PAULI[axis] / 2.0
    if spin_index == 1:
        return np.kron(half, ID2)
    return np.kron(ID2, half)


def collective_operator(axis: str) -> np.ndarray:
    """I_{1,axis} + I_{2,axis}, the non-selective rotation generator."""
    return spin_operator(1, axis) + spin_operator(2, axis)


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    return bool(np.max(np.abs(m - dagger(m))) <= tol)


def unitarity_error(u: np.ndarray) -> np.ndarray:
    """max |U^dagger U - I| of a matrix, or of each matrix in a (..., n, n)
    stack; NaN where the matrix holds a NaN."""
    return np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1))


def is_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    return bool(unitarity_error(u) <= tol)


def unitary_exp(generator: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(-i * scale * generator) via spectral decomposition.

    The generator must be Hermitian; the eigendecomposition route is exact
    for these small dense matrices and the same decomposition feeds the
    analytic fidelity gradient.
    """
    if not is_hermitian(generator):
        raise InvalidStateError("generator is not Hermitian within 1e-12")
    w, v = np.linalg.eigh(generator)
    return (v * np.exp(-1j * scale * w)[None, :]) @ dagger(v)


def batched_unitary_exp(generators: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(-i * scale * H_k) for a stack of Hermitian generators (K, d, d)."""
    w, v = np.linalg.eigh(generators)
    phases = np.exp(-1j * scale * w)
    return (v * phases[:, None, :]) @ v.conj().swapaxes(-1, -2)


def check_density_matrix(rho: np.ndarray) -> None:
    """Enforce finite entries, Hermiticity, unit trace, and positivity up to round-off."""
    if not np.all(np.isfinite(rho)):
        raise InvalidStateError("density matrix has a non-finite entry")
    if np.max(np.abs(rho - dagger(rho))) > HERMITICITY_TOL:
        raise InvalidStateError("density matrix is not Hermitian within 1e-12")
    if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
        raise InvalidStateError("density matrix trace differs from 1 by more than 1e-10")
    evals = np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))
    if np.min(evals) < -EIGENVALUE_CLAMP:
        raise InvalidStateError(f"density matrix has eigenvalue {np.min(evals):.3e} < -1e-10")


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduced state of one qubit of a 4x4 state; keep is 'S' (qubit 1) or 'A' (qubit 2)."""
    r = rho.reshape(2, 2, 2, 2)  # indices (s, a, s', a')
    if keep == "S":
        return np.einsum("saSa->sS", r)
    if keep == "A":
        return np.einsum("sasA->aA", r)
    raise ValueError(f"keep must be 'S' or 'A', got {keep!r}")


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-sum lambda log2 lambda over eigenvalues, with 0*log(0) = 0.

    Eigenvalues in [-1e-10, 0) are clamped to zero to absorb round-off
    from long propagator chains; anything below that is rejected.
    """
    evals = np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))
    if np.min(evals) < -EIGENVALUE_CLAMP:
        raise InvalidStateError(f"eigenvalue {np.min(evals):.3e} below -1e-10")
    evals = np.clip(evals, 0.0, None)
    nz = evals[evals > 0]
    return float(-np.sum(nz * np.log2(nz)))


def entropy_2x2(trace: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Entropy in bits of 2x2 Hermitian PSD matrices from trace and determinant.

    Vectorized closed form: eigenvalues (t +/- sqrt(t^2 - 4 det)) / 2.
    Inputs may be arrays of matching shape.
    """
    t = np.asarray(trace, dtype=float)
    d = np.asarray(det, dtype=float)
    disc = np.sqrt(np.maximum(t * t - 4.0 * d, 0.0))
    out = 0.0
    for lam in (np.maximum((t - disc) / 2.0, 0.0), np.maximum((t + disc) / 2.0, 0.0)):
        out = out - lam * np.log2(np.where(lam > 0, lam, 1.0))
    return out


def global_phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max entrywise |a - e^{i phi} b| minimized over the global phase phi."""
    overlap = np.trace(dagger(b) @ a)
    if abs(overlap) < 1e-14:
        # No preferred phase; fall back to the raw deviation.
        return float(np.max(np.abs(a - b)))
    phase = overlap / abs(overlap)
    return float(np.max(np.abs(a - phase * b)))
