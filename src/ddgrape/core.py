"""Complex linear algebra and spin-operator primitives for two qubits.

Basis ordering is |q1 q2> with index 2*q1 + q2, and |0> is the +1/2
eigenstate of sigma_z/2 (standard NMR convention). All operators are dense
complex128 arrays; everything here is a pure function over 2x2 or 4x4
matrices.
"""

from __future__ import annotations

import math

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


def is_hermitian(m: np.ndarray) -> bool:
    return bool(np.max(np.abs(m - dagger(m))) <= HERMITICITY_TOL)


def unitarity_error(u: np.ndarray) -> np.ndarray:
    """max |U^dagger U - I| of a matrix, or of each matrix in a (..., n, n)
    stack; NaN where the matrix holds a NaN."""
    return np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1))


def is_unitary(u: np.ndarray) -> bool:
    return bool(unitarity_error(u) <= UNITARITY_TOL)


# Scaling and squaring of a Taylor polynomial (Moler & Van Loan, SIAM Rev.
# 45, 3, 2003). Each matrix is scaled by 2^-s to a 1-norm <= TAYLOR_THETA,
# where the degree-14 truncation error is below THETA^15 / 15! ~ 2e-17.
TAYLOR_THETA = 0.5
# Paterson-Stockmeyer: with B_j = sum_i c[4j + i] X^i over i < 4, the
# polynomial is ((B_3 X^4 + B_2) X^4 + B_1) X^4 + B_0. Row j holds B_j's
# coefficients (c[15] = 0 pads the last row), so all four B_j are one
# product with the stack [I, X, X^2, X^3]; X^2, X^3, X^4 and the three
# Horner steps make six matmuls.
_PS_COEFFS = np.array([1.0 / math.factorial(j) for j in range(15)] + [0.0]).reshape(4, 4)
# Matrices per block. For d = 4 the largest temporaries (the power stack
# and its coefficient product) are 256 KiB each, below the 376 kB of the
# callers' own (1470, 4, 4) complex stacks; with 256 per block, `evaluate`
# read about 0.15 MiB more peak RSS.
BLOCK_MATRICES = 128


def batched_unitary_exp(generators: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(-i * scale * H_k) for a stack of Hermitian generators (K, d, d).

    Works on the real embedding [[X, -Y], [Y, X]] of A = -i * scale * H =
    X + iY, whose exponential is [[Re e^A, -Im e^A], [Im e^A, Re e^A]]: a
    real (2d, 2d) matmul costs a fraction of a complex (d, d) one. A zero
    generator gives exactly the identity.
    """
    d = generators.shape[-1]
    out = np.empty(generators.shape, dtype=complex)
    for a in range(0, len(generators), BLOCK_MATRICES):
        e = _real_taylor_exp(generators[a : a + BLOCK_MATRICES], scale)
        out.real[a : a + BLOCK_MATRICES] = e[:, :d, :d]
        out.imag[a : a + BLOCK_MATRICES] = e[:, d:, :d]
    return out


def _real_taylor_exp(h: np.ndarray, scale: float) -> np.ndarray:
    """exp of the real embedding of -i * scale * h, for a block (n, d, d)."""
    n, d = len(h), h.shape[-1]
    powers = np.empty((4, n, 2 * d, 2 * d))  # I, X, X^2, X^3
    x = powers[1]
    x[:, :d, :d] = x[:, d:, d:] = scale * h.imag  # Re(A)
    x[:, :d, d:] = scale * h.real  # -Im(A)
    x[:, d:, :d] = -x[:, :d, d:]
    # 1-norm (largest column sum; einsum sums a short axis faster than
    # .sum). frexp gives s = 0 for a zero matrix, and 2^-s scales exactly.
    _, s = np.frexp(np.einsum("nij->nj", np.abs(x)).max(axis=1) / TAYLOR_THETA)
    s = np.maximum(s, 0)
    x *= np.ldexp(1.0, -s)[:, None, None]
    powers[0] = np.eye(2 * d)
    np.matmul(x, x, out=powers[2])
    np.matmul(powers[2], x, out=powers[3])
    x4 = powers[2] @ powers[2]
    b = (_PS_COEFFS @ powers.reshape(4, -1)).reshape(powers.shape)
    e = b[3]
    for j in (2, 1, 0):
        e = e @ x4
        e += b[j]
    for step in range(s.max(initial=0)):
        i = np.flatnonzero(s > step)
        e[i] = e[i] @ e[i]
    return e


def check_density_matrix(rho: np.ndarray) -> None:
    """Enforce finite entries, Hermiticity, unit trace, and positivity up to round-off."""
    if not np.all(np.isfinite(rho)):
        raise InvalidStateError("density matrix has a non-finite entry")
    if not is_hermitian(rho):
        raise InvalidStateError("density matrix is not Hermitian within 1e-12")
    if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
        raise InvalidStateError("density matrix trace differs from 1 by more than 1e-10")
    clamped_eigenvalues(rho)


def clamped_eigenvalues(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of rho's Hermitian part, those in [-1e-10, 0) clamped to zero to
    absorb round-off from long propagator chains; one below is an InvalidStateError."""
    evals = np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))
    if np.min(evals) < -EIGENVALUE_CLAMP:
        raise InvalidStateError(f"density matrix has eigenvalue {np.min(evals):.3e} < -1e-10")
    return np.clip(evals, 0.0, None)


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduced state of one qubit of a 4x4 state; keep is 'S' (qubit 1) or 'A' (qubit 2)."""
    r = rho.reshape(2, 2, 2, 2)  # indices (s, a, s', a')
    if keep == "S":
        return np.einsum("saSa->sS", r)
    if keep == "A":
        return np.einsum("sasA->aA", r)
    raise ValueError(f"keep must be 'S' or 'A', got {keep!r}")


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-sum lambda log2 lambda over the clamped_eigenvalues, with 0*log(0) = 0."""
    evals = clamped_eigenvalues(rho)
    nz = evals[evals > 0]
    return float(-np.sum(nz * np.log2(nz)))


def global_phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max entrywise |a - e^{i phi} b| minimized over the global phase phi."""
    overlap = np.trace(dagger(b) @ a)
    if abs(overlap) < 1e-14:
        # No preferred phase; fall back to the raw deviation.
        return float(np.max(np.abs(a - b)))
    phase = overlap / abs(overlap)
    return float(np.max(np.abs(a - phase * b)))
