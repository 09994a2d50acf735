"""Extended-precision propagators: the exact answer that tests hold the
float64 forward kernels to.

Both take a pulse's float64 segment Hamiltonians from the library
(nmr.segment_hamiltonians), so they measure the error of exponentiating
and multiplying the segments, not of building them.

- longdouble_propagator: scaling and squaring of a degree-25 Taylor
  polynomial in np.clongdouble, each segment scaled to norm <= 1/4, then
  the left fold u_K ... u_1. On x86-64 Linux long double is the x87 80-bit
  type (eps 1.1e-19); where np.finfo(np.longdouble).eps is above 1e-18 it
  is no wider than float64 and cannot serve as a reference.
- longdouble_gradient: the gradient of the gate fidelity with respect to
  every segment's amplitudes, from the same Taylor exponential on 8x8
  block-triangular matrices and long-double prefix and suffix products.
- mpmath_propagator: mpmath.expm of each segment and the same left fold
  at 34 significant digits; about a hundred times slower, so tests give
  it short pulses.
"""

import numpy as np

from ddgrape.nmr import FX, FY, IDENTITY_NOISE, PulseSequence, segment_hamiltonians

LONGDOUBLE_IS_EXTENDED = np.finfo(np.longdouble).eps <= 1e-18
TAYLOR_DEGREE = 25


def _longdouble_expm(x: np.ndarray) -> np.ndarray:
    """exp of every matrix in an np.clongdouble (..., n, n) stack."""
    norm = np.abs(x).sum(axis=-1).max(axis=-1)  # the infinity norm bounds the 2-norm
    squarings = np.maximum(0, np.ceil(np.log2(np.maximum(norm.astype(float), 1e-300) / 0.25))).astype(int)
    x = x / (2.0 ** squarings)[..., None, None].astype(np.longdouble)
    eye = np.eye(x.shape[-1], dtype=np.clongdouble)
    u = eye + x / TAYLOR_DEGREE
    for n in range(TAYLOR_DEGREE - 1, 0, -1):
        u = eye + (x @ u) / n
    for step in range(int(squarings.max(initial=0))):
        again = squarings > step
        u[again] = u[again] @ u[again]
    return u


def longdouble_propagator(pulse: PulseSequence, params, member=IDENTITY_NOISE) -> np.ndarray:
    """u_K ... u_1 in np.clongdouble, u_k = exp(-i H_k dt)."""
    x = segment_hamiltonians(pulse, params, member).astype(np.clongdouble) * np.clongdouble(-1j * pulse.dt)
    total = np.eye(4, dtype=np.clongdouble)
    for uk in _longdouble_expm(x):
        total = uk @ total
    return total


def longdouble_gradient(pulse: PulseSequence, target, params, member=IDENTITY_NOISE):
    """d gate_fidelity / d(omega_x, omega_y) of every segment in np.longdouble,
    0 on frozen segments: the exact answer for grape.fidelity_gradient.

    exp([[X, E], [0, X]]) holds exp(X) in its diagonal blocks and the Frechet
    derivative of exp at X in direction E in its upper-right block (Najfeld &
    Havel 1995). With X = -i H_k dt and E = -i D dt, D the member's rf-scaled,
    phase-rotated F_x or F_y, that block is du_k. Then
    dG_k = Tr(U_T^dag S_k du_k P_{k-1}), with prefix P_{k-1} = u_{k-1} ... u_1
    and suffix S_k = u_K ... u_{k+1}, and dF = Re(conj(G) dG) / (|G| N).
    """
    k_count, dt = pulse.n_segments, np.clongdouble(-1j * pulse.dt)
    phase = np.longdouble(member.phase_offset)
    c, s, scale = np.cos(phase), np.sin(phase), np.longdouble(member.rf_scale)
    directions = np.stack([scale * (c * FX + s * FY), scale * (c * FY - s * FX)]).astype(np.clongdouble)
    blocks = np.zeros((k_count, 2, 8, 8), dtype=np.clongdouble)
    x = segment_hamiltonians(pulse, params, member).astype(np.clongdouble) * dt
    blocks[:, :, :4, :4] = blocks[:, :, 4:, 4:] = x[:, None]
    blocks[:, :, :4, 4:] = directions * dt
    e = _longdouble_expm(blocks)
    u, du = e[:, 0, :4, :4], e[:, :, :4, 4:]  # (K, 4, 4), (K, 2, 4, 4)
    prefix = np.empty((k_count + 1, 4, 4), dtype=np.clongdouble)  # prefix[k] = u_k ... u_1
    suffix = np.empty_like(prefix)  # suffix[k] = u_K ... u_{k+1}
    prefix[0] = suffix[k_count] = np.eye(4)
    for k in range(k_count):
        prefix[k + 1] = u[k] @ prefix[k]
        suffix[k_count - 1 - k] = suffix[k_count - k] @ u[k_count - 1 - k]
    ut_dag = target.unitary.conj().T.astype(np.clongdouble)
    g = np.trace(ut_dag @ prefix[k_count])
    # Tr(A B) = sum_ij A_ij B_ji with A = du_k and B = P_{k-1} U_T^dag S_k
    dg = np.einsum("kdij,kji->dk", du, prefix[:-1] @ ut_dag @ suffix[1:])
    grad = np.real(np.conj(g) * dg) / (abs(g) * 4)
    grad[:, pulse.frozen] = 0
    return grad[0], grad[1]


def mpmath_propagator(pulse: PulseSequence, params, member=IDENTITY_NOISE, dps: int = 34) -> np.ndarray:
    """u_K ... u_1 by mpmath at dps digits, rounded to np.clongdouble."""
    import mpmath

    with mpmath.workdps(dps):
        total = mpmath.eye(4)
        for h in segment_hamiltonians(pulse, params, member):
            m = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in h])
            total = mpmath.expm(m * mpmath.mpc(0, -pulse.dt)) * total
        return np.array([[_to_longdouble(total[i, j]) for j in range(4)] for i in range(4)])


def _to_longdouble(z) -> np.clongdouble:
    """An mpmath number rounded to np.clongdouble through a pair of doubles
    (a double's 53 bits and the next 53 cover the 64 of the x87 type)."""
    def part(x):
        hi = float(x)
        return np.longdouble(hi) + np.longdouble(float(x - hi))

    return np.clongdouble(part(z.real)) + np.clongdouble(1j) * part(z.imag)


def first_segments(pulse: PulseSequence, n: int) -> PulseSequence:
    """The pulse cut to its first n segments."""
    return PulseSequence(pulse.omega_x[:n], pulse.omega_y[:n], pulse.frozen[:n], pulse.dt, pulse.omega_max)
