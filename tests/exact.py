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
- mpmath_propagator: mpmath.expm of each segment and the same left fold
  at 34 significant digits; about a hundred times slower, so tests give
  it short pulses.
"""

import numpy as np

from ddgrape.nmr import IDENTITY_NOISE, PulseSequence, segment_hamiltonians

LONGDOUBLE_IS_EXTENDED = np.finfo(np.longdouble).eps <= 1e-18
TAYLOR_DEGREE = 25


def longdouble_propagator(pulse: PulseSequence, params, member=IDENTITY_NOISE) -> np.ndarray:
    """u_K ... u_1 in np.clongdouble, u_k = exp(-i H_k dt)."""
    x = segment_hamiltonians(pulse, params, member).astype(np.clongdouble) * np.clongdouble(-1j * pulse.dt)
    norm = np.abs(x).sum(axis=-1).max(axis=-1)  # the infinity norm bounds the 2-norm
    squarings = np.maximum(0, np.ceil(np.log2(np.maximum(norm.astype(float), 1e-300) / 0.25))).astype(int)
    x = x / (2.0 ** squarings)[:, None, None].astype(np.longdouble)
    eye = np.eye(4, dtype=np.clongdouble)
    u = eye + x / TAYLOR_DEGREE
    for n in range(TAYLOR_DEGREE - 1, 0, -1):
        u = eye + (x @ u) / n
    for step in range(int(squarings.max(initial=0))):
        again = squarings > step
        u[again] = u[again] @ u[again]
    total = eye
    for uk in u:
        total = uk @ total
    return total


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
