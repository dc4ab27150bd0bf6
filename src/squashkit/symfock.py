"""Dense linear algebra on the symmetric subspace of N two-mode photons.

An N-photon state in a single spatial-temporal mode lives in the
(N+1)-dimensional bosonic symmetric subspace, spanned by the states with
N-b photons in one polarization/path mode and b in the other.  Single-qubit
gates act on such states as the spin-N/2 representation; this module builds
those lifted operators and a brute-force symmetrization oracle used to
cross-check the fast construction.

Every lift is one real matrix per N between diagonal lifts: K_N, the lift
of H = (X + Z)/sqrt(2), a real symmetric involution from one real
eigendecomposition of the tridiagonal dGamma(X + Z) (exact diagonalization as in
Feng, Wang, Yang & Jin, Phys. Rev. E 92, 043307 (2015), for Wigner's d-matrix).
The x modulation H Z lifts to K diag((-1)^b), the z -> y change to K diag((-i)^b).

The canonical storage convention everywhere in this package is the
Z-labelled symmetric basis, component b holding the coefficient of the
basis vector with b photons in the "1" mode.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, sqrt

import numpy as np

__all__ = [
    "X_MODULATION",
    "lift_gate",
    "lift_gate_oracle",
    "ORACLE_PHOTON_CAP",
]

# The self-inverse Hadamard (X + Z)/sqrt(2), whose lift K every lift reads.
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
#: The quarter-turn about the y axis used as the x-basis phase modulation, H Z.
#: Not the self-inverse Hadamard: it maps |0_z> -> |0_x>, |1_z> -> -|1_x>,
#: and has eigenvectors |0_y>, |1_y> with eigenvalues e^(-i pi/4), e^(i pi/4).
X_MODULATION = _HADAMARD * [1.0, -1.0]

#: Cap on the brute-force oracle's photon number (full space dimension 2**N).
ORACLE_PHOTON_CAP = 8

_UNITARY_ATOL = 1e-12

# Complex entries per stacked temporary (16 KiB) when a stack of states or
# gates is worked through in slices.  Kept small so that slices fit in heap
# memory the allocator already holds: numpy caches freed buffers under 1 KiB
# for good, and one allocated while larger slices had grown the heap pins it
# (2**13 raised the peak RSS of verify --nmax 40 by up to 0.3 MB).
_STACK_ENTRIES = 2**10

for _m in (_HADAMARD, X_MODULATION):
    _m.setflags(write=False)


def _require_unitary(gate: np.ndarray, n_photons: int) -> np.ndarray:
    if n_photons < 0:
        raise ValueError(f"n_photons must be >= 0, got {n_photons}")
    gate = np.asarray(gate, dtype=complex)
    if gate.shape[-2:] != (2, 2):
        raise ValueError(f"gate must be 2x2 or a stack of 2x2, got shape {gate.shape}")
    dev = np.max(np.abs(gate.conj().swapaxes(-1, -2) @ gate - np.eye(2)))
    if not dev <= _UNITARY_ATOL:
        raise ValueError(f"gate is not unitary (deviation {dev:.3e})")
    return gate


def _stack_slices(count: int, entries: int):
    """Slices of a `count`-long stack whose items hold `entries` each.

    Each slice holds at most :data:`_STACK_ENTRIES` entries (one item if a
    single item is larger), so a stacked temporary stays bounded however
    long the stack is.
    """
    step = max(1, _STACK_ENTRIES // entries)
    return [slice(s, min(s + step, count)) for s in range(0, count, step)]


def lift_gate(gate: np.ndarray, n_photons: int) -> np.ndarray:
    """Lift a single-qubit unitary to the symmetric N-photon subspace.

    Returns the (N+1)x(N+1) restriction of the N-fold tensor power of `gate`
    to the symmetric subspace, in the Z-labelled symmetric basis.  The gate is
    diag(1, x) H diag(1, q) H diag(y0, y1), its phases read off its entries with
    alpha = |u00| + i |u01| and q = alpha^2 (a zero entry leaves its phase at 1),
    so its lift is diag(x^b) (I + K diag(q^b - 1) K) diag(y0^(N-b) y1^b): two real
    products with the cached K per gate, and exact for a diagonal gate (q = 1).
    `gate` is one 2x2 unitary in z coordinates or a (..., 2, 2) stack of them,
    worked through in bounded slices (one gate as a stack of one); the result has
    shape (..., N+1, N+1).  N = 0 gives the 1x1 identity.
    """
    u = _require_unitary(gate, n_photons)
    u00, u01, u10, u11 = u.reshape(-1, 4).T
    k, b = _hadamard_lift(n_photons), np.arange(n_photons + 1)

    def ratio(num, den):  # num / den, and 1 where den is 0: a phase a zero entry leaves free
        return np.divide(num, den, out=np.ones_like(num), where=den != 0)

    def powers(z):  # z^b for b = 0..N, one product at a time: exact for +-1 and +-i
        return np.cumprod(np.where(b, z[:, None], 1), axis=1)

    c, s = np.abs(u00), np.abs(u01)
    alpha = (c + 1j * s) / np.hypot(c, s)
    y0, y1 = ratio(u00, c * alpha), ratio(1j * u01, s * alpha)
    x = np.where(c >= s, ratio(u11, c * alpha * y1), ratio(1j * u10, s * alpha * y0))
    out = np.empty((len(u00),) + k.shape, dtype=complex)
    for sl in _stack_slices(len(u00), k.size):
        q_minus_one, part = powers(alpha[sl] ** 2) - 1, out[sl]
        part.real = (k * q_minus_one.real[:, None, :]) @ k
        part.imag = (k * q_minus_one.imag[:, None, :]) @ k
        part.real[:, b, b] += 1.0
        part *= powers(x[sl])[:, :, None] * (powers(y0[sl])[:, ::-1] * powers(y1[sl]))[:, None, :]
    return out.reshape(u.shape[:-2] + k.shape)


@lru_cache(maxsize=1)
def _hadamard_lift(n_photons: int) -> np.ndarray:
    """K_N = lift(H), real and read-only, kept for the last N: one real eigensolve per N.

    dGamma(X + Z) = sqrt(2) dGamma(H) is tridiagonal, diagonal N - 2b and sub-diagonal
    sqrt((b+1)(N-b)), with eigenvalues sqrt(2) (N - 2k), on which H^(xN) is (-1)^k:
    eigh lists them ascending, so K = U diag((-1)^(N-i)) U^T, whatever the signs of
    U's columns.  N = 0 and N = 1 are exact: [[1]] and H.
    """
    n, b = n_photons, np.arange(n_photons + 1)
    if n == 1:
        return _HADAMARD
    gen = np.diag(n - 2.0 * b)
    gen[b[1:], b[:-1]] = np.sqrt(b[1:] * (n - b[:-1]))  # eigh reads the lower triangle
    vecs = np.linalg.eigh(gen)[1]
    del gen
    lifted = (vecs * (1 - 2 * ((n - b) % 2))) @ vecs.T
    lifted.setflags(write=False)
    return lifted


def _modulation_lift(n_photons: int) -> np.ndarray:
    """lift(X_MODULATION) = K diag((-1)^b), X_MODULATION being H Z: a new real array."""
    return _hadamard_lift(n_photons) * (1 - 2 * (np.arange(n_photons + 1) % 2))


def lift_gate_oracle(gate: np.ndarray, n_photons: int) -> np.ndarray:
    """Brute-force check value for :func:`lift_gate`.

    Builds the isometry T sending each symmetric basis vector to its
    explicit symmetrized expansion in the full 2^N-dimensional N-qubit
    space, applies the gate to each of the N tensor factors of T's
    columns, and returns T^dagger U^(xN) T.  Accepts a stack of gates of
    shape (..., 2, 2) like :func:`lift_gate`, worked through in slices so
    that the (slice, 2^N, N+1) working array stays bounded.  Exponential
    in N, so refuses above :data:`ORACLE_PHOTON_CAP`.
    """
    u = _require_unitary(gate, n_photons)
    if n_photons > ORACLE_PHOTON_CAP:
        raise ValueError(f"oracle refuses N = {n_photons} > cap {ORACLE_PHOTON_CAP} "
                         "(full space dimension 2**N)")
    n = n_photons
    dim = 2**n
    iso = np.zeros((dim, n + 1))
    for idx in range(dim):
        b = idx.bit_count()
        iso[idx, b] = 1.0 / sqrt(comb(n, b))
    gates = u.reshape(-1, 1, 2, 2)
    out = np.empty((len(gates), n + 1, n + 1), dtype=complex)
    for s in _stack_slices(len(gates), dim * (n + 1)):
        cols = iso[None]
        for k in range(n):
            # tensor factor k is axis 2 of the (slice, 2^k, 2, rest) view
            cols = gates[s] @ cols.reshape(-1, 2**k, 2, dim // 2 ** (k + 1) * (n + 1))
        out[s] = iso.T @ cols.reshape(-1, dim, n + 1)
    return out.reshape(u.shape[:-2] + (n + 1, n + 1))
