"""Dense linear algebra on the symmetric subspace of N two-mode photons.

An N-photon state in a single spatial-temporal mode lives in the
(N+1)-dimensional bosonic symmetric subspace, spanned by the states with
N-b photons in one polarization/path mode and b in the other.  Single-qubit
gates act on such states as the spin-N/2 representation; this module builds
those lifted operators, the basis-change matrices between the z-, x- and
y-labelled symmetric bases, and a brute-force symmetrization oracle used to
cross-check the fast construction.

The lift exponentiates the gate's su(2) generator in the spin-N/2
representation, where it is a tridiagonal Hermitian matrix; one
Hermitian eigendecomposition gives the lifted gate, unitary to rounding at
every N (exact diagonalization as in Feng, Wang, Yang & Jin, Phys. Rev. E
92, 043307 (2015), for Wigner's d-matrix).  The package reads one lift of the
x modulation per N, whose column b times i^b is the z -> y change.

The canonical storage convention everywhere in this package is the
Z-labelled symmetric basis, component b holding the coefficient of the
basis vector with b photons in the "1" mode.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import comb, sqrt

import numpy as np

__all__ = [
    "Basis",
    "OMEGA",
    "X_MODULATION",
    "qubit_frame",
    "sym_basis_state",
    "basis_change_matrix",
    "lift_gate",
    "lift_gate_oracle",
    "projector",
    "ORACLE_PHOTON_CAP",
]


class Basis(Enum):
    """Single-photon basis labelling a symmetric basis family."""

    Z = "z"
    X = "x"
    Y = "y"


#: Eighth root of unity, eigenvalue unit of the quarter-turn below.
OMEGA = np.exp(1j * np.pi / 4)

#: The quarter-turn about the y axis used as the x-basis phase modulation.
#: Not the self-inverse Hadamard: it maps |0_z> -> |0_x>, |1_z> -> -|1_x>,
#: and has eigenvectors |0_y>, |1_y> with eigenvalues OMEGA**-1, OMEGA**+1.
X_MODULATION = np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2.0)

# Columns are the basis kets |0_b>, |1_b> in z coordinates.
_FRAMES = {
    Basis.Z: np.eye(2, dtype=complex),
    Basis.X: np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    Basis.Y: np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2.0),
}

#: Cap on the brute-force oracle's photon number (full space dimension 2**N).
ORACLE_PHOTON_CAP = 8

_UNITARY_ATOL = 1e-12

# Complex entries per stacked temporary (16 KiB) when a stack of states or
# gates is worked through in slices.  Kept small so that slices fit in heap
# memory the allocator already holds: numpy caches freed buffers under 1 KiB
# for good, and one allocated while larger slices had grown the heap pins it
# (2**13 raised the peak RSS of verify --nmax 40 by up to 0.3 MB).
_STACK_ENTRIES = 2**10

for _m in (X_MODULATION, *_FRAMES.values()):
    _m.setflags(write=False)


def qubit_frame(basis: Basis) -> np.ndarray:
    """2x2 matrix whose columns are |0_basis>, |1_basis> in z coordinates."""
    return _FRAMES[basis]


def sym_basis_state(n_photons: int, b: int) -> np.ndarray:
    """Symmetric basis state with N-b photons in mode "0" and b in mode "1".

    Returns the read-only complex amplitude vector of length N+1 with a
    single 1 at component b.  The components are labelled by whichever
    basis the caller means; the rest of the package reads them in the
    canonical Z basis, and :func:`basis_change_matrix` converts between
    labels.

    Parameters
    ----------
    n_photons : int
        Photon number N >= 0.
    b : int
        Number of photons in the "1" mode, 0 <= b <= N.
    """
    if not 0 <= b <= n_photons:
        raise ValueError(f"b must satisfy 0 <= b <= {n_photons}, got {b}")
    amps = np.zeros(n_photons + 1, dtype=complex)
    amps[b] = 1.0
    amps.setflags(write=False)
    return amps


def _require_unitary(gate: np.ndarray) -> np.ndarray:
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

    Returns the (N+1)x(N+1) unitary acting as the restriction of the
    N-fold tensor power of `gate` to the symmetric subspace, in the
    Z-labelled symmetric basis.  The gate is written as e^{i phi} exp(iG)
    with G traceless Hermitian, the SU(2) part's sign chosen so that its
    rotation angle is at most pi/2.  The lift is then
    e^{i N phi} exp(i dGamma(G)), where the one-photon generator

        dGamma(G) = sum_ij g_ij a_i^dagger a_j

    is tridiagonal: diagonal (N-b) g00 + b g11, sub-diagonal
    g10 sqrt((b+1)(N-b)).  One Hermitian eigendecomposition exponentiates
    it (the exact-diagonalization route to Wigner's d-matrix), so the
    result is unitary to rounding for every N, at O(N^3) cost.

    Parameters
    ----------
    gate : ndarray
        2x2 unitary (z coordinates), or a stack of them with shape
        (..., 2, 2); each gate of a stack is lifted exactly as it would
        be alone, and the result has shape (..., N+1, N+1).
    n_photons : int
        Photon number N >= 0; N = 0 returns the 1x1 identity and N = 1
        a copy of `gate`.
    """
    u = _require_unitary(gate)
    if n_photons < 0:
        raise ValueError(f"n_photons must be >= 0, got {n_photons}")
    n = n_photons
    if n == 1:
        return u.copy()
    # the 2x2 determinant in closed form: no LAPACK LU
    phi = np.angle(u[..., 0, 0] * u[..., 1, 1] - u[..., 0, 1] * u[..., 1, 0]) / 2.0
    v = u * np.exp(-1j * phi)[..., None, None]
    flip = np.trace(v, axis1=-2, axis2=-1).real < 0
    v = np.where(flip[..., None, None], -v, v)
    phi = np.where(flip, phi + np.pi, phi)
    # v = cos(theta) I + i sin(theta) n.sigma, so h = sin(theta) n.sigma
    # and g = theta n.sigma; sinc keeps theta -> 0 exact.
    h = (v - v.conj().swapaxes(-1, -2)) / 2j
    sin_t = np.sqrt(np.sum(np.abs(h) ** 2, axis=(-2, -1)) / 2.0)
    theta = np.arctan2(sin_t, np.trace(v, axis1=-2, axis2=-1).real / 2.0)
    g = h / np.sinc(theta / np.pi)[..., None, None]
    b = np.arange(n + 1)
    gen = np.zeros(u.shape[:-2] + (n + 1, n + 1), dtype=complex)
    gen[..., b, b] = (n - b) * g[..., 0, 0, None].real + b * g[..., 1, 1, None].real
    # eigh reads only the lower triangle.
    gen[..., b[1:], b[:-1]] = g[..., 1, 0, None] * np.sqrt(b[1:] * (n - b[:-1]))
    lam, w = np.linalg.eigh(gen)
    phase = np.exp(1j * (lam + n * phi[..., None]))
    return (w * phase[..., None, :]) @ w.conj().swapaxes(-1, -2)


@lru_cache(maxsize=1)
def _modulation_lift(n_photons: int) -> np.ndarray:
    """``lift_gate(X_MODULATION, N)``, read-only, kept for the last N: one eigensolve per N."""
    lifted = lift_gate(X_MODULATION, n_photons)
    lifted.setflags(write=False)
    return lifted


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
    u = _require_unitary(gate)
    if n_photons < 0:
        raise ValueError(f"n_photons must be >= 0, got {n_photons}")
    if n_photons > ORACLE_PHOTON_CAP:
        raise ValueError(
            f"oracle refuses N = {n_photons} > cap {ORACLE_PHOTON_CAP} "
            "(full space dimension 2**N)"
        )
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


def basis_change_matrix(n_photons: int, from_basis: Basis, to_basis: Basis) -> np.ndarray:
    """Unitary converting symmetric-state components between basis labels.

    The returned (N+1)x(N+1) matrix U satisfies
    U @ (components in `from_basis`) = (components in `to_basis`), and is
    the symmetric lift of the single-qubit frame change.
    """
    q = _FRAMES[to_basis].conj().T @ _FRAMES[from_basis]
    return lift_gate(q, n_photons)


def projector(amps: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| onto a normalized amplitude vector.

    Raises ValueError if the norm of `amps` is off 1 by more than 1e-9
    or is not finite.
    """
    amps = np.asarray(amps, dtype=complex)
    dev = abs(float(np.linalg.norm(amps)) - 1.0)
    if not dev <= 1e-9:
        raise ValueError(f"state is not normalized (norm deviation {dev:.3e})")
    return np.outer(amps, amps.conj())
