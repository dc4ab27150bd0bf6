"""Squash channel mapping symmetric N-photon states to a qubit.

The channel is given by Kraus operators indexed by pairs (b, b') with
b - b' = 1 (mod 4),

    F[b,b'] = 2^(-(N-1)/2) * ( sqrt(C(N,b')) |1_y><S^y_b|
                             + sqrt(C(N,b))  |0_y><S^y_b'| ),

written in the y-labelled symmetric basis.  The family is trace
preserving, reproduces the threshold-detector sifted-bit statistics
exactly (see :mod:`squashkit.povm`), and commutes with the x-basis phase
modulation up to a per-operator phase:

    F[b,b'] D(H) = OMEGA^(2b - N - 1) H F[b,b'],   OMEGA = e^(i pi/4),

which makes the channel invariant under conjugation by that modulation.

This module constructs the channel and machine-checks the properties.
Each check takes the channel it checks, so one build serves all three.
The channel is its Choi matrix, written in closed form (see
:func:`build_squash`): each application and each pull-back is one
O((N+1)^2) matrix product; covariance is one Choi identity on the qubit
matrix units, exact for every input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, sqrt

import numpy as np

from .symfock import X_MODULATION, _hadamard_lift, _modulation_lift

__all__ = [
    "KrausChannel",
    "CompletenessReport",
    "HadamardReport",
    "squash_index_pairs",
    "build_squash",
    "apply_channel",
    "apply_channel_on_bob",
    "verify_completeness",
    "verify_hadamard_invariance",
]

_ATOL = 1e-10

#: Entries of J read per slice of the Hermiticity check.
_SLICE_ENTRIES = 1 << 12

#: Whether a residue r of b - b' (mod 4) makes (b, b') a squash pair.
_IS_PAIR_RESIDUE = np.array([False, True, False, False])

#: Re (-i)^r / 2 and Re i (-i)^r / 2, r = j - l (mod 4): the signs of J's output blocks.
_SIGNS = np.array([[0.5, 0.0, -0.5, 0.0], [0.0, 0.5, 0.0, -0.5]])

#: The eighth roots OMEGA^m, m = 0..7: 1, r + ri, i, -r + ri, ... with r = sqrt(1/2).
_EIGHTH_ROOTS = np.tile([1, sqrt(0.5)], 4) * [1, 1 + 1j, 1j, -1 + 1j, -1, -1 - 1j, -1j, 1 - 1j]


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-preserving map, stored as its Choi matrix.

    Attributes
    ----------
    input_dim, output_dim : int
        Dimensions of the input and output spaces.
    choi : ndarray
        The Choi matrix J[i, j, m, l] = sum_k K_k[i, j] conj(K_k[m, l]) of
        the map's Kraus operators K_k, as the (out*out, in*in) matrix
        C[(i, m), (j, l)], read-only, float64 or complex as given.  An
        array of that dtype that is read-only and owns its data (as
        :func:`build_squash` hands over) is kept as it is; any other input
        is copied, so the caller's array stays its own.

    Construction checks complete positivity (J as the matrix
    [(i, j), (m, l)] is Hermitian positive semidefinite) and trace
    preservation, holding one regrouped copy of J; Hermiticity is read a
    few rows at a time (2^12 entries, or one row where a row is longer).
    Applying the channel and pulling an operator back are each one matrix
    product with C, O(output_dim^2 input_dim^2).

    Channels compare by identity, and their repr leaves out the matrix.
    """

    input_dim: int
    output_dim: int
    choi: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        out, inp = self.output_dim, self.input_dim
        choi = self.choi
        if not (type(choi) is np.ndarray and choi.dtype in (np.float64, np.complex128)
                and choi.flags.owndata and not choi.flags.writeable):
            choi = np.array(choi, dtype=complex if np.iscomplexobj(choi) else float)
            choi.setflags(write=False)
        if choi.shape != (out * out, inp * inp):
            raise ValueError(f"Choi matrix shape {choi.shape} != {(out * out, inp * inp)}")
        object.__setattr__(self, "choi", choi)
        j = choi.reshape(out, out, inp, inp).swapaxes(1, 2).reshape(out * inp, -1)
        # eigvalsh reads one triangle only, so Hermiticity is checked too,
        # a bounded slice of rows at a time against the matching columns
        rows = max(1, _SLICE_ENTRIES // len(j))
        herm_dev = np.max([np.max(np.abs(j[r:r + rows] - j[:, r:r + rows].T.conj()))
                           for r in range(0, len(j), rows)])
        min_eig = np.linalg.eigvalsh(j)[0]
        del j
        if not (herm_dev <= _ATOL and min_eig >= -_ATOL):
            raise ValueError(f"channel is not completely positive (Choi "
                             f"eigenvalue {min_eig:.3e}, non-Hermiticity {herm_dev:.3e})")
        dev = np.max(np.abs(self.completeness_sum() - np.eye(inp)))
        if not dev <= _ATOL:
            raise ValueError(f"channel is not trace preserving (deviation {dev:.3e})")

    def completeness_sum(self) -> np.ndarray:
        """Sum of K^dagger K over the Kraus operators."""
        return self.pull_back(np.eye(self.output_dim))

    def pull_back(self, op: np.ndarray) -> np.ndarray:
        """Heisenberg-picture image sum_k K^dagger op K of an output operator.

        Pulling back an effect gives the input-space effect with the same
        Born probabilities as the original on the channel output; pulling
        back the identity gives the completeness sum.
        """
        # (K^dagger op K)[j, l] = sum_{i,m} conj(J[i, j, m, l]) op[i, m]
        inp = self.input_dim
        return (np.conj(op).reshape(-1) @ self.choi).conj().reshape(inp, inp)


@dataclass(frozen=True)
class CompletenessReport:
    """Operator-sum and closed-form-diagonal deviations, in verify row order."""

    max_deviation: float
    diag_formula_deviation: float


@dataclass(frozen=True)
class HadamardReport:
    """Covariance deviations in verify row order; the first is the max.

    ``kraus_max_deviation`` takes the output qubit in y coordinates: within
    sqrt(2) of the all-z value, the output frame change being unitary.
    ``channel_max_deviation`` covers the Choi identity and one fixed full-rank state.
    """

    max_deviation: float
    kraus_max_deviation: float
    channel_max_deviation: float
    kraus_phase_ok: bool


def squash_index_pairs(n_photons: int) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (b, b') in [0, N]^2 with b - b' = 1 (mod 4), as index arrays.

    Returns (b, b'), the pairs in row-major order (by b, then b').
    numpy's % with a positive divisor returns a representative in
    [0, 4), so negative differences such as 0 - 3 are classified correctly.
    """
    k = np.arange(n_photons + 1)
    # a lookup by residue, not `== 1`: no other step of a simulate run
    # compares integer arrays, and loading that code read 0.1 MB more RSS
    return np.nonzero(_IS_PAIR_RESIDUE[(k[:, None] - k) % 4])


def _weights(n: int) -> np.ndarray:
    """The squash weights w[k] = sqrt(C(N, k) / 2^(N-1)), each correctly rounded."""
    return np.array([sqrt(comb(n, k) / 2 ** (n - 1)) for k in range(n + 1)])


def build_squash(n_photons: int) -> KrausChannel:
    """Construct the squash channel for N incoming photons.

    F[b,b'] has rows w[b] <S^y_b'| and w[b'] <S^y_b| in y, so summed over the
    pairs the Choi matrix's output blocks B in y coordinates are real:
    diagonal for (0_y, 0_y) and (1_y, 1_y), entry j the sum of w[b]^2 over
    b = j + 1 resp. j - 1 (mod 4), and w[b'] w[b] at (b', b) in (0_y, 1_y).
    With to_y = K diag((-i)^b), K the cached real lift of H, a block is
    (-i)^(j-l) A[j, l] in z coordinates, A = K^T B K, and the output frame
    change leaves J real: J_00, J_11 = s (A_00 + A_11 +- (A_01 + A_01^T)),
    J_10 = J_01^T = c (A_00 - A_11 + A_01 - A_01^T), with s and c the
    _SIGNS at j - l (mod 4).  Output space is the qubit.

    Raises
    ------
    ValueError
        If N = 0; vacuum carries no click and is handled upstream as an
        inconclusive detection event.
    """
    if n_photons < 1:
        raise ValueError(f"squash requires N >= 1, got {n_photons}")
    n = n_photons
    k, w, idx = _hadamard_lift(n), _weights(n), np.arange(n + 1)
    by_residue = np.array([np.sum(w[r::4] ** 2) for r in range(4)])
    a00, a11 = ((k.T * by_residue[(idx + d) % 4]) @ k for d in (1, -1))
    b, bp = squash_index_pairs(n)
    cross_y = np.zeros((n + 1, n + 1))
    cross_y[bp, b] = w[bp] * w[b]
    a01 = k.T @ cross_y @ k
    plus, minus, sym, anti = a00 + a11, a00 - a11, a01 + a01.T, a01 - a01.T
    del a00, a11, a01, cross_y
    diag_signs, cross_signs = _SIGNS[:, (idx[:, None] - idx) % 4]
    choi = np.empty((4, (n + 1) ** 2))
    blocks = choi.reshape(4, n + 1, n + 1)  # J[(i, m), (j, l)] is blocks[2i + m][j, l]
    np.multiply(diag_signs, plus + sym, out=blocks[0])
    np.multiply(diag_signs, plus - sym, out=blocks[3])
    np.multiply(cross_signs, minus + anti, out=blocks[2])
    blocks[1] = blocks[2].T
    del blocks, plus, minus, sym, anti, diag_signs, cross_signs
    choi.setflags(write=False)  # read-only and its own data: the channel keeps it uncopied
    return KrausChannel(input_dim=n + 1, output_dim=2, choi=choi)


def apply_channel(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Apply a Kraus channel to an input_dim x input_dim density operator."""
    if np.shape(rho) != (channel.input_dim, channel.input_dim):
        raise ValueError(f"state dimension {np.shape(rho)} does not match channel input "
                         f"dimension {channel.input_dim}")
    return apply_channel_on_bob(channel, rho)


def apply_channel_on_bob(channel: KrausChannel, rho_ab: np.ndarray) -> np.ndarray:
    """Apply (identity on the left factor) tensor (channel on the right).

    `rho_ab` must act on a space of dimension alice_dim * input_dim, the
    right factor (Bob's) being the channel input; one product with the
    Choi matrix gives the alice_dim * output_dim square result.
    """
    rho_ab = np.asarray(rho_ab)
    total, inp = rho_ab.shape[-1], channel.input_dim
    if rho_ab.shape != (total, total) or total % inp != 0:
        raise ValueError(f"joint dimension {rho_ab.shape} is not divisible into (alice, bob) "
                         f"factors with bob's dimension the channel input {inp}")
    alice_dim, out = total // inp, channel.output_dim
    # out[a, i, b, m] = sum_{j,l} J[i, j, m, l] rho_ab[a, j, b, l]
    rho = rho_ab.reshape(alice_dim, inp, alice_dim, inp).transpose(1, 3, 0, 2)
    res = (channel.choi @ rho.reshape(inp * inp, -1)).reshape(out, out, alice_dim, alice_dim)
    return res.transpose(2, 0, 3, 1).reshape(alice_dim * out, alice_dim * out)


def verify_completeness(channel: KrausChannel) -> CompletenessReport:
    """Check that the squash channel for N = input_dim - 1 photons is complete.

    Two routes: the operator sum of K^dagger K (the pull-back of the
    identity) against the identity in max-norm, and the closed-form diagonal

        f[b,b] = 2^(-(N-1)) * sum_{c : b-c = +-1 (mod 4)} C(N, c),

    every element of which must equal 1.  c = b -+ 1 (mod 4) has the other
    parity than b, so the sums of C(N, c) over odd and over even c are checked
    against 2^(N-1) in integers; the deviation is |sum - 2^(N-1)| / 2^(N-1).
    """
    n = channel.input_dim - 1
    dev = float(np.max(np.abs(channel.completeness_sum() - np.eye(n + 1))))
    half = 2 ** (n - 1)
    diag_dev = max(abs(sum(comb(n, c) for c in range(r, n + 1, 2)) - half) for r in (0, 1))
    return CompletenessReport(dev, diag_dev / half)


def verify_hadamard_invariance(channel: KrausChannel) -> HadamardReport:
    """Check covariance of the squash channel under the x-basis modulation.

    Operator level, N = input_dim - 1: F[b,b'] D(H) = OMEGA^(2b-N-1) H F[b,b'] for
    every pair, output in y coordinates: there H = diag(OMEGA^-1, OMEGA), so row k
    of to_y D(H) must be OMEGA^((2k-N) mod 8) times that of to_y, all rows in one
    pass: with to_y = K diag((-i)^b) and D(H) = K diag((-1)^b), that is
    (K diag((-i)^b) K)[k, l] = OMEGA^(2k+2l-N) K[k, l].  Channel level: the Choi
    identity D^dagger Phi*(O) D = Phi*(H^dagger O H) on the qubit matrix units O
    (Phi* the pull-back), exact for every input, and one fixed full-rank state
    sent through :func:`apply_channel` on both sides.
    """
    n = channel.input_dim - 1
    k, w, idx = _hadamard_lift(n), _weights(n), np.arange(n + 1)
    ph_re, ph_im = (np.array(t)[idx % 4] for t in ((1, 0, -1, 0), (0, -1, 0, 1)))
    roots = (2 * (idx[:, None] + idx) - n) % 8
    dev = np.max(np.hypot((k * ph_re) @ k - k * _EIGHTH_ROOTS.real[roots],
                          (k * ph_im) @ k - k * _EIGHTH_ROOTS.imag[roots]), axis=1)
    b, bp = squash_index_pairs(n)
    kraus_dev = float(max(np.max(w[b] * dev[bp]), np.max(w[bp] * dev[b])))
    # one fixed full-rank state, diagonal in neither z nor y: K diag(p) K^T, p ~ (N+1, ..., 1)
    lifted_h = _modulation_lift(n)
    p = np.arange(n + 1, 0, -1) / ((n + 1) * (n + 2) / 2)
    rho = (k * p) @ k.T
    lhs = X_MODULATION @ apply_channel(channel, rho) @ X_MODULATION.T
    rhs = apply_channel(channel, lifted_h @ rho @ lifted_h.T)
    chan_dev = float(np.max(np.abs(lhs - rhs)))
    for unit in np.eye(4).reshape(4, 2, 2):
        lhs = lifted_h.T @ channel.pull_back(unit) @ lifted_h
        rhs = channel.pull_back(X_MODULATION.T @ unit @ X_MODULATION)
        chan_dev = max(chan_dev, float(np.max(np.abs(lhs - rhs))))
    return HadamardReport(max(kraus_dev, chan_dev), kraus_dev, chan_dev, kraus_dev < _ATOL)
