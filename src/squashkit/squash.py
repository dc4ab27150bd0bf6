"""Squash channel mapping symmetric N-photon states to a qubit.

The channel is given by Kraus operators indexed by pairs (b, b') with
b - b' = 1 (mod 4),

    F[b,b'] = 2^(-(N-1)/2) * ( sqrt(C(N,b')) |1_y><S^y_b|
                             + sqrt(C(N,b))  |0_y><S^y_b'| ),

written in the y-labelled symmetric basis.  The family is trace
preserving, reproduces the threshold-detector sifted-bit statistics
exactly (see :mod:`squashkit.povm`), and commutes with the x-basis phase
modulation up to a per-operator phase:

    F[b,b'] D(H) = OMEGA^(2b - N - 1) H F[b,b'],

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

from .symfock import (
    OMEGA,
    X_MODULATION,
    Basis,
    basis_change_matrix,
    lift_gate,
    qubit_frame,
)

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

#: Whether a residue r of b - b' (mod 4) makes (b, b') a squash pair.
_IS_PAIR_RESIDUE = np.array([False, True, False, False])


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
        C[(i, m), (j, l)]; a read-only copy of the array passed in.

    Construction checks complete positivity (J as the matrix
    [(i, j), (m, l)] is Hermitian positive semidefinite) and trace
    preservation.  Applying the channel and pulling an operator back are
    each one matrix product with C, O(output_dim^2 input_dim^2).

    Channels compare by identity, and their repr leaves out the matrix.
    """

    input_dim: int
    output_dim: int
    choi: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        out, inp = self.output_dim, self.input_dim
        choi = np.array(self.choi, dtype=complex)
        if choi.shape != (out * out, inp * inp):
            raise ValueError(f"Choi matrix shape {choi.shape} != {(out * out, inp * inp)}")
        choi.setflags(write=False)
        object.__setattr__(self, "choi", choi)
        # eigvalsh reads one triangle only, so Hermiticity is checked too
        j = choi.reshape(out, out, inp, inp).swapaxes(1, 2).reshape(out * inp, -1)
        herm_dev = np.max(np.abs(j - j.conj().T))
        min_eig = np.linalg.eigvalsh(j)[0]
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


def _y_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """to_y and w: F[b,b'] has rows w[b] <S^y_b'| and w[b'] <S^y_b| in y."""
    to_y = basis_change_matrix(n, Basis.Z, Basis.Y)  # input z-coords -> y-coords
    w = 2.0 ** (-(n - 1) / 2.0) * np.array([sqrt(comb(n, k)) for k in range(n + 1)])
    return to_y, w


def build_squash(n_photons: int) -> KrausChannel:
    """Construct the squash channel for N incoming photons.

    Summed over the pairs b - b' = 1 (mod 4), the Choi matrix's output
    blocks in y coordinates are diagonal for (0_y, 0_y) and (1_y, 1_y),
    entry j the sum of w[b]^2 over b = j + 1 resp. b = j - 1 (mod 4); the
    (0_y, 1_y) block holds w[b'] w[b] at (b', b) for every pair, and
    (1_y, 0_y) its transpose.  Since F = frame_y F_y to_y, one congruence
    by frame_y x to_y^T gives J in the canonical Z basis on both sides.
    Output space is the qubit.

    Raises
    ------
    ValueError
        If N = 0; vacuum carries no click and is handled upstream as an
        inconclusive detection event.
    """
    if n_photons < 1:
        raise ValueError(f"squash requires N >= 1, got {n_photons}")
    n = n_photons
    frame_y = qubit_frame(Basis.Y)  # qubit y-coords -> z-coords
    to_y, w = _y_terms(n)
    k = np.arange(n + 1)
    by_residue = np.array([np.sum(w[r::4] ** 2) for r in range(4)])
    diag = [(to_y.T * by_residue[(k + d) % 4]) @ to_y.conj() for d in (1, -1)]
    b, bp = squash_index_pairs(n)
    cross_y = np.zeros((n + 1, n + 1))
    cross_y[bp, b] = w[bp] * w[b]
    cross = to_y.T @ cross_y @ to_y.conj()
    blocks = [diag[0], cross, cross.conj().T, diag[1]]
    # C[(i, m), (j, l)] = sum_{p,q} frame_y[i, p] conj(frame_y[m, q]) block[p, q][j, l]
    choi = np.kron(frame_y, frame_y.conj()) @ np.reshape(blocks, (4, -1))
    del diag, cross, blocks, to_y  # the channel copies choi
    return KrausChannel(input_dim=n + 1, output_dim=2, choi=choi)


def apply_channel(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Apply a Kraus channel to a density operator.

    `rho` is input_dim x input_dim, or a stack of such operators with
    shape (..., input_dim, input_dim); the result has shape
    (..., output_dim, output_dim).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (channel.input_dim, channel.input_dim):
        raise ValueError(
            f"state dimension {rho.shape} does not match channel input "
            f"dimension {channel.input_dim}"
        )
    return apply_channel_on_bob(channel, rho)


def apply_channel_on_bob(channel: KrausChannel, rho_ab: np.ndarray) -> np.ndarray:
    """Apply (identity on the left factor) tensor (channel on the right).

    `rho_ab` must act on a space of dimension alice_dim * input_dim, the
    right factor (Bob's) being the channel input.  A stack of joint
    operators with shape (..., total, total) is applied in one product
    with the Choi matrix, giving shape (..., alice_dim * output_dim,
    alice_dim * output_dim).
    """
    rho_ab = np.asarray(rho_ab, dtype=complex)
    total, inp = rho_ab.shape[-1], channel.input_dim
    if rho_ab.ndim < 2 or rho_ab.shape[-2] != total or total % inp != 0:
        raise ValueError(
            f"joint dimension {rho_ab.shape} is not divisible into "
            f"(alice, bob) factors with bob's dimension the channel input {inp}"
        )
    lead = rho_ab.shape[:-2]
    n_lead = len(lead)
    alice_dim, out = total // inp, channel.output_dim
    # out[..., a, i, b, m] = sum_{j,l} J[i, j, m, l] rho_ab[..., a, j, b, l]
    rho = rho_ab.reshape(*lead, alice_dim, inp, alice_dim, inp)
    rho = rho.transpose(n_lead + 1, n_lead + 3, *range(n_lead), n_lead, n_lead + 2)
    rho = rho.reshape(inp * inp, -1)
    res = (channel.choi @ rho).reshape(out, out, *lead, alice_dim, alice_dim)
    res = res.transpose(*range(2, n_lead + 3), 0, n_lead + 3, 1)
    return res.reshape(*lead, alice_dim * out, alice_dim * out)


def verify_completeness(channel: KrausChannel) -> CompletenessReport:
    """Check that the squash channel for N = input_dim - 1 photons is complete.

    Two routes: the operator sum of K^dagger K (the pull-back of the
    identity) against the identity in max-norm, and the closed-form diagonal

        f[b,b] = 2^(-(N-1)) * sum_{c : b-c = +-1 (mod 4)} C(N, c),

    every element of which must equal 1.
    """
    n = channel.input_dim - 1
    dev = float(np.max(np.abs(channel.completeness_sum() - np.eye(n + 1))))
    # b - c = +-1 (mod 4) means c = b -+ 1: sum the binomials by c mod 4 once
    residue_sums = [sum(comb(n, c) for c in range(r, n + 1, 4)) for r in range(4)]
    diag_dev = 0.0
    for b in range(n + 1):
        total = residue_sums[(b - 1) % 4] + residue_sums[(b + 1) % 4]
        diag_dev = max(diag_dev, abs(2.0 ** (-(n - 1)) * total - 1.0))
    return CompletenessReport(dev, float(diag_dev))


def verify_hadamard_invariance(channel: KrausChannel) -> HadamardReport:
    """Check covariance of the squash channel under the x-basis modulation.

    Operator level, N = input_dim - 1: F[b,b'] D(H) = OMEGA^(2b-N-1) H F[b,b'] for
    every pair, output in y coordinates: there H = diag(OMEGA^-1, OMEGA), so
    rows b' and b of to_y D(H) must be OMEGA^(2r-N) times those of to_y,
    r = b-1 resp. b (mod 4), one product per N.  Channel level: the Choi
    identity D^dagger Phi*(O) D = Phi*(H^dagger O H) on the qubit matrix
    units O (Phi* the pull-back), exact for every input, and one fixed
    full-rank state sent through :func:`apply_channel` on both sides.
    """
    n = channel.input_dim - 1
    to_y, w = _y_terms(n)
    lifted_h = lift_gate(X_MODULATION, n)
    g = to_y @ lifted_h
    # dev[r, k] = max_j |(to_y D(H))[k, j] - OMEGA^(2r-N) to_y[k, j]|
    dev = np.array([np.max(np.abs(g - OMEGA ** (2 * r - n) * to_y), axis=1) for r in range(4)])
    b, bp = squash_index_pairs(n)
    kraus_dev = float(max(np.max(w[b] * dev[(b - 1) % 4, bp]), np.max(w[bp] * dev[b % 4, b])))
    # one fixed full-rank state, diagonal in neither z nor y: D diag(p) D^dagger,
    # p proportional to (N+1, N, ..., 1)
    p = np.arange(n + 1, 0, -1) / ((n + 1) * (n + 2) / 2)
    rho = (lifted_h * p) @ lifted_h.conj().T
    lhs = X_MODULATION @ apply_channel(channel, rho) @ X_MODULATION.conj().T
    rhs = apply_channel(channel, lifted_h @ rho @ lifted_h.conj().T)
    chan_dev = float(np.max(np.abs(lhs - rhs)))
    for unit in np.eye(4).reshape(4, 2, 2):
        lhs = lifted_h.conj().T @ channel.pull_back(unit) @ lifted_h
        rhs = channel.pull_back(X_MODULATION.conj().T @ unit @ X_MODULATION)
        chan_dev = max(chan_dev, float(np.max(np.abs(lhs - rhs))))
    return HadamardReport(
        max(kraus_dev, chan_dev), kraus_dev, chan_dev, kraus_dev < _ATOL
    )
