"""Squash channel mapping symmetric N-photon states to a qubit.

The channel is given by Kraus operators indexed by pairs (b, b') with
b - b' = 1 (mod 4),

    F[b,b'] = 2^(-(N-1)/2) * ( sqrt(C(N,b')) |1_y><S^y_b|
                             + sqrt(C(N,b))  |0_y><S^y_b'| ),

built in the y-labelled symmetric basis and stored here in the canonical
Z basis.  The family is trace preserving, reproduces the threshold-detector
sifted-bit statistics exactly (see :mod:`squashkit.povm`), and commutes
with the x-basis phase modulation up to a per-operator phase:

    F[b,b'] D(H) = OMEGA^(2b - N - 1) H F[b,b'],

which makes the channel invariant under conjugation by that modulation.
This module constructs the family and machine-checks all three properties.

The family holds about (N+1)^2/4 operators, kept as one read-only
(count, 2, N+1) stack in ``KrausChannel.ops``.  The channel is applied
through its Choi matrix, computed once per family and stored as the
4 x (N+1)^2 matrix that both contractions read, so each application (and
each Heisenberg pull-back) is one O((N+1)^2) matrix product rather than a
sum over the operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, sqrt

import numpy as np

from .symfock import (
    OMEGA,
    X_MODULATION,
    Basis,
    _stack_slices,
    basis_change_matrix,
    lift_gate,
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
    "random_density",
]

_TP_ATOL = 1e-10

#: Operators per batched product over a Kraus stack; bounds the size of
#: every temporary to one slice.
_SLICE = 128


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-preserving map as a finite Kraus family.

    Attributes
    ----------
    input_dim, output_dim : int
        Every operator is an output_dim x input_dim matrix.
    ops : ndarray
        The Kraus operators as one read-only (count, output_dim, input_dim)
        complex stack, a copy of any sequence of operators passed in.
    labels : tuple
        Per-operator metadata; for the squash family the index pair (b, b').

    The Choi matrix J[i, j, m, l] = sum_k K_k[i, j] conj(K_k[m, l]) is
    computed once at construction, summed over fixed slices of the family,
    and stored read-only as the (out*out, in*in) matrix C[(i, m), (j, l)]
    that both contractions read.  Applying the channel and pulling an
    operator back are each one matrix product with C, so they cost
    O(output_dim^2 input_dim^2) whatever the operator count.

    Channels compare by identity, and their repr leaves out the operators.
    """

    input_dim: int
    output_dim: int
    ops: np.ndarray = field(repr=False)
    labels: tuple = field(default=(), repr=False)
    _choi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ops = np.array(self.ops, dtype=complex)
        if ops.shape[1:] != (self.output_dim, self.input_dim):
            raise ValueError(
                f"Kraus operator shape {ops.shape[1:]} does not match "
                f"({self.output_dim}, {self.input_dim})"
            )
        if self.labels and len(self.labels) != len(ops):
            raise ValueError("labels length must match number of operators")
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)
        flat = ops.reshape(len(ops), -1)
        choi = np.zeros((flat.shape[1], flat.shape[1]), dtype=complex)
        for s in range(0, len(flat), _SLICE):
            choi += flat[s : s + _SLICE].T @ flat[s : s + _SLICE].conj()
        out, inp = self.output_dim, self.input_dim
        # J's axes (out, in, out, in) -> (out, out, in, in), copied once here
        choi = choi.reshape(out, inp, out, inp).swapaxes(1, 2).reshape(out * out, -1)
        choi.setflags(write=False)
        object.__setattr__(self, "_choi", choi)
        dev = np.max(np.abs(self.completeness_sum() - np.eye(self.input_dim)))
        if dev > _TP_ATOL:
            raise ValueError(f"channel is not trace preserving (deviation {dev:.3e})")

    def completeness_sum(self) -> np.ndarray:
        """Sum of K^dagger K over the family."""
        return self.pull_back(np.eye(self.output_dim))

    def pull_back(self, op: np.ndarray) -> np.ndarray:
        """Heisenberg-picture image sum_k K^dagger op K of an output operator.

        Pulling back an effect gives the input-space effect with the same
        Born probabilities as the original on the channel output; pulling
        back the identity gives the completeness sum.
        """
        # (K^dagger op K)[j, l] = sum_{i,m} conj(J[i, j, m, l]) op[i, m]
        inp = self.input_dim
        return (np.conj(op).reshape(-1) @ self._choi).conj().reshape(inp, inp)


@dataclass(frozen=True)
class CompletenessReport:
    """Operator-sum and closed-form-diagonal deviations, in verify row order."""

    max_deviation: float
    diag_formula_deviation: float


@dataclass(frozen=True)
class HadamardReport:
    """Covariance deviations in verify row order; the first is the max."""

    max_deviation: float
    kraus_max_deviation: float
    channel_max_deviation: float
    kraus_phase_ok: bool


def squash_index_pairs(n_photons: int) -> list[tuple[int, int]]:
    """All pairs (b, b') in [0, N]^2 with b - b' = 1 (mod 4).

    Python's % already returns a representative in [0, 4), so negative
    differences such as 0 - 3 are classified correctly.
    """
    return [
        (b, bp)
        for b in range(n_photons + 1)
        for bp in range(n_photons + 1)
        if (b - bp) % 4 == 1
    ]


def build_squash(n_photons: int) -> KrausChannel:
    """Construct the squash Kraus family for N incoming photons.

    The operators are assembled in the y-labelled symmetric basis, where
    the defining formula lives, then converted to the canonical Z basis on
    both sides.  Output space is the qubit; the operator list enumerates
    exactly the index pairs with b - b' = 1 (mod 4).

    Raises
    ------
    ValueError
        If N = 0; vacuum carries no click and is handled upstream as an
        inconclusive detection event.
    """
    if n_photons < 1:
        raise ValueError(f"squash requires N >= 1, got {n_photons}")
    n = n_photons
    frame_y = basis_change_matrix(1, Basis.Y, Basis.Z)  # qubit y-coords -> z-coords
    to_y = basis_change_matrix(n, Basis.Z, Basis.Y)  # input z-coords -> y-coords
    pairs = squash_index_pairs(n)
    b, bp = np.array(pairs).T
    w = 2.0 ** (-(n - 1) / 2.0) * np.array([sqrt(comb(n, k)) for k in range(n + 1)])
    # Row <0_y| of F[b,b'] is w[b] <S^y_b'|, row <1_y| is w[b'] <S^y_b|.
    # One expression, so the y stack is freed before the channel copies ops.
    ops = frame_y @ np.stack([w[b, None] * to_y[bp], w[bp, None] * to_y[b]], axis=1)
    return KrausChannel(
        input_dim=n + 1, output_dim=2, ops=ops, labels=tuple(pairs)
    )


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
    res = (channel._choi @ rho).reshape(out, out, *lead, alice_dim, alice_dim)
    res = res.transpose(*range(2, n_lead + 3), 0, n_lead + 3, 1)
    return res.reshape(*lead, alice_dim * out, alice_dim * out)


def verify_completeness(n_photons: int) -> CompletenessReport:
    """Check that the squash Kraus family sums to the identity.

    Two independent routes: the operator sum of K^dagger K against the
    identity in max-norm, and the closed-form diagonal

        f[b,b] = 2^(-(N-1)) * sum_{c : b-c = +-1 (mod 4)} C(N, c),

    every element of which must equal 1.
    """
    channel = build_squash(n_photons)
    n = n_photons
    dev = float(np.max(np.abs(channel.completeness_sum() - np.eye(n + 1))))
    diag_dev = 0.0
    for b in range(n + 1):
        total = sum(
            comb(n, c) for c in range(n + 1) if (b - c) % 4 in (1, 3)
        )
        diag_dev = max(diag_dev, abs(2.0 ** (-(n - 1)) * total - 1.0))
    return CompletenessReport(dev, float(diag_dev))


def random_density(
    dim: int, rng: np.random.Generator, size: tuple = ()
) -> np.ndarray:
    """Full-rank random density operators (normalized Wishart draws).

    Returns a (*size, dim, dim) stack.  Each operator takes its real and
    then its imaginary Gaussian part from `rng`, in stack order, so
    ``size=(k,)`` gives bit for bit the k operators that k successive
    single draws would.
    """
    x = rng.normal(size=(*size, 2, dim, dim))
    g = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def verify_hadamard_invariance(
    n_photons: int, trials: int = 50, seed: int = 0
) -> HadamardReport:
    """Check covariance of the squash family under the x-basis modulation.

    Operator level: F[b,b'] D(H) = OMEGA^(2b-N-1) H F[b,b'] entrywise for
    every pair.  Channel level: conjugating the input by the lifted
    modulation equals conjugating the output qubit by H, checked on
    `trials` random full-rank mixed states, drawn and applied as stacks
    in slices of bounded size.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    channel = build_squash(n_photons)
    n = n_photons
    lifted_h = lift_gate(X_MODULATION, n)
    ks = channel.ops
    phases = np.array([OMEGA ** (2 * b - n - 1) for b, _bp in channel.labels])
    kraus_dev = 0.0
    for start in range(0, len(ks), _SLICE):
        s = slice(start, start + _SLICE)
        diff = ks[s] @ lifted_h  # reduced in place: one slice temporary fewer
        diff -= phases[s, None, None] * (X_MODULATION @ ks[s])
        kraus_dev = max(kraus_dev, float(np.max(np.abs(diff))))
    rng = np.random.default_rng(seed)
    chan_dev = 0.0
    for s in _stack_slices(trials, (n + 1) ** 2):
        rho = random_density(n + 1, rng, size=(s.stop - s.start,))
        lhs = X_MODULATION @ apply_channel(channel, rho) @ X_MODULATION.conj().T
        rhs = apply_channel(channel, lifted_h @ rho @ lifted_h.conj().T)
        chan_dev = max(chan_dev, float(np.max(np.abs(lhs - rhs))))
    return HadamardReport(
        max(kraus_dev, chan_dev), kraus_dev, chan_dev, kraus_dev < _TP_ATOL
    )
