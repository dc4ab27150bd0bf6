"""Threshold-detector measurement models and their squash-channel twin.

A two-detector threshold unit resolves an N-photon symmetric state only
into vacuum, a single-detector click (all photons on one side), or a
coincidence; on coincidence the receiver assigns a uniformly random bit.
The induced two-outcome POVM on the N-photon block is

    P_ac[i] = P(all photons on detector i) + 1/2 * (coincidence projectors),

and the central identity checked here is that it coincides exactly with
the pull-back of the qubit z measurement through the squash channel,

    P_vi[i] = sum_{b,b'} F[b,b']^dagger |i_z><i_z| F[b,b'].

Both sides of the identity, and every measurement model the protocol
simulations use, come from one builder, :func:`side_state_effects`.  Also
provided: the QND photon-number block decomposition used to reduce
arbitrary incoming states to per-block density operators, and the sampled
one-event device model (:func:`detect_event`) that the simulations are
cross-checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Union

import numpy as np

from .squash import build_squash
from .symfock import X_MODULATION, lift_gate

__all__ = [
    "Outcome",
    "ClickClass",
    "Povm",
    "BlockState",
    "CompositeBlockState",
    "PovmEquivalenceReport",
    "SIDE_STATES",
    "VACUUM_STATE",
    "side_state_effects",
    "actual_povm",
    "virtual_povm",
    "verify_povm_equivalence",
    "qnd_split",
    "detect_event",
    "classify_click",
    "modulated_block",
    "validate_density",
]

_EFFECT_ATOL = 1e-10

#: What one receiver reports for a block, in the order of every effect
#: stack built by :func:`side_state_effects`: a bit, or vacuum (no bit).
SIDE_STATES = ("bit0", "bit1", "vacuum")
VACUUM_STATE = SIDE_STATES.index("vacuum")

# Weights of a fine outcome over the side states: one state, or either bit
# with probability 1/2 (a coincidence, or a vacuum that draws a random bit).
_ONE_STATE = np.eye(len(SIDE_STATES))
_EITHER_BIT = np.array([0.5, 0.5, 0.0])


class Outcome(Enum):
    """Result of one detection event after coincidence randomization."""

    BIT0 = 0
    BIT1 = 1
    VACUUM = "vacuum"


class ClickClass(Enum):
    """Raw three-way threshold-detector classification of a z outcome."""

    SINGLE0 = "single0"
    SINGLE1 = "single1"
    COINCIDENCE = "coincidence"
    VACUUM = "vacuum"


def classify_click(b: int, n_photons: int) -> ClickClass:
    """Classify the projective z outcome with b photons in the "1" mode."""
    if not 0 <= b <= n_photons:
        raise ValueError(f"b must satisfy 0 <= b <= {n_photons}, got {b}")
    if n_photons == 0:
        return ClickClass.VACUUM
    if b == 0:
        return ClickClass.SINGLE0
    if b == n_photons:
        return ClickClass.SINGLE1
    return ClickClass.COINCIDENCE


def validate_density(rho: np.ndarray, *, atol_trace: float = 1e-10) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a density operator.

    Each check fails on NaN, so a non-finite matrix is rejected too.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density operator must be square, got shape {rho.shape}")
    herm_dev = np.max(np.abs(rho - rho.conj().T))
    if not herm_dev <= 1e-12:
        raise ValueError(f"density operator not Hermitian (deviation {herm_dev:.3e})")
    trace_dev = abs(np.trace(rho).real - 1.0)
    if not trace_dev <= atol_trace:
        raise ValueError(f"density operator trace deviates by {trace_dev:.3e}")
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if not min_eig >= -1e-10:
        raise ValueError(f"density operator has negative eigenvalue {min_eig:.3e}")
    return rho


@dataclass(frozen=True)
class Povm:
    """Positive effects summing to the identity, with outcome labels."""

    dim: int
    effects: np.ndarray
    labels: tuple

    def __post_init__(self) -> None:
        effects = np.array(self.effects, dtype=complex)
        if len(effects) != len(self.labels):
            raise ValueError("one label per effect required")
        if effects.shape[1:] != (self.dim, self.dim):
            raise ValueError(
                f"effect shape {effects.shape[1:]} != ({self.dim}, {self.dim})"
            )
        if np.max(np.abs(effects - effects.conj().transpose(0, 2, 1))) > _EFFECT_ATOL:
            raise ValueError("effect is not Hermitian")
        if np.min(np.linalg.eigvalsh(effects)[:, 0]) < -_EFFECT_ATOL:
            raise ValueError("effect is not positive semidefinite")
        dev = np.max(np.abs(effects.sum(axis=0) - np.eye(self.dim)))
        if dev > _EFFECT_ATOL:
            raise ValueError(f"effects do not sum to identity (deviation {dev:.3e})")
        effects.setflags(write=False)
        object.__setattr__(self, "effects", effects)

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        """Born probabilities of every outcome on a state."""
        return np.einsum("kij,ji->k", self.effects, rho).real


def side_state_effects(
    n_photons: int, mode: str, basis_is_x: bool, vacuum_random_bit: bool = False
) -> np.ndarray:
    """Effects of the side states (bit 0, bit 1, vacuum) of an N-photon block.

    One (3, N+1, N+1) stack for a receiver measuring in the z or x basis:

    * ``actual``: the lifted x modulation (x basis only), then threshold
      detection; all photons on one detector report its bit and a
      coincidence reports either bit with probability 1/2;
    * ``edp1``: the lifted modulation, the squash channel, the qubit z
      measurement;
    * ``edp2``: the squash channel, the modulation as a qubit gate, the
      qubit z measurement.

    An x-basis bit is the complement of the detector label.  A zero-photon
    block reports vacuum, or either bit with probability 1/2 under
    ``vacuum_random_bit``.  At N = 1 every mode is the projective qubit
    measurement of its basis (``actual`` exactly, the squash modes to
    rounding).
    """
    n = n_photons
    flip = int(basis_is_x)
    if n == 0:
        row = _EITHER_BIT if vacuum_random_bit else _ONE_STATE[VACUUM_STATE]
        weights, fine = row[None], np.ones((1, 1, 1), dtype=complex)
    elif mode == "actual":
        # fine z outcome c (c photons on detector 1): mod^dagger |c><c| mod
        mod = lift_gate(X_MODULATION, n) if basis_is_x else np.eye(n + 1)
        weights = np.tile(_EITHER_BIT, (n + 1, 1))
        weights[0], weights[n] = _ONE_STATE[flip], _ONE_STATE[1 ^ flip]
        fine = np.einsum("ci,cj->cij", mod.conj(), mod)
    elif mode in ("edp1", "edp2"):
        channel = build_squash(n)
        projs = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        if mode == "edp2" and basis_is_x:
            projs = [X_MODULATION.conj().T @ proj @ X_MODULATION for proj in projs]
        fine = np.array([channel.pull_back(proj) for proj in projs])
        if mode == "edp1" and basis_is_x:
            mod = lift_gate(X_MODULATION, n)
            fine = mod.conj().T @ fine @ mod
        weights = _ONE_STATE[[flip, 1 ^ flip]]
    else:
        raise ValueError(f"mode must be 'actual', 'edp1' or 'edp2', got {mode!r}")
    return np.einsum("ps,pij->sij", weights, fine)


def actual_povm(n_photons: int) -> Povm:
    """Sifted-bit POVM of the physical threshold-detector unit.

    Effect i is the projector onto all N photons hitting detector i plus
    half of every coincidence projector; the halves encode the uniformly
    random bit assigned to coincidence counts.  Z-diagonal by construction.
    """
    if n_photons < 1:
        raise ValueError(f"actual_povm requires N >= 1, got {n_photons}")
    effects = side_state_effects(n_photons, "actual", False)[:VACUUM_STATE]
    return Povm(n_photons + 1, effects, SIDE_STATES[:VACUUM_STATE])


def virtual_povm(n_photons: int) -> Povm:
    """Qubit z measurement pulled back through the squash channel."""
    if n_photons < 1:
        raise ValueError(f"virtual_povm requires N >= 1, got {n_photons}")
    effects = side_state_effects(n_photons, "edp2", False)[:VACUUM_STATE]
    return Povm(n_photons + 1, effects, SIDE_STATES[:VACUUM_STATE])


@dataclass(frozen=True)
class PovmEquivalenceReport:
    """Effect deviations in verify row order; the first is the max."""

    max_deviation: float
    max_dev_bit0: float
    max_dev_bit1: float
    max_dev_z: float


def verify_povm_equivalence(n_photons: int) -> PovmEquivalenceReport:
    """Max-norm deviations between the detector POVM and its squash twin.

    Checks both sifted-bit effects and the Z-operator form
    P(all on 0) - P(all on 1)  vs  sum F^dagger Z F.
    """
    ac = actual_povm(n_photons).effects
    vi = virtual_povm(n_photons).effects
    dev0, dev1 = (float(d) for d in np.max(np.abs(ac - vi), axis=(1, 2)))
    # sum F^dagger Z F is the difference of the pulled-back bit effects
    dev_z = float(np.max(np.abs((ac[0] - ac[1]) - (vi[0] - vi[1]))))
    return PovmEquivalenceReport(max(dev0, dev1, dev_z), dev0, dev1, dev_z)


class _BlockDiagonalState:
    """Validation and content equality shared by the block-state classes.

    ``blocks`` maps a photon number, or a tuple of photon numbers (one per
    side), to a weight and a density operator on the product of the
    symmetric subspaces.
    """

    def __post_init__(self) -> None:
        cleaned = {}
        total = 0.0
        for key, (w, rho) in sorted(self.blocks.items()):
            joint = isinstance(key, tuple)
            numbers = key if joint else (key,)
            label = f"({', '.join(map(str, numbers))})" if joint else str(key)
            if min(numbers) < 0:
                raise ValueError(f"photon number{'s' * joint} must be >= 0, got {label}")
            if not w >= -1e-12:
                raise ValueError(f"block weight must be >= 0, got {w}")
            rho = validate_density(rho)
            dim = math.prod(k + 1 for k in numbers)
            if rho.shape[0] != dim:
                raise ValueError(
                    f"block {label} has dimension {rho.shape[0]}, expected {dim}"
                )
            rho.setflags(write=False)
            cleaned[key] = (float(w), rho)
            total += w
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"block weights sum to {total}, expected 1")
        object.__setattr__(self, "blocks", cleaned)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.blocks.keys() == other.blocks.keys() and all(
            w == other.blocks[key][0] and np.array_equal(rho, other.blocks[key][1])
            for key, (w, rho) in self.blocks.items()
        )


@dataclass(frozen=True, eq=False)
class BlockState(_BlockDiagonalState):
    """Photon-number-block-diagonal state: N -> (weight, density on dim N+1)."""

    blocks: Mapping[int, tuple[float, np.ndarray]]


@dataclass(frozen=True, eq=False)
class CompositeBlockState(_BlockDiagonalState):
    """Joint photon-number-block-diagonal state on (left side) x (right side).

    Keys are photon-number pairs (m, n); each block holds a weight and a
    density operator on the (m+1)(n+1)-dimensional product of symmetric
    subspaces.
    """

    blocks: Mapping[tuple[int, int], tuple[float, np.ndarray]]


def _fock_truncation_blocks(rho: np.ndarray) -> dict[int, np.ndarray]:
    """Slice a direct-sum Fock-truncation matrix into photon-number blocks."""
    dim = rho.shape[0]
    blocks = {}
    offset = 0
    n = 0
    while offset < dim:
        size = n + 1
        if offset + size > dim:
            raise ValueError(
                f"matrix dimension {dim} is not a Fock truncation "
                "(expected 1 + 2 + ... + (n_max+1))"
            )
        blocks[n] = rho[offset : offset + size, offset : offset + size]
        offset += size
        n += 1
    return blocks


def qnd_split(
    state: Union[np.ndarray, BlockState, Mapping[int, np.ndarray]],
) -> BlockState:
    """Decompose a state into normalized photon-number blocks.

    Accepts a density operator on a Fock truncation (direct sum of the
    N = 0, 1, 2, ... symmetric subspaces, so total dimension
    1 + 2 + ... + (n_max + 1)), a mapping from photon number to
    unnormalized block matrices, or an existing :class:`BlockState`.
    Off-block coherences are discarded (the measurement decoheres photon
    number), block weights are the block traces, and each surviving block
    is renormalized to unit trace.
    """
    if isinstance(state, BlockState):
        raw = {n: w * rho for n, (w, rho) in state.blocks.items()}
    elif isinstance(state, Mapping):
        raw = {int(n): np.asarray(b, dtype=complex) for n, b in state.items()}
    else:
        rho = np.asarray(state, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {rho.shape}")
        raw = _fock_truncation_blocks(rho)
    weights = {n: float(np.trace(b).real) for n, b in raw.items()}
    total = sum(weights.values())
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"total trace {total} deviates from 1 by more than 1e-8")
    blocks = {}
    for n, b in raw.items():
        w = weights[n]
        if w <= 1e-15:
            continue
        blocks[n] = (w / total, b / np.trace(b).real)
    return BlockState(blocks)


def detect_event(
    n_photons: int,
    rho: np.ndarray,
    basis_gate_applied: bool,
    rng: np.random.Generator,
    *,
    vacuum_random_bit: bool = False,
) -> Outcome:
    """Sample one threshold-detection event from an N-photon block state.

    Simulates the physical device: a projective z measurement onto the
    symmetric basis is sampled from the diagonal of `rho`, the fine
    outcome is classified as vacuum / single click / coincidence, and a
    coincidence is replaced by a fair random bit.  The marginal law of
    BIT0/BIT1 therefore equals the Born probabilities of
    :func:`actual_povm` (a fact the tests check, not assume).

    When `basis_gate_applied` is true, `rho` is expected to already carry
    the lifted x-basis modulation; the reported bit is then inverted,
    because the modulation maps |j_x> onto |(1-j)_z> so the detector label
    is the complement of the x-basis bit.

    Vacuum is an inconclusive outcome excluded from sifting unless
    `vacuum_random_bit` asks for a random bit instead.
    """
    if n_photons == 0:
        if not vacuum_random_bit:
            return Outcome.VACUUM
        bit = int(rng.random() < 0.5)
        if basis_gate_applied:
            bit ^= 1
        return Outcome.BIT0 if bit == 0 else Outcome.BIT1
    rho = np.asarray(rho, dtype=complex)
    probs = np.clip(np.diag(rho).real, 0.0, None)
    cdf = np.cumsum(probs)
    if cdf[-1] <= 0.0:
        raise ValueError("state has no probability mass on its diagonal")
    u = rng.random() * cdf[-1]
    b = int(min(np.searchsorted(cdf, u, side="right"), n_photons))
    kind = classify_click(b, n_photons)
    if kind is ClickClass.SINGLE0:
        bit = 0
    elif kind is ClickClass.SINGLE1:
        bit = 1
    else:
        bit = int(rng.random() < 0.5)
    if basis_gate_applied:
        bit ^= 1
    return Outcome.BIT0 if bit == 0 else Outcome.BIT1


def modulated_block(rho: np.ndarray, n_photons: int) -> np.ndarray:
    """Conjugate an N-photon block by the lifted x-basis modulation."""
    d = lift_gate(X_MODULATION, n_photons)
    return d @ np.asarray(rho, dtype=complex) @ d.conj().T
