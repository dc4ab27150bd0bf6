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
simulations use, come from one builder, :func:`side_state_effects`, which
returns a block's z- and x-basis effects as one stack.  The two sides,
:func:`actual_povm` and :func:`virtual_povm`, are its ``actual`` and
``edp2`` z-basis bit effects, as plain (2, N+1, N+1) arrays.  Also
provided: the joint photon-number-block-diagonal state every attack hands
to the receivers (:class:`CompositeBlockState`, which is the attack
itself, explicit or returned by a named constructor of
:mod:`squashkit.protocol`), and the three-way click classification
(:func:`classify_click`) of a projective z outcome, on which the tests
enumerate the physical device's exact law.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

import numpy as np

from .squash import KrausChannel, build_squash
from .symfock import X_MODULATION, _modulation_lift

__all__ = [
    "ClickClass",
    "CompositeBlockState",
    "PovmEquivalenceReport",
    "SIDE_STATES",
    "VACUUM_STATE",
    "side_state_effects",
    "actual_povm",
    "virtual_povm",
    "verify_povm_equivalence",
    "classify_click",
    "validate_density",
]

#: What one receiver reports for a block, in the order of every effect
#: stack built by :func:`side_state_effects`: a bit, or vacuum (no bit).
SIDE_STATES = ("bit0", "bit1", "vacuum")
VACUUM_STATE = SIDE_STATES.index("vacuum")

# Weights of a fine outcome over the side states: one state, or either bit
# with probability 1/2 (a coincidence).
_ONE_STATE = np.eye(len(SIDE_STATES))
_EITHER_BIT = np.array([0.5, 0.5, 0.0])


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


def validate_density(rho: np.ndarray) -> np.ndarray:
    """A complex copy of a density operator, checked Hermitian, unit-trace and PSD.

    A 2-D array is a dense density operator.  A 1-D vector a stands for
    |a><a|, and a 3-D stack A of amplitude tables a_j (each the vector
    reshaped to the block's (m+1, n+1) table) for sum_j |a_j><a_j|: such a
    factor is returned as a factor, and only its trace ||A||_F^2 is checked,
    since the state it stands for is Hermitian and positive semidefinite by
    construction.  Each check fails on NaN, so a non-finite matrix or factor
    is rejected too.
    """
    rho = np.array(rho, dtype=complex)
    if rho.ndim in (1, 3):
        trace_dev = abs(np.vdot(rho, rho).real - 1.0)  # NaN for any inf entry
        if not trace_dev <= 1e-10:
            raise ValueError(f"density operator trace deviates by {trace_dev:.3e}")
        return rho
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density operator must be square, got shape {rho.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, rejected below
        herm_dev = np.max(np.abs(rho - rho.conj().T))
    if not herm_dev <= 1e-12:
        raise ValueError(f"density operator not Hermitian (deviation {herm_dev:.3e})")
    trace_dev = abs(np.trace(rho).real - 1.0)
    if not trace_dev <= 1e-10:
        raise ValueError(f"density operator trace deviates by {trace_dev:.3e}")
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if not min_eig >= -1e-10:
        raise ValueError(f"density operator has negative eigenvalue {min_eig:.3e}")
    return rho


def _pulled_back_bits(channel: KrausChannel) -> np.ndarray:
    """The qubit z projectors pulled back through `channel`, then those after the x modulation."""
    projectors = [g.T @ np.diag(e) @ g for g in (np.eye(2), X_MODULATION) for e in np.eye(2)]
    return np.array([channel.pull_back(p) for p in projectors])


def _detector_effects(flip: int, out: np.ndarray, mod: np.ndarray | None = None) -> np.ndarray:
    """Side-state effects of threshold detection after the gate `mod`, bits swapped by `flip`.

    sum_c weights[c, s] mod^T |c><c| mod, c photons on detector 1, for the first
    len(out) side states s, written into `out`; with no gate, onto its zeroed diagonal.
    """
    n = out.shape[-1] - 1
    weights = np.tile(_EITHER_BIT, (n + 1, 1))
    weights[0], weights[n] = _ONE_STATE[flip], _ONE_STATE[1 ^ flip]
    if mod is None:
        out.reshape(len(out), -1)[:, :: n + 2] = weights.T[: len(out)]
        return out
    return np.matmul(mod.T * weights.T[:, None, :], mod, out=out)


def side_state_effects(n_photons: int, mode: str) -> np.ndarray:
    """Effects of the side states of an N-photon block in both bases.

    One real (6, N+1, N+1) stack: the z-basis side states (bit 0, bit 1,
    vacuum), then the x-basis ones in the same order.  Per mode:

    * ``actual``: the lifted x modulation (x basis only), then threshold
      detection; all photons on one detector report its bit and a
      coincidence reports either bit with probability 1/2;
    * ``edp1``: the lifted modulation, the squash channel, the qubit z
      measurement;
    * ``edp2``: the squash channel, the modulation as a qubit gate, the
      qubit z measurement.

    Both bases come from at most one squash channel and symfock's one
    cached real lift K (the lifted modulation is K diag((-1)^b)).  An
    x-basis bit is the complement of the detector label.  A zero-photon
    block reports vacuum in every mode and basis.  At N = 1 every mode is
    the projective qubit measurement of each basis (``actual`` exactly, the
    squash modes to rounding).
    """
    if mode not in ("actual", "edp1", "edp2"):
        raise ValueError(f"mode must be 'actual', 'edp1' or 'edp2', got {mode!r}")
    n = n_photons
    states = len(SIDE_STATES)
    out = np.zeros((2 * states, n + 1, n + 1))
    if n == 0:
        out[:, 0, 0] = np.tile(_ONE_STATE[VACUUM_STATE], 2)
    elif mode == "actual":
        _detector_effects(0, out[:states])
        _detector_effects(1, out[states:], _modulation_lift(n))
    else:
        bits = _pulled_back_bits(build_squash(n))
        if mode == "edp1":  # the unmodulated projectors, after the lifted modulation
            mod = _modulation_lift(n)
            bits[2:] = mod.T @ bits[:2] @ mod
        out[[0, 1, states + 1, states]] = bits  # x bit 0 is detector label 1
    return out


def actual_povm(n_photons: int) -> np.ndarray:
    """Sifted-bit effects of the physical threshold-detector unit, shape (2, N+1, N+1).

    Effect i is the projector onto all N photons hitting detector i plus
    half of every coincidence projector; the halves encode the uniformly
    random bit assigned to coincidence counts.  Z-diagonal by construction.
    """
    if n_photons < 1:
        raise ValueError(f"actual_povm requires N >= 1, got {n_photons}")
    # the z-basis branch alone: from N = 36 the (6, N+1, N+1) stack crosses glibc's
    # 128 KiB mmap threshold, and freeing it raises the threshold and the resident heap
    dim = n_photons + 1
    return _detector_effects(0, np.zeros((VACUUM_STATE, dim, dim)))


def virtual_povm(channel: KrausChannel) -> np.ndarray:
    """Qubit z measurement pulled back through `channel`, as the builder's edp2 z branch."""
    return _pulled_back_bits(channel)[:2]


@dataclass(frozen=True)
class PovmEquivalenceReport:
    """Effect deviations in verify row order; the first is the max."""

    max_deviation: float
    max_dev_bit0: float
    max_dev_bit1: float
    max_dev_z: float


def verify_povm_equivalence(channel: KrausChannel) -> PovmEquivalenceReport:
    """Max-norm deviations between the detector POVM and its squash twin.

    Checks both sifted-bit effects and the Z-operator form
    P(all on 0) - P(all on 1)  vs  sum F^dagger Z F, at N = input_dim - 1.
    """
    ac = actual_povm(channel.input_dim - 1)
    vi = virtual_povm(channel)
    dev0, dev1 = (float(d) for d in np.max(np.abs(ac - vi), axis=(1, 2)))
    # sum F^dagger Z F is the difference of the pulled-back bit effects
    dev_z = float(np.max(np.abs((ac[0] - ac[1]) - (vi[0] - vi[1]))))
    return PovmEquivalenceReport(max(dev0, dev1, dev_z), dev0, dev1, dev_z)


def _photon_numbers(item: tuple) -> tuple[int, int]:
    """Sort key of a block item: its key, checked to be a pair (m, n) >= 0."""
    key = item[0]
    if not (
        isinstance(key, tuple)
        and len(key) == 2
        and all(isinstance(k, numbers.Integral) and k >= 0 for k in key)
    ):
        raise ValueError(f"block key must be a pair (m, n) of ints >= 0, got {key!r}")
    return key


@dataclass(frozen=True, eq=False)
class CompositeBlockState:
    """Joint photon-number-block-diagonal state on (left side) x (right side).

    Keys are photon-number pairs (m, n); each block holds a weight and a
    read-only state on the (m+1)(n+1)-dimensional product of symmetric
    subspaces, in one of two forms.  A dense density operator is a 2-D
    array, as a ``fixed_block`` attack gives it.  A factor is a stack of r
    amplitude vectors a_j standing for rho = sum_j |a_j><a_j|: a 1-D state
    vector (r = 1, as a ``custom`` attack gives it), or an (r, m+1, n+1)
    stack of amplitude tables, as the named constructors of
    :mod:`squashkit.protocol` build it.  A factor costs r(m+1)(n+1) entries,
    not their square, and is checked by its trace alone (see
    :func:`validate_density`).  Every block is copied once, so the caller's
    arrays stay its own.  ``spec``, when set, is the description a named
    attack was made from (its kind and parameters), which
    :func:`squashkit.protocol.attack_to_dict` echoes in place of the
    blocks.  Two states are equal when their weights and density
    operators are, whatever their ``spec``: a factor is compared through
    the density operator it stands for.
    """

    blocks: Mapping[tuple[int, int], tuple[float, np.ndarray]]
    spec: Optional[dict] = None

    def __post_init__(self) -> None:
        cleaned = {}
        total = 0.0
        for (m, n), (w, rho) in sorted(self.blocks.items(), key=_photon_numbers):
            if not w >= -1e-12:
                raise ValueError(f"block weight must be >= 0, got {w}")
            rho = validate_density(rho)
            shape, want = ((rho.shape[1:], (m + 1, n + 1)) if rho.ndim == 3
                           else (rho.shape[0], (m + 1) * (n + 1)))
            if shape != want:
                raise ValueError(f"block ({m}, {n}) has dimension {shape}, expected {want}")
            rho.setflags(write=False)
            cleaned[(m, n)] = (float(w), rho)
            total += w
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"block weights sum to {total}, expected 1")
        object.__setattr__(self, "blocks", cleaned)

    def density(self, key: tuple[int, int]) -> np.ndarray:
        """The density operator of block `key`; a factor's sum of outer products is built."""
        rho = self.blocks[key][1]
        if rho.ndim == 2:
            return rho
        first, *rest = rho.reshape(len(rho), -1) if rho.ndim == 3 else [rho]
        return sum((np.outer(a, a.conj()) for a in rest), np.outer(first, first.conj()))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.blocks.keys() == other.blocks.keys() and all(
            w == other.blocks[key][0] and np.array_equal(self.density(key), other.density(key))
            for key, (w, _) in self.blocks.items()
        )
