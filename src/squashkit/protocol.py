"""BB84 and BBM92 simulation against adversarial multi-photon sources.

Three interchangeable views of each protocol are implemented:

* ``actual``: receivers phase-modulate per their random basis choice and
  run threshold detection, so coincidences become random bits;
* ``edp1``: the incoming block is phase-modulated, squashed to a qubit,
  then z-measured;
* ``edp2``: the block is squashed first and the modulation is applied as a
  qubit gate before the z measurement.

All three produce identical sifted-bit statistics for every source state;
that equality is the security statement this package exists to check, and
it is validated both on exact Born probabilities and by Monte Carlo.

Each view is a stack of effects per receiver, coarse-grained onto the
side states the protocol reports: bit 0, bit 1 or vacuum, with a
coincidence reporting either bit with probability 1/2.  One builder,
:func:`squashkit.povm.side_state_effects`, makes every stack, BB84's
one-photon sender included.  One Born kernel turns the two stacks and a
joint block into the exact law over (basis pair, block, sender state,
receiver state).  The exact law (:func:`exact_sifted_distribution`) and
the Monte Carlo tallies are the same reduction of that table, applied to
probabilities and to counts, so the engine and the law cannot drift
apart.  The law itself is pinned by a sequential replay of the physical
device built on :func:`squashkit.povm.detect_event`, which shares no code
with the builder or the kernel; by the detector/squash POVM identity,
which compares the builder's detector branch
(:func:`squashkit.povm.actual_povm`) with its squash branch
(:func:`squashkit.povm.virtual_povm`); and by closed-form error rates of
the shipped attacks.

The adversary hands out an arbitrary photon-number-block-diagonal joint
state (:class:`squashkit.povm.CompositeBlockState`); some standard attack
families are shipped as named constructors.  The Monte Carlo engine,
:func:`run_simulation`, samples counts, not rounds: each fixed-size chunk
of trials is one multinomial draw over the table from its own
counter-offset Philox stream, and the run is reported as the count
tallies of a :class:`SimResult`.  Runs are reproducible bit for bit from
(config, seed) and cost memory independent of the number of trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import log2
from typing import Optional, Union

import numpy as np

from .povm import SIDE_STATES, VACUUM_STATE, CompositeBlockState, side_state_effects
from .symfock import Basis, projector, qubit_frame, sym_basis_state

__all__ = [
    "Depolarize",
    "InterceptResend",
    "CoincidenceInjection",
    "FixedBlockState",
    "CustomState",
    "AttackSpec",
    "attack_from_dict",
    "attack_to_dict",
    "SimResult",
    "bell_state",
    "eve_state",
    "binary_entropy",
    "key_rate",
    "exact_error_rates",
    "exact_sifted_distribution",
    "run_simulation",
    "CHUNK_TRIALS",
]

MODES = ("actual", "edp1", "edp2")
PROTOCOLS = ("bb84", "bbm92")

#: Trials per Monte Carlo chunk: one multinomial draw, one Philox stream.
#: Public because ``perfbench/run.py --trace 1`` imports it to count chunks.
CHUNK_TRIALS = 1 << 20

# Basis pairs (alice, bob) in sampling order; Z/X per party.
_PAIRS = ((False, False), (False, True), (True, False), (True, True))


# ---------------------------------------------------------------------------
# attack specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Depolarize:
    """Bell pair mixed with white noise in the single-photon block."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"depolarizing probability must be in [0, 1], got {self.p}")


@dataclass(frozen=True)
class InterceptResend:
    """Eve measures the flying qubit in a random z/x basis and resends."""


@dataclass(frozen=True)
class CoincidenceInjection:
    """Maximally mixed reference qubit with a fixed coincidence state sent on.

    Bob receives the N-photon symmetric state with c photons on one
    detector and N-c on the other, which always fires both detectors.
    """

    n_photons: int
    c: int

    def __post_init__(self) -> None:
        if self.n_photons < 2:
            raise ValueError("coincidence injection needs N >= 2")
        if not 1 <= self.c <= self.n_photons - 1:
            raise ValueError(
                f"c must lie strictly between 0 and N = {self.n_photons}, got {self.c}"
            )


@dataclass(frozen=True)
class FixedBlockState:
    """Adversary hands out an explicitly specified joint block state."""

    state: CompositeBlockState


@dataclass(frozen=True)
class CustomState:
    """Pure-state amplitude table per joint photon-number block.

    ``blocks`` is a sequence of (m, n, weight, amps) with amps a complex
    vector of length (m+1)(n+1).
    """

    blocks: tuple

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("custom attack requires at least one block")
        frozen = []
        for m, n, w, amps in self.blocks:
            amps = np.asarray(amps, dtype=complex)
            if amps.shape != ((m + 1) * (n + 1),):
                raise ValueError(
                    f"block ({m}, {n}) amplitude vector has length {amps.size}, "
                    f"expected {(m + 1) * (n + 1)}"
                )
            norm = np.linalg.norm(amps)
            if not abs(norm - 1.0) <= 1e-9:
                raise ValueError(f"block ({m}, {n}) amplitudes not normalized")
            amps.setflags(write=False)
            frozen.append((int(m), int(n), float(w), amps))
        object.__setattr__(self, "blocks", tuple(frozen))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CustomState):
            return NotImplemented
        return len(self.blocks) == len(other.blocks) and all(
            mine[:3] == theirs[:3] and np.array_equal(mine[3], theirs[3])
            for mine, theirs in zip(self.blocks, other.blocks)
        )

    @cached_property
    def _block_state(self) -> CompositeBlockState:
        # Built and validated once per attack: the CLI checks the attack
        # through eve_state before run_simulation calls it again.
        blocks = {}
        for m, n, w, amps in self.blocks:
            if (m, n) in blocks:
                raise ValueError(f"duplicate block ({m}, {n}) in custom attack")
            blocks[(m, n)] = (w, np.outer(amps, amps.conj()))
        return CompositeBlockState(blocks)


AttackSpec = Union[
    Depolarize, InterceptResend, CoincidenceInjection, FixedBlockState, CustomState
]


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat)]


def _matrix_from_json(data: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def attack_to_dict(attack: AttackSpec) -> dict:
    """JSON-ready description of an attack; inverse of :func:`attack_from_dict`."""
    if isinstance(attack, Depolarize):
        return {"kind": "depolarize", "p": attack.p}
    if isinstance(attack, InterceptResend):
        return {"kind": "intercept_resend"}
    if isinstance(attack, CoincidenceInjection):
        return {
            "kind": "coincidence_injection",
            "n_photons": attack.n_photons,
            "c": attack.c,
        }
    if isinstance(attack, FixedBlockState):
        return {
            "kind": "fixed_block",
            "blocks": [
                {"m": m, "n": n, "weight": w, "rho": _matrix_to_json(rho)}
                for (m, n), (w, rho) in attack.state.blocks.items()
            ],
        }
    if isinstance(attack, CustomState):
        return {
            "kind": "custom",
            "blocks": [
                {
                    "m": m,
                    "n": n,
                    "weight": w,
                    "amps": [[float(a.real), float(a.imag)] for a in amps],
                }
                for m, n, w, amps in attack.blocks
            ],
        }
    raise TypeError(f"unknown attack type {type(attack).__name__}")


def attack_from_dict(data: dict) -> AttackSpec:
    """Parse an attack description (the CLI's ``--attack`` JSON payload)."""
    try:
        kind = data["kind"]
    except (TypeError, KeyError):
        raise ValueError("attack spec must be an object with a 'kind' field")
    if kind == "depolarize":
        return Depolarize(p=float(data["p"]))
    if kind == "intercept_resend":
        return InterceptResend()
    if kind == "coincidence_injection":
        return CoincidenceInjection(
            n_photons=int(data["n_photons"]), c=int(data["c"])
        )
    if kind == "fixed_block":
        blocks = {}
        for item in data["blocks"]:
            m, n = int(item["m"]), int(item["n"])
            blocks[(m, n)] = (float(item["weight"]), _matrix_from_json(item["rho"]))
        return FixedBlockState(CompositeBlockState(blocks))
    if kind == "custom":
        blocks = []
        for item in data["blocks"]:
            amps = np.array([complex(re, im) for re, im in item["amps"]])
            blocks.append((int(item["m"]), int(item["n"]), float(item["weight"]), amps))
        return CustomState(tuple(blocks))
    raise ValueError(f"unknown attack kind {kind!r}")


# ---------------------------------------------------------------------------
# source states
# ---------------------------------------------------------------------------


def bell_state() -> np.ndarray:
    """Projector onto (|00> + |11>)/sqrt(2)."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def eve_state(attack: AttackSpec) -> CompositeBlockState:
    """Joint block-diagonal state the adversary hands to the two parties.

    For BB84 the left factor is the sender's virtual reference qubit
    (photon number 1); for BBM92 both factors are incoming pulses.
    """
    if isinstance(attack, Depolarize):
        rho = (1.0 - attack.p) * bell_state() + attack.p * np.eye(4) / 4.0
        return CompositeBlockState({(1, 1): (1.0, rho)})
    if isinstance(attack, InterceptResend):
        rho = np.zeros((4, 4), dtype=complex)
        for basis in (Basis.Z, Basis.X):
            for v in qubit_frame(basis).T:
                vv = np.outer(v, v).ravel()  # |v>|v>
                rho += 0.25 * np.outer(vv, vv.conj())
        return CompositeBlockState({(1, 1): (1.0, rho)})
    if isinstance(attack, CoincidenceInjection):
        bob = projector(sym_basis_state(attack.n_photons, attack.c))
        d = attack.n_photons + 1
        rho = np.zeros((2 * d, 2 * d), dtype=complex)
        rho[:d, :d] = rho[d:, d:] = bob / 2.0  # maximally mixed reference qubit
        return CompositeBlockState({(1, attack.n_photons): (1.0, rho)})
    if isinstance(attack, FixedBlockState):
        return attack.state
    if isinstance(attack, CustomState):
        return attack._block_state
    raise TypeError(f"unknown attack type {type(attack).__name__}")


# ---------------------------------------------------------------------------
# key rate
# ---------------------------------------------------------------------------


def binary_entropy(e: float) -> float:
    """Binary entropy in bits; 0 at the endpoints."""
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"entropy argument must be in [0, 1], got {e}")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * log2(e) - (1.0 - e) * log2(1.0 - e)


def key_rate(e_bit: float, e_ph: float, single_photon_fraction: float = 1.0) -> float:
    """One-way secret key rate 1 - H2(e_bit) - H2(e_ph), clamped at zero.

    Both error rates must lie in [0, 1/2].  The optional fraction scales
    the rate by the trusted single-photon part of the source.
    """
    for name, e in (("e_bit", e_bit), ("e_ph", e_ph)):
        if not 0.0 <= e <= 0.5:
            raise ValueError(f"{name} must be in [0, 0.5], got {e}")
    if not 0.0 <= single_photon_fraction <= 1.0:
        raise ValueError(
            f"single_photon_fraction must be in [0, 1], got {single_photon_fraction}"
        )
    rate = 1.0 - binary_entropy(e_bit) - binary_entropy(e_ph)
    return single_photon_fraction * max(0.0, rate)


# ---------------------------------------------------------------------------
# argument checks
# ---------------------------------------------------------------------------


def _require_bb84_blocks(state: CompositeBlockState) -> None:
    bad = [key for key in state.blocks if key[0] != 1]
    if bad:
        raise ValueError(
            f"BB84 requires the sender side to be a single qubit; got blocks {bad}"
        )


# ---------------------------------------------------------------------------
# exact Born-probability laws
# ---------------------------------------------------------------------------


def _born(a_effects: np.ndarray, b_effects: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr[(E_p tensor F_q) rho] for every pair of stacked effects E_p, F_q."""
    da, db = a_effects.shape[1], b_effects.shape[1]
    # rho[(j, l), (i, k)] regrouped as [(i, j), (k, l)], matching E[i, j] F[k, l]
    rho_t = rho.reshape(da, db, da, db).transpose(2, 0, 3, 1).reshape(da * da, db * db)
    a = a_effects.reshape(len(a_effects), -1)
    b = b_effects.reshape(len(b_effects), -1)
    return (a @ rho_t @ b.T).real


def _table(
    attack: AttackSpec, protocol: str, mode: str, vacuum_random_bit: bool
) -> tuple[list, np.ndarray]:
    """Exact per-round law over (basis pair, block, sender state, receiver state).

    Returns ``(block_keys, cells)``, the checked category table of one
    (attack, protocol, mode).  ``cells`` has shape (4, K, 3, 3) for the K
    blocks of ``block_keys``: basis pairs in ``_PAIRS`` order, blocks in
    state order, side states in :data:`squashkit.povm.SIDE_STATES` order
    (bit 0, bit 1, vacuum).  One Born-kernel call fills each (basis pair,
    block) from the two sides' :func:`squashkit.povm.side_state_effects`
    stacks.  BB84's sender is a one-photon block measured in ``actual``
    mode, which at one photon is exactly the projective qubit measurement.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    state = eve_state(attack)
    if protocol == "bb84":
        _require_bb84_blocks(state)
    sender_mode = "actual" if protocol == "bb84" else mode
    effects = cache(side_state_effects)  # per build: no process-wide cache
    states = len(SIDE_STATES)
    cells = np.zeros((len(_PAIRS), len(state.blocks), states, states))
    for p_i, (a_x, b_x) in enumerate(_PAIRS):
        for k_i, ((m, n), (w, rho)) in enumerate(state.blocks.items()):
            if w == 0.0:
                continue
            ea = effects(m, sender_mode, a_x, vacuum_random_bit)
            eb = effects(n, mode, b_x, vacuum_random_bit)
            cells[p_i, k_i] = np.maximum(0.25 * w * _born(ea, eb, rho), 0.0)
    return list(state.blocks), cells


def exact_sifted_distribution(
    attack: AttackSpec,
    protocol: str = "bb84",
    mode: str = "actual",
    *,
    vacuum_random_bit: bool = False,
) -> dict:
    """Exact per-round outcome law, no sampling.

    Returns a dict with keys ``"vacuum"``, ``"mismatch"`` and
    ``(basis, bit_a, bit_b)`` for basis in {"z", "x"}; values sum to 1.
    A round is vacuum when either receiver's block carries zero photons
    (unless vacuum draws a random bit instead).  The law is the marginal
    of the category table the Monte Carlo engine samples from.
    """
    _, cells = _table(attack, protocol, mode, vacuum_random_bit)
    vacuum, mismatch, sifted, _ = _marginals(cells)
    law = {"vacuum": float(vacuum), "mismatch": float(mismatch)}
    for b_i, basis in enumerate("zx"):
        for a in (0, 1):
            for b in (0, 1):
                law[(basis, a, b)] = float(sifted[b_i, a, b])
    return law


def exact_error_rates(attack: AttackSpec, protocol: str = "bb84") -> tuple[float, float]:
    """Exact bit and phase error rates of the squashed qubit pair.

    The z-z and x-x disagreement probabilities of the sifted rounds of the
    ``edp2`` law, where every receiver's block (both sides for BBM92) is
    squashed before its measurement.  Vacuum blocks are excluded with
    weight renormalization.
    """
    law = exact_sifted_distribution(attack, protocol, "edp2")
    rates = []
    for basis in "zx":
        kept = sum(law[(basis, a, b)] for a in (0, 1) for b in (0, 1))
        if kept <= 0.0:
            raise ValueError("state is all vacuum; error rates undefined")
        rates.append((law[(basis, 0, 1)] + law[(basis, 1, 0)]) / kept)
    return rates[0], rates[1]


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimResult:
    """Tallies and derived rates of one Monte Carlo run.

    Rates are None (absent) when undefined: a missing e_bit means no
    sifted rounds, never a perfect channel.  ``e_ph`` is populated only in
    the virtual modes, where an x measurement on the squashed pair exists;
    the key rate combines the z- and x-sifted error rates in every mode.
    """

    protocol: str
    mode: str
    attack: dict
    trials: int
    seed: int
    sifted: int
    sifted_z: int
    sifted_x: int
    errors: int
    errors_z: int
    errors_x: int
    vacuum: int
    mismatched: int
    e_bit: Optional[float]
    e_bit_z: Optional[float]
    e_bit_x: Optional[float]
    e_ph: Optional[float]
    key_rate: Optional[float]
    photon_tallies: dict
    sifted_counts: dict


def _marginals(cells: np.ndarray) -> tuple:
    """(vacuum, mismatch, sifted, per_block) of a (4, K, 3, 3) law or count array.

    ``sifted`` is (basis z/x, bit_a, bit_b); ``per_block`` is (3, K): rounds,
    sifted and errors of each block.  The exact law and the Monte Carlo
    tallies are both this reduction, so they cannot drift apart.
    """
    bits = cells[:, :, :VACUUM_STATE, :VACUUM_STATE]
    matched = bits[[0, 3]]  # z-z and x-x pairs
    vacuum = cells[:, :, VACUUM_STATE, :].sum() + cells[:, :, :VACUUM_STATE, VACUUM_STATE].sum()
    per_block = np.stack([
        cells.sum(axis=(0, 2, 3)),
        matched.sum(axis=(0, 2, 3)),
        (matched[..., 0, 1] + matched[..., 1, 0]).sum(axis=0),
    ])
    return vacuum, bits[[1, 2]].sum(), matched.sum(axis=1), per_block


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # Disjoint counter ranges per chunk: a chunk consumes far fewer than
    # 2**64 draws, so offsetting the 256-bit Philox counter by
    # chunk_index << 64 can never overlap.
    bitgen = np.random.Philox(key=np.uint64(seed), counter=chunk_index << 64)
    return np.random.Generator(bitgen)


def _clip_rate(e: float) -> float:
    return min(max(e, 0.0), 0.5)


def run_simulation(
    protocol: str,
    mode: str,
    attack: AttackSpec,
    trials: int,
    seed: int,
    *,
    threads: Optional[int] = None,
    vacuum_random_bit: bool = False,
) -> SimResult:
    """Run a Monte Carlo simulation and return its tallies and rates.

    Rounds are independent given the adversarial block state, so the
    tallies of T rounds are one multinomial draw of T over the exact
    per-round law of :func:`_table` (basis pair, block and both
    side states, coincidence coins folded in).  The trials are split into
    chunks of :data:`CHUNK_TRIALS`, each drawn from its own counter-offset
    Philox stream, so memory does not grow with ``trials`` and the result
    is bit-for-bit reproducible from (config, seed).  ``threads`` is
    ignored (sampling is single-threaded); it is still accepted because
    the benchmark's trace mode (``perfbench/run.py --trace 1``) passes it.
    """
    del threads
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    block_keys, table = _table(attack, protocol, mode, vacuum_random_bit)
    pvals = table.ravel() / float(table.sum())
    counts = np.zeros(pvals.size, dtype=np.int64)
    for i, first in enumerate(range(0, trials, CHUNK_TRIALS)):
        counts += _chunk_rng(seed, i).multinomial(min(CHUNK_TRIALS, trials - first), pvals)
    vacuum, mismatched, cells, per_block = _marginals(counts.reshape(table.shape))
    sifted_z, sifted_x = (int(c.sum()) for c in cells)
    errors_z, errors_x = (int(c[0, 1] + c[1, 0]) for c in cells)
    sifted = sifted_z + sifted_x
    errors = errors_z + errors_x
    e_bit = errors / sifted if sifted else None
    e_bit_z = errors_z / sifted_z if sifted_z else None
    e_bit_x = errors_x / sifted_x if sifted_x else None
    e_ph = e_bit_x if mode in ("edp1", "edp2") else None
    if sifted_z and sifted_x:
        rate = key_rate(_clip_rate(e_bit_z), _clip_rate(e_bit_x))
    else:
        rate = None
    tallies_by_key = {}
    for (m, n), (rounds, sifted_k, errors_k) in zip(block_keys, per_block.T.tolist()):
        key = str(n) if protocol == "bb84" else f"{m},{n}"
        tallies_by_key[key] = {"rounds": rounds, "sifted": sifted_k, "errors": errors_k}
    return SimResult(
        protocol=protocol,
        mode=mode,
        attack=attack_to_dict(attack),
        trials=trials,
        seed=seed,
        sifted=sifted,
        sifted_z=sifted_z,
        sifted_x=sifted_x,
        errors=errors,
        errors_z=errors_z,
        errors_x=errors_x,
        vacuum=int(vacuum),
        mismatched=int(mismatched),
        e_bit=e_bit,
        e_bit_z=e_bit_z,
        e_bit_x=e_bit_x,
        e_ph=e_ph,
        key_rate=rate,
        photon_tallies=tallies_by_key,
        sifted_counts={"z": cells[0].tolist(), "x": cells[1].tolist()},
    )
