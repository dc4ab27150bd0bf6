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

Each view is a stack of effects per receiver, and one Born kernel turns
the two stacks and a joint block into the probability of every outcome
pair.  Those probabilities form the category table the Monte Carlo engine
samples from, and the exact law (:func:`exact_sifted_distribution`) is
that table's marginal, so the engine and the law cannot drift apart.  The
law itself is pinned by checks that share no code with the kernel: a
sequential replay of the physical device built on
:func:`squashkit.povm.detect_event`, the detector/squash POVM identity
(:func:`squashkit.povm.actual_povm` equals
:func:`squashkit.povm.virtual_povm`), and closed-form error rates of the
shipped attacks.

The adversary hands out an arbitrary photon-number-block-diagonal joint
state (:class:`squashkit.povm.CompositeBlockState`); some standard attack
families are shipped as named constructors.  Monte Carlo runs are
reproducible bit for bit from (config, seed) under any thread count: the
trial stream is split into fixed-size chunks, each drawing from its own
counter-offset Philox stream.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import log2
from typing import Optional, Union

import numpy as np

from .povm import ClickClass, CompositeBlockState, classify_click
from .squash import build_squash
from .symfock import X_MODULATION, Basis, lift_gate, qubit_frame, sym_basis_state

__all__ = [
    "Depolarize",
    "InterceptResend",
    "CoincidenceInjection",
    "FixedBlockState",
    "CustomState",
    "AttackSpec",
    "attack_from_dict",
    "attack_to_dict",
    "RoundRecord",
    "SimResult",
    "bell_state",
    "eve_state",
    "binary_entropy",
    "key_rate",
    "exact_error_rates",
    "exact_sifted_distribution",
    "run_simulation",
    "run_bb84_actual",
    "run_bb84_virtual",
    "run_bbm92",
    "CHUNK_TRIALS",
]

MODES = ("actual", "edp1", "edp2")
PROTOCOLS = ("bb84", "bbm92")

#: Fixed Monte Carlo chunk size; the RNG stream is split at chunk
#: granularity, so results do not depend on how chunks are scheduled.
CHUNK_TRIALS = 4096

# Basis pairs (alice, bob) in sampling order; Z/X per party.
_PAIRS = ((False, False), (False, True), (True, False), (True, True))

# Outcome kinds inside the category tables.
_KIND_BIT = 0
_KIND_COIN = 1
_KIND_VACUUM = 2


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
            if abs(norm - 1.0) > 1e-9:
                raise ValueError(f"block ({m}, {n}) amplitudes not normalized")
            amps.setflags(write=False)
            frozen.append((int(m), int(n), float(w), amps))
        object.__setattr__(self, "blocks", tuple(frozen))


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


def _qubit_proj(bit: int, basis: Basis) -> np.ndarray:
    v = qubit_frame(basis)[:, bit]
    return np.outer(v, v.conj())


def eve_state(
    attack: AttackSpec, rng: Optional[np.random.Generator] = None
) -> CompositeBlockState:
    """Joint block-diagonal state the adversary hands to the two parties.

    For BB84 the left factor is the sender's virtual reference qubit
    (photon number 1); for BBM92 both factors are incoming pulses.  The
    shipped attacks are deterministic; `rng` is accepted for attack types
    that may need it and is currently unused.
    """
    del rng
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
        state = sym_basis_state(attack.n_photons, attack.c)
        bob = np.outer(state.amps, state.amps.conj())
        d = attack.n_photons + 1
        rho = np.zeros((2 * d, 2 * d), dtype=complex)
        rho[:d, :d] = rho[d:, d:] = bob / 2.0  # maximally mixed reference qubit
        return CompositeBlockState({(1, attack.n_photons): (1.0, rho)})
    if isinstance(attack, FixedBlockState):
        return attack.state
    if isinstance(attack, CustomState):
        blocks = {}
        for m, n, w, amps in attack.blocks:
            if (m, n) in blocks:
                raise ValueError(f"duplicate block ({m}, {n}) in custom attack")
            blocks[(m, n)] = (w, np.outer(amps, amps.conj()))
        return CompositeBlockState(blocks)
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
# measurement models
# ---------------------------------------------------------------------------


def _check_protocol_mode(protocol: str, mode: str) -> None:
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


class _SideModels:
    """Per-photon-number measurement models for one receiver, cached."""

    def __init__(self, mode: str, vacuum_random_bit: bool = False):
        self.mode = mode
        self.vacuum_random_bit = vacuum_random_bit
        self._cache: dict = {}

    def outcomes(self, n: int, basis_is_x: bool) -> tuple:
        """(kinds, values, effects) of an N-photon block, one entry per outcome.

        Effects are stacked into one (outcomes, N+1, N+1) array.  Kind BIT
        carries the reported bit in value; kind COIN carries the x-readout
        flip to XOR onto the coin; kind VACUUM has no bit.
        """
        key = (n, basis_is_x)
        if key not in self._cache:
            self._cache[key] = self._build(n, basis_is_x)
        return self._cache[key]

    def _build(self, n: int, basis_is_x: bool) -> tuple:
        flip = 1 if basis_is_x else 0
        if n == 0:
            kind = _KIND_COIN if self.vacuum_random_bit else _KIND_VACUUM
            return [kind], [flip], np.ones((1, 1, 1), dtype=complex)
        if self.mode == "actual":
            # fine z outcome c has effect mod^dagger |c><c| mod
            mod = lift_gate(X_MODULATION, n) if basis_is_x else np.eye(n + 1)
            kinds, values = [], []
            for c in range(n + 1):
                click = classify_click(c, n)
                if click is ClickClass.COINCIDENCE:
                    kinds.append(_KIND_COIN)
                    values.append(flip)
                else:
                    kinds.append(_KIND_BIT)
                    values.append(int(click is ClickClass.SINGLE1) ^ flip)
            return kinds, values, np.einsum("ci,cj->cij", mod.conj(), mod)
        channel = build_squash(n)
        effects = []
        for proj in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
            if self.mode == "edp2" and basis_is_x:
                proj = X_MODULATION.conj().T @ proj @ X_MODULATION
            effects.append(channel.pull_back(proj))
        effects = np.array(effects)
        if self.mode == "edp1" and basis_is_x:
            mod = lift_gate(X_MODULATION, n)
            effects = mod.conj().T @ effects @ mod
        return [_KIND_BIT, _KIND_BIT], [flip, 1 ^ flip], effects


def _alice_qubit_outcomes(basis_is_x: bool) -> tuple:
    basis = Basis.X if basis_is_x else Basis.Z
    effects = np.array([_qubit_proj(a, basis) for a in (0, 1)])
    return [_KIND_BIT, _KIND_BIT], [0, 1], effects


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
    rho4 = rho.reshape(da, db, da, db)
    return np.einsum("pij,qkl,jlik->pq", a_effects, b_effects, rho4, optimize=True).real


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
    _check_protocol_mode(protocol, mode)
    state = eve_state(attack)
    if protocol == "bb84":
        _require_bb84_blocks(state)
    return _CategoryTable(state, protocol, mode, vacuum_random_bit).law()


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
class RoundRecord:
    """Outcome of one simulated transmission round."""

    alice_basis: Basis
    bob_basis: Basis
    alice_bit: Optional[int]
    bob_bit: Optional[int]
    bob_photon_number: int
    outcome_class: str  # "sifted" | "basis_mismatch" | "vacuum"
    alice_photon_number: Optional[int] = None


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

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "mode": self.mode,
            "attack": self.attack,
            "trials": self.trials,
            "seed": self.seed,
            "sifted": self.sifted,
            "sifted_z": self.sifted_z,
            "sifted_x": self.sifted_x,
            "errors": self.errors,
            "errors_z": self.errors_z,
            "errors_x": self.errors_x,
            "vacuum": self.vacuum,
            "mismatched": self.mismatched,
            "e_bit": self.e_bit,
            "e_bit_z": self.e_bit_z,
            "e_bit_x": self.e_bit_x,
            "e_ph": self.e_ph,
            "key_rate": self.key_rate,
            "photon_tallies": self.photon_tallies,
            "sifted_counts": self.sifted_counts,
        }


class _CategoryTable:
    """Flattened per-round outcome distribution for categorical sampling.

    One category per (basis pair, block, sender outcome, receiver outcome),
    in that nesting order, with its exact Born probability.
    """

    def __init__(
        self,
        state: CompositeBlockState,
        protocol: str,
        mode: str,
        vacuum_random_bit: bool = False,
    ):
        models = _SideModels(mode, vacuum_random_bit)
        probs, pair_idx, block_idx = [], [], []
        akind, aval, bkind, bval = [], [], [], []
        self.block_keys = list(state.blocks.keys())
        for p_i, (a_x, b_x) in enumerate(_PAIRS):
            for k_i, ((m, n), (w, rho)) in enumerate(state.blocks.items()):
                if w == 0.0:
                    continue
                if protocol == "bb84":
                    ka, va, ea = _alice_qubit_outcomes(a_x)
                else:
                    ka, va, ea = models.outcomes(m, a_x)
                kb, vb, eb = models.outcomes(n, b_x)
                joint = np.maximum(0.25 * w * _born(ea, eb, rho), 0.0)
                probs.append(joint.ravel())
                pair_idx.append(np.full(joint.size, p_i))
                block_idx.append(np.full(joint.size, k_i))
                akind.append(np.repeat(ka, len(kb)))
                aval.append(np.repeat(va, len(kb)))
                bkind.append(np.tile(kb, len(ka)))
                bval.append(np.tile(vb, len(ka)))
        self.probs = np.concatenate(probs)
        self.cdf = np.cumsum(self.probs)
        self.total = float(self.cdf[-1])
        self.pair = np.concatenate(pair_idx)
        self.block = np.concatenate(block_idx)
        self.akind = np.concatenate(akind)
        self.aval = np.concatenate(aval)
        self.bkind = np.concatenate(bkind)
        self.bval = np.concatenate(bval)
        self.size = len(self.probs)

    def law(self) -> dict:
        """Marginal law over vacuum, basis mismatch and the sifted cells.

        A coin outcome reports either bit with probability 1/2.
        """
        vac = (self.akind == _KIND_VACUUM) | (self.bkind == _KIND_VACUUM)
        matched = (self.pair == 0) | (self.pair == 3)
        law = {
            "vacuum": float(self.probs[vac].sum()),
            "mismatch": float(self.probs[~vac & ~matched].sum()),
        }
        bits_a = _bit_weights(self.akind, self.aval)
        bits_b = _bit_weights(self.bkind, self.bval)
        for basis, p_i in (("z", 0), ("x", 3)):
            sel = ~vac & (self.pair == p_i)
            cells = np.einsum("c,ca,cb->ab", self.probs[sel], bits_a[sel], bits_b[sel])
            for a in (0, 1):
                for b in (0, 1):
                    law[(basis, a, b)] = float(cells[a, b])
        return law


def _bit_weights(kind: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Probability of each reported bit (columns 0, 1) per category."""
    weights = np.zeros((kind.size, 2))
    weights[kind == _KIND_COIN] = 0.5
    bit = kind == _KIND_BIT
    weights[bit, value[bit]] = 1.0
    return weights


@dataclass
class _Tally:
    vacuum: int = 0
    mismatched: int = 0
    sifted_z: int = 0
    sifted_x: int = 0
    errors_z: int = 0
    errors_x: int = 0
    counts_z: Optional[np.ndarray] = None  # sifted (bit_a, bit_b) cells, z basis
    counts_x: Optional[np.ndarray] = None
    rounds_per_block: Optional[np.ndarray] = None
    sifted_per_block: Optional[np.ndarray] = None
    errors_per_block: Optional[np.ndarray] = None
    records: Optional[list] = None

    def merge(self, other: "_Tally") -> None:
        self.vacuum += other.vacuum
        self.mismatched += other.mismatched
        self.sifted_z += other.sifted_z
        self.sifted_x += other.sifted_x
        self.errors_z += other.errors_z
        self.errors_x += other.errors_x
        self.counts_z = _add_opt(self.counts_z, other.counts_z)
        self.counts_x = _add_opt(self.counts_x, other.counts_x)
        self.rounds_per_block = _add_opt(self.rounds_per_block, other.rounds_per_block)
        self.sifted_per_block = _add_opt(self.sifted_per_block, other.sifted_per_block)
        self.errors_per_block = _add_opt(self.errors_per_block, other.errors_per_block)
        if other.records is not None:
            if self.records is None:
                self.records = []
            self.records.extend(other.records)


def _add_opt(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # Disjoint counter ranges per chunk: a chunk consumes far fewer than
    # 2**64 draws, so offsetting the 256-bit Philox counter by
    # chunk_index << 64 can never overlap.
    bitgen = np.random.Philox(key=np.uint64(seed), counter=chunk_index << 64)
    return np.random.Generator(bitgen)


def _run_chunk(
    table: _CategoryTable,
    seed: int,
    chunk_index: int,
    n_trials: int,
    collect_records: bool,
) -> _Tally:
    rng = _chunk_rng(seed, chunk_index)
    u = rng.random(n_trials) * table.total
    idx = np.minimum(
        np.searchsorted(table.cdf, u, side="right"), table.size - 1
    )
    akind = table.akind[idx]
    bkind = table.bkind[idx]
    bits_a = table.aval[idx].copy()
    bits_b = table.bval[idx].copy()
    coin_a = akind == _KIND_COIN
    n_coin_a = int(coin_a.sum())
    if n_coin_a:
        coins = (rng.random(n_coin_a) < 0.5).astype(np.int64)
        bits_a[coin_a] = coins ^ bits_a[coin_a]
    coin_b = bkind == _KIND_COIN
    n_coin_b = int(coin_b.sum())
    if n_coin_b:
        coins = (rng.random(n_coin_b) < 0.5).astype(np.int64)
        bits_b[coin_b] = coins ^ bits_b[coin_b]
    vac = (akind == _KIND_VACUUM) | (bkind == _KIND_VACUUM)
    pair = table.pair[idx]
    matched = (pair == 0) | (pair == 3)
    sifted = ~vac & matched
    err = sifted & (bits_a != bits_b)
    sifted_z = sifted & (pair == 0)
    sifted_x = sifted & (pair == 3)
    n_blocks = len(table.block_keys)
    blocks = table.block[idx]
    cells = 2 * bits_a + bits_b
    tally = _Tally(
        vacuum=int(vac.sum()),
        mismatched=int((~vac & ~matched).sum()),
        sifted_z=int(sifted_z.sum()),
        sifted_x=int(sifted_x.sum()),
        errors_z=int((err & sifted_z).sum()),
        errors_x=int((err & sifted_x).sum()),
        counts_z=np.bincount(cells[sifted_z], minlength=4),
        counts_x=np.bincount(cells[sifted_x], minlength=4),
        rounds_per_block=np.bincount(blocks, minlength=n_blocks),
        sifted_per_block=np.bincount(blocks[sifted], minlength=n_blocks),
        errors_per_block=np.bincount(blocks[err], minlength=n_blocks),
    )
    if collect_records:
        records = []
        for i in range(n_trials):
            a_x = pair[i] >= 2
            b_x = pair[i] % 2 == 1
            m, n = table.block_keys[blocks[i]]
            a_vac = akind[i] == _KIND_VACUUM
            b_vac = bkind[i] == _KIND_VACUUM
            if vac[i]:
                cls = "vacuum"
            elif matched[i]:
                cls = "sifted"
            else:
                cls = "basis_mismatch"
            records.append(
                RoundRecord(
                    alice_basis=Basis.X if a_x else Basis.Z,
                    bob_basis=Basis.X if b_x else Basis.Z,
                    alice_bit=None if a_vac else int(bits_a[i]),
                    bob_bit=None if b_vac else int(bits_b[i]),
                    bob_photon_number=n,
                    outcome_class=cls,
                    alice_photon_number=m,
                )
            )
        tally.records = records
    return tally


def _thread_count(threads: Optional[int]) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("SQUASHKIT_THREADS")
    if env is None:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"SQUASHKIT_THREADS must be an integer, got {env!r}")


def _clip_rate(e: float) -> float:
    return min(max(e, 0.0), 0.5)


def run_simulation(
    protocol: str,
    mode: str,
    attack: AttackSpec,
    trials: int,
    seed: int,
    *,
    collect_records: bool = False,
    threads: Optional[int] = None,
    vacuum_random_bit: bool = False,
) -> tuple[SimResult, Optional[list[RoundRecord]]]:
    """Run a Monte Carlo simulation and return tallies plus optional records.

    Rounds are independent given the adversarial block state, so each
    round samples its basis pair, joint photon-number block, and
    measurement outcomes from the exact per-round law, with coincidence
    coins drawn separately.  The trial stream is partitioned into
    fixed-size chunks with per-chunk counter-offset RNG streams; tallies
    are integers merged commutatively, so the result is bit-for-bit
    reproducible from (config, seed) under any thread count.
    """
    _check_protocol_mode(protocol, mode)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    state = eve_state(attack)
    if protocol == "bb84":
        _require_bb84_blocks(state)
    table = _CategoryTable(state, protocol, mode, vacuum_random_bit)
    n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    sizes = [
        min(CHUNK_TRIALS, trials - i * CHUNK_TRIALS) for i in range(n_chunks)
    ]
    workers = _thread_count(threads)
    if workers == 1 or n_chunks == 1:
        tallies = [
            _run_chunk(table, seed, i, sizes[i], collect_records)
            for i in range(n_chunks)
        ]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            tallies = list(
                pool.map(
                    lambda i: _run_chunk(table, seed, i, sizes[i], collect_records),
                    range(n_chunks),
                )
            )
    total = _Tally()
    for t in tallies:
        total.merge(t)
    sifted = total.sifted_z + total.sifted_x
    errors = total.errors_z + total.errors_x
    e_bit = errors / sifted if sifted else None
    e_bit_z = total.errors_z / total.sifted_z if total.sifted_z else None
    e_bit_x = total.errors_x / total.sifted_x if total.sifted_x else None
    e_ph = e_bit_x if mode in ("edp1", "edp2") else None
    if total.sifted_z and total.sifted_x:
        rate = key_rate(_clip_rate(e_bit_z), _clip_rate(e_bit_x))
    else:
        rate = None
    tallies_by_key = {}
    for i, (m, n) in enumerate(table.block_keys):
        key = str(n) if protocol == "bb84" else f"{m},{n}"
        tallies_by_key[key] = {
            "rounds": int(total.rounds_per_block[i]),
            "sifted": int(total.sifted_per_block[i]),
            "errors": int(total.errors_per_block[i]),
        }
    result = SimResult(
        protocol=protocol,
        mode=mode,
        attack=attack_to_dict(attack),
        trials=trials,
        seed=seed,
        sifted=sifted,
        sifted_z=total.sifted_z,
        sifted_x=total.sifted_x,
        errors=errors,
        errors_z=total.errors_z,
        errors_x=total.errors_x,
        vacuum=total.vacuum,
        mismatched=total.mismatched,
        e_bit=e_bit,
        e_bit_z=e_bit_z,
        e_bit_x=e_bit_x,
        e_ph=e_ph,
        key_rate=rate,
        photon_tallies=tallies_by_key,
        sifted_counts={
            "z": [[int(c) for c in total.counts_z[:2]],
                  [int(c) for c in total.counts_z[2:]]],
            "x": [[int(c) for c in total.counts_x[:2]],
                  [int(c) for c in total.counts_x[2:]]],
        },
    )
    return result, total.records


def run_bb84_actual(
    attack: AttackSpec, trials: int, seed: int, *, threads: Optional[int] = None
) -> SimResult:
    """Simulate the physical BB84 receiver (threshold detectors, coins)."""
    result, _ = run_simulation("bb84", "actual", attack, trials, seed, threads=threads)
    return result


def run_bb84_virtual(
    attack: AttackSpec,
    trials: int,
    seed: int,
    variant: str = "edp2",
    *,
    threads: Optional[int] = None,
) -> SimResult:
    """Simulate a virtual BB84 protocol; variant is "edp1" or "edp2"."""
    if variant not in ("edp1", "edp2"):
        raise ValueError(f"variant must be 'edp1' or 'edp2', got {variant!r}")
    result, _ = run_simulation("bb84", variant, attack, trials, seed, threads=threads)
    return result


def run_bbm92(
    attack: AttackSpec,
    trials: int,
    seed: int,
    mode: str = "actual",
    *,
    threads: Optional[int] = None,
) -> SimResult:
    """Simulate BBM92 with both parties on threshold detectors or squashed."""
    result, _ = run_simulation("bbm92", mode, attack, trials, seed, threads=threads)
    return result
