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
one-photon sender included: one call per (photon number, mode) gives
both bases, from one squash channel in the squash views.  One Born
kernel turns the two stacks and a joint block into the exact law over
(basis pair, block, sender state, receiver state).  The exact law
(:func:`exact_sifted_distribution`) and the Monte Carlo tallies are the
same reduction of that table, applied to probabilities and to counts, so
the engine and the law cannot drift apart.  The law itself is pinned by
the physical device's exact law, enumerated in the tests from the
modulated block's diagonal and :func:`squashkit.povm.classify_click`,
which shares no code with the builder or the kernel; by the
detector/squash POVM identity, which compares the builder's detector
branch (:func:`squashkit.povm.actual_povm`) with its squash branch
(:func:`squashkit.povm.virtual_povm`); and by closed-form error rates of
the shipped attacks.

The adversary hands out an arbitrary photon-number-block-diagonal joint
state (:class:`squashkit.povm.CompositeBlockState`), which is itself the
attack; the standard attack families are named constructors that return
one, carrying the kind and parameters that its echo reports.
The Monte Carlo engine, :func:`run_simulation`, samples counts, not
rounds: a run is one multinomial draw of all its trials over the table
(:mod:`squashkit.sampler`), reported as the count tallies of a
:class:`SimResult`.  Runs are reproducible bit for bit from (config, seed)
and cost time and memory independent of the number of trials.
"""

from __future__ import annotations

import numbers
import operator
import reprlib
from contextlib import suppress
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain
from math import log2
from random import Random
from typing import Optional

import numpy as np

from .povm import SIDE_STATES, VACUUM_STATE, CompositeBlockState, side_state_effects
from .sampler import _multinomial
from .symfock import Basis, qubit_frame

__all__ = [
    "Depolarize",
    "InterceptResend",
    "CoincidenceInjection",
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

#: No longer used by the sampler, which draws a whole run at once; kept
#: only because ``perfbench/run.py --trace 1`` imports it to count chunks.
CHUNK_TRIALS = 1 << 20

# Basis pairs (alice, bob) in sampling order; Z/X per party.
_PAIRS = ((False, False), (False, True), (True, False), (True, True))


# ---------------------------------------------------------------------------
# attack specifications
# ---------------------------------------------------------------------------


def attack_to_dict(attack: CompositeBlockState) -> dict:
    """Description of an attack; inverse of :func:`attack_from_dict`.

    A named attack echoes its ``spec``: its kind and parameters.  An
    explicit state echoes its blocks in (m, n) order: as ``custom`` with
    each ``amps`` vector when every block is a vector, otherwise as
    ``fixed_block`` with each block's ``rho`` density operator.  A block's
    ``amps`` or ``rho`` is a float64 (..., 2) view of its [re, im] pairs, not
    lists (no copy; ``json.dumps`` it with ``default=np.ndarray.tolist``).
    """
    if attack.spec is not None:
        return {**attack.spec}
    pure = all(rho.ndim == 1 for _, rho in attack.blocks.values())
    kind, field = ("custom", "amps") if pure else ("fixed_block", "rho")
    return {
        "kind": kind,
        "blocks": [
            {"m": m, "n": n, "weight": w,
             field: (rho if pure else attack.density((m, n)))[..., None].view(np.float64)}
            for (m, n), (w, rho) in attack.blocks.items()
        ],
    }


def _bad(path: str, expected: str, value) -> ValueError:
    """The error of the JSON value at `path` (such as ``blocks[0].amps``)."""
    return ValueError(f"{path}: expected {expected}, got {reprlib.repr(value)}")


def _integer(value, path: str) -> int:
    """A photon number: an integer in [0, 2**63), no bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 <= value < 2**63:
        raise _bad(path, "an integer in [0, 2**63)", value)
    return int(value)


def _number(value, path: str) -> float:
    """A real number (no bool or string) that a float holds, as a float."""
    with suppress(OverflowError):  # an integer too large for a float
        if not isinstance(value, bool) and isinstance(value, numbers.Real):
            return float(value)
    raise _bad(path, "a number that fits a float", value)


def _pairs(value, path: str, depth: int):
    """A block's ``amps`` (depth 1) or ``rho`` (depth 2): [re, im] number
    pairs nested `depth` lists deep, as a float64 (..., 2) array; at depth
    0, one pair as a list.  An array of pairs, as :func:`attack_to_dict`
    echoes them, is taken as it is."""
    if depth == 0:
        if type(value) is not list or len(value) != 2:
            raise _bad(path, "a pair [re, im]", value)
        return [_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]")]
    if type(value) is list:
        leaves = chain.from_iterable(chain(*value) if depth == 2 else value)
        with suppress(TypeError, ValueError, OverflowError):  # JSON numbers convert in bulk
            if {*map(type, leaves)} <= {float, int}:
                value = np.array(value, dtype=np.float64)
    if type(value) is list:  # any other list is walked, to name its first bad entry
        entries = [_pairs(entry, f"{path}[{i}]", depth - 1) for i, entry in enumerate(value)]
        for i, entry in enumerate(entries):  # a row as long as the first
            if len(entry) != len(entries[0]):
                raise _bad(f"{path}[{i}]", "a row as long as the first", value[i])
        value = np.array(entries, dtype=np.float64)
    if isinstance(value, np.ndarray) and value.ndim == depth + 1 and value.shape[-1] == 2:
        return value
    got = f"shape {value.shape}" if isinstance(value, np.ndarray) else reprlib.repr(value)
    raise ValueError(f"{path}: expected a list of {'rows of ' * (depth - 1)}[re, im] pairs, "
                     f"got {got}")  # an array of another shape is never read as another state


def _object(value, path: str, fields: dict) -> dict:
    """A JSON object with exactly the fields of `fields`, each read at its
    path by its reader there.  A reader (such as :func:`_integer`) returns
    what it reads, or raises :func:`_bad`'s error."""
    if type(value) is not dict:
        raise _bad(path, "an object", value)
    prefix = f"{path}." if path else ""
    if value.keys() != fields.keys():  # the first field missing, else the first unknown
        name = next(name for name in [*fields, *value] if (name in fields) != (name in value))
        raise ValueError(f"{prefix}{name}: {'unknown' if name in value else 'missing'} field")
    return {name: read(value[name], prefix + name) for name, read in fields.items()}


def _blocks(items, path: str, field: str, depth: int) -> dict:
    """An explicit kind's list of block objects, each with photon numbers m
    and n, a weight and its `field` pairs, as :class:`CompositeBlockState` blocks."""
    if type(items) is not list:
        raise _bad(path, "a list of block objects", items)
    fields = {"m": _integer, "n": _integer, "weight": _number, field: partial(_pairs, depth=depth)}
    blocks = {}
    for i, item in enumerate(items):
        m, n, weight, pairs = _object(item, f"{path}[{i}]", fields).values()
        if (m, n) in blocks:
            raise ValueError(f"{path}[{i}]: duplicate block ({m}, {n})")
        blocks[(m, n)] = (weight, np.ascontiguousarray(pairs, np.float64).view(complex)[..., 0])
    return blocks


# ---------------------------------------------------------------------------
# source states
# ---------------------------------------------------------------------------


def bell_state() -> np.ndarray:
    """Projector onto (|00> + |11>)/sqrt(2)."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


# Each named attack is a constructor: it checks its parameters and returns
# the joint block state, with the kind and parameters its echo reports.  For
# BB84 the left factor is the sender's virtual reference qubit (photon
# number 1); for BBM92 both factors are incoming pulses.


def Depolarize(p: float) -> CompositeBlockState:
    """Bell pair mixed with white noise in the single-photon block."""
    p = _number(p, "depolarizing probability")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability must be in [0, 1], got {p}")
    rho = (1.0 - p) * bell_state() + p * np.eye(4) / 4.0
    return CompositeBlockState({(1, 1): (1.0, rho)}, {"kind": "depolarize", "p": p})


def InterceptResend() -> CompositeBlockState:
    """Eve measures the flying qubit in a random z/x basis and resends."""
    rho = np.zeros((4, 4), dtype=complex)
    for basis in (Basis.Z, Basis.X):
        for v in qubit_frame(basis).T:
            vv = np.outer(v, v).ravel()  # |v>|v>
            rho += 0.25 * np.outer(vv, vv.conj())
    return CompositeBlockState({(1, 1): (1.0, rho)}, {"kind": "intercept_resend"})


def CoincidenceInjection(n_photons: int, c: int) -> CompositeBlockState:
    """Maximally mixed reference qubit with a fixed coincidence state sent on.

    Bob receives the N-photon symmetric state with c photons on one
    detector and N-c on the other, which always fires both detectors.
    """
    n_photons, c = _integer(n_photons, "n_photons"), _integer(c, "c")
    if n_photons > 379_625_061:  # the (2N + 2)^2 complex entries within numpy's 2**63 - 1 bytes
        raise _bad("n_photons", "an integer in [0, 379625061], a block numpy can index", n_photons)
    if n_photons < 2:
        raise ValueError("coincidence injection needs N >= 2")
    if not 1 <= c <= n_photons - 1:
        raise ValueError(f"c must lie strictly between 0 and N = {n_photons}, got {c}")
    d = n_photons + 1
    rho = np.zeros((2 * d, 2 * d), dtype=complex)
    rho[c, c] = rho[d + c, d + c] = 0.5  # beside a maximally mixed reference qubit
    spec = {"kind": "coincidence_injection", "n_photons": n_photons, "c": c}
    return CompositeBlockState({(1, n_photons): (1.0, rho)}, spec)


#: The attack grammar: each kind's constructor, and its fields with their readers.
_KINDS = {
    "depolarize": (Depolarize, {"p": _number}),
    "intercept_resend": (InterceptResend, {}),
    "coincidence_injection": (CoincidenceInjection, {"n_photons": _integer, "c": _integer}),
    "fixed_block": (CompositeBlockState, {"blocks": partial(_blocks, field="rho", depth=2)}),
    "custom": (CompositeBlockState, {"blocks": partial(_blocks, field="amps", depth=1)}),
}


def attack_from_dict(data: dict) -> CompositeBlockState:
    """Parse an attack description (the CLI's ``--attack`` JSON payload).

    An attack is an object with a ``kind`` of :data:`_KINDS` and exactly
    that kind's fields, each read by its reader: nothing is truncated or
    parsed from a string.  A bad field raises a ValueError that names its
    path, such as ``blocks[0].amps[3]: expected a pair [re, im], got 5``; a
    check of the state the fields build (a constructor's, or the block
    state's own) names the ``attack``.
    """
    if type(data) is not dict:
        raise _bad("attack", "an object", data)
    kind = data.get("kind")
    if kind not in [*_KINDS]:  # a list: `kind` may be unhashable
        raise (_bad("kind", f"one of {', '.join(_KINDS)}", kind) if "kind" in data
               else ValueError("kind: missing field"))
    make, fields = _KINDS[kind]
    values = _object({name: v for name, v in data.items() if name != "kind"}, "", fields)
    try:
        return make(**values)
    except np.linalg.LinAlgError:  # a ValueError, but the numerics' failure, not the attack's
        raise
    except ValueError as exc:
        raise ValueError(f"attack: {exc}") from None


def eve_state(attack: CompositeBlockState) -> CompositeBlockState:
    """Joint block-diagonal state the adversary hands to the two parties:
    the attack itself, which must be a :class:`CompositeBlockState`."""
    if not isinstance(attack, CompositeBlockState):
        raise TypeError(f"unknown attack type {type(attack).__name__}")
    return attack


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
        raise ValueError(f"single_photon_fraction must be in [0, 1], got {single_photon_fraction}")
    rate = 1.0 - binary_entropy(e_bit) - binary_entropy(e_ph)
    return single_photon_fraction * max(0.0, rate)


# ---------------------------------------------------------------------------
# exact Born-probability laws
# ---------------------------------------------------------------------------


def _born(a_effects: np.ndarray, b_effects: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr[(E_p tensor F_q) rho] for every pair of stacked real symmetric effects E_p, F_q.

    ``rho`` is a density operator on the (da*db)-dimensional product, or a
    state vector psi standing for |psi><psi|.  Such effects read only the
    real part of the state, exactly, so every product is real.  A vector is
    never expanded: with Psi = psi reshaped to (da, db), M_p = Re Psi^dagger
    E_p Psi and the law is sum_kl M_p[k, l] F_q[k, l], so memory stays O(da*db).
    """
    da, db = a_effects.shape[1], b_effects.shape[1]
    b = b_effects.reshape(len(b_effects), -1)
    if rho.ndim == 1:
        psi = rho.reshape(da, db)
        a_pulled = psi.real.T @ a_effects @ psi.real  # (P, db, db), plus the imaginary part's
        a_pulled += psi.imag.T @ a_effects @ psi.imag
        return a_pulled.reshape(len(a_effects), -1) @ b.T
    # Re rho[(j, l), (i, k)] regrouped as [(i, j), (k, l)], matching E[i, j] F[k, l]
    rho_t = rho.real.reshape(da, db, da, db).transpose(2, 0, 3, 1).reshape(da * da, db * db)
    return a_effects.reshape(len(a_effects), -1) @ rho_t @ b.T


def _require_bb84_blocks(attack: CompositeBlockState) -> None:
    """BB84's sender is one qubit, as in every named attack: an attack's
    blocks must all have m = 1."""
    bad = [key for key in attack.blocks if key[0] != 1]
    if bad:  # a few of them, and the count of the rest
        more = f" and {len(bad) - 3} more" if len(bad) > 3 else ""
        raise ValueError("BB84 requires the sender side to be a single qubit; "
                         f"got blocks {bad[:3]}{more}")


def _table(attack: CompositeBlockState, protocol: str, mode: str) -> tuple[list, np.ndarray]:
    """Exact per-round law over (basis pair, block, sender state, receiver state).

    Returns ``(block_keys, cells)``, the checked category table of one
    (attack, protocol, mode).  ``cells`` has shape (4, K, 3, 3) for the K
    blocks of ``block_keys``: basis pairs in ``_PAIRS`` order, blocks in
    state order, side states in :data:`squashkit.povm.SIDE_STATES` order
    (bit 0, bit 1, vacuum).  One Born-kernel call per block, both bases
    stacked: each side's :func:`squashkit.povm.side_state_effects` stack,
    built once per (photon number, mode), holds both bases as one (6, d, d)
    array, and the (6, 6) result holds all four basis pairs.  BB84's sender
    is a one-photon block measured in ``actual`` mode, which at one photon
    is exactly the projective qubit measurement.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if protocol == "bb84":
        _require_bb84_blocks(attack)
    state = eve_state(attack)
    sender_mode = "actual" if protocol == "bb84" else mode

    effects = cache(side_state_effects)  # per build: no process-wide cache
    states = len(SIDE_STATES)
    cells = np.zeros((len(_PAIRS), len(state.blocks), states, states))
    for k_i, ((m, n), (w, rho)) in enumerate(state.blocks.items()):
        if w == 0.0:
            continue
        law = _born(effects(m, sender_mode), effects(n, mode), rho)
        # (a_x, s_a, b_x, s_b) -> (a_x, b_x, s_a, s_b): the _PAIRS order
        law = law.reshape(2, states, 2, states).transpose(0, 2, 1, 3)
        cells[:, k_i] = np.maximum(0.25 * w * law.reshape(len(_PAIRS), states, states), 0.0)
    return list(state.blocks), cells


def exact_sifted_distribution(
    attack: CompositeBlockState,
    protocol: str = "bb84",
    mode: str = "actual",
) -> dict:
    """Exact per-round outcome law, no sampling.

    Returns a dict with keys ``"vacuum"``, ``"mismatch"`` and
    ``(basis, bit_a, bit_b)`` for basis in {"z", "x"}; values sum to 1.
    A round is vacuum when either receiver's block carries zero photons:
    vacuum reports vacuum, never a bit.  The law is the marginal
    of the category table the Monte Carlo engine samples from.
    """
    _, cells = _table(attack, protocol, mode)
    vacuum, mismatch, sifted, _ = _marginals(cells)
    return {"vacuum": float(vacuum), "mismatch": float(mismatch), **{
        (basis, a, b): float(sifted[b_i, a, b])
        for b_i, basis in enumerate("zx") for a in (0, 1) for b in (0, 1)}}


def exact_error_rates(attack: CompositeBlockState, protocol: str = "bb84") -> tuple[float, float]:
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


def _clip_rate(e: float) -> float:
    return min(max(e, 0.0), 0.5)


def run_simulation(
    protocol: str,
    mode: str,
    attack: CompositeBlockState,
    trials: int,
    seed: int,
    *,
    threads: Optional[int] = None,
) -> SimResult:
    """Run a Monte Carlo simulation and return its tallies and rates.

    Rounds are independent given the adversarial block state, so the
    tallies of T rounds are one multinomial draw of T over the exact
    per-round law of :func:`_table` (basis pair, block and both
    side states, coincidence coins folded in).  That draw is
    :func:`_multinomial` from ``random.Random(seed)``: its cost does not
    grow with ``trials``, and the result is bit-for-bit reproducible from
    (config, seed).  ``threads`` is ignored (sampling is single-threaded);
    it is still accepted because the benchmark's trace mode
    (``perfbench/run.py --trace 1``) passes it.
    """
    del threads
    # numpy integers too, as Python ints: the sampler's integer arithmetic is exact
    trials, seed = operator.index(trials), operator.index(seed)
    if not 1 <= trials < 2**63:
        raise ValueError(f"trials must be in [1, 2**63) to fit the int64 tallies, got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    block_keys, table = _table(attack, protocol, mode)
    counts = _multinomial(trials, table, Random(seed))
    vacuum, mismatched, cells, per_block = _marginals(counts.reshape(table.shape))
    sifted_z, sifted_x = (int(c.sum()) for c in cells)
    errors_z, errors_x = (int(c[0, 1] + c[1, 0]) for c in cells)
    sifted = sifted_z + sifted_x
    errors = errors_z + errors_x
    e_bit = errors / sifted if sifted else None
    e_bit_z = errors_z / sifted_z if sifted_z else None
    e_bit_x = errors_x / sifted_x if sifted_x else None
    e_ph = e_bit_x if mode in ("edp1", "edp2") else None
    rate = key_rate(_clip_rate(e_bit_z), _clip_rate(e_bit_x)) if sifted_z and sifted_x else None
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
