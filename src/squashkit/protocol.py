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
rounds: a run is one multinomial draw of all its trials over the table,
made as sequential binomial draws from the standard library's
``random.Random(seed)``, and is reported as the count tallies of a
:class:`SimResult`.  Runs are reproducible bit for bit from (config, seed)
and cost time and memory independent of the number of trials.
"""

from __future__ import annotations

import numbers
import operator
import reprlib
from dataclasses import dataclass
from functools import cache
from math import floor, lgamma, log, log1p, log2, pi, sqrt
from random import Random
from typing import Optional

import numpy as np

from .povm import SIDE_STATES, VACUUM_STATE, CompositeBlockState, side_state_effects
from .symfock import Basis, projector, qubit_frame, sym_basis_state

__all__ = [
    "Depolarize",
    "InterceptResend",
    "CoincidenceInjection",
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

#: No longer used by the sampler, which draws a whole run at once; kept
#: only because ``perfbench/run.py --trace 1`` imports it to count chunks.
CHUNK_TRIALS = 1 << 20

# Basis pairs (alice, bob) in sampling order; Z/X per party.
_PAIRS = ((False, False), (False, True), (True, False), (True, True))


# ---------------------------------------------------------------------------
# attack specifications
# ---------------------------------------------------------------------------


#: An attack: an explicit joint block state, or one a named constructor returns.
AttackSpec = CompositeBlockState


def _complex_to_json(arr: np.ndarray) -> np.ndarray:
    """Read-only float64 view of a complex array as its (..., 2) [real, imag] pairs: no copy."""
    pairs = arr.view(np.float64).reshape(arr.shape + (2,))
    pairs.flags.writeable = False
    return pairs


def _complex_from_json(pair: list, name: str) -> complex:
    try:
        re, im = pair
    except (TypeError, ValueError):  # not a pair; a pair costs no extra check
        raise ValueError(f"{name} must be a pair [re, im], got {reprlib.repr(pair)}") from None
    return complex(_number(re, name), _number(im, name))


def _complex_array(value, key: str) -> np.ndarray:
    """The complex array of a block's 'amps' or 'rho', from its [re, im] number
    pairs as nested lists (a vector or a matrix as the first entry nests), or
    as a float64 (..., 2) array of them (as the CLI decodes and
    :func:`attack_to_dict` echoes them: not re-checked)."""
    if isinstance(value, np.ndarray):
        return np.ascontiguousarray(value, dtype=np.float64).view(complex).squeeze(-1)
    name = f"an '{key}' entry" if key == "amps" else f"a '{key}' entry"
    first = value[0] if type(value) is list and value else None
    if not (type(first) is list and first and type(first[0]) is list):
        return np.array([_complex_from_json(z, name) for z in value])
    try:  # rows of pairs
        rows = [[_complex_from_json(z, name) for z in row] for row in value]
    except TypeError:  # a row that is not a list
        raise ValueError(f"a '{key}' row must be a list of [re, im] pairs") from None
    if len({*map(len, rows)}) > 1:
        raise ValueError(f"'{key}' rows must all have the same length")
    return np.array(rows)


def attack_to_dict(attack: AttackSpec) -> dict:
    """Description of an attack; inverse of :func:`attack_from_dict`.

    A named attack echoes its ``spec``: its kind and parameters.  An
    explicit state echoes its blocks in (m, n) order: as ``custom`` with
    each ``amps`` vector when every block is a vector, otherwise as
    ``fixed_block`` with each block's ``rho`` density operator.  A block's
    ``amps`` or ``rho`` is a read-only float64 (..., 2) view of the stored
    array, not lists: ``json.dumps`` it with ``default=np.ndarray.tolist``.
    """
    if attack.spec is not None:
        return {**attack.spec}
    pure = all(rho.ndim == 1 for _, rho in attack.blocks.values())
    kind, field = ("custom", "amps") if pure else ("fixed_block", "rho")
    return {
        "kind": kind,
        "blocks": [
            {"m": m, "n": n, "weight": w,
             field: _complex_to_json(rho if pure else attack.density((m, n)))}
            for (m, n), (w, rho) in attack.blocks.items()
        ],
    }


def _integer(value, name: str) -> int:
    """`value`, which must be an integer: no bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(value, name: str) -> float:
    """`value` as a float; it must be a real number (no bool or string) a float holds."""
    if type(value) is float:  # most JSON entries: skip the slower ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def attack_from_dict(data: dict) -> AttackSpec:
    """Parse an attack description (the CLI's ``--attack`` JSON payload).

    Photon numbers (``n_photons``, ``c``, ``m``, ``n``) must be integers,
    and ``p``, ``weight`` and each ``amps`` or ``rho`` entry numbers that
    fit a float; nothing is truncated or parsed from a string.  A named
    kind is its constructor's state, built here.  A ``fixed_block`` or
    ``custom`` attack is the :class:`squashkit.povm.CompositeBlockState` of
    its list of block objects: each ``rho`` must be a matrix and each
    ``amps`` a vector.  A missing field is named with the attack or block
    that lacks it, and a block list, block or block array of the wrong
    type with its path.
    """
    try:
        kind = data["kind"]
    except (TypeError, KeyError):
        raise ValueError("attack spec must be an object with a 'kind' field")
    owner = f"{kind} attack"
    try:
        if kind == "depolarize":
            return Depolarize(_number(data["p"], "'p'"))
        if kind == "intercept_resend":
            return InterceptResend()
        if kind == "coincidence_injection":
            return CoincidenceInjection(data["n_photons"], data["c"])
        if kind in ("fixed_block", "custom"):
            field, axes = ("rho", 2) if kind == "fixed_block" else ("amps", 1)
            items = data["blocks"]
            if not isinstance(items, (list, tuple)):
                raise ValueError("blocks must be a list")
            blocks = {}
            for i, item in enumerate(items):
                owner = f"blocks[{i}]"
                if not isinstance(item, dict):
                    raise ValueError(f"{owner} must be an object")
                m, n = _integer(item["m"], "'m'"), _integer(item["n"], "'n'")
                if (m, n) in blocks:
                    raise ValueError(f"duplicate block ({m}, {n}) in {kind} attack")
                value = item[field]
                if not isinstance(value, (list, tuple, np.ndarray)):
                    rows = "rows of " if axes == 2 else ""
                    raise ValueError(f"{owner} '{field}' must be a list of {rows}[re, im] pairs")
                array = _complex_array(value, field)
                if array.ndim != axes:  # a vector read as a matrix, or back, is another state
                    raise ValueError(
                        f"block ({m}, {n}) '{field}' must be {axes}-D, got shape {array.shape}"
                    )
                blocks[(m, n)] = (_number(item["weight"], "'weight'"), array)
            return CompositeBlockState(blocks)
    except KeyError as exc:  # the field the attack or its block lacks
        raise ValueError(f"{owner} has no field {exc}") from None
    raise ValueError(f"unknown attack kind {kind!r}")


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
    if n_photons < 2:
        raise ValueError("coincidence injection needs N >= 2")
    if not 1 <= c <= n_photons - 1:
        raise ValueError(f"c must lie strictly between 0 and N = {n_photons}, got {c}")
    bob = projector(sym_basis_state(n_photons, c))
    d = n_photons + 1
    rho = np.zeros((2 * d, 2 * d), dtype=complex)
    rho[:d, :d] = rho[d:, d:] = bob / 2.0  # maximally mixed reference qubit
    spec = {"kind": "coincidence_injection", "n_photons": n_photons, "c": c}
    return CompositeBlockState({(1, n_photons): (1.0, rho)}, spec)


def eve_state(attack: AttackSpec) -> CompositeBlockState:
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
        raise ValueError(
            f"single_photon_fraction must be in [0, 1], got {single_photon_fraction}"
        )
    rate = 1.0 - binary_entropy(e_bit) - binary_entropy(e_ph)
    return single_photon_fraction * max(0.0, rate)


# ---------------------------------------------------------------------------
# argument checks
# ---------------------------------------------------------------------------


def _require_bb84_blocks(attack: AttackSpec) -> None:
    """BB84's sender is one qubit, as in every named attack: an attack's
    blocks must all have m = 1."""
    bad = [key for key in attack.blocks if key[0] != 1]
    if bad:
        raise ValueError(
            f"BB84 requires the sender side to be a single qubit; got blocks {bad}"
        )


# ---------------------------------------------------------------------------
# exact Born-probability laws
# ---------------------------------------------------------------------------


def _born(a_effects: np.ndarray, b_effects: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr[(E_p tensor F_q) rho] for every pair of stacked effects E_p, F_q.

    ``rho`` is a density operator on the (da*db)-dimensional product, or a
    state vector psi standing for |psi><psi|.  A vector is never expanded:
    with Psi = psi reshaped to (da, db), M_p = Psi^dagger E_p Psi and the
    law is sum_kl M_p[k, l] F_q[k, l], so memory stays O(da*db).
    """
    da, db = a_effects.shape[1], b_effects.shape[1]
    b = b_effects.reshape(len(b_effects), -1)
    if rho.ndim == 1:
        psi = rho.reshape(da, db)
        a_pulled = psi.conj().T @ a_effects @ psi  # (P, db, db)
        return (a_pulled.reshape(len(a_effects), -1) @ b.T).real
    # rho[(j, l), (i, k)] regrouped as [(i, j), (k, l)], matching E[i, j] F[k, l]
    rho_t = rho.reshape(da, db, da, db).transpose(2, 0, 3, 1).reshape(da * da, db * db)
    a = a_effects.reshape(len(a_effects), -1)
    return (a @ rho_t @ b.T).real


def _table(attack: AttackSpec, protocol: str, mode: str) -> tuple[list, np.ndarray]:
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
    attack: AttackSpec,
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


_HALF_LOG_2PI = 0.5 * log(2.0 * pi)


def _stirling_tail(x: int) -> float:
    """log(x!) minus Stirling's (x + 1/2) log x - x + log(2 pi)/2, for x >= 1."""
    if x < 16:
        return lgamma(x + 1) - (x + 0.5) * log(x) + x - _HALF_LOG_2PI
    r2 = 1.0 / (x * x)
    return (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 / 1680.0))) / x


def _log_factorial_ratio(m: int, k: int) -> float:
    """log(m! / k!) + (k - m) log m, for m >= 1 and k >= 0.

    Written as Stirling differences around m, so nothing cancels at huge
    m and k; ``lgamma(m + 1) - lgamma(k + 1)`` loses every digit once
    lgamma(m) is far above 2**52.
    """
    if k == 0:
        return lgamma(m + 1) - m * log(m)
    d = k - m
    log_k_m = log1p(d / m) if 2 * k > m else log(k / m)  # d / m can round to -1
    return d - (k + 0.5) * log_k_m + _stirling_tail(m) - _stirling_tail(k)


def _binomial(n: int, p: float, rng: Random) -> int:
    """One Binomial(n, p) draw for an integer n >= 0 and 0 <= p <= 1.

    Devroye's geometric method when n p < 10, otherwise Hoermann's BTRS
    transformed rejection (J. Stat. Comput. Simul. 46, 101 (1993)), the
    algorithm of CPython 3.12's ``random.binomialvariate``, with p > 1/2
    reflected.  Unlike that port, the mode and the centre of the hat are
    exact integers, the acceptance log-ratio is :func:`_log_factorial_ratio`,
    the geometric gaps take ``log1p(-p)`` (``log(1 - p)`` rounds p to a
    multiple of 2**-53, and to 0 below 2**-54), and no uniform that is
    logged or divided by is ever 0, so the law holds for every n below 2**63.
    """
    if p > 0.5:
        return n - _binomial(n, 1.0 - p, rng)
    if p == 0.0:
        return 0
    if n * p < 10.0:  # the gaps between successes are geometric
        c = log1p(-p)
        x = y = 0
        while True:
            gap = log(1.0 - rng.random()) / c  # failures before the next success, unfloored
            if gap >= n - y:
                return x
            y += floor(gap) + 1
            x += 1
    spq = sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    num, den = p.as_integer_ratio()  # p is exactly num / den, and 1 - p (den - num) / den
    m = (n + 1) * num // den  # the mode
    c = (n * num - m * den) / den + 0.5  # n p + 1/2, less m
    # log of (n - m) p / (m (1 - p)), from exact integers
    log_ratio = log1p(((n - m) * num - m * (den - num)) / (m * (den - num)))
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:  # random() gave 0, and 2a / us would divide by it
            continue
        k = m + floor((2.0 * a / us + b) * u + c)
        if not 0 <= k <= n:
            continue
        v = 1.0 - rng.random()
        if us >= 0.07 and v <= vr:
            return k
        v *= alpha / (a / (us * us) + b)
        if log(v) <= ((k - m) * log_ratio + _log_factorial_ratio(m, k)
                      + _log_factorial_ratio(n - m, n - k)):
            return k


def _multinomial(trials: int, weights: np.ndarray, rng: Random) -> np.ndarray:
    """One multinomial draw of ``trials`` over the cells of ``weights``, a
    law up to a positive factor, as int64 counts in the order of its ravel.

    Each cell with positive weight in turn takes a binomial share of the
    trials left, at its weight over that of itself and every later cell;
    the last such cell takes the rest, so the counts sum to ``trials``
    exactly and a cell of zero weight never gets a count.  A weight that is
    NaN, infinite or negative raises ``ValueError``, as do all zero weights.
    """
    weights = np.ravel(weights)
    tails = np.cumsum(weights[::-1])[::-1]  # each cell's weight and all after it
    if not (weights.min() >= 0.0 and 0.0 < tails[0] < np.inf):
        raise ValueError("cell weights must be finite, non-negative and not all zero")
    *cells, last = np.flatnonzero(weights).tolist()
    weights, tails = weights.tolist(), tails.tolist()
    counts = [0] * len(weights)
    left = trials
    for i in cells:
        if not left:
            break
        # at most 1: a tail, summed in order, is never below its first weight
        counts[i] = k = _binomial(left, weights[i] / tails[i], rng)
        left -= k
    counts[last] = left
    return np.array(counts, dtype=np.int64)


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
