"""Sequential-device oracle for the vectorized Monte Carlo engine.

Replays the physical round structure one event at a time: sample the
adversary's block, let the sender collapse her qubit with explicit
projectors, modulate the receiver's block for x rounds, and fire
``detect_event``.  The resulting outcome law must match the exact
categorical law the fast engine samples from; this pins the engine to the
device model rather than to itself.
"""

import numpy as np
from scipy.stats import chi2

from squashkit.povm import (
    ClickClass,
    Outcome,
    classify_click,
    detect_event,
    modulated_block,
)
from squashkit.protocol import (
    CoincidenceInjection,
    eve_state,
    exact_sifted_distribution,
)
from squashkit.symfock import X_MODULATION, Basis, lift_gate, qubit_frame

from test_protocol import asymmetric_bbm92_attack, asymmetric_custom_attack


def naive_bb84_actual_counts(attack, trials, seed):
    state = eve_state(attack)
    keys = list(state.blocks)
    weights = np.array([state.blocks[k][0] for k in keys])
    cdf = np.cumsum(weights)
    rng = np.random.default_rng(seed)
    counts = {"vacuum": 0, "mismatch": 0}
    for basis in "zx":
        for a in (0, 1):
            for b in (0, 1):
                counts[(basis, a, b)] = 0
    for _ in range(trials):
        k = keys[min(np.searchsorted(cdf, rng.random() * cdf[-1], "right"),
                     len(keys) - 1)]
        _, n = k
        rho = state.blocks[k][1]
        basis_a = Basis.Z if rng.random() < 0.5 else Basis.X
        basis_b = Basis.Z if rng.random() < 0.5 else Basis.X
        # sender measures her qubit and collapses the receiver block
        v0 = qubit_frame(basis_a)[:, 0]
        eye = np.eye(n + 1, dtype=complex)
        bra0 = np.kron(v0.conj(), eye)
        collapsed0 = bra0 @ rho @ bra0.conj().T
        p0 = np.trace(collapsed0).real
        if rng.random() < p0:
            a_bit, rho_b = 0, collapsed0 / p0
        else:
            v1 = qubit_frame(basis_a)[:, 1]
            bra1 = np.kron(v1.conj(), eye)
            collapsed1 = bra1 @ rho @ bra1.conj().T
            a_bit, rho_b = 1, collapsed1 / np.trace(collapsed1).real
        if n == 0:
            counts["vacuum"] += 1
            continue
        gate = basis_b is Basis.X
        if gate:
            rho_b = modulated_block(rho_b, n)
        outcome = detect_event(n, rho_b, gate, rng)
        if outcome is Outcome.VACUUM:
            counts["vacuum"] += 1
        elif basis_a is not basis_b:
            counts["mismatch"] += 1
        else:
            basis = "z" if basis_a is Basis.Z else "x"
            counts[(basis, a_bit, outcome.value)] += 1
    return counts


def naive_bbm92_actual_counts(attack, trials, seed):
    """Both receivers run the physical device on their half of the block.

    Each side's factor is modulated for x rounds, the joint z outcome is
    drawn from the diagonal, and each side's photon count is classified as
    a threshold detector would, with a fair coin on coincidences.
    """
    state = eve_state(attack)
    keys = list(state.blocks)
    weights = np.array([state.blocks[k][0] for k in keys])
    cdf = np.cumsum(weights)
    rng = np.random.default_rng(seed)
    counts = {"vacuum": 0, "mismatch": 0}
    for basis in "zx":
        for a in (0, 1):
            for b in (0, 1):
                counts[(basis, a, b)] = 0
    diagonals = {}
    for _ in range(trials):
        k = keys[min(np.searchsorted(cdf, rng.random() * cdf[-1], "right"),
                     len(keys) - 1)]
        m, n = k
        x_a = rng.random() >= 0.5
        x_b = rng.random() >= 0.5
        if (k, x_a, x_b) not in diagonals:
            gate_a = lift_gate(X_MODULATION, m) if x_a else np.eye(m + 1)
            gate_b = lift_gate(X_MODULATION, n) if x_b else np.eye(n + 1)
            gate = np.kron(gate_a, gate_b)
            rho = gate @ state.blocks[k][1] @ gate.conj().T
            diagonals[(k, x_a, x_b)] = np.cumsum(np.clip(np.diag(rho).real, 0.0, None))
        fine = diagonals[(k, x_a, x_b)]
        idx = min(np.searchsorted(fine, rng.random() * fine[-1], "right"),
                  fine.size - 1)
        bits = []
        for count, photons, x in ((idx // (n + 1), m, x_a), (idx % (n + 1), n, x_b)):
            click = classify_click(count, photons)
            if click is ClickClass.VACUUM:
                bits.append(None)
                continue
            if click is ClickClass.COINCIDENCE:
                bit = int(rng.random() < 0.5)
            else:
                bit = int(click is ClickClass.SINGLE1)
            bits.append(bit ^ int(x))
        if None in bits:
            counts["vacuum"] += 1
        elif x_a != x_b:
            counts["mismatch"] += 1
        else:
            counts[("x" if x_a else "z", bits[0], bits[1])] += 1
    return counts


def law_pvalue(counts, law, trials):
    stat, dof = 0.0, -1
    for key, observed in counts.items():
        expected = law[key] * trials
        if expected < 1e-9:
            assert observed == 0, f"impossible cell {key} observed"
            continue
        stat += (observed - expected) ** 2 / expected
        dof += 1
    return chi2.sf(stat, dof)


def test_sequential_device_matches_exact_law_coincidence():
    attack = CoincidenceInjection(2, 1)
    trials = 30_000
    counts = naive_bb84_actual_counts(attack, trials, seed=123)
    law = exact_sifted_distribution(attack, "bb84", "actual")
    assert law_pvalue(counts, law, trials) > 0.001


def test_sequential_device_matches_exact_law_asymmetric():
    attack = asymmetric_custom_attack()
    trials = 30_000
    counts = naive_bb84_actual_counts(attack, trials, seed=321)
    law = exact_sifted_distribution(attack, "bb84", "actual")
    assert law_pvalue(counts, law, trials) > 0.001


def test_sequential_device_matches_exact_law_bbm92():
    # vacuum on the sender side and coincidences on both sides
    attack = asymmetric_bbm92_attack()
    trials = 30_000
    counts = naive_bbm92_actual_counts(attack, trials, seed=4242)
    law = exact_sifted_distribution(attack, "bbm92", "actual")
    assert counts["vacuum"] > 0
    assert law_pvalue(counts, law, trials) > 0.001
