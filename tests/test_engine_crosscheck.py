"""The physical threshold-detector device as an exact law.

Enumerates, without sampling, what the device does with a joint block: each
receiver modulates its factor with the lifted x modulation when it measures
in x; the diagonal of the modulated block is the joint law of the photon
counts (c_a, c_b) on detector 1; and each side's count is classified as a
threshold detector would (``classify_click``).  A single click reports its
bit, complemented in x; a coincidence reports either bit with weight 1/2;
vacuum reports vacuum, or either bit with weight 1/2 under
``vacuum_random_bit``.  BB84's sender is the one-photon block.

This law shares no code with the effect builder (``side_state_effects``)
or the Born kernel of the category table, so its equality with the table's
``actual``, ``edp1`` and ``edp2`` laws pins the table to the device: on the
shipped attacks, and on random source states, the paper's "for every
source state".
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squashkit.povm import ClickClass, CompositeBlockState, classify_click
from squashkit.protocol import (
    CoincidenceInjection,
    eve_state,
    exact_sifted_distribution,
)
from squashkit.symfock import X_MODULATION, lift_gate

from test_protocol import (
    SHIPPED_BB84_ATTACKS,
    _random_block_amps,
    asymmetric_bbm92_attack,
    double_coincidence_attack,
    honest_bbm92_attack,
)

SHIPPED_ATTACKS = [
    pytest.param("bb84", attack, id=f"bb84-{i}") for i, attack in enumerate(SHIPPED_BB84_ATTACKS)
] + [
    pytest.param("bbm92", honest_bbm92_attack(), id="bbm92-honest"),
    pytest.param("bbm92", double_coincidence_attack(), id="bbm92-double-coincidence"),
    pytest.param("bbm92", asymmetric_bbm92_attack(), id="bbm92-asymmetric"),
]


def side_weights(n, basis_is_x, vacuum_random_bit):
    """(n+1, 3) weights of each count c on detector 1 over (bit 0, bit 1, vacuum)."""
    weights = np.zeros((n + 1, 3))
    for c in range(n + 1):
        click = classify_click(c, n)
        if click is ClickClass.COINCIDENCE or (click is ClickClass.VACUUM and vacuum_random_bit):
            weights[c, :2] = 0.5
        elif click is ClickClass.VACUUM:
            weights[c, 2] = 1.0
        else:
            weights[c, int(click is ClickClass.SINGLE1) ^ basis_is_x] = 1.0
    return weights


def modulation(n, basis_is_x):
    return lift_gate(X_MODULATION, n) if basis_is_x else np.eye(n + 1)


def device_law(attack, vacuum_random_bit=False):
    """Exact per-round law of the device, keyed as ``exact_sifted_distribution``."""
    law = {"vacuum": 0.0, "mismatch": 0.0}
    law.update({(basis, a, b): 0.0 for basis in "zx" for a in (0, 1) for b in (0, 1)})
    for (m, n), (w, rho) in eve_state(attack).blocks.items():
        if rho.ndim == 1:  # a pure block is stored as its state vector
            rho = np.outer(rho, rho.conj())
        for a_x in (False, True):
            for b_x in (False, True):
                gate = np.kron(modulation(m, a_x), modulation(n, b_x))
                counts = np.diag(gate @ rho @ gate.conj().T).real.reshape(m + 1, n + 1)
                cells = 0.25 * w * (
                    side_weights(m, a_x, vacuum_random_bit).T
                    @ counts
                    @ side_weights(n, b_x, vacuum_random_bit)
                )
                law["vacuum"] += cells[2].sum() + cells[:2, 2].sum()
                if a_x != b_x:
                    law["mismatch"] += cells[:2, :2].sum()
                    continue
                for a in (0, 1):
                    for b in (0, 1):
                        law["zx"[a_x], a, b] += cells[a, b]
    return law


def max_deviation(law, reference):
    assert law.keys() == reference.keys()
    return max(abs(law[key] - reference[key]) for key in law)


@pytest.mark.parametrize("vacuum_random_bit", [False, True])
@pytest.mark.parametrize("protocol, attack", SHIPPED_ATTACKS)
def test_device_law_equals_actual_table(protocol, attack, vacuum_random_bit):
    actual = exact_sifted_distribution(
        attack, protocol, "actual", vacuum_random_bit=vacuum_random_bit
    )
    assert max_deviation(device_law(attack, vacuum_random_bit), actual) <= 1e-12


def test_coincidence_reports_either_bit_with_weight_half():
    # z-z rounds: the sender's bit is uniform and every receiver count a
    # coincidence, so each (a, b) cell is 1/4 (basis pair) * 1/2 * 1/2
    law = device_law(CoincidenceInjection(2, 1))
    assert [law["z", a, b] for a in (0, 1) for b in (0, 1)] == [1 / 16] * 4


@st.composite
def pure_block_attacks(draw, protocol):
    """1-3 pure joint blocks with m, n <= 6 (m = 1 for BB84), vacuum included."""
    sender = st.just(1) if protocol == "bb84" else st.integers(0, 6)
    keys = draw(st.lists(st.tuples(sender, st.integers(0, 6)), min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(keys), max_size=len(keys)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return CompositeBlockState({
        (m, n): (w / sum(weights), _random_block_amps(m, n, rng))
        for (m, n), w in zip(keys, weights)
    })


@pytest.mark.parametrize("vacuum_random_bit", [False, True])
@pytest.mark.parametrize("protocol", ["bb84", "bbm92"])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_device_law_equals_every_mode_for_every_source_state(protocol, vacuum_random_bit, data):
    attack = data.draw(pure_block_attacks(protocol))
    law = device_law(attack, vacuum_random_bit)
    for mode in ("actual", "edp1", "edp2"):
        exact = exact_sifted_distribution(
            attack, protocol, mode, vacuum_random_bit=vacuum_random_bit
        )
        assert max_deviation(law, exact) <= 1e-12, mode
