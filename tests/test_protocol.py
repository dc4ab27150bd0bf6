"""Tests for attacks, exact laws, Monte Carlo runs and the key rate."""

import json
import random
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import binom, chi2

from squashkit.povm import CompositeBlockState, side_state_effects
from squashkit.protocol import (
    CoincidenceInjection,
    Depolarize,
    InterceptResend,
    attack_from_dict,
    attack_to_dict,
    bell_state,
    binary_entropy,
    eve_state,
    exact_error_rates,
    exact_sifted_distribution,
    _binomial,
    _born,
    _marginals,
    _multinomial,
    _table,
    key_rate,
    run_simulation,
)
from squashkit.symfock import projector, sym_basis_state


def binomial_4sigma(p, n):
    return 4.0 * np.sqrt(max(p * (1.0 - p), 1e-12) / n)


def double_coincidence_attack():
    blk = projector(sym_basis_state(2, 1))
    rho = np.kron(blk, blk)
    return CompositeBlockState({(2, 2): (1.0, rho)})


def honest_bbm92_attack():
    return CompositeBlockState({(1, 1): (1.0, bell_state())})


def _random_block_amps(m, n, rng):
    dim = (m + 1) * (n + 1)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def asymmetric_custom_attack():
    """Complex-valued multi-block source with no accidental basis symmetry."""
    rng = np.random.default_rng(271828)
    return CompositeBlockState({
        (1, 0): (0.2, np.array([0.6, 0.8])),
        (1, 2): (0.5, _random_block_amps(1, 2, rng)),
        (1, 3): (0.3, _random_block_amps(1, 3, rng)),
    })


def asymmetric_bbm92_attack():
    rng = np.random.default_rng(314159)
    return CompositeBlockState({
        (0, 2): (0.15, _random_block_amps(0, 2, rng)),
        (1, 1): (0.45, _random_block_amps(1, 1, rng)),
        (2, 3): (0.4, _random_block_amps(2, 3, rng)),
    })


SHIPPED_BB84_ATTACKS = [
    Depolarize(0.0),
    Depolarize(0.2),
    InterceptResend(),
    CoincidenceInjection(2, 1),
    CoincidenceInjection(4, 2),
    asymmetric_custom_attack(),
]


def to_json(data):
    """JSON text of an attack description: its arrays as the lists they stand for."""
    return json.dumps(data, default=np.ndarray.tolist)


def to_pairs(array):
    """A complex array as the float64 (..., 2) [re, im] pairs an attack block holds."""
    array = np.asarray(array, dtype=complex)
    return np.stack([array.real, array.imag], axis=-1)


def law_chi_square_pvalue(result, law):
    """Goodness of fit of Monte Carlo tallies against an exact round law."""
    cells = [("vacuum", result.vacuum), ("mismatch", result.mismatched)]
    for basis in "zx":
        counts = result.sifted_counts[basis]
        for a in (0, 1):
            for b in (0, 1):
                cells.append(((basis, a, b), counts[a][b]))
    n = result.trials
    stat = 0.0
    dof = -1
    for key, observed in cells:
        expected = law[key] * n
        if expected < 1e-9:
            assert observed == 0, f"impossible cell {key} observed"
            continue
        stat += (observed - expected) ** 2 / expected
        dof += 1
    return chi2.sf(stat, dof)


class TestBellState:
    def test_unit_trace_and_purity(self):
        rho = bell_state()
        assert abs(np.trace(rho).real - 1.0) < 1e-14
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-14

    def test_reduced_states_maximally_mixed(self):
        rho = bell_state().reshape(2, 2, 2, 2)
        assert np.allclose(rho.trace(axis1=1, axis2=3), np.eye(2) / 2)
        assert np.allclose(rho.trace(axis1=0, axis2=2), np.eye(2) / 2)

    def test_z_measurements_agree(self):
        rho = bell_state()
        agree = rho[0, 0].real + rho[3, 3].real
        assert agree == pytest.approx(1.0)


class TestEveState:
    def test_noiseless_depolarize_is_bell(self):
        state = eve_state(Depolarize(0.0))
        assert set(state.blocks) == {(1, 1)}
        w, rho = state.blocks[(1, 1)]
        assert w == pytest.approx(1.0)
        assert np.max(np.abs(rho - bell_state())) < 1e-14

    def test_depolarize_mixture(self):
        state = eve_state(Depolarize(0.4))
        _, rho = state.blocks[(1, 1)]
        expected = 0.6 * bell_state() + 0.4 * np.eye(4) / 4
        assert np.max(np.abs(rho - expected)) < 1e-14

    def test_coincidence_injection_block(self):
        state = eve_state(CoincidenceInjection(2, 1))
        assert set(state.blocks) == {(1, 2)}
        _, rho = state.blocks[(1, 2)]
        expected = np.kron(np.eye(2) / 2, projector(sym_basis_state(2, 1)))
        assert np.max(np.abs(rho - expected)) < 1e-14

    def test_custom_duplicate_block_rejected(self):
        block = {"m": 0, "n": 1, "weight": 0.5, "amps": [[1.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(ValueError, match=r"duplicate block \(0, 1\) in custom attack"):
            attack_from_dict({"kind": "custom", "blocks": [block, block]})

    def test_fixed_block_duplicate_block_rejected(self):
        # a second (m, n) must not silently replace the first
        rho = [[[0.25 * (i == j), 0.0] for j in range(4)] for i in range(4)]
        block = {"m": 1, "n": 1, "weight": 1.0, "rho": rho}
        with pytest.raises(ValueError, match=r"duplicate block \(1, 1\)"):
            attack_from_dict({"kind": "fixed_block", "blocks": [block, block]})

    def test_custom_norm_checked_once_at_construction(self):
        # the block state's trace check, at 1e-10 on the squared norm
        CompositeBlockState({(0, 1): (1.0, np.array([1 + 3e-11, 0.0]))})
        with pytest.raises(ValueError, match="trace deviates"):
            CompositeBlockState({(0, 1): (1.0, np.array([1 + 3e-10, 0.0]))})

    def test_custom_copies_the_callers_amplitudes(self):
        amps = np.array([1.0 + 0j, 0.0])
        attack = CompositeBlockState({(0, 1): (1.0, amps)})
        amps[0] = 0.5  # the caller's array stays writable
        assert attack.blocks[(0, 1)][1][0] == 1.0
        assert not attack.blocks[(0, 1)][1].flags.writeable

    @pytest.mark.parametrize("make, kind, fields", [
        (Depolarize, "depolarize", {"p": 0}),
        (Depolarize, "depolarize", {"p": 0.25}),
        (InterceptResend, "intercept_resend", {}),
        (CoincidenceInjection, "coincidence_injection", {"n_photons": 4, "c": 1}),
        (CoincidenceInjection, "coincidence_injection", {"n_photons": np.int64(5), "c": 2}),
    ], ids=["depolarize-int", "depolarize-float", "intercept-resend", "coincidence-int",
            "coincidence-numpy-int"])
    def test_named_attack_is_its_block_state(self, make, kind, fields):
        # one attack type: a named constructor returns the state, and its
        # echo is the input's fields, p as a float and photon numbers as ints
        attack = make(**fields)
        assert type(attack) is CompositeBlockState
        assert eve_state(attack) is attack
        data = attack_to_dict(attack)
        assert data == {"kind": kind, **fields}
        assert [type(v) for v in data.values()] == [str] + [
            float if key == "p" else int for key in fields]
        data["kind"] = "changed"  # the echo is a copy
        assert attack_to_dict(attack)["kind"] == kind
        assert attack_from_dict(attack_to_dict(attack)) == attack
        assert CompositeBlockState(attack.blocks) == attack  # equality ignores the spec

    def test_explicit_attack_is_its_own_block_state(self):
        attack = asymmetric_bbm92_attack()
        assert eve_state(attack) is attack
        for (m, n), (_, amps) in attack.blocks.items():  # kept as vectors, never |a><a|
            assert amps.shape == ((m + 1) * (n + 1),)

    @pytest.mark.parametrize("make", [
        lambda: Depolarize(p=True),
        lambda: Depolarize(p="0.1"),
        lambda: Depolarize(p=None),
        lambda: CoincidenceInjection(3.9, 1.5),
        lambda: CoincidenceInjection(4.0, 2),
        lambda: CoincidenceInjection(4, True),
        lambda: CoincidenceInjection("4", 2),
    ], ids=["bool-p", "string-p", "none-p", "float-photons", "integral-float-n",
            "bool-c", "string-n"])
    def test_mistyped_attack_numbers_rejected_at_construction(self, make):
        # before, these were accepted here and failed later, in eve_state
        with pytest.raises(ValueError, match="must be an? (integer|number)"):
            make()

    def test_attack_validation(self):
        with pytest.raises(ValueError):
            Depolarize(1.5)
        with pytest.raises(ValueError):
            CoincidenceInjection(2, 2)
        with pytest.raises(ValueError):
            CoincidenceInjection(1, 1)

    @pytest.mark.parametrize("attack", SHIPPED_BB84_ATTACKS + [double_coincidence_attack()])
    def test_attack_dict_round_trip(self, attack):
        data = attack_to_dict(attack)
        back = attack_from_dict(data)
        # a block's numbers are arrays, so the dicts compare as their JSON text
        assert to_json(attack_to_dict(back)) == to_json(data)

    def test_echo_kind_follows_the_blocks(self):
        # all vectors echo as custom amps; one matrix makes every block a rho
        rng = np.random.default_rng(57721)
        vectors = {
            (0, 0): (0.25, np.array([1.0])),
            (1, 2): (0.75, _random_block_amps(1, 2, rng)),
        }
        mixed = {**vectors, (0, 0): (0.25, np.array([[1.0]]))}
        for blocks, kind, axes in ((vectors, "custom", 1), (mixed, "fixed_block", 2)):
            attack = CompositeBlockState(blocks)
            data = attack_to_dict(attack)
            assert data["kind"] == kind
            field = "amps" if kind == "custom" else "rho"
            for block in data["blocks"]:
                dim = (block["m"] + 1) * (block["n"] + 1)
                assert np.shape(block[field]) == (dim,) * axes + (2,)
            back = attack_from_dict(json.loads(to_json(data)))
            assert back == attack
            assert all(rho.ndim == axes for _, rho in back.blocks.values())

    @pytest.mark.parametrize("kind, field, array, message, as_list", [
        (kind, field, array, message, as_list)
        for as_list in (False, True)
        for kind, field, array, message in (
            ("custom", "amps", np.eye(2) / 2, r"'amps' must be 1-D, got shape \(2, 2\)"),
            ("fixed_block", "rho", np.array([0.6, 0.8]), r"'rho' must be 2-D, got shape \(2,\)"),
        )
    ], ids=["custom-matrix", "fixed-block-vector", "custom-matrix-list", "fixed-block-vector-list"])
    def test_block_array_with_the_wrong_axes_rejected(self, kind, field, array, message,
                                                       as_list):
        # a valid state of the other shape: never read as the other kind, and
        # JSON lists get the message arrays get
        pairs = to_pairs(array).tolist() if as_list else to_pairs(array)
        block = {"m": 0, "n": 1, "weight": 1.0, field: pairs}
        with pytest.raises(ValueError, match=r"block \(0, 1\) " + message):
            attack_from_dict({"kind": kind, "blocks": [block]})

    def test_unsorted_custom_attack_echoes_in_block_order(self):
        rng = np.random.default_rng(1618)
        data = {"kind": "custom", "blocks": [
            {"m": m, "n": n, "weight": 0.5, "amps": to_pairs(_random_block_amps(m, n, rng))}
            for m, n in ((1, 1), (0, 1))
        ]}
        attack = attack_from_dict(data)
        echo = json.loads(to_json(attack_to_dict(attack)))
        assert [(b["m"], b["n"]) for b in echo["blocks"]] == [(0, 1), (1, 1)]
        assert attack_from_dict(echo) == attack

    @pytest.mark.parametrize("kind", ["fixed_block", "custom"])
    def test_complex_arrays_round_trip_byte_for_byte(self, kind):
        # signed zeros and full-precision parts survive both directions
        amps = np.array([complex(0.6, -0.0), complex(-0.0, 0.8), 0.0, 0.0])
        if kind == "custom":
            attack = CompositeBlockState({(1, 1): (1.0, amps)})
        else:
            attack = CompositeBlockState({(1, 1): (1.0, np.outer(amps, amps.conj()))})
        data = attack_to_dict(attack)
        key = "amps" if kind == "custom" else "rho"
        leaves = np.ravel(data["blocks"][0][key]).tolist()
        assert all(type(v) is float for v in leaves)
        text = to_json(data)
        assert to_json(attack_to_dict(attack_from_dict(json.loads(text)))) == text
        assert "-0.0" in text

    @pytest.mark.parametrize("kind", ["fixed_block", "custom"])
    def test_echo_is_a_read_only_view_of_the_stored_block(self, kind):
        # no copy and no lists: the echo costs O(1) per block
        attack = asymmetric_custom_attack()
        if kind == "fixed_block":
            attack = CompositeBlockState({
                key: (w, np.outer(a, a.conj())) for key, (w, a) in attack.blocks.items()})
        stored = {key: rho for key, (_, rho) in eve_state(attack).blocks.items()}
        key = "amps" if kind == "custom" else "rho"
        for block in attack_to_dict(attack)["blocks"]:
            pairs, array = block[key], stored[(block["m"], block["n"])]
            assert pairs.dtype == np.float64 and pairs.shape == array.shape + (2,)
            assert np.shares_memory(pairs, array) and not pairs.flags.writeable
            assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], array)

    def test_equality_compares_content(self):
        for attack in (asymmetric_bbm92_attack(), double_coincidence_attack()):
            data = attack_to_dict(attack)
            assert attack_from_dict(data) == attack_from_dict(data)
            assert eve_state(attack_from_dict(data)) == eve_state(attack)
        assert eve_state(Depolarize(0.1)) == eve_state(Depolarize(0.1))
        assert eve_state(Depolarize(0.1)) != eve_state(Depolarize(0.2))
        assert honest_bbm92_attack() != double_coincidence_attack()
        amps = np.array([1.0, 0.0])
        state = CompositeBlockState({(0, 1): (1.0, amps)})
        assert state != CompositeBlockState({(0, 1): (1.0, amps[::-1])})
        assert state != CompositeBlockState({(1, 0): (1.0, amps)})


class TestExactErrorRates:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.22])
    def test_depolarize_rates(self, p):
        e_bit, e_ph = exact_error_rates(Depolarize(p))
        assert abs(e_bit - p / 2) < 1e-12
        assert abs(e_ph - p / 2) < 1e-12

    def test_intercept_resend_rates(self):
        e_bit, e_ph = exact_error_rates(InterceptResend())
        assert abs(e_bit - 0.25) < 1e-12
        assert abs(e_ph - 0.25) < 1e-12

    def test_coincidence_injection_unbiased(self):
        e_bit, _ = exact_error_rates(CoincidenceInjection(2, 1))
        assert abs(e_bit - 0.5) < 1e-12

    def test_bbm92_honest_rates(self):
        e_bit, e_ph = exact_error_rates(honest_bbm92_attack(), protocol="bbm92")
        assert abs(e_bit) < 1e-12
        assert abs(e_ph) < 1e-12

    def test_all_vacuum_rejected(self):
        attack = CompositeBlockState({(1, 0): (1.0, np.eye(2) / 2)})
        with pytest.raises(ValueError):
            exact_error_rates(attack)


class TestKeyRate:
    def test_perfect_channel(self):
        assert key_rate(0.0, 0.0) == 1.0

    def test_entropy_basics(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)
        assert binary_entropy(0.2) == pytest.approx(binary_entropy(0.8))

    def test_symmetric_zero_crossing(self):
        # independent root-find of 1 - 2 H2(e)
        crossing = brentq(lambda e: 1.0 - 2.0 * binary_entropy(e), 0.05, 0.2)
        assert 0.1099 <= crossing <= 0.1101
        assert abs(key_rate(crossing, crossing)) < 1e-3
        assert key_rate(0.1101, 0.1101) == 0.0
        assert key_rate(0.1099, 0.1099) > 0.0

    def test_clamped_at_zero(self):
        assert key_rate(0.25, 0.25) == 0.0

    @given(
        e1=st.floats(min_value=0.0, max_value=0.5),
        e2=st.floats(min_value=0.0, max_value=0.5),
        delta=st.floats(min_value=0.0, max_value=0.1),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_nonincreasing(self, e1, e2, delta):
        bumped = min(e1 + delta, 0.5)
        assert key_rate(bumped, e2) <= key_rate(e1, e2) + 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            key_rate(0.6, 0.1)
        with pytest.raises(ValueError):
            key_rate(0.1, -0.01)

    def test_single_photon_fraction_scales(self):
        assert key_rate(0.0, 0.0, single_photon_fraction=0.25) == 0.25


class TestBb84MonteCarlo:
    def test_noiseless_run(self):
        result = run_simulation("bb84", "actual", Depolarize(0.0), 100_000, 42)
        assert result.e_bit == 0.0
        assert result.vacuum == 0
        assert abs(result.sifted - 50_000) < 4 * np.sqrt(100_000 * 0.25)
        assert result.key_rate == 1.0

    def test_coincidence_injection_randomizes(self):
        result = run_simulation("bb84", "actual", CoincidenceInjection(2, 1), 100_000, 3)
        assert abs(result.e_bit - 0.5) < binomial_4sigma(0.5, result.sifted)

    @pytest.mark.parametrize("p", [0.1, 0.2])
    def test_depolarize_matches_exact(self, p):
        result = run_simulation("bb84", "actual", Depolarize(p), 100_000, 7)
        e_exact, _ = exact_error_rates(Depolarize(p))
        assert abs(result.e_bit - e_exact) < binomial_4sigma(e_exact, result.sifted)

    def test_zero_sifted_flagged_as_absent(self):
        attack = CompositeBlockState({(1, 0): (1.0, np.eye(2) / 2)})
        result = run_simulation("bb84", "actual", attack, 1000, 5)
        assert result.sifted == 0
        assert result.vacuum == 1000
        assert result.e_bit is None
        assert result.key_rate is None

    def test_edp_variants_agree(self):
        r1 = run_simulation("bb84", "edp1", Depolarize(0.2), 100_000, 11)
        r2 = run_simulation("bb84", "edp2", Depolarize(0.2), 100_000, 13)
        sigma = binomial_4sigma(0.1, min(r1.sifted, r2.sifted))
        assert abs(r1.e_bit - r2.e_bit) < 2 * sigma

    def test_virtual_reports_phase_error(self):
        r = run_simulation("bb84", "edp2", Depolarize(0.2), 50_000, 21)
        assert r.e_ph is not None
        assert abs(r.e_ph - 0.1) < binomial_4sigma(0.1, r.sifted_x)
        r_act = run_simulation("bb84", "actual", Depolarize(0.2), 10_000, 21)
        assert r_act.e_ph is None

    def test_bad_alice_side_rejected(self, monkeypatch):
        # before the state is built
        import squashkit.protocol as protocol

        built = []
        monkeypatch.setattr(protocol, "eve_state", built.append)
        attack = CompositeBlockState({(1, 1): (0.5, bell_state()), (2, 1): (0.5, np.eye(6) / 6)})
        with pytest.raises(ValueError, match=r"single qubit; got blocks \[\(2, 1\)\]"):
            run_simulation("bb84", "actual", attack, 100, 1)
        assert built == []

    def test_photon_tallies_cover_all_trials(self):
        for protocol, attack, keys in (
            ("bb84", CoincidenceInjection(2, 1), {"2"}),
            ("bb84", asymmetric_custom_attack(), {"0", "2", "3"}),
            ("bbm92", asymmetric_bbm92_attack(), {"0,2", "1,1", "2,3"}),
        ):
            result = run_simulation(protocol, "actual", attack, 10_000, 9)
            tallies = result.photon_tallies.values()
            assert set(result.photon_tallies) == keys
            assert sum(t["rounds"] for t in tallies) == 10_000
            assert sum(t["sifted"] for t in tallies) == result.sifted
            assert sum(t["errors"] for t in tallies) == result.errors
            assert np.sum(list(result.sifted_counts.values())) == result.sifted

    @pytest.mark.parametrize("trials", [0, 2**63])
    def test_trials_outside_the_int64_tallies_rejected(self, trials):
        with pytest.raises(ValueError, match="trials"):
            run_simulation("bb84", "actual", Depolarize(0.05), trials, 3)

    def test_numpy_integer_trials_and_seed(self):
        expected = run_simulation("bb84", "actual", Depolarize(0.1), 10**12, 3)
        result = run_simulation("bb84", "actual", Depolarize(0.1), np.int64(10**12), np.uint64(3))
        assert result == expected
        assert type(result.trials) is int and type(result.seed) is int

    def test_bounded_resources_at_very_large_trials(self):
        result = run_simulation("bb84", "actual", Depolarize(0.05), 10**10, 3)
        assert result.vacuum + result.mismatched + result.sifted == 10**10
        assert sum(t["rounds"] for t in result.photon_tallies.values()) == 10**10


def pooled_chi_square_pvalue(observed, expected):
    """Goodness of fit of counts against expected counts, neighbouring cells
    pooled from the left until each pool expects at least 5."""
    pools, want, got = [], 0.0, 0
    for o, e in zip(observed, expected):
        want, got = want + e, got + o
        if want >= 5.0:
            pools.append((got, want))
            want, got = 0.0, 0
    last_got, last_want = pools.pop()
    pools.append((last_got + got, last_want + want))
    stat = sum((o - e) ** 2 / e for o, e in pools)
    return chi2.sf(stat, len(pools) - 1)


class TestSampler:
    """The one multinomial draw of a run, and the binomials it is made of."""

    @pytest.mark.parametrize("n, p, seed", [
        (1, 0.3, 1),
        (40, 0.1, 2),  # n p < 10: Devroye's geometric method
        (12, 0.9, 3),  # p > 1/2, reflected into the geometric method
        (300, 0.2, 4),  # BTRS
        (80, 0.85, 5),  # p > 1/2, reflected into BTRS
        (2**62, 1e-18, 13),  # 1 - p rounds to 1
    ], ids=["n1", "geometric", "geometric-reflected", "btrs", "btrs-reflected", "geometric-tiny-p"])
    def test_binomial_matches_its_law(self, n, p, seed):
        rng = random.Random(seed)
        draws = [_binomial(n, p, rng) for _ in range(10_000)]
        observed = np.bincount(draws)
        support = np.arange(observed.size)
        expected = 10_000 * binom.pmf(support, n, p)
        expected[-1] += 10_000 * binom.sf(support[-1], n, p)  # the tail above the largest draw
        assert pooled_chi_square_pvalue(observed, expected) > 1e-3

    @pytest.mark.parametrize("n, p", [(40, 0.1), (300, 0.2), (80, 0.85)])
    def test_binomial_takes_a_zero_uniform(self, n, p):
        # random() may return 0.0: it is never logged or divided by
        class ZerosFirst(random.Random):
            zeros = 5

            def random(self):
                if self.zeros:
                    self.zeros -= 1
                    return 0.0
                return super().random()

        assert 0 <= _binomial(n, p, ZerosFirst(14)) <= n

    @pytest.mark.parametrize("n", [0, 1, 7, 10**12, 2**63 - 1])
    def test_binomial_at_certain_outcomes(self, n):
        rng = random.Random(6)
        assert _binomial(n, 0.0, rng) == 0
        assert _binomial(n, 1.0, rng) == n
        assert _binomial(0, 0.3, rng) == _binomial(0, 0.7, rng) == 0

    @pytest.mark.parametrize("n, p, seed", [
        (10**13, 0.3, 7),
        (10**13, 1e-3, 8),
        (10**16, 0.3, 9),
        (10**16, 1e-3, 10),
        (2**62, 0.3, 11),
        (2**62, 1e-3, 12),
    ])
    def test_binomial_keeps_its_shape_at_huge_n(self, n, p, seed):
        # The acceptance test written as lgamma(m + 1) - lgamma(k + 1) + ...
        # loses every digit here: the standardized variance read 1.6 at
        # n = 1e16 and 17 at n = 2**62 (p = 0.3).
        rng = random.Random(seed)
        num, den = p.as_integer_ratio()  # p exactly, so z is exact to rounding
        sd = np.sqrt(n * p * (1.0 - p))
        z = np.array([(_binomial(n, p, rng) * den - n * num) / den / sd for _ in range(20_000)])
        assert abs(z.mean()) < 5 / np.sqrt(20_000)
        assert abs(np.mean(z**2) - 1.0) < 0.05  # 5 standard errors
        assert abs(np.mean(np.abs(z) > 2.0) - 0.0455) < 0.0075  # 5 standard errors

    @pytest.mark.parametrize("trials", [1, 2**20, 2**20 + 1, 10**12, 2**63 - 1])
    def test_multinomial_sums_exactly_and_skips_zero_cells(self, trials):
        # zero cells first, in the middle and last; one cell near the bottom
        # of the float range
        weights = np.array([[0.0, 0.3, 0.0], [1e-300, 0.2, 0.0], [0.5, 0.0, 0.0]])
        for seed in range(20):
            counts = _multinomial(trials, weights, random.Random(seed))
            assert counts.dtype == np.int64 and counts.shape == (weights.size,)
            assert sum(counts.tolist()) == trials
            assert counts.min() >= 0
            assert not counts[weights.ravel() == 0.0].any()
        assert _multinomial(trials, [0.0, 2.0, 0.0], random.Random(1)).tolist() == [0, trials, 0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
    def test_multinomial_rejects_weights_that_are_no_law(self, bad):
        with pytest.raises(ValueError, match="finite, non-negative"):
            _multinomial(10, np.array([0.5, bad, 0.5]), random.Random(1))
        with pytest.raises(ValueError, match="not all zero"):
            _multinomial(10, np.zeros(3), random.Random(1))

    def test_run_is_one_multinomial_draw_from_its_seed(self):
        attack = asymmetric_bbm92_attack()
        result = run_simulation("bbm92", "edp1", attack, 10**9, 29)
        _, table = _table(attack, "bbm92", "edp1")
        counts = _multinomial(10**9, table, random.Random(29)).reshape(table.shape)
        vacuum, mismatched, sifted, _ = _marginals(counts)
        assert (result.vacuum, result.mismatched) == (vacuum, mismatched)
        assert result.sifted_counts == {"z": sifted[0].tolist(), "x": sifted[1].tolist()}

    @pytest.mark.parametrize("protocol, attack", [
        ("bb84", asymmetric_custom_attack()),
        ("bbm92", asymmetric_bbm92_attack()),
    ], ids=["bb84", "bbm92"])
    def test_monte_carlo_matches_exact_law_at_a_billion_trials(self, protocol, attack):
        law = exact_sifted_distribution(attack, protocol, "actual")
        result = run_simulation(protocol, "actual", attack, 10**9, 43)
        assert law_chi_square_pvalue(result, law) > 0.001


class TestDistributionalEquivalence:
    @pytest.mark.parametrize("attack", SHIPPED_BB84_ATTACKS)
    @pytest.mark.parametrize("mode", ["edp1", "edp2"])
    def test_exact_laws_agree(self, attack, mode):
        actual = exact_sifted_distribution(attack, "bb84", "actual")
        virtual = exact_sifted_distribution(attack, "bb84", mode)
        for key in actual:
            assert abs(actual[key] - virtual[key]) < 1e-10

    @pytest.mark.parametrize("attack", SHIPPED_BB84_ATTACKS)
    def test_law_normalized(self, attack):
        law = exact_sifted_distribution(attack, "bb84", "actual")
        assert abs(sum(law.values()) - 1.0) < 1e-12

    def test_single_photon_attack_virtual_equals_actual(self):
        # identity squash: not just equal laws, equal constructions
        law_a = exact_sifted_distribution(Depolarize(0.3), "bb84", "actual")
        law_v = exact_sifted_distribution(Depolarize(0.3), "bb84", "edp2")
        for key in law_a:
            assert law_a[key] == pytest.approx(law_v[key], abs=1e-14)

    @pytest.mark.parametrize("mode", ["actual", "edp2"])
    def test_monte_carlo_matches_exact_law(self, mode):
        attack = Depolarize(0.2)
        law = exact_sifted_distribution(attack, "bb84", "actual")
        result = run_simulation("bb84", mode, attack, 100_000, 31)
        assert law_chi_square_pvalue(result, law) > 0.001

    @pytest.mark.parametrize("mode", ["actual", "edp1"])
    def test_asymmetric_attack_sampler_matches_law(self, mode):
        # vacuum + coincidence + complex amplitudes in one source
        attack = asymmetric_custom_attack()
        law = exact_sifted_distribution(attack, "bb84", "actual")
        result = run_simulation("bb84", mode, attack, 100_000, 47)
        assert law_chi_square_pvalue(result, law) > 0.001
        assert result.vacuum > 0


def reference_table(attack, protocol, mode):
    """The category table one (basis pair, block) cell at a time, with the
    Born rule Tr[(E x F) rho] written out as an einsum."""
    state = eve_state(attack)
    sender_mode = "actual" if protocol == "bb84" else mode
    pairs = ((False, False), (False, True), (True, False), (True, True))
    cells = np.zeros((len(pairs), len(state.blocks), 3, 3))
    for p_i, (a_x, b_x) in enumerate(pairs):
        for k_i, ((m, n), (w, rho)) in enumerate(state.blocks.items()):
            ea = side_state_effects(m, sender_mode)[3 * a_x : 3 * a_x + 3]
            eb = side_state_effects(n, mode)[3 * b_x : 3 * b_x + 3]
            if rho.ndim == 1:  # a pure block is stored as its state vector
                rho = np.outer(rho, rho.conj())
            # rho[(j, l), (i, k)] pairs with E[i, j] F[k, l]
            rho = rho.reshape(m + 1, n + 1, m + 1, n + 1)
            born = np.einsum("pij,qkl,jlik->pq", ea, eb, rho).real
            cells[p_i, k_i] = np.maximum(0.25 * w * born, 0.0)
    return list(state.blocks), cells


def vacuum_and_zero_weight_attack(protocol):
    """Complex pure blocks with vacuum on either side and a zero-weight block."""
    rng = np.random.default_rng(161803)
    if protocol == "bb84":
        keys = [(1, 0), (1, 1), (1, 2), (1, 3)]
    else:
        keys = [(0, 0), (0, 2), (2, 0), (1, 1), (3, 2)]
    weights = np.arange(1.0, len(keys) + 1)
    weights[2] = 0.0
    weights /= weights.sum()
    return CompositeBlockState({
        (m, n): (w, _random_block_amps(m, n, rng)) for (m, n), w in zip(keys, weights)
    })


@cache
def stacked_effects(n, mode):
    """One side's z- then x-basis effect stack, as ``_table`` builds it."""
    return side_state_effects(n, mode)


class TestVectorBorn:
    @settings(max_examples=60, deadline=None)
    @given(
        da=st.integers(1, 13),
        db=st.integers(1, 13),
        modes=st.tuples(st.sampled_from(["actual", "edp1", "edp2"]),
                        st.sampled_from(["actual", "edp1", "edp2"])),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_vector_equals_its_outer_product(self, da, db, modes, seed):
        psi = _random_block_amps(da - 1, db - 1, np.random.default_rng(seed))
        a, b = stacked_effects(da - 1, modes[0]), stacked_effects(db - 1, modes[1])
        from_vector = _born(a, b, psi)
        from_density = _born(a, b, np.outer(psi, psi.conj()))
        assert from_vector.shape == from_density.shape == (len(a), len(b))
        assert np.max(np.abs(from_vector - from_density)) <= 1e-14

    def test_pure_block_never_forms_its_density(self):
        # one (30, 30) block: its density would be 961 x 961 complex, 14.8 MB
        psi = _random_block_amps(30, 30, np.random.default_rng(2718))
        tracemalloc.start()
        try:
            attack = CompositeBlockState({(30, 30): (1.0, psi)})
            _, cells = _table(attack, "bbm92", "actual")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cells.sum() == pytest.approx(1.0, abs=1e-12)
        assert peak < 1.5e6


class TestTable:
    @pytest.mark.parametrize("protocol", ["bb84", "bbm92"])
    @pytest.mark.parametrize("mode", ["actual", "edp1", "edp2"])
    def test_matches_per_cell_reference(self, protocol, mode):
        attack = vacuum_and_zero_weight_attack(protocol)
        keys, cells = _table(attack, protocol, mode)
        ref_keys, ref_cells = reference_table(attack, protocol, mode)
        assert keys == ref_keys
        assert cells.shape == ref_cells.shape
        assert np.max(np.abs(cells - ref_cells)) < 1e-15
        zero = next(key for key, (w, _) in attack.blocks.items() if w == 0.0)
        assert not cells[:, keys.index(zero)].any()


    @pytest.mark.parametrize("mode, lifts", [("edp1", 1), ("edp2", 0)])
    def test_one_squash_build_per_photon_number(self, mode, lifts, monkeypatch):
        # both bases of each side come from one channel and at most one lift
        import squashkit.povm as povm

        built, lifted = [], []

        def counting(calls, real):
            def count(*args):
                calls.append(args[-1])  # the photon number
                return real(*args)
            return count

        monkeypatch.setattr(povm, "build_squash", counting(built, povm.build_squash))
        monkeypatch.setattr(povm, "lift_gate", counting(lifted, povm.lift_gate))
        _table(asymmetric_bbm92_attack(), "bbm92", mode)  # blocks (0, 2), (1, 1), (2, 3)
        assert sorted(built) == [1, 2, 3]
        assert sorted(lifted) == [1, 2, 3] * lifts


class TestBbm92:
    def test_honest_bell_source(self):
        result = run_simulation("bbm92", "actual", honest_bbm92_attack(), 100_000, 17)
        assert result.e_bit == 0.0
        assert result.key_rate == 1.0
        assert abs(result.sifted - 50_000) < 4 * np.sqrt(100_000 * 0.25)

    def test_double_coincidence_randomizes(self):
        result = run_simulation("bbm92", "actual", double_coincidence_attack(), 100_000, 19)
        assert abs(result.e_bit - 0.5) < binomial_4sigma(0.5, result.sifted)

    def test_vacuum_on_either_side_discards(self):
        blocks = {
            (0, 1): (0.5, np.eye(2) / 2),
            (1, 1): (0.5, bell_state()),
        }
        attack = CompositeBlockState(blocks)
        result = run_simulation("bbm92", "actual", attack, 40_000, 23)
        assert abs(result.vacuum - 20_000) < 4 * np.sqrt(40_000 * 0.25)
        assert result.e_bit == 0.0

    @pytest.mark.parametrize(
        "attack",
        [
            honest_bbm92_attack(),
            double_coincidence_attack(),
            Depolarize(0.15),
            asymmetric_bbm92_attack(),
        ],
    )
    @pytest.mark.parametrize("mode", ["edp1", "edp2"])
    def test_actual_virtual_exact_equivalence(self, attack, mode):
        actual = exact_sifted_distribution(attack, "bbm92", "actual")
        virtual = exact_sifted_distribution(attack, "bbm92", mode)
        for key in actual:
            assert abs(actual[key] - virtual[key]) < 1e-10

    def test_single_photon_bbm92_reduces_to_bb84(self):
        for mode in ("actual", "edp1", "edp2"):
            law_a = exact_sifted_distribution(Depolarize(0.22), "bbm92", mode)
            law_b = exact_sifted_distribution(Depolarize(0.22), "bb84", mode)
            for key in law_a:
                assert abs(law_a[key] - law_b[key]) < 1e-10

    def test_monte_carlo_matches_exact_law(self):
        attack = double_coincidence_attack()
        law = exact_sifted_distribution(attack, "bbm92", "actual")
        result = run_simulation("bbm92", "actual", attack, 100_000, 37)
        assert law_chi_square_pvalue(result, law) > 0.001


class TestReproducibility:
    def test_same_seed_same_result(self):
        a = run_simulation("bb84", "actual", Depolarize(0.13), 30_000, 99)
        b = run_simulation("bb84", "actual", Depolarize(0.13), 30_000, 99)
        assert a == b

    def test_thread_count_invariant(self):
        """Pins that the accepted ``threads=`` argument is ignored."""
        kwargs = dict(trials=30_000, seed=99)
        r1 = run_simulation("bb84", "actual", Depolarize(0.13), threads=1, **kwargs)
        r3 = run_simulation("bb84", "actual", Depolarize(0.13), threads=3, **kwargs)
        assert r1 == r3

    def test_env_var_does_not_change_results(self, monkeypatch):
        monkeypatch.setenv("SQUASHKIT_THREADS", "4")
        a = run_simulation("bb84", "actual", Depolarize(0.05), 20_000, 55)
        monkeypatch.delenv("SQUASHKIT_THREADS")
        b = run_simulation("bb84", "actual", Depolarize(0.05), 20_000, 55)
        assert a == b
