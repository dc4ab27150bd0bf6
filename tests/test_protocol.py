"""Tests for attacks, exact laws, Monte Carlo runs and the key rate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import chi2

from squashkit.povm import CompositeBlockState
from squashkit.protocol import (
    CoincidenceInjection,
    CustomState,
    Depolarize,
    FixedBlockState,
    InterceptResend,
    attack_from_dict,
    attack_to_dict,
    bell_state,
    binary_entropy,
    eve_state,
    exact_error_rates,
    exact_sifted_distribution,
    key_rate,
    run_simulation,
)
from squashkit.symfock import projector, sym_basis_state


def binomial_4sigma(p, n):
    return 4.0 * np.sqrt(max(p * (1.0 - p), 1e-12) / n)


def double_coincidence_attack():
    blk = projector(sym_basis_state(2, 1))
    rho = np.kron(blk, blk)
    return FixedBlockState(CompositeBlockState({(2, 2): (1.0, rho)}))


def honest_bbm92_attack():
    return FixedBlockState(CompositeBlockState({(1, 1): (1.0, bell_state())}))


def _random_block_amps(m, n, rng):
    dim = (m + 1) * (n + 1)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def asymmetric_custom_attack():
    """Complex-valued multi-block source with no accidental basis symmetry."""
    rng = np.random.default_rng(271828)
    return CustomState((
        (1, 0, 0.2, np.array([0.6, 0.8])),
        (1, 2, 0.5, _random_block_amps(1, 2, rng)),
        (1, 3, 0.3, _random_block_amps(1, 3, rng)),
    ))


def asymmetric_bbm92_attack():
    rng = np.random.default_rng(314159)
    return CustomState((
        (0, 2, 0.15, _random_block_amps(0, 2, rng)),
        (1, 1, 0.45, _random_block_amps(1, 1, rng)),
        (2, 3, 0.4, _random_block_amps(2, 3, rng)),
    ))


SHIPPED_BB84_ATTACKS = [
    Depolarize(0.0),
    Depolarize(0.2),
    InterceptResend(),
    CoincidenceInjection(2, 1),
    CoincidenceInjection(4, 2),
    asymmetric_custom_attack(),
]


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
        amps = np.array([1.0, 0.0])
        attack = CustomState(((0, 1, 0.5, amps), (0, 1, 0.5, amps)))
        with pytest.raises(ValueError):
            eve_state(attack)

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
        assert attack_to_dict(back) == data

    def test_equality_compares_content(self):
        for attack in (asymmetric_bbm92_attack(), double_coincidence_attack()):
            data = attack_to_dict(attack)
            assert attack_from_dict(data) == attack_from_dict(data)
            assert eve_state(attack_from_dict(data)) == eve_state(attack)
        assert eve_state(Depolarize(0.1)) == eve_state(Depolarize(0.1))
        assert eve_state(Depolarize(0.1)) != eve_state(Depolarize(0.2))
        assert honest_bbm92_attack() != double_coincidence_attack()
        amps = np.array([1.0, 0.0])
        assert CustomState(((0, 1, 1.0, amps),)) != CustomState(((0, 1, 1.0, amps[::-1]),))
        assert CustomState(((0, 1, 1.0, amps),)) != CustomState(((1, 0, 1.0, amps),))


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
        attack = FixedBlockState(
            CompositeBlockState({(1, 0): (1.0, np.eye(2) / 2)})
        )
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
        attack = FixedBlockState(
            CompositeBlockState({(1, 0): (1.0, np.eye(2) / 2)})
        )
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

    def test_bad_alice_side_rejected(self):
        attack = FixedBlockState(
            CompositeBlockState({(2, 1): (1.0, np.eye(6) / 6)})
        )
        with pytest.raises(ValueError):
            run_simulation("bb84", "actual", attack, 100, 1)

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

    def test_bounded_resources_at_very_large_trials(self):
        result = run_simulation("bb84", "actual", Depolarize(0.05), 10**10, 3)
        assert result.vacuum + result.mismatched + result.sifted == 10**10
        assert sum(t["rounds"] for t in result.photon_tallies.values()) == 10**10


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
        attack = FixedBlockState(CompositeBlockState(blocks))
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


class TestVacuumRandomBit:
    def test_vacuum_rounds_become_coin_flips(self):
        attack = FixedBlockState(
            CompositeBlockState({(1, 0): (1.0, np.eye(2) / 2)})
        )
        result = run_simulation(
            "bb84", "actual", attack, 50_000, 41, vacuum_random_bit=True
        )
        assert result.vacuum == 0
        assert abs(result.e_bit - 0.5) < binomial_4sigma(0.5, result.sifted)
        law = exact_sifted_distribution(
            attack, "bb84", "actual", vacuum_random_bit=True
        )
        assert law["vacuum"] == 0.0
        assert law_chi_square_pvalue(result, law) > 0.001


class TestReproducibility:
    def test_same_seed_same_result(self):
        a = run_simulation("bb84", "actual", Depolarize(0.13), 30_000, 99)
        b = run_simulation("bb84", "actual", Depolarize(0.13), 30_000, 99)
        assert a == b

    def test_thread_count_invariant(self):
        kwargs = dict(trials=30_000, seed=99)
        r1 = run_simulation("bb84", "actual", Depolarize(0.13), threads=1, **kwargs)
        r3 = run_simulation("bb84", "actual", Depolarize(0.13), threads=3, **kwargs)
        assert r1 == r3

    def test_env_var_controls_threads(self, monkeypatch):
        monkeypatch.setenv("SQUASHKIT_THREADS", "4")
        a = run_simulation("bb84", "actual", Depolarize(0.05), 20_000, 55)
        monkeypatch.delenv("SQUASHKIT_THREADS")
        b = run_simulation("bb84", "actual", Depolarize(0.05), 20_000, 55)
        assert a == b
