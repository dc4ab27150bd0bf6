"""Tests for detector models, QND splitting and the POVM equivalence."""

import numpy as np
import pytest

from squashkit.povm import (
    BlockState,
    ClickClass,
    CompositeBlockState,
    Outcome,
    actual_povm,
    classify_click,
    detect_event,
    modulated_block,
    qnd_split,
    side_state_effects,
    validate_density,
    verify_povm_equivalence,
    virtual_povm,
)
from squashkit.squash import apply_channel, build_squash, random_density
from squashkit.symfock import X_MODULATION, Basis, projector, qubit_frame, sym_basis_state


class TestActualPovm:
    def test_single_photon(self):
        povm = actual_povm(1)
        assert np.allclose(povm.effects[0], np.diag([1, 0]))
        assert np.allclose(povm.effects[1], np.diag([0, 1]))

    def test_two_photons_splits_coincidence(self):
        povm = actual_povm(2)
        assert np.allclose(povm.effects[0], np.diag([1.0, 0.5, 0.0]))
        assert np.allclose(povm.effects[1], np.diag([0.0, 0.5, 1.0]))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_effects_sum_to_identity(self, n):
        povm = actual_povm(n)
        total = povm.effects[0] + povm.effects[1]
        assert np.max(np.abs(total - np.eye(n + 1))) < 1e-12

    def test_vacuum_rejected(self):
        with pytest.raises(ValueError):
            actual_povm(0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_born_probabilities_well_formed(self, n):
        rng = np.random.default_rng(500 + n)
        povm = actual_povm(n)
        for _ in range(500):
            amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            amps /= np.linalg.norm(amps)
            probs = povm.probabilities(np.outer(amps, amps.conj()))
            assert np.all(probs >= -1e-12)
            assert np.all(probs <= 1 + 1e-12)
            assert abs(probs.sum() - 1.0) < 1e-10


class TestVirtualPovm:
    def test_single_photon_equals_actual(self):
        vi = virtual_povm(1)
        ac = actual_povm(1)
        for a, b in zip(vi.effects, ac.effects):
            assert np.max(np.abs(a - b)) < 1e-14

    def test_two_photon_bit0_effect(self):
        vi = virtual_povm(2)
        assert np.max(np.abs(vi.effects[0] - np.diag([1.0, 0.5, 0.0]))) < 1e-12

    @pytest.mark.parametrize("n", range(1, 13))
    def test_effects_sum_to_identity(self, n):
        vi = virtual_povm(n)
        total = vi.effects[0] + vi.effects[1]
        assert np.max(np.abs(total - np.eye(n + 1))) < 1e-10


class TestSideStateEffects:
    @pytest.mark.parametrize("vacuum_random_bit", [False, True])
    @pytest.mark.parametrize("n", range(13))
    @pytest.mark.parametrize("basis_is_x", [False, True])
    @pytest.mark.parametrize("mode", ["actual", "edp1", "edp2"])
    def test_stack_is_a_povm(self, mode, basis_is_x, n, vacuum_random_bit):
        stack = side_state_effects(n, mode, basis_is_x, vacuum_random_bit)
        assert stack.shape == (3, n + 1, n + 1)
        assert np.max(np.abs(stack.sum(axis=0) - np.eye(n + 1))) < 1e-10
        assert np.max(np.abs(stack - stack.conj().transpose(0, 2, 1))) < 1e-12
        assert np.min(np.linalg.eigvalsh(stack)) > -1e-12
        if n == 1:
            # one photon: the projective qubit measurement of the basis
            frame = qubit_frame(Basis.X if basis_is_x else Basis.Z)
            qubit = np.array([np.outer(v, v.conj()) for v in frame.T] + [np.zeros((2, 2))])
            if mode == "actual":
                assert np.array_equal(stack, qubit)
            else:
                assert np.max(np.abs(stack - qubit)) <= 1e-15

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            side_state_effects(2, "ideal", False)


class TestEquivalence:
    def test_single_photon_tight(self):
        report = verify_povm_equivalence(1)
        assert report.max_dev_bit0 < 1e-14
        assert report.max_dev_bit1 < 1e-14

    def test_two_photon_tight(self):
        report = verify_povm_equivalence(2)
        assert max(report.max_dev_bit0, report.max_dev_bit1) < 1e-12

    @pytest.mark.parametrize("n", [*range(1, 13), 47, 68, 100])
    def test_all_forms_agree(self, n):
        report = verify_povm_equivalence(n)
        assert report.max_dev_bit0 < 1e-10
        assert report.max_dev_bit1 < 1e-10
        assert report.max_dev_z < 1e-10


class TestClassifyClick:
    def test_classes(self):
        assert classify_click(0, 3) is ClickClass.SINGLE0
        assert classify_click(3, 3) is ClickClass.SINGLE1
        assert classify_click(1, 3) is ClickClass.COINCIDENCE
        assert classify_click(0, 0) is ClickClass.VACUUM

    def test_range_checked(self):
        with pytest.raises(ValueError):
            classify_click(4, 3)


class TestQndSplit:
    def test_pure_single_photon(self):
        rho = projector(sym_basis_state(1, 0))
        blocks = qnd_split({1: rho}).blocks
        assert set(blocks) == {1}
        w, block = blocks[1]
        assert w == pytest.approx(1.0)
        assert np.allclose(block, rho)

    def test_vacuum_coincidence_mixture(self):
        raw = {
            0: 0.3 * np.eye(1),
            2: 0.7 * projector(sym_basis_state(2, 1)),
        }
        blocks = qnd_split(raw).blocks
        assert blocks[0][0] == pytest.approx(0.3)
        assert blocks[2][0] == pytest.approx(0.7)
        assert abs(np.trace(blocks[2][1]).real - 1.0) < 1e-12

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(1)
        raw = {n: 0.25 * random_density(n + 1, rng) for n in range(4)}
        total = sum(w for w, _ in qnd_split(raw).blocks.values())
        assert abs(total - 1.0) < 1e-12

    def test_fock_truncation_matrix(self):
        # direct sum of N = 0, 1, 2 blocks, dimension 1 + 2 + 3 = 6
        rng = np.random.default_rng(2)
        rho = np.zeros((6, 6), dtype=complex)
        rho[0, 0] = 0.5
        rho[1:3, 1:3] = 0.25 * random_density(2, rng)
        rho[3:6, 3:6] = 0.25 * random_density(3, rng)
        rho[0, 3] = rho[3, 0] = 0.1  # off-block coherence, discarded
        blocks = qnd_split(rho).blocks
        assert set(blocks) == {0, 1, 2}
        assert blocks[0][0] == pytest.approx(0.5)

    def test_bad_total_trace_rejected(self):
        with pytest.raises(ValueError):
            qnd_split({0: 0.5 * np.eye(1)})

    def test_existing_block_state_renormalized(self):
        state = BlockState({1: (1.0, np.eye(2) / 2)})
        again = qnd_split(state)
        assert again.blocks[1][0] == pytest.approx(1.0)


class TestBlockStateValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            BlockState({1: (0.5, np.eye(2) / 2)})

    def test_dimension_must_match_photon_number(self):
        with pytest.raises(ValueError):
            BlockState({2: (1.0, np.eye(2) / 2)})

    def test_composite_checks_joint_dimension(self):
        with pytest.raises(ValueError):
            CompositeBlockState({(1, 1): (1.0, np.eye(2) / 2)})

    def test_composite_rejects_non_density_block(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            CompositeBlockState({(0, 1): (1.0, bad)})

    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_density_rejected(self, dim):
        # eigvalsh returns NaN for a 2x2 NaN matrix rather than raising
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError):
                validate_density(np.full((dim, dim), value))
            rho = np.eye(dim, dtype=complex) / dim
            rho[-1, -1] = value
            with pytest.raises(ValueError):
                validate_density(rho)

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError):
            BlockState({1: (np.nan, np.eye(2) / 2)})


class TestDetectEvent:
    def test_deterministic_single_photon(self):
        rng = np.random.default_rng(0)
        rho = projector(sym_basis_state(1, 0))
        for _ in range(20):
            assert detect_event(1, rho, False, rng) is Outcome.BIT0

    def test_vacuum(self):
        rng = np.random.default_rng(0)
        assert detect_event(0, np.eye(1), False, rng) is Outcome.VACUUM

    def test_vacuum_random_bit_switch(self):
        rng = np.random.default_rng(0)
        outs = {
            detect_event(0, np.eye(1), False, rng, vacuum_random_bit=True)
            for _ in range(50)
        }
        assert outs == {Outcome.BIT0, Outcome.BIT1}

    def test_coincidence_is_fair_coin(self):
        rng = np.random.default_rng(42)
        rho = projector(sym_basis_state(2, 1))
        n = 100_000
        ones = sum(
            detect_event(2, rho, False, rng) is Outcome.BIT1 for _ in range(n)
        )
        sigma = np.sqrt(0.25 / n)
        assert abs(ones / n - 0.5) < 4 * sigma

    @pytest.mark.parametrize("case", range(10))
    def test_marginal_law_matches_actual_povm(self, case):
        rng = np.random.default_rng(900 + case)
        n = int(rng.integers(1, 7))
        rho = random_density(n + 1, rng)
        p0 = actual_povm(n).probabilities(rho)[0]
        draws = 100_000
        hits = sum(
            detect_event(n, rho, False, rng) is Outcome.BIT0 for _ in range(draws)
        )
        sigma = np.sqrt(max(p0 * (1 - p0), 1e-12) / draws)
        assert abs(hits / draws - p0) < 4 * sigma

    def test_modulated_detection_equals_squash_then_gate(self):
        # operational form of channel invariance + POVM equivalence:
        # detect on the modulated block = measure H sigma H^dagger in z
        rng = np.random.default_rng(77)
        for n in (2, 3):
            rho = random_density(n + 1, rng)
            mod = modulated_block(rho, n)
            draws = 50_000
            hits = sum(
                detect_event(n, mod, True, rng) is Outcome.BIT0
                for _ in range(draws)
            )
            sigma_q = X_MODULATION @ apply_channel(build_squash(n), rho) \
                @ X_MODULATION.conj().T
            # reported bit is flipped in x rounds, so BIT0 reads component 1
            p0 = sigma_q[1, 1].real
            sigma = np.sqrt(max(p0 * (1 - p0), 1e-12) / draws)
            assert abs(hits / draws - p0) < 4 * sigma
