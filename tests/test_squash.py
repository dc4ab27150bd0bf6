"""Tests for the squash Kraus family and its verified identities."""

import time
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squashkit.squash import (
    KrausChannel,
    apply_channel,
    apply_channel_on_bob,
    build_squash,
    random_density,
    squash_index_pairs,
    verify_completeness,
    verify_hadamard_invariance,
)
from squashkit.symfock import (
    OMEGA,
    X_MODULATION,
    Basis,
    lift_gate,
    projector,
    qubit_frame,
    sym_basis_state,
)


class TestIndexPairs:
    def test_single_photon(self):
        assert squash_index_pairs(1) == [(1, 0)]

    def test_two_photons(self):
        assert squash_index_pairs(2) == [(1, 0), (2, 1)]

    def test_three_photons_includes_wraparound(self):
        # 0 - 3 = -3 = 1 (mod 4), the easiest pair to lose to a sign bug
        assert sorted(squash_index_pairs(3)) == [(0, 3), (1, 0), (2, 1), (3, 2)]

    @given(n=st.integers(min_value=1, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_count_matches_difference_enumeration(self, n):
        # independent count: sum over allowed differences d of (N+1-|d|)
        expected = sum(
            n + 1 - abs(d) for d in range(-n, n + 1) if d % 4 == 1
        )
        assert len(squash_index_pairs(n)) == expected


class TestBuildSquash:
    def test_single_photon_is_identity(self):
        channel = build_squash(1)
        assert channel.labels == ((1, 0),)
        assert np.max(np.abs(channel.ops[0] - np.eye(2))) < 1e-14

    def test_single_photon_from_direct_expansion(self):
        # at N = 1 the only operator is |1_y><1_y| + |0_y><0_y|
        y0 = qubit_frame(Basis.Y)[:, 0]
        y1 = qubit_frame(Basis.Y)[:, 1]
        expected = np.outer(y1, y1.conj()) + np.outer(y0, y0.conj())
        assert np.max(np.abs(build_squash(1).ops[0] - expected)) < 1e-14

    def test_operator_counts(self):
        assert len(build_squash(2).ops) == 2
        assert len(build_squash(3).ops) == 4

    def test_vacuum_rejected(self):
        with pytest.raises(ValueError):
            build_squash(0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_trace_preserving(self, n):
        channel = build_squash(n)
        dev = np.max(np.abs(channel.completeness_sum() - np.eye(n + 1)))
        assert dev < 1e-10

    def test_channel_constructor_rejects_incomplete_family(self):
        half = np.eye(2) / 2.0
        with pytest.raises(ValueError):
            KrausChannel(input_dim=2, output_dim=2, ops=(half,))

    def test_ops_is_one_read_only_stack(self):
        channel = build_squash(3)
        assert channel.ops.shape == (4, 2, 4)
        with pytest.raises(ValueError):
            channel.ops[0, 0, 0] = 0.0

    def test_caller_array_is_copied_not_frozen(self):
        a = np.eye(2, dtype=complex)[None].copy()
        channel = KrausChannel(2, 2, a)
        a[0, 0, 0] = 5.0
        assert channel.ops[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            channel.ops[0, 0, 0] = 0.0

    def test_equality_is_identity_and_repr_is_short(self):
        # pytest prints a failing case's channel, so its repr must not
        # format the ~10^4 operators of the N = 200 family
        channel = build_squash(3)
        assert (channel == build_squash(3)) is False
        assert (channel == channel) is True
        channel = build_squash(200)
        start = time.perf_counter()
        text = repr(channel)
        assert time.perf_counter() - start < 1.0
        assert len(text) < 200


class TestApplyChannel:
    def test_single_photon_channel_is_identity(self):
        channel = build_squash(1)
        rho = random_density(2, np.random.default_rng(0))
        assert np.max(np.abs(apply_channel(channel, rho) - rho)) < 1e-14

    def test_coincidence_state_squashes_to_unbiased_bit(self):
        rho = projector(sym_basis_state(2, 1))
        sigma = apply_channel(build_squash(2), rho)
        assert abs(sigma[0, 0].real - 0.5) < 1e-12
        assert abs(np.trace(sigma).real - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_trace_preserved_on_maximally_mixed(self, n):
        rho = np.eye(n + 1) / (n + 1)
        sigma = apply_channel(build_squash(n), rho)
        assert abs(np.trace(sigma).real - 1.0) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_channel(build_squash(2), np.eye(2) / 2)


class TestApplyChannelOnBob:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(5)
        rho_a = random_density(3, rng)
        rho_b = random_density(4, rng)
        channel = build_squash(3)
        joint = apply_channel_on_bob(channel, np.kron(rho_a, rho_b))
        expected = np.kron(rho_a, apply_channel(channel, rho_b))
        assert np.max(np.abs(joint - expected)) < 1e-12

    def test_bell_input_with_single_photon_unchanged(self):
        from squashkit.protocol import bell_state

        out = apply_channel_on_bob(build_squash(1), bell_state())
        assert np.max(np.abs(out - bell_state())) < 1e-14

    def test_alice_marginal_preserved(self):
        rng = np.random.default_rng(6)
        rho = random_density(2 * 5, rng)
        channel = build_squash(4)
        out = apply_channel_on_bob(channel, rho)
        marg_in = rho.reshape(2, 5, 2, 5).trace(axis1=1, axis2=3)
        marg_out = out.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        assert np.max(np.abs(marg_in - marg_out)) < 1e-12

    def test_indivisible_dimension_rejected(self):
        with pytest.raises(ValueError):
            apply_channel_on_bob(build_squash(2), np.eye(7) / 7)


class TestChoiRoute:
    """The Choi-matrix contractions against explicit sums over channel.ops.

    From N of about 100 the squash channel is invariant to rounding under
    transposing its input (the pull-back of sigma_y decays exponentially in
    N), so a swap of the two input axes of J shows only at the smaller N
    and on the non-square family.
    """

    @pytest.fixture(scope="class", params=[1, 5, 47, 200, "isometry"])
    def channel(self, request):
        if request.param != "isometry":
            return build_squash(request.param)
        # non-square family (3 operators, input 4, output 3): the blocks of
        # a QR isometry V, so sum_k K_k^dagger K_k = V^dagger V = 1
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4)))
        return KrausChannel(input_dim=4, output_dim=3, ops=q.reshape(3, 3, 4))

    def test_apply_channel_matches_kraus_sum(self, channel):
        rho = random_density(channel.input_dim, np.random.default_rng(1))
        expected = sum(k @ rho @ k.conj().T for k in channel.ops)
        assert np.max(np.abs(apply_channel(channel, rho) - expected)) < 1e-12

    def test_pull_back_matches_kraus_sum(self, channel):
        rng = np.random.default_rng(2)
        dim = channel.output_dim
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        effect = g + g.conj().T  # Hermitian, not symmetric
        expected = sum(k.conj().T @ effect @ k for k in channel.ops)
        assert np.max(np.abs(channel.pull_back(effect) - expected)) < 1e-12

    def test_apply_channel_on_bob_matches_kraus_sum(self, channel):
        # rank-4 joint state G G^dagger keeps the explicit sum cheap at N=200:
        # (1 x K) G G^dagger (1 x K)^dagger = M M^dagger with M = (1 x K) G
        alice_dim, bob_dim, rank = 3, channel.input_dim, 4
        rng = np.random.default_rng(3)
        shape = (alice_dim * bob_dim, rank)
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        g /= np.linalg.norm(g)
        g3 = g.reshape(alice_dim, bob_dim, rank)
        ms = [(k @ g3).reshape(-1, rank) for k in channel.ops]
        expected = sum(m @ m.conj().T for m in ms)
        out = apply_channel_on_bob(channel, g @ g.conj().T)
        assert np.max(np.abs(out - expected)) < 1e-12


class TestCompleteness:
    def test_two_photon_diagonal_formula(self):
        # f[0,0] = (1/2) C(2,1) = 1 and f[1,1] = (1/2)(C(2,0)+C(2,2)) = 1
        assert 0.5 * comb(2, 1) == 1.0
        assert 0.5 * (comb(2, 0) + comb(2, 2)) == 1.0
        report = verify_completeness(2)
        assert report.diag_formula_deviation < 1e-12

    @pytest.mark.parametrize("n", [*range(1, 13), 47, 68, 100, 200])
    def test_deviation_small(self, n):
        report = verify_completeness(n)
        assert report.max_deviation < 1e-10
        assert report.diag_formula_deviation < 1e-12


class TestHadamardInvariance:
    def test_single_photon_phase_is_unity(self):
        # pair (1, 0): OMEGA^(2*1-1-1) = 1, and the operator is the identity
        report = verify_hadamard_invariance(1, trials=5)
        assert report.kraus_phase_ok
        assert report.kraus_max_deviation < 1e-14

    def test_three_photon_wraparound_phase_is_minus_one(self):
        channel = build_squash(3)
        k = dict(zip(channel.labels, channel.ops))[(0, 3)]
        lifted = lift_gate(X_MODULATION, 3)
        assert OMEGA ** (2 * 0 - 3 - 1) == pytest.approx(-1.0)
        dev = np.max(np.abs(k @ lifted - (-1.0) * X_MODULATION @ k))
        assert dev < 1e-13

    @pytest.mark.parametrize("n", range(1, 11))
    def test_channel_invariance_on_random_states(self, n):
        report = verify_hadamard_invariance(n, trials=50, seed=12)
        assert report.kraus_phase_ok
        assert report.kraus_max_deviation < 1e-10
        assert report.channel_max_deviation < 1e-10

    @pytest.mark.parametrize("n", [47, 68, 100, 200])
    def test_invariance_at_large_photon_number(self, n):
        report = verify_hadamard_invariance(n, trials=5)
        assert report.kraus_phase_ok
        assert report.kraus_max_deviation < 1e-10
        assert report.channel_max_deviation < 1e-10

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            verify_hadamard_invariance(2, trials=0)
