"""Tests for the squash channel and its verified identities."""

import time
import tracemalloc
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squashkit.squash import (
    KrausChannel,
    apply_channel,
    apply_channel_on_bob,
    build_squash,
    squash_index_pairs,
    verify_completeness,
    verify_hadamard_invariance,
)
from squashkit.symfock import (
    OMEGA,
    X_MODULATION,
    Basis,
    basis_change_matrix,
    lift_gate,
    projector,
    qubit_frame,
    sym_basis_state,
)


def random_density(dim, rng, size=()):
    """Full-rank random density operators (normalized Wishart draws), (*size, dim, dim)."""
    x = rng.normal(size=(*size, 2, dim, dim))
    g = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def index_pairs(n):
    """The pairs of :func:`squash_index_pairs` as a list of (b, b') tuples."""
    b, bp = squash_index_pairs(n)
    return list(zip(b.tolist(), bp.tolist()))


def squash_kraus(n):
    """The squash operators F[b,b'] from the paper's formula, by pair.

    F[b,b'] = 2^(-(N-1)/2) (sqrt(C(N,b')) |1_y><S^y_b| + sqrt(C(N,b)) |0_y><S^y_b'|),
    with |j_y> a column of the qubit y frame and <S^y_b| row b of the
    z -> y basis change, so each operator acts on z coordinates.
    """
    y0, y1 = qubit_frame(Basis.Y).T
    to_y = basis_change_matrix(n, Basis.Z, Basis.Y)
    scale = 2.0 ** (-(n - 1) / 2)
    return {
        (b, bp): scale * (
            sqrt(comb(n, bp)) * np.outer(y1, to_y[b])
            + sqrt(comb(n, b)) * np.outer(y0, to_y[bp])
        )
        for b, bp in index_pairs(n)
    }


def choi_from_kraus(ops):
    """Choi matrix of Kraus operators in KrausChannel's (out*out, in*in) layout.

    J[i, j, m, l] = sum_k K_k[i, j] conj(K_k[m, l]), stored as C[(i, m), (j, l)].
    """
    ops = np.asarray(ops, dtype=complex)
    count, out, inp = ops.shape
    flat = ops.reshape(count, -1)
    j = (flat.T @ flat.conj()).reshape(out, inp, out, inp)
    return j.swapaxes(1, 2).reshape(out * out, inp * inp)


class TestIndexPairs:
    def test_single_photon(self):
        assert index_pairs(1) == [(1, 0)]

    def test_two_photons(self):
        assert index_pairs(2) == [(1, 0), (2, 1)]

    def test_three_photons_includes_wraparound(self):
        # 0 - 3 = -3 = 1 (mod 4), the easiest pair to lose to a sign bug
        assert sorted(index_pairs(3)) == [(0, 3), (1, 0), (2, 1), (3, 2)]

    @given(n=st.integers(min_value=1, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_count_matches_difference_enumeration(self, n):
        # independent count: sum over allowed differences d of (N+1-|d|)
        expected = sum(
            n + 1 - abs(d) for d in range(-n, n + 1) if d % 4 == 1
        )
        assert len(index_pairs(n)) == expected

    @pytest.mark.parametrize("n", [1, 3, 12, 200])
    def test_row_major_order_of_the_enumeration(self, n):
        assert index_pairs(n) == [
            (b, bp) for b in range(n + 1) for bp in range(n + 1) if (b - bp) % 4 == 1
        ]


class TestBuildSquash:
    def test_single_photon_is_identity(self):
        # the identity channel's C[(i, m), (j, l)] is delta_ij delta_ml
        channel = build_squash(1)
        assert np.max(np.abs(channel.choi - np.eye(4))) < 1e-14

    def test_single_photon_from_direct_expansion(self):
        # at N = 1 the only operator is |1_y><1_y| + |0_y><0_y|
        y0 = qubit_frame(Basis.Y)[:, 0]
        y1 = qubit_frame(Basis.Y)[:, 1]
        expected = np.outer(y1, y1.conj()) + np.outer(y0, y0.conj())
        choi = choi_from_kraus([expected])
        assert np.max(np.abs(build_squash(1).choi - choi)) < 1e-14

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
        with pytest.raises(ValueError, match="trace preserving"):
            KrausChannel(input_dim=2, output_dim=2, choi=choi_from_kraus([half]))

    def test_channel_constructor_rejects_transpose_map(self):
        # rho -> rho^T: J[i, j, m, l] = delta_il delta_mj, trace preserving
        # (sum_i J[i, j, i, l] = delta_jl) but not completely positive
        # (J as a 4 x 4 matrix is the swap, eigenvalue -1)
        eye = np.eye(2)
        j = np.einsum("il,mj->ijml", eye, eye)
        assert np.array_equal(np.einsum("ijil->jl", j), eye)
        choi = j.swapaxes(1, 2).reshape(4, 4)
        with pytest.raises(ValueError, match="completely positive"):
            KrausChannel(input_dim=2, output_dim=2, choi=choi)

    def test_choi_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            KrausChannel(input_dim=3, output_dim=2, choi=np.eye(4))

    def test_caller_array_is_copied_not_frozen(self):
        a = np.eye(4, dtype=complex)  # the identity channel on a qubit
        channel = KrausChannel(2, 2, a)
        a[0, 0] = 5.0
        assert channel.choi[0, 0] == 1.0
        with pytest.raises(ValueError):
            channel.choi[0, 0] = 0.0

    def test_build_memory_is_bounded(self):
        # the closed form holds a few (N+1)^2 arrays; summing J from the
        # gathered Kraus stack peaked at 131 MB at N = 200
        tracemalloc.start()
        try:
            build_squash(200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_equality_is_identity_and_repr_is_short(self):
        # pytest prints a failing case's channel, so its repr must not
        # format the Choi matrix of the N = 200 channel
        channel = build_squash(3)
        assert (channel == build_squash(3)) is False
        assert (channel == channel) is True
        channel = build_squash(200)
        start = time.perf_counter()
        text = repr(channel)
        assert time.perf_counter() - start < 1.0
        assert len(text) < 200


#: A stacked application and a per-state loop run the same contraction
#: through different BLAS kernels, so their sums may round differently.
_STACK_ATOL = 4 * np.finfo(float).eps


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

    @pytest.mark.parametrize("n", [1, 4, 13])
    def test_stack_equals_per_state_loop(self, n):
        channel = build_squash(n)
        rhos = random_density(n + 1, np.random.default_rng(n), size=(2, 3))
        out = apply_channel(channel, rhos)
        assert out.shape == (2, 3, 2, 2)
        for idx in np.ndindex(2, 3):
            loop = apply_channel(channel, rhos[idx])
            np.testing.assert_allclose(out[idx], loop, rtol=0, atol=_STACK_ATOL)


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

    def test_stack_equals_per_state_loop(self):
        channel = build_squash(4)
        rhos = random_density(3 * 5, np.random.default_rng(9), size=(4,))
        out = apply_channel_on_bob(channel, rhos)
        assert out.shape == (4, 6, 6)
        for rho, got in zip(rhos, out):
            loop = apply_channel_on_bob(channel, rho)
            np.testing.assert_allclose(got, loop, rtol=0, atol=_STACK_ATOL)


class TestChoiRoute:
    """The stored Choi matrix and its contractions against explicit Kraus sums.

    For the squash channel the operators come from the paper's formula
    (:func:`squash_kraus`), so the closed-form J of :func:`build_squash` is
    checked against an explicit sum over them; the two share only the
    lifted basis change to the y basis.  From N of about
    100 the squash channel is invariant to rounding under transposing its
    input (the pull-back of sigma_y decays exponentially in N), and its two
    diagonal y blocks agree to rounding, so a swap of the two input axes of
    J or of the diagonal blocks shows only at the smaller N and on the
    non-square family.
    """

    @pytest.fixture(scope="class", params=[1, 5, 47, 200, "isometry"])
    def channel_and_ops(self, request):
        if request.param != "isometry":
            ops = np.array(list(squash_kraus(request.param).values()))
            return build_squash(request.param), ops
        # non-square family (3 operators, input 4, output 3): the blocks of
        # a QR isometry V, so sum_k K_k^dagger K_k = V^dagger V = 1
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4)))
        ops = q.reshape(3, 3, 4)
        return KrausChannel(input_dim=4, output_dim=3, choi=choi_from_kraus(ops)), ops

    def test_choi_matches_kraus_sum(self, channel_and_ops):
        channel, ops = channel_and_ops
        assert np.max(np.abs(channel.choi - choi_from_kraus(ops))) < 1e-14

    def test_apply_channel_matches_kraus_sum(self, channel_and_ops):
        channel, ops = channel_and_ops
        rho = random_density(channel.input_dim, np.random.default_rng(1))
        expected = sum(k @ rho @ k.conj().T for k in ops)
        assert np.max(np.abs(apply_channel(channel, rho) - expected)) < 1e-12

    def test_pull_back_matches_kraus_sum(self, channel_and_ops):
        channel, ops = channel_and_ops
        rng = np.random.default_rng(2)
        dim = channel.output_dim
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        effect = g + g.conj().T  # Hermitian, not symmetric
        expected = sum(k.conj().T @ effect @ k for k in ops)
        assert np.max(np.abs(channel.pull_back(effect) - expected)) < 1e-12

    def test_apply_channel_on_bob_matches_kraus_sum(self, channel_and_ops):
        channel, ops = channel_and_ops
        # rank-4 joint state G G^dagger keeps the explicit sum cheap at N=200:
        # (1 x K) G G^dagger (1 x K)^dagger = M M^dagger with M = (1 x K) G
        alice_dim, bob_dim, rank = 3, channel.input_dim, 4
        rng = np.random.default_rng(3)
        shape = (alice_dim * bob_dim, rank)
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        g /= np.linalg.norm(g)
        g3 = g.reshape(alice_dim, bob_dim, rank)
        ms = [(k @ g3).reshape(-1, rank) for k in ops]
        expected = sum(m @ m.conj().T for m in ms)
        out = apply_channel_on_bob(channel, g @ g.conj().T)
        assert np.max(np.abs(out - expected)) < 1e-12


class TestCompleteness:
    def test_two_photon_diagonal_formula(self):
        # f[0,0] = (1/2) C(2,1) = 1 and f[1,1] = (1/2)(C(2,0)+C(2,2)) = 1
        assert 0.5 * comb(2, 1) == 1.0
        assert 0.5 * (comb(2, 0) + comb(2, 2)) == 1.0
        report = verify_completeness(build_squash(2))
        assert report.diag_formula_deviation < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 47, 200])
    def test_diagonal_formula_matches_per_entry_binomial_sum(self, n):
        # the residue sums give the same exact integers as summing C(N, c)
        # over every qualifying c, for each diagonal entry b
        diag_dev = 0.0
        for b in range(n + 1):
            total = sum(comb(n, c) for c in range(n + 1) if (b - c) % 4 in (1, 3))
            diag_dev = max(diag_dev, abs(2.0 ** (-(n - 1)) * total - 1.0))
        assert verify_completeness(build_squash(n)).diag_formula_deviation == diag_dev

    @pytest.mark.parametrize("n", [*range(1, 13), 47, 68, 100, 200, 500])
    def test_deviation_small(self, n):
        report = verify_completeness(build_squash(n))
        assert report.max_deviation < 1e-10
        assert report.diag_formula_deviation < 1e-12


class TestHadamardInvariance:
    def test_single_photon_phase_is_unity(self):
        # pair (1, 0): OMEGA^(2*1-1-1) = 1, and the operator is the identity
        report = verify_hadamard_invariance(build_squash(1))
        assert report.kraus_phase_ok
        assert report.kraus_max_deviation < 1e-14

    def test_three_photon_wraparound_phase_is_minus_one(self):
        k = squash_kraus(3)[(0, 3)]
        lifted = lift_gate(X_MODULATION, 3)
        assert OMEGA ** (2 * 0 - 3 - 1) == pytest.approx(-1.0)
        dev = np.max(np.abs(k @ lifted - (-1.0) * X_MODULATION @ k))
        assert dev < 1e-13

    @pytest.mark.parametrize("n", range(1, 11))
    def test_channel_invariance_on_random_states(self, n):
        report = verify_hadamard_invariance(build_squash(n))
        assert report.kraus_phase_ok
        assert report.kraus_max_deviation < 1e-10
        assert report.channel_max_deviation < 1e-10

    @pytest.mark.parametrize("n", [47, 68, 100, 200, 500])
    def test_invariance_at_large_photon_number(self, n):
        report = verify_hadamard_invariance(build_squash(n))
        assert report.kraus_phase_ok
        assert report.kraus_max_deviation < 1e-10
        assert report.channel_max_deviation < 1e-10

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_wrong_phase_fails_the_operator_check(self, n, monkeypatch):
        import squashkit.squash as squash

        # OMEGA * 1j = OMEGA^3, so every phase OMEGA^e becomes OMEGA^(3e)
        monkeypatch.setattr(squash, "OMEGA", OMEGA * 1j)
        report = verify_hadamard_invariance(build_squash(n))
        assert not report.kraus_phase_ok
        assert report.kraus_max_deviation > 0.1

    @pytest.mark.parametrize("n", [12, 40, 200])
    def test_non_covariant_part_fails_the_channel_check(self, n):
        # mix in 1e-9 of Psi: <N|rho|N> goes to |0><0|, the rest of the
        # trace to I/2; a check on a sample of states reads ~1e-11 here
        eps, dim = 1e-9, n + 1
        psi = np.zeros((4, dim, dim))
        psi[0] = psi[3] = np.diag([0.5] * n + [0.0])
        psi[0, n, n] = 1.0
        choi = (1 - eps) * build_squash(n).choi + eps * psi.reshape(4, -1)
        assert verify_hadamard_invariance(KrausChannel(dim, 2, choi)).channel_max_deviation > 1e-10

    def test_every_trial_reaches_the_channel(self, monkeypatch):
        import squashkit.squash as squash

        shapes = []

        def counting(channel, rho):
            shapes.append(np.shape(rho))
            return apply_channel(channel, rho)

        monkeypatch.setattr(squash, "apply_channel", counting)
        verify_hadamard_invariance(build_squash(12))
        # the fixed state and its modulated image, each one 13 x 13 operator
        assert shapes == [(13, 13), (13, 13)]

    @pytest.mark.parametrize("n", [2, 12, 40])
    def test_fixed_state_is_full_rank_and_diagonal_in_neither_basis(self, n, monkeypatch):
        import squashkit.squash as squash

        states = []

        def recording(channel, rho):
            states.append(rho)
            return apply_channel(channel, rho)

        monkeypatch.setattr(squash, "apply_channel", recording)
        verify_hadamard_invariance(build_squash(n))
        rho = states[0]
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
        assert abs(np.trace(rho) - 1.0) < 1e-14
        assert np.linalg.eigvalsh(rho)[0] > 0.0
        to_y = basis_change_matrix(n, Basis.Z, Basis.Y)
        for r in (rho, to_y @ rho @ to_y.conj().T):  # z, then y coordinates
            assert np.max(np.abs(r - np.diag(np.diag(r)))) > 1e-3
