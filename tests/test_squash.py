"""Tests for the squash channel and its verified identities."""

import time
import tracemalloc
from math import comb, sqrt
from types import SimpleNamespace

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

from test_symfock import exact_hadamard_lift


def random_density(dim, rng):
    """A full-rank random density operator (a normalized Wishart draw)."""
    x = rng.normal(size=(2, dim, dim))
    g = x[0] + 1j * x[1]
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def index_pairs(n):
    """The pairs of :func:`squash_index_pairs` as a list of (b, b') tuples."""
    b, bp = squash_index_pairs(n)
    return list(zip(b.tolist(), bp.tolist()))


def squash_kraus(n):
    """The squash operators F[b,b'] from the paper's formula, by pair.

    F[b,b'] = 2^(-(N-1)/2) (sqrt(C(N,b')) |1_y><S^y_b| + sqrt(C(N,b)) |0_y><S^y_b'|),
    with |j_y> a column of the qubit y frame and <S^y_b| row b of the
    z -> y basis change K diag((-i)^b), K the lift of the Hadamard from its
    exact Krawtchouk entries, so each operator acts on z coordinates.
    """
    y0, y1 = qubit_frame(Basis.Y).T
    to_y = exact_hadamard_lift(n) * np.array([1, -1j, -1, 1j])[np.arange(n + 1) % 4]
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

    def test_read_only_view_is_copied(self):
        # read-only, but the array it views can still change
        base = build_squash(3).choi.copy()
        view = base.view()
        view.setflags(write=False)
        channel = KrausChannel(4, 2, view)
        base[0, 0] += 1.0
        assert np.array_equal(channel.choi, build_squash(3).choi)

    def test_read_only_array_owning_its_data_is_kept(self):
        a = build_squash(3).choi.copy()
        a.setflags(write=False)
        assert KrausChannel(4, 2, a).choi is a

    @pytest.mark.parametrize("dtype", [float, complex, np.float32, int])
    def test_copy_is_float64_unless_complex(self, dtype):
        # a nested list too: its kind, not numpy's default, picks the dtype
        choi = KrausChannel(2, 2, np.eye(4, dtype=dtype).tolist()).choi
        assert choi.dtype == (np.complex128 if dtype is complex else np.float64)

    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_built_choi_is_read_only_and_owns_its_data(self, n):
        choi = build_squash(n).choi
        assert not choi.flags.writeable
        assert choi.flags.owndata

    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_built_choi_is_real(self, n):
        assert build_squash(n).choi.dtype == np.float64

    def test_build_memory_is_bounded(self):
        # the blocks are written into one array, the Choi matrix is handed
        # over uncopied and the check holds one regrouped copy: under three
        # complex Choi matrices (2.6 MB each at N = 200), where a copy for the
        # channel and whole-matrix Hermiticity temporaries read 5.2; the real
        # build, its lift included, reads 4.1
        import squashkit.symfock as symfock

        n = 200
        symfock._hadamard_lift.cache_clear()  # the lift's own peak is counted too
        tracemalloc.start()
        try:
            build_squash(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * (2 * (n + 1)) ** 2 * 16

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


class TestPositivityCheck:
    """KrausChannel's complete-positivity check at its bound: J's smallest
    eigenvalue may reach -1e-10, and J - J^dagger may not pass 1e-10."""

    @staticmethod
    def with_smallest_eigenvalue(n, value):
        """The squash Choi matrix with the smallest eigenvalue of J moved to `value`."""
        dim = n + 1
        j = build_squash(n).choi.reshape(2, 2, dim, dim).swapaxes(1, 2).reshape(2 * dim, -1)
        lam, vecs = np.linalg.eigh(j)
        j = j + (value - lam[0]) * np.outer(vecs[:, 0], vecs[:, 0].conj())
        return j.reshape(2, dim, 2, dim).swapaxes(1, 2).reshape(4, -1)

    @pytest.mark.parametrize("n", [3, 40, 200])
    def test_eigenvalue_inside_the_bound_passes(self, n):
        KrausChannel(n + 1, 2, self.with_smallest_eigenvalue(n, -5e-11))

    @pytest.mark.parametrize("n", [3, 40, 200])
    def test_eigenvalue_past_the_bound_fails_and_is_named(self, n):
        with pytest.raises(ValueError, match=r"completely positive \(Choi eigenvalue -2\.000e-10,"):
            KrausChannel(n + 1, 2, self.with_smallest_eigenvalue(n, -2e-10))

    def test_non_hermitian_defect_in_the_last_row_slice_fails(self):
        # C[-1, -1] is J's last diagonal entry, (i, j) = (m, l) = (1, N):
        # only the last slice of rows reads it, and eigvalsh takes the real
        # part of the diagonal, so only the Hermiticity check can see it
        n = 200
        choi = build_squash(n).choi.astype(complex)
        choi[-1, -1] += 1e-10j  # J - J^dagger is 2e-10j there
        with pytest.raises(ValueError, match=r"completely positive .* non-Hermiticity 2\.000e-10\)"):
            KrausChannel(n + 1, 2, choi)


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
        with pytest.raises(ValueError):  # one operator, not a stack
            apply_channel(build_squash(2), np.stack([np.eye(3) / 3] * 2))


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
        with pytest.raises(ValueError):  # one operator, not a stack
            apply_channel_on_bob(build_squash(2), np.stack([np.eye(6) / 6] * 2))


class TestChoiRoute:
    """The stored Choi matrix and its contractions against explicit Kraus sums.

    For the squash channel the operators come from the paper's formula
    (:func:`squash_kraus`), so the closed-form J of :func:`build_squash` is
    checked against an explicit sum over them; the two share no code, the
    sum's basis change to the y basis being exact to rounding.  From N of about
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
        # the two parity sums give the same exact integers as summing C(N, c)
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

    @staticmethod
    def identity_sum_channel(n):
        # the closed form alone: a channel whose operator sum is exactly I
        return SimpleNamespace(input_dim=n + 1, completeness_sum=lambda: np.eye(n + 1))

    @pytest.mark.parametrize("n", [1024, 1025, 1030, 1100])
    def test_diagonal_formula_is_exact_past_the_float_range(self, n):
        # from N = 1025 the binomial sums reach 2^1024, past every float
        report = verify_completeness(self.identity_sum_channel(n))
        assert report.diag_formula_deviation == 0.0
        assert report.max_deviation == 0.0

    def test_diagonal_formula_detects_a_wrong_binomial(self, monkeypatch):
        import squashkit.squash as squash

        monkeypatch.setattr(squash, "comb", lambda n, c: comb(n, c) + (c == 0))
        report = verify_completeness(self.identity_sum_channel(5))
        assert report.diag_formula_deviation == 1 / 2**4

    def test_weights_past_the_float_range(self):
        import squashkit.squash as squash

        w = squash._weights(1030)  # C(1030, 515) > 2^1024; no lift is built or cached
        assert np.all(np.isfinite(w))
        assert abs(np.sum(w**2) - 2.0) < 1e-12


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

        # each root mapped to its cube: every phase OMEGA^e becomes OMEGA^(3e)
        monkeypatch.setattr(squash, "_EIGHTH_ROOTS", squash._EIGHTH_ROOTS[3 * np.arange(8) % 8])
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
