"""Tests for the symmetric-subspace linear algebra."""

from math import comb, sqrt

import numpy as np
import pytest

from squashkit.symfock import X_MODULATION, _hadamard_lift, lift_gate, lift_gate_oracle


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
#: Columns |0_y>, |1_y> in z coordinates; its adjoint lifts the z -> y basis change.
Y_FRAME = np.array([[1, 1], [1j, -1j]]) / np.sqrt(2.0)
#: Eighth root of unity: X_MODULATION's eigenvalues are OMEGA^-1 and OMEGA.
OMEGA = np.exp(1j * np.pi / 4)


def random_unitary(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kron_oracle(gate, n):
    """T^dagger U^(xN) T with U^(xN) built as an explicit 2^N x 2^N kron."""
    iso = np.zeros((2**n, n + 1))
    for idx in range(2**n):
        b = idx.bit_count()
        iso[idx, b] = 1.0 / np.sqrt(float(comb(n, b)))
    big = np.eye(1, dtype=complex)
    for _ in range(n):
        big = np.kron(big, gate)
    return iso.T @ big @ iso


def exact_hadamard_lift(n):
    """K_N = lift((X + Z)/sqrt(2)) from exact integers, sharing no code with symfock.

    K[j, k] = S(j, k) sqrt(C(N, k) / (2^N C(N, j))), with the Krawtchouk
    integers S(0, k) = 1, S(1, k) = N - 2k and
    (j+1) S(j+1, k) = (N - 2k) S(j, k) - (N - j + 1) S(j-1, k).  Each entry is
    the square root of S^2 C(N, k) / (2^N C(N, j)), a correctly rounded ratio
    of integers, so no float leaves the range at any N.
    """
    binom = [comb(n, k) for k in range(n + 1)]
    out = np.empty((n + 1, n + 1))
    prev, row = [0] * (n + 1), [1] * (n + 1)
    for j in range(n + 1):
        den = 2**n * binom[j]
        out[j] = [(-1 if s < 0 else 1) * sqrt(s * s * ck / den) for s, ck in zip(row, binom)]
        prev, row = row, [((n - 2 * k) * s - (n - j + 1) * p) // (j + 1)
                          for k, (s, p) in enumerate(zip(row, prev))]
    return out


class TestBasisChange:
    def test_all_zeros_state_in_y_basis(self):
        # coefficients 2^(-N/2) sqrt(C(N, b)) at N = 3
        state = lift_gate(Y_FRAME.conj().T, 3) @ np.eye(4)[0]
        expected = [2.0 ** (-1.5) * sqrt(comb(3, b)) for b in range(4)]
        assert np.allclose(state, expected, atol=1e-14)


class TestLiftGate:
    def test_bit_flip_reverses_all_photons(self):
        out = lift_gate(PAULI_X, 3) @ np.eye(4)[0]
        assert np.allclose(out, np.eye(4)[3], atol=1e-14)

    def test_bit_flip_two_photons_is_antidiagonal(self):
        expected = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
        assert np.allclose(lift_gate(PAULI_X, 2), expected, atol=1e-14)

    def test_identity_lifts_to_identity(self):
        for n in (0, 1, 4, 9):
            assert np.allclose(lift_gate(np.eye(2), n), np.eye(n + 1), atol=1e-15)

    def test_modulation_is_diagonal_in_y_basis(self):
        # eigenvalue OMEGA^(2b-N) on component b of the y-labelled family
        for n in (1, 3, 6):
            to_y = lift_gate(Y_FRAME.conj().T, n)
            diag = to_y @ lift_gate(X_MODULATION, n) @ to_y.conj().T
            expected = np.diag([OMEGA ** (2 * b - n) for b in range(n + 1)])
            assert np.max(np.abs(diag - expected)) < 1e-12

    def test_modulation_phase_three_photons(self):
        n, b = 3, 1
        state = lift_gate(Y_FRAME, n) @ np.eye(n + 1)[b]
        out = lift_gate(X_MODULATION, n) @ state
        assert np.allclose(out, OMEGA**-1 * state, atol=1e-13)

    @pytest.mark.parametrize("n", [*range(11), 47, 68, 100, 200])
    def test_representation_homomorphism(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            u, v = random_unitary(rng), random_unitary(rng)
            prod = lift_gate(u, n) @ lift_gate(v, n)
            assert np.max(np.abs(prod - lift_gate(u @ v, n))) < 1e-10

    @pytest.mark.parametrize("n", [*range(13), 47, 68, 100, 200])
    def test_lift_is_unitary(self, n):
        rng = np.random.default_rng(7 + n)
        u = lift_gate(random_unitary(rng), n)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n + 1))) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 6, 13])
    def test_stack_equals_per_gate_loop(self, n):
        # PAULI_X and -1 cover both signs of the SU(2) part's trace
        rng = np.random.default_rng(60 + n)
        gates = [random_unitary(rng) for _ in range(10)] + [PAULI_X, -np.eye(2)]
        gates = np.stack(gates).reshape(3, 4, 2, 2)
        stacked = lift_gate(gates, n)
        assert stacked.shape == (3, 4, n + 1, n + 1)
        for idx in np.ndindex(3, 4):
            assert np.array_equal(stacked[idx], lift_gate(gates[idx], n))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            lift_gate(np.array([[1, 1], [0, 1]]), 2)
        with pytest.raises(ValueError):
            lift_gate(np.stack([np.eye(2), [[1, 1], [0, 1]]]), 2)

    @pytest.mark.parametrize("lift", [lift_gate, lift_gate_oracle])
    def test_negative_photon_number_rejected(self, lift):
        with pytest.raises(ValueError, match="n_photons must be >= 0, got -1"):
            lift(PAULI_X, -1)

    @pytest.mark.parametrize("lift", [lift_gate, lift_gate_oracle])
    def test_zero_photons_lift_to_exactly_one(self, lift):
        # the general path at N = 0, for one gate and a stack of them
        rng = np.random.default_rng(5)
        gates = np.stack([random_unitary(rng) for _ in range(50)]).reshape(5, 10, 2, 2)
        assert np.array_equal(lift(gates[0, 0], 0), np.ones((1, 1)))
        assert np.array_equal(lift(gates, 0), np.ones((5, 10, 1, 1)))
        assert np.array_equal(lift(X_MODULATION, 0), np.ones((1, 1)))

    def test_standard_hadamard_differs_from_modulation(self):
        assert np.max(np.abs(HADAMARD - X_MODULATION)) > 0.5


class TestHadamardLift:
    """symfock's cached K_N = lift(H), H = (X + Z)/sqrt(2), against its exact entries."""

    @pytest.mark.parametrize("n", range(7))
    def test_exact_entries_match_the_kron_oracle(self, n):
        assert np.max(np.abs(exact_hadamard_lift(n) - kron_oracle(HADAMARD, n))) < 1e-14

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 47, 68, 100, 200])
    def test_cached_lift_matches_exact_entries(self, n):
        k = _hadamard_lift(n)
        assert k.dtype == np.float64 and not k.flags.writeable
        assert np.max(np.abs(k - exact_hadamard_lift(n))) < 2e-14
        assert np.max(np.abs(k - k.T)) < 1e-14
        assert np.max(np.abs(k @ k - np.eye(n + 1))) < 1e-14

    def test_zero_and_one_photon_are_exact(self):
        assert np.array_equal(_hadamard_lift(0), np.ones((1, 1)))
        assert np.array_equal(_hadamard_lift(1), HADAMARD.real)

    @pytest.mark.parametrize("mutation", ["negated-sub-diagonal", "column-sign-flipped"])
    def test_mutated_lift_fails(self, mutation, monkeypatch):
        n = 200
        if mutation == "negated-sub-diagonal":  # the generator of Z H Z in place of H's
            real_eigh = np.linalg.eigh
            monkeypatch.setattr(np.linalg, "eigh", lambda a: real_eigh(2 * np.diag(np.diag(a)) - a))
            _hadamard_lift.cache_clear()
            try:
                k = _hadamard_lift(n)
            finally:
                _hadamard_lift.cache_clear()  # no wrong lift is kept
        else:
            k = _hadamard_lift(n).copy()
            k[:, 57] *= -1
        assert np.max(np.abs(k - exact_hadamard_lift(n))) > 0.1

    @pytest.mark.parametrize("n", [2, 7, 200])
    def test_diagonal_gate_lifts_to_a_diagonal(self, n):
        d0, d1 = np.exp(0.3j), np.exp(-1.1j)
        lifted = lift_gate(np.diag([d0, d1]), n)
        b = np.arange(n + 1)
        assert not (lifted - np.diag(np.diag(lifted))).any()
        assert np.max(np.abs(np.diag(lifted) - d0 ** (n - b) * d1**b)) < 1e-13


class TestLiftOracle:
    def test_bit_flip_two_photons(self):
        assert np.allclose(
            lift_gate_oracle(PAULI_X, 2),
            np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
            atol=1e-15,
        )

    def test_identity_five_photons(self):
        assert np.allclose(lift_gate_oracle(np.eye(2), 5), np.eye(6), atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_fast_path(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(10):
            u = random_unitary(rng)
            dev = np.max(np.abs(lift_gate(u, n) - lift_gate_oracle(u, n)))
            assert dev < 1e-12

    @pytest.mark.parametrize("n", range(7))
    def test_stack_matches_kron_reference(self, n):
        # from N = 3 the 41 gates span several slices, the last one partial
        rng = np.random.default_rng(80 + n)
        gates = np.stack([random_unitary(rng) for _ in range(41)])
        stacked = lift_gate_oracle(gates, n)
        assert stacked.shape == (41, n + 1, n + 1)
        for gate, got in zip(gates, stacked):
            assert np.max(np.abs(got - kron_oracle(gate, n))) < 1e-14

    def test_refuses_above_cap(self):
        with pytest.raises(ValueError):
            lift_gate_oracle(PAULI_X, 9)

