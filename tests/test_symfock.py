"""Tests for the symmetric-subspace linear algebra."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squashkit.symfock import (
    OMEGA,
    X_MODULATION,
    Basis,
    basis_change_matrix,
    lift_gate,
    lift_gate_oracle,
    projector,
    qubit_frame,
    sym_basis_state,
)


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


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


class TestSymBasisState:
    def test_all_photons_one_mode(self):
        state = sym_basis_state(2, 0)
        assert np.allclose(state, [1, 0, 0])

    def test_symmetrized_middle_state(self):
        # (|01> + |10>)/sqrt(2) is component b = 1 of the N = 2 family
        state = sym_basis_state(2, 1)
        assert np.allclose(state, [0, 1, 0])

    def test_vacuum_is_one_dimensional(self):
        state = sym_basis_state(0, 0)
        assert state.shape == (1,)
        assert state[0] == 1.0

    @pytest.mark.parametrize("b", [-1, 3])
    def test_out_of_range(self, b):
        with pytest.raises(ValueError):
            sym_basis_state(2, b)

    def test_amps_are_immutable(self):
        state = sym_basis_state(3, 1)
        with pytest.raises(ValueError):
            state[0] = 5.0


class TestBasisChange:
    def test_single_photon_matches_qubit_frame_change(self):
        u = basis_change_matrix(1, Basis.Z, Basis.Y)
        expected = qubit_frame(Basis.Y).conj().T @ qubit_frame(Basis.Z)
        assert np.allclose(u, expected, atol=1e-15)

    def test_identity_when_labels_equal(self):
        for n in (0, 1, 5):
            assert np.allclose(
                basis_change_matrix(n, Basis.Z, Basis.Z), np.eye(n + 1), atol=1e-15
            )

    def test_all_zeros_state_in_y_basis(self):
        # coefficients 2^(-N/2) sqrt(C(N, b)) at N = 3
        from math import comb, sqrt

        state = basis_change_matrix(3, Basis.Z, Basis.Y) @ sym_basis_state(3, 0)
        expected = [2.0 ** (-1.5) * sqrt(comb(3, b)) for b in range(4)]
        assert np.allclose(state, expected, atol=1e-14)

    @given(
        n=st.integers(min_value=0, max_value=10),
        pair=st.sampled_from(
            [(a, b) for a in Basis for b in Basis]
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_identity(self, n, pair):
        a, b = pair
        fwd = basis_change_matrix(n, a, b)
        back = basis_change_matrix(n, b, a)
        assert np.max(np.abs(back @ fwd - np.eye(n + 1))) < 1e-12


class TestLiftGate:
    def test_bit_flip_reverses_all_photons(self):
        out = lift_gate(PAULI_X, 3) @ sym_basis_state(3, 0)
        assert np.allclose(out, sym_basis_state(3, 3), atol=1e-14)

    def test_bit_flip_two_photons_is_antidiagonal(self):
        expected = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
        assert np.allclose(lift_gate(PAULI_X, 2), expected, atol=1e-14)

    def test_identity_lifts_to_identity(self):
        for n in (0, 1, 4, 9):
            assert np.allclose(lift_gate(np.eye(2), n), np.eye(n + 1), atol=1e-15)

    def test_modulation_is_diagonal_in_y_basis(self):
        # eigenvalue OMEGA^(2b-N) on component b of the y-labelled family
        for n in (1, 3, 6):
            to_y = basis_change_matrix(n, Basis.Z, Basis.Y)
            diag = to_y @ lift_gate(X_MODULATION, n) @ to_y.conj().T
            expected = np.diag([OMEGA ** (2 * b - n) for b in range(n + 1)])
            assert np.max(np.abs(diag - expected)) < 1e-12

    def test_modulation_phase_three_photons(self):
        n, b = 3, 1
        state = basis_change_matrix(n, Basis.Y, Basis.Z) @ sym_basis_state(n, b)
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

    def test_negative_photon_number_rejected(self):
        with pytest.raises(ValueError):
            lift_gate(PAULI_X, -1)
        with pytest.raises(ValueError, match="n_photons must be >= 0, got -1"):
            basis_change_matrix(-1, Basis.Z, Basis.Y)

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


class TestProjector:
    def test_single_photon_projectors(self):
        assert np.allclose(projector(sym_basis_state(1, 0)), np.diag([1, 0]))
        assert np.allclose(projector(sym_basis_state(2, 1)), np.diag([0, 1, 0]))

    def test_projector_laws(self):
        rng = np.random.default_rng(3)
        for n in (1, 4, 8):
            amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            amps /= np.linalg.norm(amps)
            p = projector(amps)
            assert abs(np.trace(p) - 1.0) < 1e-12
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert np.max(np.abs(p - p.conj().T)) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            projector(np.array([1.0, 1.0]))
