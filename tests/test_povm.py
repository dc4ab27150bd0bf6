"""Tests for detector models, block states and the POVM equivalence."""

import tracemalloc
import warnings

import numpy as np
import pytest

from squashkit.povm import (
    ClickClass,
    CompositeBlockState,
    actual_povm,
    classify_click,
    side_state_effects,
    validate_density,
    verify_povm_equivalence,
    virtual_povm,
)
from squashkit.squash import build_squash


class TestActualPovm:
    def test_single_photon(self):
        povm = actual_povm(1)
        assert np.allclose(povm[0], np.diag([1, 0]))
        assert np.allclose(povm[1], np.diag([0, 1]))

    def test_two_photons_splits_coincidence(self):
        povm = actual_povm(2)
        assert np.allclose(povm[0], np.diag([1.0, 0.5, 0.0]))
        assert np.allclose(povm[1], np.diag([0.0, 0.5, 1.0]))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_effects_sum_to_identity(self, n):
        povm = actual_povm(n)
        total = povm[0] + povm[1]
        assert np.max(np.abs(total - np.eye(n + 1))) < 1e-12

    def test_vacuum_rejected(self):
        with pytest.raises(ValueError):
            actual_povm(0)

    @pytest.mark.parametrize("n", [1, 2, 12, 47])
    def test_effects_are_the_builders_detector_branch(self, n):
        assert np.array_equal(actual_povm(n), side_state_effects(n, "actual")[:2])


class TestVirtualPovm:
    def test_single_photon_equals_actual(self):
        vi = virtual_povm(build_squash(1))
        ac = actual_povm(1)
        for a, b in zip(vi, ac):
            assert np.max(np.abs(a - b)) < 1e-14

    def test_two_photon_bit0_effect(self):
        vi = virtual_povm(build_squash(2))
        assert np.max(np.abs(vi[0] - np.diag([1.0, 0.5, 0.0]))) < 1e-12

    @pytest.mark.parametrize("n", range(1, 13))
    def test_effects_sum_to_identity(self, n):
        vi = virtual_povm(build_squash(n))
        total = vi[0] + vi[1]
        assert np.max(np.abs(total - np.eye(n + 1))) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 12, 47])
    def test_effects_are_the_builders_squash_branch(self, n):
        # one pull-back path: the z-basis edp2 bit effects, bit for bit
        vi = virtual_povm(build_squash(n))
        assert np.array_equal(vi, side_state_effects(n, "edp2")[:2])


class TestSideStateEffects:
    @pytest.mark.parametrize("n", [0, 1, 2, 40])
    @pytest.mark.parametrize("mode", ["actual", "edp1", "edp2"])
    def test_stack_is_real(self, mode, n):
        assert side_state_effects(n, mode).dtype == np.float64

    @pytest.mark.parametrize("rebuilt", [False, True])
    @pytest.mark.parametrize("n", range(13))
    @pytest.mark.parametrize("basis_is_x", [False, True])
    @pytest.mark.parametrize("mode", ["actual", "edp1", "edp2"])
    def test_stack_is_a_povm(self, mode, basis_is_x, n, rebuilt):
        x = 3 * basis_is_x
        stack = side_state_effects(n, mode)[x : x + 3]
        if rebuilt:  # symfock's cache holds one K: a build at N + 1 evicts it, and N comes back
            side_state_effects(n + 1, mode)
            assert np.array_equal(side_state_effects(n, mode)[x : x + 3], stack)
        assert stack.shape == (3, n + 1, n + 1)
        assert np.max(np.abs(stack.sum(axis=0) - np.eye(n + 1))) < 1e-10
        assert np.max(np.abs(stack - stack.conj().transpose(0, 2, 1))) < 1e-12
        assert np.min(np.linalg.eigvalsh(stack)) > -1e-12
        if n == 0:  # vacuum reports vacuum
            assert np.array_equal(stack, [[[0]], [[0]], [[1]]])
        if n == 1:
            # one photon: the projective qubit measurement of the basis
            kets = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0) if basis_is_x else np.eye(2)
            qubit = np.array([np.outer(v, v) for v in kets] + [np.zeros((2, 2))])
            if mode == "actual":
                assert np.array_equal(stack, qubit)
            else:
                assert np.max(np.abs(stack - qubit)) <= 1e-15

    def test_unknown_mode_rejected(self):
        for n in (0, 2):  # N = 0 too, whose vacuum stack is the same in every mode
            with pytest.raises(ValueError, match="mode must be 'actual', 'edp1' or 'edp2'"):
                side_state_effects(n, "ideal")

    def test_actual_effects_need_no_cubic_temporary(self):
        # besides the returned (6, N+1, N+1) stack, a few (N+1)^2 arrays (0.6 MB
        # each at N = 200); an (N+1)^3 stack of fine-outcome projectors would
        # take 66 MB
        tracemalloc.start()
        try:
            stack = side_state_effects(200, "actual")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - stack.nbytes < 8 * 2**20


class TestEquivalence:
    def test_single_photon_tight(self):
        report = verify_povm_equivalence(build_squash(1))
        assert report.max_dev_bit0 < 1e-14
        assert report.max_dev_bit1 < 1e-14

    def test_two_photon_tight(self):
        report = verify_povm_equivalence(build_squash(2))
        assert max(report.max_dev_bit0, report.max_dev_bit1) < 1e-12

    @pytest.mark.parametrize("n", [*range(1, 13), 47, 68, 100, 500])
    def test_all_forms_agree(self, n):
        report = verify_povm_equivalence(build_squash(n))
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


class TestBlockStateValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to"):
            CompositeBlockState({(0, 1): (0.5, np.eye(2) / 2)})

    def test_dimension_must_match_photon_number(self):
        with pytest.raises(ValueError, match="dimension"):
            CompositeBlockState({(0, 2): (1.0, np.eye(2) / 2)})

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
        with pytest.raises(ValueError, match="weight"):
            CompositeBlockState({(0, 1): (np.nan, np.eye(2) / 2)})

    @pytest.mark.parametrize(
        "keys", [[1], [(1,)], [(0, 0, 1)], [(1, -1)], [(1.0, 1)], ["11"], [1, (0, 1)]],
        ids=repr,
    )
    def test_key_must_be_a_photon_number_pair(self, keys):
        # the exact laws unpack every key as (m, n)
        blocks = {key: (1.0 / len(keys), np.eye(2) / 2) for key in keys}
        with pytest.raises(ValueError, match="pair"):
            CompositeBlockState(blocks)

    def test_positivity_boundary(self):
        # eigvalsh of a diagonal matrix returns its entries exactly
        validate_density(np.diag([1.0 + 5e-11, -5e-11]))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            validate_density(np.diag([1.0 + 2e-10, -2e-10]))


class TestStateVectorBlocks:
    @staticmethod
    def unit_vector(dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return a / np.linalg.norm(a)

    @pytest.mark.parametrize("dim", [1, 2, 12])
    def test_vector_stored_as_its_complex_copy(self, dim):
        a = self.unit_vector(dim, dim)
        psi = validate_density(a)
        assert psi.dtype == complex and psi.shape == (dim,)
        assert np.array_equal(psi, a)
        assert not np.shares_memory(psi, a)

    @pytest.mark.parametrize(
        "kind", ["complex-matrix", "real-matrix", "complex-vector", "real-vector"]
    )
    def test_blocks_are_copied_not_aliased(self, kind):
        block = np.eye(4, dtype=complex) / 4 if kind.endswith("matrix") else np.full(4, 0.5 + 0j)
        if kind.startswith("real"):
            block = block.real.copy()
        state = CompositeBlockState({(1, 1): (1.0, block)})
        stored = state.blocks[(1, 1)][1]
        block[0] = 0.0  # the caller's array stays writable and its own
        assert not np.shares_memory(stored, block)
        assert not stored.flags.writeable and stored.dtype == complex
        assert stored[0].real.max() > 0.0

    def test_trace_checked_at_tolerance(self):
        a = self.unit_vector(6, 1)
        validate_density(a * np.sqrt(1.0 + 5e-11))
        with pytest.raises(ValueError, match="trace deviates"):
            validate_density(a * np.sqrt(1.0 + 2e-10))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_non_finite_vector_rejected_without_warning(self, value):
        a = self.unit_vector(4, 2)
        a[1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="trace deviates"):
                validate_density(a)

    @pytest.mark.parametrize("defect", ["norm", "nan", "inf"])
    def test_factor_stack_checked_by_its_trace_without_warning(self, defect):
        # two amplitude tables of a (1, 2) block: a factor, never solved
        factor = np.stack([self.unit_vector(6, seed).reshape(2, 3) for seed in (3, 4)])
        factor /= np.sqrt(2.0)
        state = CompositeBlockState({(1, 2): (1.0, factor)})
        vectors = factor.reshape(2, -1)
        assert np.array_equal(state.density((1, 2)), sum(np.outer(a, a.conj()) for a in vectors))
        if defect == "norm":
            factor *= np.sqrt(1.0 + 2e-10)
        else:
            factor[1, 0, 2] = np.nan if defect == "nan" else np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="trace deviates"):
                CompositeBlockState({(1, 2): (1.0, factor)})

    def test_factor_stack_shape_checked(self):
        factor = np.full((1, 3, 2), 1.0 / np.sqrt(6.0))  # the (2, 1) table, not (1, 2)'s
        CompositeBlockState({(2, 1): (1.0, factor)})
        with pytest.raises(ValueError, match=r"block \(1, 2\) has dimension \(3, 2\)"):
            CompositeBlockState({(1, 2): (1.0, factor)})

    def test_composite_from_vectors_equals_from_outer_products(self):
        keys = [(0, 0), (1, 2), (3, 1)]
        vectors = {k: self.unit_vector((k[0] + 1) * (k[1] + 1), i) for i, k in enumerate(keys)}
        weights = dict(zip(keys, (0.25, 0.0, 0.75)))
        from_vectors = CompositeBlockState({k: (weights[k], a) for k, a in vectors.items()})
        from_matrices = CompositeBlockState(
            {k: (weights[k], np.outer(a, a.conj())) for k, a in vectors.items()}
        )
        assert from_vectors == from_matrices
        for _, rho in from_vectors.blocks.values():
            assert not rho.flags.writeable

    def test_vector_dimension_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            CompositeBlockState({(1, 1): (1.0, self.unit_vector(3, 0))})

