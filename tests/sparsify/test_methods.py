"""Tests of the three sparsification patterns and block utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparsify import (
    bank_balanced_sparsity_mask,
    block_l2_norms,
    block_sparsity_mask,
    check_blocking,
    expand_block_mask,
    unstructured_sparsity_mask,
)


class TestBlockUtilities:
    def test_check_blocking(self):
        assert check_blocking((8, 8), 2) == (4, 4)
        with pytest.raises(ValueError):
            check_blocking((8, 8), 3)
        with pytest.raises(ValueError):
            check_blocking((8, 8), 0)

    def test_block_l2_norms_values(self):
        mat = np.array([[3.0, 0.0], [0.0, 4.0]])
        norms = block_l2_norms(mat, 2)
        assert norms.shape == (1, 1)
        assert norms[0, 0] == pytest.approx(5.0)

    def test_block_l2_norms_rejects_3d(self):
        with pytest.raises(ValueError):
            block_l2_norms(np.zeros((2, 2, 2)), 1)

    def test_expand_block_mask(self):
        grid = np.array([[1.0, 0.0], [0.0, 1.0]])
        mask = expand_block_mask(grid, 3)
        assert mask.shape == (6, 6)
        assert mask[:3, :3].all()
        assert not mask[:3, 3:].any()


class TestBlockSparsity:
    def test_exact_ratio(self):
        rng = np.random.default_rng(0)
        weights = rng.standard_normal((20, 20))
        mask = block_sparsity_mask(weights, ratio=0.25, block_size=5)
        assert 1.0 - mask.mean() == pytest.approx(0.25)

    def test_zeroes_smallest_norm_blocks(self):
        weights = np.ones((4, 4))
        weights[:2, :2] = 0.01  # weakest block
        mask = block_sparsity_mask(weights, ratio=0.25, block_size=2)
        assert not mask[:2, :2].any()
        assert mask[2:, 2:].all()

    def test_whole_blocks_zeroed(self):
        rng = np.random.default_rng(1)
        weights = rng.standard_normal((12, 12))
        mask = block_sparsity_mask(weights, ratio=0.5, block_size=4)
        blocks = mask.reshape(3, 4, 3, 4).transpose(0, 2, 1, 3)
        for bi in range(3):
            for bj in range(3):
                block = blocks[bi, bj]
                assert block.all() or not block.any()

    def test_zero_ratio_keeps_everything(self):
        mask = block_sparsity_mask(np.ones((4, 4)), ratio=0.0, block_size=2)
        assert mask.all()

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            block_sparsity_mask(np.ones((4, 4)), ratio=1.0, block_size=2)
        with pytest.raises(ValueError):
            block_sparsity_mask(np.ones((4, 4)), ratio=-0.1, block_size=2)

    def test_deterministic_with_ties(self):
        weights = np.ones((4, 4))
        a = block_sparsity_mask(weights, 0.5, 2)
        b = block_sparsity_mask(weights, 0.5, 2)
        assert np.array_equal(a, b)


class TestUnstructuredSparsity:
    def test_exact_count(self):
        rng = np.random.default_rng(2)
        weights = rng.standard_normal((10, 10))
        mask = unstructured_sparsity_mask(weights, ratio=0.37)
        assert int((mask == 0).sum()) == 37

    def test_zeroes_smallest_magnitudes(self):
        weights = np.array([[0.1, -5.0], [3.0, -0.2]])
        mask = unstructured_sparsity_mask(weights, ratio=0.5)
        assert mask[0, 0] == 0 and mask[1, 1] == 0
        assert mask[0, 1] == 1 and mask[1, 0] == 1

    def test_preserves_shape(self):
        mask = unstructured_sparsity_mask(np.ones((3, 7)), 0.3)
        assert mask.shape == (3, 7)


class TestBankBalancedSparsity:
    def test_identical_sparsity_per_bank(self):
        rng = np.random.default_rng(3)
        weights = rng.standard_normal((6, 12))
        mask = bank_balanced_sparsity_mask(weights, ratio=0.25, bank_size=4)
        banks = mask.reshape(6, 3, 4)
        zeros_per_bank = (banks == 0).sum(axis=-1)
        assert np.all(zeros_per_bank == 1)

    def test_zeroes_smallest_in_each_bank(self):
        weights = np.array([[5.0, 0.1, 4.0, 9.0, 0.2, 7.0]])
        mask = bank_balanced_sparsity_mask(weights, ratio=1 / 3, bank_size=3)
        assert mask[0, 1] == 0  # 0.1 is smallest in bank 1
        assert mask[0, 4] == 0  # 0.2 is smallest in bank 2
        assert mask.sum() == 4

    def test_indivisible_banks_rejected(self):
        with pytest.raises(ValueError):
            bank_balanced_sparsity_mask(np.ones((2, 10)), 0.5, bank_size=3)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            bank_balanced_sparsity_mask(np.ones((2, 2, 2)), 0.5, bank_size=2)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2 ** 31 - 1),
    st.sampled_from([0.1, 0.25, 0.33, 0.5]),
)
def test_block_sparsity_ratio_property(seed, ratio):
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((12, 12))
    mask = block_sparsity_mask(weights, ratio, block_size=3)
    expected_zero_blocks = int(ratio * 16)
    assert int((mask == 0).sum()) == expected_zero_blocks * 9


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_masks_are_binary_property(seed):
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((8, 8))
    for mask in (
        block_sparsity_mask(weights, 0.25, 2),
        unstructured_sparsity_mask(weights, 0.25),
        bank_balanced_sparsity_mask(weights, 0.25, 4),
    ):
        assert set(np.unique(mask)).issubset({0.0, 1.0})


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_unstructured_keeps_largest_property(seed):
    # Every kept weight must be >= every dropped weight in magnitude.
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((6, 6))
    mask = unstructured_sparsity_mask(weights, 0.4)
    kept = np.abs(weights[mask == 1])
    dropped = np.abs(weights[mask == 0])
    if len(dropped) and len(kept):
        assert kept.min() >= dropped.max() - 1e-12
