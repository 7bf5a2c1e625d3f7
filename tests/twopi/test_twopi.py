"""Tests of the 2-pi periodic optimization stack."""

import numpy as np
import pytest

from repro.autodiff import Tensor, ops
from repro.autodiff.rng import spawn_rng
from repro.optics.constants import TWO_PI
from repro.roughness import roughness
from repro.twopi import (
    TwoPiConfig,
    TwoPiOptimizer,
    brute_force_offsets,
    greedy_offsets,
    gumbel_softmax,
    roughness_batch,
)


def cliff_mask(n=8):
    """High-phase mask with a low-phase *interior* block (the paper's case).

    This is the post-sparsification situation of Sec. III-D2: zeroed
    pixels (phase ~0.1) surrounded by high-phase neighbors (~5.5).
    Adding 2 pi to the low block turns the ~5.4 wrapped differences into
    ~0.9 physical ones without touching the mask boundary (where lifting
    would instead create steps against the zero padding).
    """
    mask = np.full((n, n), 5.5)
    lo = max(1, n // 4)
    hi = n - lo
    mask[lo:hi, lo:hi] = 0.1
    return mask


class TestGumbelSoftmax:
    def test_rows_sum_to_one(self):
        rng = spawn_rng(0)
        logits = Tensor(rng.standard_normal((5, 5, 2)))
        y = gumbel_softmax(logits, tau=1.0, rng=spawn_rng(1)).data
        assert np.allclose(y.sum(axis=-1), 1.0)
        assert np.all(y >= 0)

    def test_low_temperature_approaches_onehot(self):
        rng = spawn_rng(2)
        logits = Tensor(rng.standard_normal((10, 2)))
        y = gumbel_softmax(logits, tau=0.01, rng=spawn_rng(3)).data
        # Occasional near-ties of logits+gumbel noise can stay soft even at
        # tiny temperature; the overwhelming majority must be one-hot.
        assert (np.max(y, axis=-1) > 0.99).mean() >= 0.9

    def test_hard_mode_exact_onehot_with_gradient(self):
        logits = Tensor(np.zeros((4, 2)), requires_grad=True)
        y = gumbel_softmax(logits, tau=1.0, hard=True, rng=spawn_rng(4))
        values = y.data
        assert set(np.unique(values)).issubset({0.0, 1.0})
        ops.sum(y * Tensor(np.arange(8.0).reshape(4, 2))).backward()
        assert logits.grad is not None
        assert np.abs(logits.grad).max() > 0

    def test_biased_logits_shift_distribution(self):
        logits = Tensor(np.tile([3.0, -3.0], (200, 1)))
        y = gumbel_softmax(logits, tau=1.0, rng=spawn_rng(5)).data
        assert (np.argmax(y, axis=-1) == 0).mean() > 0.9

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            gumbel_softmax(Tensor(np.zeros((2, 2))), tau=0.0)

    def test_deterministic_given_rng(self):
        logits = Tensor(np.zeros((3, 2)))
        a = gumbel_softmax(logits, rng=spawn_rng(6)).data
        b = gumbel_softmax(logits, rng=spawn_rng(6)).data
        assert np.array_equal(a, b)


class TestRoughnessBatch:
    def test_matches_scalar_metric(self):
        rng = spawn_rng(7)
        stack = rng.uniform(0, TWO_PI, (5, 6, 6))
        batch = roughness_batch(stack)
        singles = [roughness(m) for m in stack]
        assert np.allclose(batch, singles)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            roughness_batch(np.zeros((4, 4)))


class TestBruteForce:
    def test_finds_global_minimum_on_cliff(self):
        mask = cliff_mask(n=4)  # 16 pixels -> exhaustive is exact
        offsets, best = brute_force_offsets(mask, k=8)
        assert best <= roughness(mask)
        # Optimal solution lifts (at least) the low column adjacent to the
        # cliff.
        assert best < 0.7 * roughness(mask)

    def test_offsets_binary(self):
        offsets, _ = brute_force_offsets(cliff_mask(4))
        assert set(np.unique(offsets)).issubset({0.0, TWO_PI})

    def test_rejects_large_masks(self):
        with pytest.raises(ValueError):
            brute_force_offsets(np.zeros((6, 6)))

    def test_flat_mask_needs_no_offsets(self):
        mask = np.full((3, 3), 1.0)
        offsets, best = brute_force_offsets(mask)
        assert np.allclose(offsets, 0.0)
        assert best == pytest.approx(roughness(mask))


class TestGreedy:
    def test_never_increases_roughness(self):
        rng = spawn_rng(8)
        mask = rng.uniform(0, TWO_PI, (10, 10))
        offsets, after = greedy_offsets(mask)
        assert after <= roughness(mask) + 1e-12
        assert after == pytest.approx(roughness(mask + offsets))

    def test_improves_cliff_mask(self):
        mask = cliff_mask(8)
        _, after = greedy_offsets(mask)
        assert after < 0.7 * roughness(mask)

    def test_matches_brute_force_on_tiny_mask(self):
        mask = cliff_mask(4)
        _, greedy_score = greedy_offsets(mask, max_sweeps=50)
        _, exact_score = brute_force_offsets(mask)
        # Greedy is a local method but on this separable cliff it should
        # land on (or extremely close to) the global optimum.
        assert greedy_score <= exact_score * 1.05 + 1e-9

    def test_respects_init(self):
        mask = cliff_mask(6)
        init = np.zeros_like(mask)
        init[0, 0] = TWO_PI
        offsets, _ = greedy_offsets(mask, init=init)
        assert offsets.shape == mask.shape

    def test_init_shape_mismatch(self):
        with pytest.raises(ValueError):
            greedy_offsets(np.zeros((4, 4)), init=np.zeros((2, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            greedy_offsets(np.zeros(5))


class TestTwoPiOptimizer:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TwoPiConfig(iterations=0)
        with pytest.raises(ValueError):
            TwoPiConfig(tau_start=0.1, tau_end=1.0)
        with pytest.raises(ValueError):
            TwoPiConfig(tau_end=0.0)

    @pytest.mark.parametrize("field, value, message", [
        ("k", 6, "k must be 4 or 8"),
        ("lr", 0.0, "learning rate"),
        ("lr", -0.3, "learning rate"),
        ("block_size", 0, "block_size"),
    ])
    def test_bad_settings_rejected_at_construction(self, field, value,
                                                   message):
        with pytest.raises(ValueError, match=message):
            TwoPiConfig(**{field: value})

    def test_solution_never_worse(self):
        rng = spawn_rng(9)
        mask = rng.uniform(0, TWO_PI, (12, 12))
        solution = TwoPiOptimizer(TwoPiConfig(iterations=50)).optimize_mask(
            mask)
        assert solution.roughness_after <= solution.roughness_before + 1e-12
        assert solution.reduction >= 0.0

    def test_smooths_cliff_mask_substantially(self):
        mask = cliff_mask(10)
        solution = TwoPiOptimizer(
            TwoPiConfig(iterations=150, seed=1)
        ).optimize_mask(mask)
        assert solution.reduction > 0.3
        # The low side near the cliff gets lifted by 2 pi.
        assert solution.flipped_fraction > 0.0

    def test_offsets_binary_values(self):
        mask = cliff_mask(6)
        solution = TwoPiOptimizer(TwoPiConfig(iterations=50)).optimize_mask(
            mask)
        assert set(np.unique(solution.offsets)).issubset({0.0, TWO_PI})

    def test_history_recorded(self):
        solution = TwoPiOptimizer(TwoPiConfig(iterations=20)).optimize_mask(
            cliff_mask(6))
        assert len(solution.history["loss"]) == 20
        assert len(solution.history["tau"]) == 20
        assert solution.history["tau"][0] > solution.history["tau"][-1]

    def test_near_optimal_on_tiny_mask(self):
        mask = cliff_mask(4)
        solution = TwoPiOptimizer(
            TwoPiConfig(iterations=200, seed=2)
        ).optimize_mask(mask)
        _, exact = brute_force_offsets(mask)
        assert solution.roughness_after <= exact * 1.05 + 1e-9

    def test_unwrapped_input_is_wrapped_first(self):
        mask = cliff_mask(6) + 4 * np.pi  # same wrapped mask
        a = TwoPiOptimizer(TwoPiConfig(iterations=30, seed=3)).optimize_mask(
            cliff_mask(6))
        b = TwoPiOptimizer(TwoPiConfig(iterations=30, seed=3)).optimize_mask(
            mask)
        assert a.roughness_before == pytest.approx(b.roughness_before)

    def test_optimize_model_keeps_forward_identical(self):
        from repro.donn import DONN, DONNConfig

        model = DONN(DONNConfig.laptop(n=16, num_layers=2,
                                       detector_region_size=2),
                     rng=spawn_rng(10))
        images = spawn_rng(11).random((3, 28, 28))
        before_logits = model(images).data.copy()

        solutions = TwoPiOptimizer(
            TwoPiConfig(iterations=30, seed=4)
        ).optimize_model(model)
        assert len(solutions) == 2

        # Applying the add-ons to the trainable phases must not change the
        # forward function (2-pi periodicity).
        model.set_phases([
            p + s.offsets
            for p, s in zip(model.phases(wrapped=False), solutions)
        ])
        after_logits = model(images).data
        assert np.allclose(after_logits, before_logits, atol=1e-9)

    def test_rejects_non_2d_mask(self):
        with pytest.raises(ValueError):
            TwoPiOptimizer().optimize_mask(np.zeros(7))
