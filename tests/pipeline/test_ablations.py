"""Tests of the ablation harness."""

import numpy as np

from repro.pipeline import compare_twopi_solvers


def interior_block_mask(n=12):
    mask = np.full((n, n), 5.5)
    mask[4:8, 4:8] = 0.0
    return mask


class TestCompareTwoPiSolvers:
    def test_keys_and_sanity(self):
        comparison = compare_twopi_solvers(interior_block_mask(),
                                           block_size=4, iterations=80)
        assert set(comparison) == {"before", "greedy", "gumbel_softmax",
                                   "gumbel_plus_greedy"}
        before = comparison["before"]
        assert comparison["greedy"] <= before + 1e-9
        assert comparison["gumbel_plus_greedy"] <= before + 1e-9

    def test_combination_at_least_as_good_as_greedy_start(self):
        comparison = compare_twopi_solvers(interior_block_mask(),
                                           block_size=4, iterations=120,
                                           seed=1)
        # The polished GS solution should be no worse than either pure
        # strategy on this separable instance (small tolerance for the
        # stochastic GS path).
        best_pure = min(comparison["greedy"], comparison["gumbel_softmax"])
        assert comparison["gumbel_plus_greedy"] <= best_pure * 1.05 + 1e-9

    def test_finds_the_block_lift(self):
        comparison = compare_twopi_solvers(interior_block_mask(),
                                           block_size=4, iterations=120)
        assert comparison["gumbel_plus_greedy"] < 0.8 * comparison["before"]
