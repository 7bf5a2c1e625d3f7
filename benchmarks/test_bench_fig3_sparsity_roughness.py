"""Fig. 3: roughness of the three sparsification patterns (ratio 0.33).

Generalizes the paper's worked example (the printed 6 x 6 matrix with
scores 23.78 / 25.80 / 25.88, pinned by
``tests/roughness/test_paper_figures.py``): over random matrices, block
sparsification consistently yields the lowest roughness at equal ratio —
the figure's headline.
"""

import numpy as np

from repro.roughness import roughness
from repro.sparsify import (
    bank_balanced_sparsity_mask,
    block_sparsity_mask,
    unstructured_sparsity_mask,
)

from .conftest import report

def scores_for(matrix: np.ndarray, ratio: float, block: int, bank: int):
    return {
        "block": roughness(matrix * block_sparsity_mask(matrix, ratio, block)),
        "non-structured": roughness(
            matrix * unstructured_sparsity_mask(matrix, ratio)),
        "bank-balanced": roughness(
            matrix * bank_balanced_sparsity_mask(matrix, ratio, bank)),
    }


def test_bench_fig3_random_matrices():
    averages = {"block": 0.0, "non-structured": 0.0, "bank-balanced": 0.0}
    trials = 25
    for seed in range(trials):
        matrix = np.random.default_rng(seed).uniform(0, 2 * np.pi, (40, 40))
        for name, value in scores_for(matrix, 0.33, 5, 5).items():
            averages[name] += value / trials
    report("\nFig. 3 generalization: mean roughness over 25 random 40x40 "
          "masks (ratio 0.33)")
    for name, value in averages.items():
        report(f"{name:<15} {value:8.2f}")
    assert averages["block"] < averages["non-structured"]
    assert averages["block"] < averages["bank-balanced"]
