"""Table I: methodology comparison (feature matrix).

Table I is qualitative — it contrasts prior work ([5], [16]: neither
roughness-aware nor 2-pi; [6], [8]: 2-pi for negative-phase deployment
only) with this framework's three capabilities.  The bench verifies the
implementation actually provides each capability and prints the matrix.
"""

import numpy as np

from repro.autodiff import Tensor
from repro.roughness import roughness_tensor
from repro.sparsify import block_sparsity_mask
from repro.twopi import TwoPiConfig, TwoPiOptimizer

from .conftest import report


def test_bench_table1_feature_matrix():
    # Roughness-aware training: the Eq. 5 regularizer is differentiable
    # and non-trivial.
    mask = Tensor(np.random.default_rng(0).uniform(0, 6, (20, 20)),
                  requires_grad=True)
    roughness_tensor(mask).backward()
    has_roughness = np.abs(mask.grad).max() > 0

    # Sparsity: block masks hit the requested ratio.
    keep = block_sparsity_mask(np.random.default_rng(1).random((20, 20)),
                               ratio=0.25, block_size=5)
    has_sparsity = (keep == 0).mean() == 0.25

    # 2-pi periodic optimization reduces roughness of a cliff mask.
    cliff = np.full((12, 12), 5.5)
    cliff[4:8, 4:8] = 0.0
    solution = TwoPiOptimizer(TwoPiConfig(iterations=60)).optimize_mask(
        cliff)
    has_twopi = solution.reduction > 0

    rows = [
        ("[5], [16]", False, False, False),
        ("[6], [8]", False, False, True),
        ("Ours", has_roughness, has_sparsity, has_twopi),
    ]
    report("\nTABLE I: Comparison of methodologies")
    report(f"{'Methods':<12} {'Roughness-aware':>16} {'Sparsity':>10} "
          f"{'2pi optimization':>17}")
    for name, r, s, t in rows:
        mark = lambda flag: "yes" if flag else "-"  # noqa: E731
        report(f"{name:<12} {mark(r):>16} {mark(s):>10} {mark(t):>17}")

    assert has_roughness and has_sparsity and has_twopi
