"""Fig. 4: the intra-block smoothness metric at the published mask size
(200 x 200, block 20).  The paper's 6 x 6 worked example (AvgVar = 4.835)
is pinned by ``tests/roughness/test_paper_figures.py``.
"""

import numpy as np

from repro.roughness import intra_block_smoothness


def test_bench_fig4_paper_scale_metric():
    mask = np.random.default_rng(0).uniform(0, 2 * np.pi, (200, 200))
    value = intra_block_smoothness(mask, 20)
    # Uniform [0, 2pi) per-block sample variance concentrates near the
    # distribution variance (2 pi)^2 / 12.
    assert abs(value - (2 * np.pi) ** 2 / 12) < 0.2
