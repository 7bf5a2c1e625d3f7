"""The vectorized greedy polish replays the scalar pixel walk exactly.

The oracle below is the pixel-by-pixel coordinate descent the polish
replaces, kept verbatim: it scores a pixel's flip from scalar reads of
the live total phase, applies the flip with ``+= flipped - current`` and
undoes a rejected one with ``+= current - flipped``.  That undo drifts
(``fl(fl(x + 2 pi) - 2 pi) != x`` for most phases), and every test here
holds the vectorized replay to the oracle bit for bit, drift included.
"""

import numpy as np
import pytest

from repro.autodiff.rng import spawn_rng
from repro.optics.constants import TWO_PI
from repro.roughness import neighbor_offsets, roughness
from repro.twopi import TwoPiConfig, TwoPiOptimizer, greedy_offsets
from repro.twopi.exhaustive import _sweep_scores
from test_gumbel_replay import oracle_optimize_mask


def scalar_local(padded, row, col, k):
    center = padded[row + 1, col + 1]
    total = 0.0
    for dy, dx in neighbor_offsets(k):
        diff = padded[row + 1 + dy, col + 1 + dx] - center
        total += diff * diff
    return np.sqrt(total) / k


def scalar_score(padded, row, col, k, shape):
    score = scalar_local(padded, row, col, k)
    for dy, dx in neighbor_offsets(k):
        r, c = row + dy, col + dx
        if 0 <= r < shape[0] and 0 <= c < shape[1]:
            score += scalar_local(padded, r, c, k)
    return score


def oracle_greedy(phase, k=8, max_sweeps=20, init=None, block_size=None):
    """The scalar greedy walk; returns ``(offsets, roughness, sweeps)``."""
    phase = np.asarray(phase, dtype=np.float64)
    offsets = np.zeros_like(phase) if init is None else np.array(
        init, dtype=np.float64, copy=True)
    shape = phase.shape
    padded = np.pad(phase + offsets, 1)

    def block_pass():
        improved = False
        current_total = roughness(padded[1:-1, 1:-1], k=k)
        for top in range(0, shape[0], block_size):
            for left in range(0, shape[1], block_size):
                window = (slice(top, top + block_size),
                          slice(left, left + block_size))
                trial = offsets.copy()
                trial[window] = np.where(trial[window] > 0, 0.0, TWO_PI)
                candidate = roughness(phase + trial, k=k)
                if candidate + 1e-12 < current_total:
                    offsets[window] = trial[window]
                    padded[1:-1, 1:-1] = phase + offsets
                    current_total = candidate
                    improved = True
        return improved

    sweeps = 0
    for _ in range(max_sweeps):
        sweeps += 1
        improved = False
        if block_size is not None:
            improved |= block_pass()
        for row in range(shape[0]):
            for col in range(shape[1]):
                before = scalar_score(padded, row, col, k, shape)
                current = offsets[row, col]
                flipped = 0.0 if current else TWO_PI
                padded[row + 1, col + 1] += flipped - current
                after = scalar_score(padded, row, col, k, shape)
                if after + 1e-12 < before:
                    offsets[row, col] = flipped
                    improved = True
                else:
                    padded[row + 1, col + 1] += current - flipped
        if not improved:
            break
    return offsets, roughness(phase + offsets, k=k), sweeps


def wrapped_smooth_mask(n, seed):
    """A smooth phase profile wrapped into [0, 2 pi): trained-mask-like,
    with the wrap cliffs the 2-pi step exists to smooth."""
    grid = np.linspace(0, 1, n)
    smooth = (np.sin(3 * np.pi * grid)[:, None]
              + np.cos(5 * np.pi * grid)[None, :])
    noise = 0.2 * spawn_rng(seed).random((n, n))
    return np.mod(3 * np.pi * smooth + noise, TWO_PI)


def random_start(n, m, seed, lifted=0.3):
    rng = spawn_rng(seed)
    phase = rng.uniform(0, TWO_PI, (n, m))
    offsets = TWO_PI * (rng.random((n, m)) < lifted)
    return phase, offsets


class TestReplayScores:
    @pytest.mark.parametrize("n", [11, 40])
    @pytest.mark.parametrize("k", [4, 8])
    def test_scores_match_always_reject_walk(self, n, k):
        """Every pixel's vectorized ``before``/``after`` score equals the
        scalar walk's bit for bit when every flip is rejected, so each
        pixel sees its earlier neighbours at their drifted values."""
        phase, offsets = random_start(n, n, seed=30 + n + k)
        padded = np.pad(phase + offsets, 1)
        before, after, lifted, rejected = _sweep_scores(padded, offsets, k)

        walked = padded.copy()
        want_before = np.empty((n, n))
        want_after = np.empty((n, n))
        for row in range(n):
            for col in range(n):
                want_before[row, col] = scalar_score(walked, row, col, k,
                                                     (n, n))
                current = offsets[row, col]
                flipped = 0.0 if current else TWO_PI
                walked[row + 1, col + 1] += flipped - current
                want_after[row, col] = scalar_score(walked, row, col, k,
                                                    (n, n))
                walked[row + 1, col + 1] += current - flipped

        assert before.tobytes() == want_before.tobytes()
        assert after.tobytes() == want_after.tobytes()
        assert rejected.tobytes() == walked[1:-1, 1:-1].tobytes()
        # The contract is not vacuous: undoing a flip does drift.
        assert (rejected != padded[1:-1, 1:-1]).any()


class TestGreedyMatchesOracle:
    @pytest.mark.parametrize("k", [4, 8])
    @pytest.mark.parametrize("shape", [(7, 7), (13, 13), (40, 40), (9, 14)])
    def test_random_masks(self, k, shape):
        phase, init = random_start(*shape, seed=40 + k + shape[1])
        for start in (None, init):
            got = greedy_offsets(phase, k=k, init=start)
            want = oracle_greedy(phase, k=k, init=start)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1] == want[1]

    def test_block_moves(self):
        phase, init = random_start(20, 20, seed=50)
        phase[5:15, 0:10] = 0.0
        got = greedy_offsets(phase, init=init, block_size=5)
        want = oracle_greedy(phase, init=init, block_size=5)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]

    def test_paper_geometry_sweep(self):
        """One sweep at the published 200x200 size from a sparse-flip
        start on a wrapped smooth mask: scattered accepted flips whose
        dirty windows the replay rescores."""
        n = 200
        phase = wrapped_smooth_mask(n, seed=51)
        init = TWO_PI * (spawn_rng(52).random((n, n)) < 0.05)
        got = greedy_offsets(phase, init=init, max_sweeps=1)
        want = oracle_greedy(phase, init=init, max_sweeps=1)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]


@pytest.fixture(scope="module")
def slr_mask():
    """A block-sparsified n=40 mask from a short SLR run (block 5)."""
    from repro.data import DataLoader, make_dataset
    from repro.donn import DONN, DONNConfig
    from repro.sparsify import SLRConfig, SLRSparsifier

    model = DONN(DONNConfig.laptop(n=40, num_layers=1), rng=spawn_rng(53))
    model.set_phases([np.clip(wrapped_smooth_mask(40, seed=54), 0.05,
                              TWO_PI - 0.05)])
    train, _ = make_dataset("digits", 30, 1, seed=0)
    config = SLRConfig(sparsity_ratio=0.3, block_size=5, outer_iterations=1,
                       finetune_epochs=0)
    SLRSparsifier(model, DataLoader(train, batch_size=30, seed=0),
                  config).run()
    mask = model.phases(wrapped=True)[0]
    assert (mask == 0).mean() > 0.25  # 19 of 64 blocks zeroed
    return mask


class TestOptimizerEndToEnd:
    def test_matches_scalar_polish_and_composed_graph(self, slr_mask):
        config = TwoPiConfig(seed=3, block_size=5)
        got = TwoPiOptimizer(config).optimize_mask(slr_mask)
        want, _ = oracle_optimize_mask(slr_mask, config,
                                       greedy=oracle_greedy)

        assert got.offsets.tobytes() == want.offsets.tobytes()
        assert got.roughness_after == want.roughness_after
        assert got.history["loss"] == want.history["loss"]
        assert got.history["polish_sweeps"] == want.history["polish_sweeps"]
        assert got.roughness_after < got.roughness_before
        assert got.history["polish_sweeps"][0] > 1  # the polish flipped

    def test_history_times_each_phase(self, slr_mask):
        solution = TwoPiOptimizer(
            TwoPiConfig(iterations=5, block_size=5)).optimize_mask(slr_mask)
        for key in ("gumbel_s", "polish_s"):
            assert len(solution.history[key]) == 1
            assert solution.history[key][0] >= 0.0
        assert solution.history["polish_sweeps"][0] >= 1

    def test_no_polish_reports_zero_sweeps(self):
        solution = TwoPiOptimizer(
            TwoPiConfig(iterations=3, polish=False)).optimize_mask(
                spawn_rng(55).uniform(0, TWO_PI, (6, 6)))
        assert solution.history["polish_sweeps"] == [0]
