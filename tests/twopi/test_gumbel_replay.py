"""The planar Gumbel loop replays the composed autodiff loop exactly.

The oracle below is the per-mask loop the planar solve replaces, kept
verbatim: a ``(n, m, 2)`` logit ``Parameter`` through ``gumbel_softmax``,
the option select-and-sum, ``roughness_tensor`` and ``Adam``, one mask
at a time with its own ``spawn_rng(seed)`` stream.  Every test here holds
:class:`TwoPiOptimizer` to it bit for bit: the loss history, the final
logits and the offsets.
"""

import time

import numpy as np
import pytest

from repro.autodiff import Adam, Parameter, Tensor, ops
from repro.autodiff.rng import spawn_rng
from repro.optics.constants import TWO_PI
from repro.optics.fabrication import wrap_phase
from repro.roughness import roughness, roughness_tensor
from repro.twopi import TwoPiConfig, TwoPiOptimizer, gumbel_softmax
from repro.twopi import optimizer as optimizer_module
from repro.twopi.exhaustive import _greedy


def oracle_optimize_mask(phase, config, greedy=_greedy):
    """The composed per-mask loop; returns ``(solution, logits)``."""
    cfg = config
    wrapped = wrap_phase(np.asarray(phase, dtype=np.float64))
    before = roughness(wrapped, k=cfg.k)
    rng = spawn_rng(cfg.seed)

    logits = Parameter(np.zeros(wrapped.shape + (2,)))
    optimizer = Adam([logits], lr=cfg.lr)
    base = Tensor(wrapped)
    add_options = Tensor(np.array([0.0, TWO_PI]))
    decay = (cfg.tau_end / cfg.tau_start) ** (
        1.0 / max(cfg.iterations - 1, 1)
    )
    history = {"loss": [], "tau": []}

    tau = cfg.tau_start
    for _ in range(cfg.iterations):
        optimizer.zero_grad()
        selection = gumbel_softmax(logits, tau=tau, hard=cfg.hard, rng=rng)
        addon = ops.sum(selection * add_options, axis=-1)
        loss = roughness_tensor(base + addon, k=cfg.k)
        loss.backward()
        optimizer.step()
        history["loss"].append(loss.item())
        history["tau"].append(tau)
        tau = max(tau * decay, cfg.tau_end)

    selection = np.argmax(logits.data, axis=-1)
    offsets = TWO_PI * selection.astype(np.float64)
    sweeps = 0
    if cfg.polish:
        offsets, _, sweeps = greedy(wrapped, k=cfg.k, init=offsets,
                                    block_size=cfg.block_size)
    history["polish_sweeps"] = [sweeps]
    after = roughness(wrapped + offsets, k=cfg.k)
    if after > before:
        offsets = np.zeros_like(wrapped)
        after = before
    solution = optimizer_module.TwoPiSolution(
        offsets=offsets, roughness_before=before, roughness_after=after,
        history=history)
    return solution, logits.data


class StackModel:
    """The one thing ``optimize_model`` reads off a model."""

    def __init__(self, masks):
        self.masks = masks

    def phases(self, wrapped=True):
        return [mask.copy() for mask in self.masks]


@pytest.fixture
def logit_planes(monkeypatch):
    """Capture the ``l0``/``l1`` planes the planar loop steps."""
    captured = []

    class RecordingAdam(Adam):
        def __init__(self, params, **kwargs):
            super().__init__(params, **kwargs)
            captured.append(self.params)

    monkeypatch.setattr(optimizer_module, "Adam", RecordingAdam)
    return captured


def sparse_masks(count, shape, seed, zeroed):
    """``count`` wrapped masks; the odd ones get the top half zeroed,
    like a block-sparsified layer."""
    rng = spawn_rng(seed)
    masks = [rng.uniform(0.0, TWO_PI, shape) for _ in range(count)]
    if zeroed:
        for mask in masks[1::2]:
            mask[:shape[0] // 2] = 0.0
    return masks


def assert_replays(got, planes, want, want_logits):
    assert got.history["loss"] == want.history["loss"]
    assert got.history["tau"] == want.history["tau"]
    assert got.history["polish_sweeps"] == want.history["polish_sweeps"]
    assert planes[0].tobytes() == want_logits[..., 0].tobytes()
    assert planes[1].tobytes() == want_logits[..., 1].tobytes()
    assert got.offsets.tobytes() == want.offsets.tobytes()
    assert got.roughness_before == want.roughness_before
    assert got.roughness_after == want.roughness_after


class TestPlanarLoopMatchesOracle:
    @pytest.mark.parametrize("hard", [False, True])
    @pytest.mark.parametrize("k", [4, 8])
    @pytest.mark.parametrize("shape", [(6, 6), (9, 14), (13, 5)])
    def test_one_mask(self, logit_planes, shape, k, hard):
        config = TwoPiConfig(iterations=40, k=k, hard=hard, seed=7,
                             polish=False)
        mask = sparse_masks(1, shape, seed=shape[1] + k, zeroed=False)[0]
        got = TwoPiOptimizer(config).optimize_mask(mask)
        want, want_logits = oracle_optimize_mask(mask, config)
        l0, l1 = (plane.data[0] for plane in logit_planes[0])
        assert_replays(got, (l0, l1), want, want_logits)

    @pytest.mark.parametrize("hard", [False, True])
    @pytest.mark.parametrize("k", [4, 8])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_stack_of_masks(self, logit_planes, count, k, hard):
        """L masks solved together equal L per-mask oracle runs; half
        of them are half zeroed (flat regions: the ``eps`` branch)."""
        shape = (11, 8)
        config = TwoPiConfig(iterations=30, k=k, hard=hard, seed=count,
                             block_size=None)
        masks = sparse_masks(count, shape, seed=20 + count, zeroed=True)
        got = TwoPiOptimizer(config).optimize_model(StackModel(masks))
        assert len(got) == count
        l0, l1 = (plane.data for plane in logit_planes[0])
        for index, (mask, solution) in enumerate(zip(masks, got)):
            want, want_logits = oracle_optimize_mask(mask, config)
            assert_replays(solution, (l0[index], l1[index]), want,
                           want_logits)

    def test_laptop_defaults_with_block_polish(self, logit_planes):
        """The table's settings (300 iterations, k=8, block polish) on a
        40x40 mask with zeroed blocks."""
        config = TwoPiConfig(iterations=300, seed=1, block_size=5)
        mask = sparse_masks(1, (40, 40), seed=3, zeroed=False)[0]
        mask[5:20, 10:25] = 0.0
        got = TwoPiOptimizer(config).optimize_mask(mask)
        want, want_logits = oracle_optimize_mask(mask, config)
        l0, l1 = (plane.data[0] for plane in logit_planes[0])
        assert_replays(got, (l0, l1), want, want_logits)
        assert got.roughness_after < got.roughness_before

    def test_optimize_model_matches_per_layer_oracle(self):
        from repro.donn import DONN, DONNConfig

        model = DONN(DONNConfig.laptop(n=16, num_layers=3,
                                       detector_region_size=2),
                     rng=spawn_rng(12))
        config = TwoPiConfig(iterations=25, seed=5, block_size=4)
        got = TwoPiOptimizer(config).optimize_model(model)
        assert len(got) == 3
        for phase, solution in zip(model.phases(wrapped=True), got):
            want, _ = oracle_optimize_mask(phase, config)
            assert solution.history["loss"] == want.history["loss"]
            assert solution.offsets.tobytes() == want.offsets.tobytes()
            assert solution.roughness_after == want.roughness_after

    def test_layers_share_one_noise_stream(self):
        """Every mask sees the same Gumbel draws, as each per-mask run's
        own ``spawn_rng(seed)`` did: identical masks give identical
        solutions."""
        mask = sparse_masks(1, (8, 8), seed=9, zeroed=False)[0]
        got = TwoPiOptimizer(TwoPiConfig(iterations=20, seed=2)
                             ).optimize_model(StackModel([mask, mask]))
        assert got[0].history["loss"] == got[1].history["loss"]
        assert got[0].offsets.tobytes() == got[1].offsets.tobytes()


class TestSharedSolveTime:
    def test_solutions_share_the_solve_time(self, monkeypatch):
        solve = optimizer_module.TwoPiOptimizer._gumbel_loop
        spans = []

        def timed(self, wrapped):
            start = time.perf_counter()
            result = solve(self, wrapped)
            spans.append(time.perf_counter() - start)
            return result

        monkeypatch.setattr(optimizer_module.TwoPiOptimizer,
                            "_gumbel_loop", timed)
        masks = sparse_masks(3, (10, 10), seed=4, zeroed=True)
        got = TwoPiOptimizer(TwoPiConfig(iterations=15)).optimize_model(
            StackModel(masks))
        assert len(spans) == 1
        shared = got[0].history["gumbel_s"]
        assert all(s.history["gumbel_s"] == shared for s in got)
        assert 0.0 <= shared[0] and shared[0] >= spans[0]

    def test_stage_reports_gumbel_s_once(self):
        from repro.donn import DONN, DONNConfig
        from repro.pipeline import ExperimentConfig
        from repro.pipeline.stages import RunContext, TwoPiStage
        from repro.pipeline.experiment_io import apply_overrides

        config = apply_overrides(ExperimentConfig.laptop("digits", n=20),
                                 {"twopi.iterations": 10})
        model = DONN(DONNConfig.laptop(n=20, num_layers=3),
                     rng=spawn_rng(13))
        ctx = RunContext(recipe="twopi", config=config, train=None,
                         test=None, loader=None, model=model)
        ctx.run_stage(TwoPiStage())
        record = ctx.stage_records[-1]
        solutions = ctx.twopi_solutions
        assert len(solutions) == 3
        shared = solutions[0].history["gumbel_s"][0]
        assert record.metrics["gumbel_s"] == shared
        assert all(s.history["gumbel_s"] == [shared] for s in solutions)
        polish = sum(s.history["polish_s"][0] for s in solutions)
        assert record.metrics["polish_s"] == polish
        assert shared + polish <= record.wall_time
