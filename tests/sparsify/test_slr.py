"""Tests of the SLR sparsification optimizer."""

import numpy as np
import pytest

from repro.autodiff.rng import spawn_rng
from repro.data import DataLoader, make_dataset
from repro.donn import DONN, DONNConfig, accuracy
from repro.roughness import RoughnessRegularizer
from repro.sparsify import SLRConfig, SLRResult, SLRSparsifier, slr_stepsize_alpha


def tiny_setup(seed=0, n_train=60):
    cfg = DONNConfig.laptop(n=16, num_layers=2, detector_region_size=2)
    model = DONN(cfg, rng=spawn_rng(seed))
    train, test = make_dataset("digits", n_train, 30, seed=seed)
    loader = DataLoader(train, batch_size=30, seed=seed)
    return model, loader, test


class TestStepsizeSchedule:
    def test_alpha_in_unit_interval(self):
        for k in (1, 2, 10, 100):
            alpha = slr_stepsize_alpha(k, capital_m=300.0, r=0.1)
            assert 0.0 < alpha < 1.0

    def test_alpha_grows_with_k(self):
        alphas = [slr_stepsize_alpha(k, 300.0, 0.1) for k in range(1, 20)]
        assert all(b >= a for a, b in zip(alphas, alphas[1:]))

    def test_paper_constant_value(self):
        # k=1: alpha = 1 - 1/(M * 1) = 1 - 1/300.
        assert slr_stepsize_alpha(1, 300.0, 0.1) == pytest.approx(1 - 1 / 300)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            slr_stepsize_alpha(0, 300.0, 0.1)


class TestSLRConfig:
    def test_paper_defaults(self):
        cfg = SLRConfig()
        assert cfg.rho == pytest.approx(0.1)
        assert cfg.capital_m == pytest.approx(300.0)
        assert cfg.r == pytest.approx(0.1)
        assert cfg.s0 == pytest.approx(0.01)
        assert cfg.sparsity_ratio == pytest.approx(0.1)
        assert cfg.lr == pytest.approx(0.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            SLRConfig(rho=0.0)
        with pytest.raises(ValueError):
            SLRConfig(sparsity_ratio=1.0)
        with pytest.raises(ValueError):
            SLRConfig(outer_iterations=0)


class TestSLRRun:
    def test_produces_block_sparse_masks(self):
        model, loader, _ = tiny_setup()
        config = SLRConfig(sparsity_ratio=0.25, block_size=4,
                           outer_iterations=2, inner_epochs=1,
                           finetune_epochs=0)
        result = SLRSparsifier(model, loader, config).run()
        assert isinstance(result, SLRResult)
        assert len(result.masks) == 2
        # Whole blocks zeroed and the requested ratio achieved.
        assert result.sparsity == pytest.approx(0.25)
        for mask in result.masks:
            blocks = mask.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3)
            for bi in range(4):
                for bj in range(4):
                    block = blocks[bi, bj]
                    assert block.all() or not block.any()

    def test_masks_installed_on_model(self):
        model, loader, _ = tiny_setup(seed=1)
        config = SLRConfig(sparsity_ratio=0.25, block_size=4,
                           outer_iterations=1, finetune_epochs=0)
        result = SLRSparsifier(model, loader, config).run()
        for layer, mask in zip(model.layers, result.masks):
            assert layer.sparsity_mask is not None
            # The phase the optics sees is exactly zero on pruned pixels.
            assert np.allclose(layer.phase_array()[mask == 0], 0.0)

    def test_history_recorded(self):
        model, loader, _ = tiny_setup(seed=2)
        config = SLRConfig(sparsity_ratio=0.25, block_size=4,
                           outer_iterations=3, finetune_epochs=0)
        result = SLRSparsifier(model, loader, config).run()
        assert len(result.history["residual"]) == 3
        assert len(result.history["stepsize"]) == 3
        assert all(s > 0 for s in result.history["stepsize"])

    def test_residual_shrinks_over_iterations(self):
        # The augmented penalty pulls W toward the block-sparse Z.  The
        # paper's lr=0.001 assumes full-dataset epochs; at test scale we
        # use a proportionally larger step so W actually moves.
        model, loader, _ = tiny_setup(seed=3)
        config = SLRConfig(sparsity_ratio=0.25, block_size=4,
                           outer_iterations=4, inner_epochs=3,
                           finetune_epochs=0, rho=1.0, lr=0.05)
        result = SLRSparsifier(model, loader, config).run()
        residuals = result.history["residual"]
        assert residuals[-1] < residuals[0]

    def test_accuracy_survives_mild_sparsification(self):
        # Train a small model, sparsify 10% (the paper's ratio), check the
        # accuracy drop stays small.
        from repro.autodiff import Adam
        from repro.donn import Trainer

        model, loader, test = tiny_setup(seed=4, n_train=120)
        Trainer(model, Adam(model.parameters(), lr=0.2)).fit(loader, epochs=6)
        acc_before = accuracy(model, test)

        config = SLRConfig(sparsity_ratio=0.1, block_size=4,
                           outer_iterations=2, inner_epochs=1,
                           finetune_epochs=2, lr=0.02)
        SLRSparsifier(model, loader, config).run()
        acc_after = accuracy(model, test)
        assert acc_after >= acc_before - 0.15

    def test_with_roughness_regularizer(self):
        model, loader, _ = tiny_setup(seed=5)
        config = SLRConfig(sparsity_ratio=0.25, block_size=4,
                           outer_iterations=2, finetune_epochs=0)
        sparsifier = SLRSparsifier(model, loader, config,
                                   regularizers=[RoughnessRegularizer(p=0.001)])
        result = sparsifier.run()
        assert result.sparsity == pytest.approx(0.25)


class TestProbeReuse:
    """The surrogate's task loss is evaluated once per ``W``."""

    @staticmethod
    def run_slr(monkeypatch, recompute):
        model, loader, _ = tiny_setup(seed=6)
        config = SLRConfig(sparsity_ratio=0.25, block_size=4,
                           outer_iterations=3, inner_epochs=1,
                           finetune_epochs=1, lr=0.05)
        sparsifier = SLRSparsifier(model, loader, config,
                                   regularizers=[RoughnessRegularizer(p=1e-3)])
        probes = []
        task_loss = SLRSparsifier._task_loss
        surrogate = SLRSparsifier._surrogate_value

        def counting(self, images, labels):
            if self._probe is not None and images is self._probe[0]:
                probes.append(1)
            return task_loss(self, images, labels)

        def recomputing(self, task, z, lam):
            # Defeat the reuse: a fresh probe forward for every check.
            return surrogate(self, self._probe_loss(), z, lam)

        monkeypatch.setattr(SLRSparsifier, "_task_loss", counting)
        if recompute:
            monkeypatch.setattr(SLRSparsifier, "_surrogate_value",
                                recomputing)
        result = sparsifier.run()
        return result, model.phases(wrapped=False), len(probes), config

    def test_one_probe_forward_per_w(self, monkeypatch):
        result, phases, probes, config = self.run_slr(monkeypatch, False)
        assert probes == config.outer_iterations + 1

        with monkeypatch.context() as patch:
            want, want_phases, want_probes, _ = self.run_slr(patch, True)
        # The reference's 4 surrogate checks per outer iteration each
        # ran a fresh probe forward.
        assert want_probes > 4 * config.outer_iterations
        assert result.history == want.history
        for got_mask, want_mask in zip(result.masks, want.masks):
            assert got_mask.tobytes() == want_mask.tobytes()
        for got_phase, want_phase in zip(phases, want_phases):
            assert got_phase.tobytes() == want_phase.tobytes()
