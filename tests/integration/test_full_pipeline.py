"""End-to-end integration tests spanning every subsystem."""

import numpy as np
import pytest

from repro.autodiff import Adam
from repro.autodiff.rng import seed_all, spawn_rng
from repro.data import DataLoader, make_dataset
from repro.donn import DONN, DONNConfig, Trainer, accuracy
from repro.roughness import RoughnessRegularizer, model_roughness
from repro.sparsify import SLRConfig, SLRSparsifier
from repro.twopi import TwoPiConfig, TwoPiOptimizer
from repro.utils import load_phases, save_phases


class TestTrainSparsifySmoothCheckpoint:
    """The full life of a physics-aware DONN, through a checkpoint."""

    def test_complete_lifecycle(self, tmp_path):
        seed_all(7)
        train, test = make_dataset("digits", 300, 100, seed=7)
        loader = DataLoader(train, batch_size=100, seed=7)

        # 1. Roughness-aware training.
        model = DONN(DONNConfig.laptop(n=20, phase_init="high"),
                     rng=spawn_rng(7))
        trainer = Trainer(model, Adam(model.parameters(), lr=0.05),
                          regularizers=[RoughnessRegularizer(p=5e-5)])
        history = trainer.fit(loader, epochs=5)
        assert history.loss[-1] < history.loss[0]

        # 2. SLR sparsification.
        result = SLRSparsifier(
            model, loader,
            SLRConfig(block_size=5, sparsity_ratio=0.2,
                      outer_iterations=2, inner_epochs=1,
                      finetune_epochs=1, lr=0.02),
        ).run()
        # 20x20 mask -> 16 blocks; floor(0.2 * 16) = 3 zeroed blocks.
        assert result.sparsity == pytest.approx(3 / 16)

        # 3. 2-pi smoothing: roughness never up, accuracy untouched.
        acc_before = accuracy(model, test)
        before = model_roughness(model).overall
        solutions = TwoPiOptimizer(
            TwoPiConfig(iterations=60, block_size=5)).optimize_model(model)
        after = float(np.mean([s.roughness_after for s in solutions]))
        assert after <= before + 1e-9

        modulations = [np.exp(1j * (p + s.offsets))
                       for p, s in zip(model.phases(), solutions)]
        logits = model.forward_with_modulations(test.images, modulations).data
        acc_smoothed = float(
            (np.argmax(logits, axis=-1) == test.labels).mean())
        assert acc_smoothed == pytest.approx(acc_before)

        # 4. Checkpoint round trip preserves everything.
        path = tmp_path / "donn.npz"
        save_phases(path, model.phases(), model.sparsity_masks())
        phases, masks = load_phases(path)
        clone = DONN(model.config, rng=spawn_rng(99))
        clone.apply_sparsity_masks(masks)
        clone.set_phases(phases)
        assert accuracy(clone, test) == pytest.approx(accuracy(model, test))
        assert 1.0 - masks[0].mean() == pytest.approx(3 / 16)


class TestReproducibility:
    def test_identical_seeds_identical_results(self):
        from repro.pipeline import ExperimentConfig, run_recipe

        cfg = ExperimentConfig.laptop(
            "digits", n=20, n_train=80, n_test=40, batch_size=40,
            baseline_epochs=2,
        )
        from dataclasses import replace

        cfg = cfg.with_overrides(
            slr=replace(cfg.slr, outer_iterations=1, finetune_epochs=0),
            twopi=replace(cfg.twopi, iterations=15),
        )
        a = run_recipe("ours_c", cfg)
        b = run_recipe("ours_c", cfg)
        assert a.accuracy == pytest.approx(b.accuracy)
        assert a.roughness_before == pytest.approx(b.roughness_before)
        assert a.roughness_after == pytest.approx(b.roughness_after)

    def test_different_seeds_differ(self):
        from repro.pipeline import ExperimentConfig, run_recipe

        base = dict(n=20, n_train=80, n_test=40, batch_size=40,
                    baseline_epochs=2)
        a = run_recipe("baseline",
                       ExperimentConfig.laptop("digits", seed=0, **base))
        b = run_recipe("baseline",
                       ExperimentConfig.laptop("digits", seed=1, **base))
        assert a.roughness_before != pytest.approx(b.roughness_before)


class TestCrossFamilyTraining:
    @pytest.mark.parametrize("family", ["fashion", "kuzushiji", "letters"])
    def test_every_family_learns_above_chance(self, family):
        seed_all(21)
        train, test = make_dataset(family, 300, 100, seed=21)
        model = DONN(DONNConfig.laptop(n=24, phase_init="high",
                                       detector_region_size=3),
                     rng=spawn_rng(21))
        loader = DataLoader(train, batch_size=100, seed=21)
        Trainer(model, Adam(model.parameters(), lr=0.05)).fit(loader,
                                                              epochs=6)
        acc = accuracy(model, test)
        # 6 epochs on 300 samples of a 24x24 system: well above the 10 %
        # chance level is what this smoke check demands (the table benches
        # demonstrate full-scale accuracy).
        assert acc > 0.25, f"{family}: accuracy {acc:.2f} barely above chance"
