"""Crash-safe training checkpoints: resume byte-identity & guards."""

import numpy as np
import pytest

from repro.autodiff import Adam
from repro.autodiff.rng import seed_all, spawn_rng
from repro.data import DataLoader, make_dataset
from repro.donn import (
    DONN,
    DONNConfig,
    Trainer,
    TrainingDiverged,
    load_checkpoint,
    save_checkpoint,
)
from repro.utils.interrupt import InterruptRequested
from repro.utils.interrupt import _requested as _interrupt_flag


def small_model(seed=0):
    cfg = DONNConfig.laptop(n=16, num_layers=2, detector_region_size=2)
    return DONN(cfg, rng=spawn_rng(seed))


def fresh_setup(seed=0, optimizer_cls=Adam, lr=0.1):
    """A deterministic (model, trainer, loaders) bundle; re-seeds the
    global RNG so two calls produce byte-identical training runs."""
    seed_all(seed)
    train, test = make_dataset("digits", 60, 20, seed=seed)
    model = small_model(seed)
    trainer = Trainer(model, optimizer_cls(model.parameters(), lr=lr))
    loader = DataLoader(train, batch_size=20, seed=seed)
    test_loader = DataLoader(test, batch_size=20, shuffle=False)
    return model, trainer, loader, test_loader


def assert_history_equal(a, b):
    assert a.as_dict() == b.as_dict()


class TestResumeByteIdentity:
    EPOCHS = 5

    def reference(self, **kwargs):
        model, trainer, loader, test_loader = fresh_setup(**kwargs)
        history = trainer.fit(loader, epochs=self.EPOCHS,
                              test_loader=test_loader)
        return history, [np.array(p) for p in model.phases()]

    @pytest.mark.parametrize("optimizer_cls", [Adam])
    def test_resume_matches_uninterrupted(self, tmp_path, optimizer_cls):
        ref_history, ref_phases = self.reference(
            optimizer_cls=optimizer_cls)
        ckpt = tmp_path / "fit.npz"
        # Part one: train 3 of 5 epochs, checkpointing.
        model, trainer, loader, test_loader = fresh_setup(
            optimizer_cls=optimizer_cls)
        trainer.fit(loader, epochs=3, test_loader=test_loader,
                    checkpoint=ckpt)
        # Part two: brand-new objects (a fresh process would have
        # nothing but the checkpoint file) resume to the full 5.
        model, trainer, loader, test_loader = fresh_setup(
            optimizer_cls=optimizer_cls)
        history = trainer.fit(loader, epochs=self.EPOCHS,
                              test_loader=test_loader, checkpoint=ckpt)
        assert_history_equal(history, ref_history)
        for phase, ref in zip(model.phases(), ref_phases):
            np.testing.assert_array_equal(phase, ref)

    def test_checkpoint_every_still_writes_final(self, tmp_path):
        ckpt = tmp_path / "fit.npz"
        model, trainer, loader, _ = fresh_setup()
        trainer.fit(loader, epochs=5, checkpoint=ckpt, checkpoint_every=3)
        restored = load_checkpoint(ckpt)
        # Epoch 5 is not a multiple of 3, but the final state must land.
        assert restored is not None and restored["epoch"] == 5

    def test_resume_from_sparser_cadence(self, tmp_path):
        ref_history, ref_phases = self.reference()
        ckpt = tmp_path / "fit.npz"
        model, trainer, loader, test_loader = fresh_setup()
        trainer.fit(loader, epochs=4, test_loader=test_loader,
                    checkpoint=ckpt, checkpoint_every=2)
        model, trainer, loader, test_loader = fresh_setup()
        history = trainer.fit(loader, epochs=self.EPOCHS,
                              test_loader=test_loader, checkpoint=ckpt)
        assert_history_equal(history, ref_history)
        for phase, ref in zip(model.phases(), ref_phases):
            np.testing.assert_array_equal(phase, ref)


class TestCheckpointGuards:
    def test_missing_file_is_none(self, tmp_path):
        assert load_checkpoint(tmp_path / "nope.npz") is None

    def test_corrupt_file_warns_and_is_none(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.warns(RuntimeWarning, match="invalid checkpoint"):
            assert load_checkpoint(path) is None

    def test_fingerprint_mismatch_warns_and_retrains(self, tmp_path):
        ckpt = tmp_path / "fit.npz"
        model, trainer, loader, _ = fresh_setup()
        trainer.fit(loader, epochs=2, checkpoint=ckpt, fingerprint="exp-a")
        with pytest.warns(RuntimeWarning, match="fingerprint"):
            assert load_checkpoint(ckpt, fingerprint="exp-b") is None
        # A fit under the other fingerprint starts from scratch and
        # matches a never-checkpointed reference.
        seed_all(0)
        train, _ = make_dataset("digits", 60, 20, seed=0)
        reference_model = small_model()
        Trainer(reference_model,
                Adam(reference_model.parameters(), lr=0.1)).fit(
            DataLoader(train, batch_size=20, seed=0), epochs=2)
        model, trainer, loader, _ = fresh_setup()
        with pytest.warns(RuntimeWarning, match="fingerprint"):
            trainer.fit(loader, epochs=2, checkpoint=ckpt,
                        fingerprint="exp-b")
        for phase, ref in zip(model.phases(), reference_model.phases()):
            np.testing.assert_array_equal(phase, ref)

    def test_deeper_checkpoint_than_epochs_ignored(self, tmp_path):
        ckpt = tmp_path / "fit.npz"
        model, trainer, loader, _ = fresh_setup()
        trainer.fit(loader, epochs=4, checkpoint=ckpt)
        model, trainer, loader, _ = fresh_setup()
        with pytest.warns(RuntimeWarning, match="epochs deep"):
            history = trainer.fit(loader, epochs=2, checkpoint=ckpt)
        assert len(history.loss) == 2

    def test_wrong_optimizer_class_rejected(self, tmp_path):
        class OtherOptimizer(Adam):
            pass

        ckpt = tmp_path / "fit.npz"
        model, trainer, loader, _ = fresh_setup(optimizer_cls=Adam)
        trainer.fit(loader, epochs=2, checkpoint=ckpt)
        model, trainer, loader, _ = fresh_setup(optimizer_cls=OtherOptimizer)
        with pytest.raises(ValueError, match="optimizer"):
            trainer.fit(loader, epochs=3, checkpoint=ckpt)

    def test_checkpoint_every_validated(self, tmp_path):
        model, trainer, loader, _ = fresh_setup()
        with pytest.raises(ValueError, match="checkpoint_every"):
            trainer.fit(loader, epochs=1, checkpoint=tmp_path / "x.npz",
                        checkpoint_every=0)

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        ckpt = tmp_path / "fit.npz"
        model, trainer, loader, _ = fresh_setup()
        trainer.fit(loader, epochs=2, checkpoint=ckpt)
        assert [p.name for p in tmp_path.iterdir()] == ["fit.npz"]


class TestStateRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        model, trainer, loader, _ = fresh_setup()
        history = trainer.fit(loader, epochs=2)
        path = save_checkpoint(
            tmp_path / "state.npz", epoch=2, model=model,
            optimizer=trainer.optimizer, loader=loader, history=history,
            fingerprint="fp",
        )
        restored = load_checkpoint(path, fingerprint="fp")
        assert restored["epoch"] == 2
        assert restored["history"] == history.as_dict()
        state = trainer.optimizer.state_dict()
        for key, value in restored["optimizer"].items():
            if isinstance(value, list):
                for got, expected in zip(value, state[key]):
                    np.testing.assert_array_equal(got, expected)
            else:
                assert value == pytest.approx(state[key])
        for phase, layer in zip(restored["phases"], model.layers):
            np.testing.assert_array_equal(phase, layer.phase.data)


class TestDivergenceGuard:
    def test_non_finite_loss_raises_typed_error(self):
        model, trainer, loader, _ = fresh_setup()
        trainer.regularizers = [
            lambda m: (m.layers[0].phase * 0.0).sum() + float("nan")
        ]
        with pytest.raises(TrainingDiverged, match="diverged"):
            trainer.fit(loader, epochs=1)

    def test_diverged_is_a_runtime_error(self):
        assert issubclass(TrainingDiverged, RuntimeError)


class TestGracefulInterrupt:
    def test_interrupt_checkpoints_then_raises(self, tmp_path):
        ckpt = tmp_path / "fit.npz"
        model, trainer, loader, _ = fresh_setup()
        _interrupt_flag.set()
        try:
            with pytest.raises(InterruptRequested, match="epoch 1/3"):
                trainer.fit(loader, epochs=3, checkpoint=ckpt)
        finally:
            _interrupt_flag.clear()
        restored = load_checkpoint(ckpt)
        assert restored is not None and restored["epoch"] == 1
        # Resuming after the interrupt matches an uninterrupted fit.
        seed_all(0)
        train, _ = make_dataset("digits", 60, 20, seed=0)
        reference_model = small_model()
        ref_history = Trainer(
            reference_model,
            Adam(reference_model.parameters(), lr=0.1),
        ).fit(DataLoader(train, batch_size=20, seed=0), epochs=3)
        model, trainer, loader, _ = fresh_setup()
        history = trainer.fit(loader, epochs=3, checkpoint=ckpt)
        assert history.as_dict() == ref_history.as_dict()
        for phase, ref in zip(model.phases(), reference_model.phases()):
            np.testing.assert_array_equal(phase, ref)
