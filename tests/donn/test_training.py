"""Training and evaluation tests (integration-level)."""

import tracemalloc
import weakref
from contextlib import nullcontext

import numpy as np
import pytest

from repro.autodiff import Adam, Tensor, fused
from repro.autodiff.rng import spawn_rng
from repro.backend import hop
from repro.data import DataLoader, make_dataset
from repro.donn import (
    DONN,
    DONNConfig,
    Trainer,
    accuracy,
    confusion_matrix,
    deployed_accuracy,
)
from repro.optics import CrosstalkModel


def small_model(seed=0, **overrides):
    cfg = DONNConfig.laptop(n=16, num_layers=2, detector_region_size=2,
                            **overrides)
    return DONN(cfg, rng=spawn_rng(seed))


class TestTrainer:
    def test_single_epoch_reduces_loss(self):
        train, _ = make_dataset("digits", 100, 10, seed=0)
        model = small_model()
        trainer = Trainer(model, Adam(model.parameters(), lr=0.1))
        loader = DataLoader(train, batch_size=50, seed=0)
        history = trainer.fit(loader, epochs=4)
        assert history.loss[-1] < history.loss[0]

    def test_learns_two_class_toy_problem(self):
        # Integration: a tiny DONN must separate two very distinct classes
        # far beyond chance within seconds.
        train, test = make_dataset("digits", 60, 30, seed=1)
        keep_train = np.isin(train.labels, (0, 1))
        keep_test = np.isin(test.labels, (0, 1))
        train = train.subset(np.nonzero(keep_train)[0])
        test = test.subset(np.nonzero(keep_test)[0])

        model = small_model(seed=3)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.2))
        loader = DataLoader(train, batch_size=12, seed=0)
        trainer.fit(loader, epochs=10)
        acc = accuracy(model, test)
        assert acc >= 0.8, f"two-class toy accuracy only {acc:.2f}"

    def test_history_lengths(self):
        train, test = make_dataset("digits", 40, 20, seed=2)
        model = small_model()
        trainer = Trainer(model)
        loader = DataLoader(train, batch_size=20, seed=0)
        test_loader = DataLoader(test, batch_size=20, shuffle=False)
        history = trainer.fit(loader, epochs=3, test_loader=test_loader)
        assert len(history.loss) == 3
        assert len(history.test_accuracy) == 3
        assert set(history.as_dict()) == {
            "loss", "classification_loss", "regularization_loss",
            "train_accuracy", "test_accuracy",
        }

    def test_regularizer_included_in_loss(self):
        train, _ = make_dataset("digits", 20, 10, seed=3)
        model = small_model()

        def constant_penalty(m):
            return (m.layers[0].phase * 0.0).sum() + 123.0

        trainer = Trainer(model, regularizers=[constant_penalty])
        total, classification, regularization = trainer.loss(
            train.images[:10], train.labels[:10]
        )
        assert regularization.item() == pytest.approx(123.0)
        assert total.item() == pytest.approx(
            classification.item() + 123.0, rel=1e-9
        )

    def test_regularizer_gradient_reaches_phase(self):
        model = small_model()
        train, _ = make_dataset("digits", 20, 10, seed=4)

        def phase_pull(m):
            return 0.1 * (m.layers[0].phase ** 2).sum()

        trainer = Trainer(model, regularizers=[phase_pull])
        total, _, _ = trainer.loss(train.images[:5], train.labels[:5])
        total.backward()
        assert model.layers[0].phase.grad is not None

    def test_invalid_epochs(self):
        model = small_model()
        train, _ = make_dataset("digits", 20, 10, seed=5)
        with pytest.raises(ValueError):
            Trainer(model).fit(DataLoader(train, batch_size=10), epochs=0)

    def test_fit_fused_matches_composed(self):
        # The fused DiffMod fast path must not change training: identical
        # seeds through both paths produce the same loss curves and the
        # same per-epoch accuracies.
        train, test = make_dataset("digits", 60, 30, seed=12)

        def run(use_fused):
            with nullcontext() if use_fused else fused.fused_disabled():
                model = small_model(seed=6)
                trainer = Trainer(model, Adam(model.parameters(), lr=0.1))
                loader = DataLoader(train, batch_size=30, seed=1)
                test_loader = DataLoader(test, batch_size=30, shuffle=False)
                return trainer.fit(loader, epochs=2,
                                   test_loader=test_loader)

        fast = run(True)
        reference = run(False)
        np.testing.assert_allclose(fast.loss, reference.loss,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(fast.classification_loss,
                                   reference.classification_loss,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(fast.train_accuracy,
                                   reference.train_accuracy,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(fast.test_accuracy,
                                   reference.test_accuracy,
                                   rtol=0, atol=1e-12)

    def test_fit_reuses_one_engine_for_test_accuracy(self, monkeypatch):
        # Per-epoch test scoring compiles one engine and refresh()es it
        # instead of rebuilding from scratch every epoch.
        train, test = make_dataset("digits", 40, 20, seed=13)
        model = small_model(seed=7)
        builds = []
        original = DONN.inference_engine

        def counting(self, **kwargs):
            engine = original(self, **kwargs)
            builds.append(engine)
            return engine

        monkeypatch.setattr(DONN, "inference_engine", counting)
        trainer = Trainer(model)
        loader = DataLoader(train, batch_size=20, seed=0)
        test_loader = DataLoader(test, batch_size=20, shuffle=False)
        history = trainer.fit(loader, epochs=3, test_loader=test_loader)
        assert len(history.test_accuracy) == 3
        assert len(builds) == 1


def non_leaves(root):
    """Every recorded (non-leaf) node of ``root``'s graph."""
    found, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node.is_leaf:
            continue
        seen.add(id(node))
        found.append(node)
        stack.extend(parent for parent, _ in node._parents)
    return found


def diffmod_activations(root, parameters):
    """Weak references to the output arrays of the fused layer nodes
    (the nodes with a phase parameter among their parents)."""
    ids = {id(p) for p in parameters}
    refs = []
    for node in non_leaves(root):
        if any(id(parent) in ids for parent, _ in node._parents):
            refs.append(weakref.ref(node.data))
            if node.data.base is not None:
                refs.append(weakref.ref(node.data.base))
    return refs


class TestStepMemory:
    """A training step holds one graph: ``backward`` keeps gradients on
    leaves only and releases the graph it ran."""

    def test_backward_frees_the_layer_activations(self):
        train, _ = make_dataset("digits", 8, 2, seed=0)
        model = small_model()
        trainer = Trainer(model, Adam(model.parameters(), lr=0.1))
        total, _, _ = trainer.loss(train.images, train.labels)
        refs = diffmod_activations(total, model.parameters())
        assert len(refs) >= 2 and all(ref() is not None for ref in refs)
        total.backward()
        trainer.optimizer.step()
        # ``total`` is still held, as the training loop holds it.
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_only_leaves_hold_grad(self):
        train, _ = make_dataset("digits", 8, 2, seed=0)
        model = small_model()
        total, _, _ = Trainer(model).loss(train.images, train.labels)
        nodes = non_leaves(total)
        total.backward()
        assert all(node.grad is None and not node.is_leaf
                   for node in nodes)
        assert all(p.grad is not None for p in model.parameters())

    def test_epoch_peak_is_bounded_by_one_graph(self):
        # Two batches of 16 at n=64.  The bound is on what the step
        # holds beyond one hop's own working planes, which depend on the
        # FFT backend (the numpy fallback returns a fresh array per
        # pass), so those are measured on the same batch first.  The
        # rest measured 3.4-7.9 fields on both backends at 1-4 FFT
        # threads; holding the previous step's graph and a gradient
        # copy per intermediate measured 14.1.
        cfg = DONNConfig.laptop(n=64)
        model = DONN(cfg, rng=spawn_rng(0))
        train, _ = make_dataset("digits", 32, 2, seed=0)
        loader = DataLoader(train, batch_size=16, seed=0)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.1))
        kernel = model.layers[0].propagator.kernel
        h = kernel.prescaled()
        field = np.ones((16, 64, 64), dtype=complex)
        tracemalloc.start()
        try:
            hop.propagate_rows(field, h, kernel.pad)
            hop_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            trainer.train_epoch(loader)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - hop_peak) / field.nbytes < 10


class TestEvaluation:
    def test_accuracy_bounds(self):
        _, test = make_dataset("digits", 10, 30, seed=6)
        model = small_model()
        acc = accuracy(model, test)
        assert 0.0 <= acc <= 1.0

    def test_accuracy_on_loader_and_dataset_agree(self):
        _, test = make_dataset("digits", 10, 30, seed=7)
        model = small_model()
        loader = DataLoader(test, batch_size=10, shuffle=False)
        assert accuracy(model, test) == pytest.approx(accuracy(model, loader))

    def test_confusion_matrix_totals(self):
        _, test = make_dataset("digits", 10, 30, seed=8)
        model = small_model()
        matrix = confusion_matrix(model, test)
        assert matrix.shape == (10, 10)
        assert matrix.sum() == 30
        assert np.trace(matrix) == pytest.approx(accuracy(model, test) * 30)

    def test_deployed_accuracy_zero_crosstalk_matches_ideal(self):
        _, test = make_dataset("digits", 10, 20, seed=9)
        model = small_model()
        ideal = accuracy(model, test)
        deployed = deployed_accuracy(model, test,
                                     CrosstalkModel(strength=0.0))
        assert deployed == pytest.approx(ideal)

    def test_deployed_accuracy_with_explicit_phases(self):
        _, test = make_dataset("digits", 10, 20, seed=11)
        model = small_model()
        phases = model.phases(wrapped=True)
        a = deployed_accuracy(model, test, CrosstalkModel(strength=0.1),
                              phases=phases)
        b = deployed_accuracy(model, test, CrosstalkModel(strength=0.1))
        assert a == pytest.approx(b)
