"""Numerical equivalence of the compiled inference fast path.

The engine must reproduce the autodiff forward bit-for-bit (to 1e-10 in
complex128; 1e-4 in the complex64 mode) — these tests are the contract
that lets every read-only consumer route through it.
"""

import numpy as np
import pytest

from repro.autodiff.rng import spawn_rng
from repro.donn import DONN, DONNConfig, Trainer, accuracy, confusion_matrix
from repro.donn.encoding import encode_amplitude
from repro.donn.evaluation import deployed_accuracy
from repro.data import DataLoader, make_dataset
from repro.optics import CrosstalkModel
from repro.runtime import InferenceEngine
from repro.twopi import TwoPiConfig, TwoPiOptimizer, forward_invariance_gap


@pytest.fixture(scope="module")
def model():
    return DONN(DONNConfig.laptop(n=20), rng=spawn_rng(0))


@pytest.fixture(scope="module")
def images():
    return spawn_rng(1).random((9, 28, 28))


@pytest.fixture(scope="module")
def fields(model):
    rng = spawn_rng(2)
    n = model.config.n
    return rng.standard_normal((7, n, n)) + 1j * rng.standard_normal(
        (7, n, n))


class TestEquivalence:
    def test_logits_match_autodiff_double(self, model, images):
        reference = model.forward(images).data
        engine = InferenceEngine(model)
        assert np.abs(engine.logits(images) - reference).max() < 1e-10

    @pytest.mark.parametrize("n", [20, 19])
    @pytest.mark.parametrize("pad_factor", [1, 2, 3])
    def test_logits_match_on_random_fields_double(self, pad_factor, n):
        # pad_factor 1 is the unpadded grid (pad 0); n=19 gives odd pads.
        model = DONN(DONNConfig.laptop(n=n, pad_factor=pad_factor),
                     rng=spawn_rng(0))
        rng = spawn_rng(2)
        fields = (rng.standard_normal((7, n, n))
                  + 1j * rng.standard_normal((7, n, n)))
        reference = model.forward(fields).data
        engine = InferenceEngine(model)
        assert np.abs(engine.logits(fields) - reference).max() < 1e-10

    def test_logits_match_single_precision(self, model, images, fields):
        engine = InferenceEngine(model, precision="single")
        for inputs in (images, fields):
            reference = model.forward(inputs).data
            assert np.abs(engine.logits(inputs) - reference).max() < 1e-4

    def test_unbatched_complex_field_squeezes(self, model, fields):
        engine = InferenceEngine(model)
        single = fields[0]
        reference = model.forward(single).data
        logits = engine.logits(single)
        assert logits.shape == reference.shape == (10,)
        assert np.abs(logits - reference).max() < 1e-10

    def test_chunked_execution_is_exact(self, model, images):
        whole = InferenceEngine(model, max_batch=64).logits(images)
        chunked = InferenceEngine(model, max_batch=2).logits(images)
        # Chunking only regroups independent per-sample transforms; the
        # residual is BLAS blocking noise in the readout matmul.
        assert np.abs(whole - chunked).max() < 1e-12

    @pytest.mark.parametrize("mode,n", [("standard", 12),
                                        ("standard", 40),
                                        ("differential", 40)])
    def test_row_logits_do_not_depend_on_batch_composition(self, mode, n):
        # A row's logits equal that row run alone, whatever the chunk
        # size, the split or the neighbours it shares a call with: for
        # raw images (the encoder) and for fields (the readout) alike.
        model = DONN(DONNConfig.laptop(n=n, detector_mode=mode),
                     rng=spawn_rng(0))
        images = spawn_rng(1).random((67, 28, 28))
        single = InferenceEngine(model, max_batch=1)
        for inputs in (images, encode_amplitude(images, n)):
            alone = np.stack([single.logits(inputs[i:i + 1])[0]
                              for i in range(len(inputs))])
            for max_batch in (1, 7, 64):
                engine = InferenceEngine(model, max_batch=max_batch)
                assert np.array_equal(engine.logits(inputs), alone)
                splits = [engine.logits(inputs[start:stop]) for start, stop
                          in ((0, 1), (1, 12), (12, 13), (13, 67))]
                assert np.array_equal(np.concatenate(splits), alone)

    def test_raw_images_are_encoded_one_chunk_at_a_time(self, model,
                                                        monkeypatch):
        # Peak memory follows max_batch, not the input size: 7 raw
        # images at max_batch 3 are encoded as 3 + 3 + 1 rows, and the
        # rows equal each image run alone.
        from repro.donn import encoding

        images = spawn_rng(3).random((7, 28, 28))
        single = InferenceEngine(model, max_batch=1)
        outputs = ("predict", "logits", "intensity_map")
        alone = {name: np.concatenate([getattr(single, name)(images[i:i + 1])
                                       for i in range(len(images))])
                 for name in outputs}
        encode = encoding.encode_amplitude
        rows = []

        def counting(images, *args, **kwargs):
            rows.append(len(images))
            return encode(images, *args, **kwargs)

        monkeypatch.setattr(encoding, "encode_amplitude", counting)
        engine = InferenceEngine(model, max_batch=3)
        for name in outputs:
            rows.clear()
            assert np.array_equal(getattr(engine, name)(images), alone[name])
            assert rows == [3, 3, 1]

    def test_predict_matches_model(self, model, images):
        engine = InferenceEngine(model)
        np.testing.assert_array_equal(
            engine.predict(images), model.predict(images)
        )

    def test_intensity_map_matches_autodiff(self, model, images):
        from repro.autodiff import no_grad, ops

        with no_grad():
            field = model._as_field(images)
            for layer in model.layers:
                field = layer(field)
            field = model.to_detector(field)
            reference = np.asarray(ops.abs2(field).data)
        engine = InferenceEngine(model)
        assert np.abs(engine.intensity_map(images) - reference).max() < 1e-12
        assert np.abs(model.intensity_map(images) - reference).max() < 1e-12

    def test_modulation_override_matches_forward_with_modulations(
        self, model, images
    ):
        rng = spawn_rng(3)
        n = model.config.n
        modulations = [
            np.exp(1j * rng.uniform(0, 2 * np.pi, (n, n)))
            for _ in model.layers
        ]
        reference = model.forward_with_modulations(images, modulations).data
        engine = InferenceEngine(model, modulations=modulations)
        assert np.abs(engine.logits(images) - reference).max() < 1e-10

    def test_refresh_tracks_new_phases(self, images):
        model = DONN(DONNConfig.laptop(n=20), rng=spawn_rng(4))
        engine = InferenceEngine(model)
        stale = engine.logits(images)
        rng = spawn_rng(5)
        model.set_phases([
            rng.uniform(0.1, 6.0, (20, 20)) for _ in model.layers
        ])
        assert np.abs(stale - model.forward(images).data).max() > 1e-6
        engine.refresh()
        fresh = engine.logits(images)
        assert np.abs(fresh - model.forward(images).data).max() < 1e-10

    def test_refresh_reuses_modulation_planes_in_place(self, images):
        model = DONN(DONNConfig.laptop(n=20), rng=spawn_rng(6))
        engine = InferenceEngine(model)
        planes_before = [id(plane) for plane in engine._modulations]
        engine.refresh()
        assert [id(plane) for plane in engine._modulations] == planes_before

    def test_rejected_refresh_leaves_engine_intact(self, images):
        # A failed refresh must not leave the in-place update half done.
        model = DONN(DONNConfig.laptop(n=20), rng=spawn_rng(7))
        engine = InferenceEngine(model)
        reference = engine.logits(images)
        good = np.exp(1j * np.ones((20, 20)))
        with pytest.raises(ValueError):
            engine.refresh(modulations=[good, good, np.ones((3, 3))])
        assert np.array_equal(engine.logits(images), reference)


class TestValidation:
    def test_bad_precision_rejected(self, model):
        with pytest.raises(ValueError):
            InferenceEngine(model, precision="half")

    def test_bad_max_batch_rejected(self, model):
        with pytest.raises(ValueError):
            InferenceEngine(model, max_batch=0)

    def test_wrong_modulation_count_rejected(self, model):
        n = model.config.n
        with pytest.raises(ValueError):
            InferenceEngine(model, modulations=[np.ones((n, n))])

    def test_wrong_modulation_shape_rejected(self, model):
        with pytest.raises(ValueError):
            InferenceEngine(
                model,
                modulations=[np.ones((3, 3))] * len(model.layers),
            )

    def test_wrong_field_shape_rejected(self, model):
        engine = InferenceEngine(model)
        with pytest.raises(ValueError):
            engine.logits(np.ones((4, 4), dtype=complex))


class TestKernelSharing:
    def test_engine_reuses_model_kernels(self, model):
        engine = InferenceEngine(model)
        assert engine._kernels[0] is model.layers[0].propagator.kernel
        assert engine._kernels[-1] is model.to_detector.kernel


class TestScratchBuffers:
    """Scratch is per call: the hop's padded planes belong to the call
    that made them, so concurrent engines over one model (sharing only
    the hop's helper-thread pool) and copied models carry no shared
    buffers."""

    def test_concurrent_inference_on_shared_pool_is_correct(self, model,
                                                            images):
        import threading

        expected = model.inference_engine().logits(images)
        results = {}

        def worker(tag):
            engine = model.inference_engine(max_batch=2)
            results[tag] = engine.logits(images)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for logits in results.values():
            assert np.abs(logits - expected).max() < 1e-12

    def test_model_survives_pickle_and_deepcopy(self, images):
        import copy
        import pickle

        model = DONN(DONNConfig.laptop(n=16), rng=spawn_rng(8))
        expected = model.predict(images)
        for clone in (pickle.loads(pickle.dumps(model)),
                      copy.deepcopy(model)):
            np.testing.assert_array_equal(clone.predict(images), expected)


class TestEvaluationIntegration:
    @pytest.fixture(scope="class")
    def data(self):
        return make_dataset("digits", 40, 30, seed=0)

    def test_accuracy_accepts_engine(self, model, data):
        _, test = data
        baseline = accuracy(model, test)
        engine = model.inference_engine()
        assert accuracy(model, test, engine=engine) == baseline
        assert accuracy(engine, test) == baseline

    def test_confusion_matrix_counts(self, model, data):
        _, test = data
        matrix = confusion_matrix(model, test)
        assert matrix.sum() == len(test)
        predictions = model.predict(test.images)
        for true, pred in zip(test.labels, predictions):
            assert matrix[int(true), int(pred)] >= 1

    def test_deployed_accuracy_runs_through_engine(self, model, data):
        _, test = data
        crosstalk = CrosstalkModel(strength=0.2)
        deployed = deployed_accuracy(model, test, crosstalk)
        modulations = [
            crosstalk.degrade_modulation(phase)
            for phase in model.phases(wrapped=True)
        ]
        logits = model.forward_with_modulations(
            test.images, modulations).data
        expected = float(
            (np.argmax(logits, axis=-1) == test.labels).mean()
        )
        assert deployed == pytest.approx(expected)


class TestTwoPiIntegration:
    def test_forward_invariance_gap_is_tiny(self, images):
        model = DONN(DONNConfig.laptop(n=20), rng=spawn_rng(6))
        optimizer = TwoPiOptimizer(TwoPiConfig(iterations=5, polish=False))
        solutions = optimizer.optimize_model(model, verify_inputs=images)
        gap = solutions[0].history["forward_invariance_gap"][0]
        assert gap == forward_invariance_gap(model, solutions, images)
        assert gap < 1e-9


class TestTrainerReusesLogits:
    def test_train_epoch_accuracy_uses_loss_forward(self):
        train, _ = make_dataset("digits", 30, 10, seed=1)
        model = DONN(DONNConfig.laptop(n=16), rng=spawn_rng(7))
        loader = DataLoader(train, batch_size=15, seed=0)
        trainer = Trainer(model)

        calls = {"predict": 0}
        original = model.predict

        def counting_predict(inputs):
            calls["predict"] += 1
            return original(inputs)

        model.predict = counting_predict
        try:
            metrics = trainer.train_epoch(loader)
        finally:
            del model.predict
        assert calls["predict"] == 0
        assert 0.0 <= metrics["train_accuracy"] <= 1.0


class TestSourceModes:
    """Partial-coherence propagation and its coherent limit."""

    def test_single_uniform_mode_is_the_coherent_engine(self, model,
                                                        images):
        from repro.physics import CoherenceSpec

        n = model.config.n
        screens = CoherenceSpec(modes=1).screens(n)
        coherent = model.inference_engine().logits(images)
        partial = model.inference_engine(
            source_modes=screens).logits(images)
        # Mode 0 is the unperturbed field, so M=1 must collapse to the
        # coherent path: the acceptance bound is 1e-10, the observed
        # delta is exactly zero.
        assert np.abs(partial - coherent).max() <= 1e-10

    def test_multimode_intensity_is_incoherent_mode_average(self, model,
                                                            images):
        from repro.autodiff import Tensor, no_grad
        from repro.physics import CoherenceSpec

        n = model.config.n
        screens = CoherenceSpec(modes=4, seed=11).screens(n)
        with no_grad():
            field = model._as_field(images).data
            total = np.zeros((images.shape[0], n, n))
            for screen in screens:
                total += model.intensity_map(field * screen)
            reference = model.detector.readout(
                Tensor(total / len(screens))).data
        engine = model.inference_engine(source_modes=screens)
        assert np.abs(engine.logits(images) - reference).max() < 1e-10

    def test_bad_mode_shapes_rejected(self, model):
        n = model.config.n
        with pytest.raises(ValueError, match="source_modes"):
            model.inference_engine(source_modes=np.ones((3, n - 1, n)))
        with pytest.raises(ValueError, match="at least one mode"):
            model.inference_engine(
                source_modes=np.ones((0, n, n), dtype=complex))


class TestDifferentialEngine:
    def test_differential_engine_matches_forward(self, images):
        model = DONN(
            DONNConfig.laptop(n=20, detector_mode="differential"),
            rng=spawn_rng(9),
        )
        reference = model.forward(images).data
        engine = model.inference_engine()
        assert np.abs(engine.logits(images) - reference).max() < 1e-10
        np.testing.assert_array_equal(engine.predict(images),
                                      model.predict(images))
