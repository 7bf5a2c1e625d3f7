"""The versioned self-contained artifact format, how a path resolves to
one, and the serving precision an artifact implies."""

import numpy as np
import pytest

from repro.autodiff.rng import spawn_rng
from repro.donn import DONN, DONNConfig
from repro.serve import ServeConfig, Server, resolve_artifact
from repro.utils import (
    MODEL_FORMAT,
    MODEL_FORMAT_VERSION,
    load_model,
    read_model_header,
    save_model,
)


@pytest.fixture(scope="module")
def model():
    model = DONN(DONNConfig.laptop(n=16, num_layers=2,
                                   detector_region_size=2),
                 rng=spawn_rng(0))
    # A frozen sparsity mask on layer 0 must survive the round trip.
    mask = np.ones((16, 16))
    mask[:4, :4] = 0.0
    model.layers[0].set_sparsity_mask(mask)
    return model


@pytest.fixture(scope="module")
def images():
    return spawn_rng(1).random((5, 28, 28))


class TestArtifactRoundTrip:
    def test_reload_is_bit_identical_to_0_ulp(self, tmp_path, model, images):
        path = save_model(tmp_path / "m.npz", model)
        clone = load_model(path)
        reference = model.inference_engine().logits(images)
        reloaded = clone.inference_engine().logits(images)
        # Raw weights are stored (not the wrapped phase view), so the
        # reloaded forward is the *same float sequence*: 0 ULP.
        assert np.array_equal(reference, reloaded)

    def test_raw_weights_and_masks_survive(self, tmp_path, model):
        path = save_model(tmp_path / "m.npz", model)
        clone = load_model(path)
        for ours, theirs in zip(model.layers, clone.layers):
            assert np.array_equal(ours.phase.data, theirs.phase.data)
        assert np.array_equal(clone.layers[0].sparsity_mask,
                              model.layers[0].sparsity_mask)
        assert clone.layers[1].sparsity_mask is None

    def test_config_survives(self, tmp_path, model):
        path = save_model(tmp_path / "m.npz", model)
        assert load_model(path).config == model.config

    def test_donn_save_load_convenience(self, tmp_path, model, images):
        path = model.save(tmp_path / "m.npz")
        clone = DONN.load(path)
        assert np.array_equal(clone.predict(images), model.predict(images))

    def test_save_without_suffix_returns_real_path(self, tmp_path, model):
        # np.savez appends .npz silently; the returned path must be the
        # file that actually exists.
        path = save_model(tmp_path / "m", model)
        assert path.name == "m.npz"
        assert path.is_file()
        load_model(path)

    def test_metadata_round_trips(self, tmp_path, model):
        save_model(tmp_path / "m.npz", model,
                   metadata={"recipe": "ours_c", "accuracy": 0.93})
        header = read_model_header(tmp_path / "m.npz")
        assert header["metadata"] == {"recipe": "ours_c", "accuracy": 0.93}
        assert header["format"] == MODEL_FORMAT
        assert header["version"] == MODEL_FORMAT_VERSION
        assert header["detector_regions"]

    def test_loading_does_not_touch_default_rng(self, tmp_path, model):
        from repro.autodiff.rng import get_rng

        path = save_model(tmp_path / "m.npz", model)
        before = get_rng(None).bit_generator.state
        load_model(path)
        assert get_rng(None).bit_generator.state == before

    def test_unserializable_metadata_rejected(self, tmp_path, model):
        with pytest.raises(ValueError):
            save_model(tmp_path / "m.npz", model,
                       metadata={"oops": object()})


class TestArtifactValidation:
    def test_bare_phase_checkpoint_rejected(self, tmp_path, model):
        np.savez(tmp_path / "bare.npz",
                 **{f"phase_{i}": phase
                    for i, phase in enumerate(model.phases())})
        with pytest.raises(ValueError, match="not a model artifact"):
            load_model(tmp_path / "bare.npz")

    def test_unknown_version_rejected(self, tmp_path, model):
        import json

        path = save_model(tmp_path / "m.npz", model)
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        header = json.loads(bytes(payload["header"].tobytes()))
        header["version"] = MODEL_FORMAT_VERSION + 1
        payload["header"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        )
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_missing_weight_rejected(self, tmp_path, model):
        path = save_model(tmp_path / "m.npz", model)
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files
                       if key != "weight_1"}
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="missing weight_1"):
            load_model(path)

    def test_wrong_mask_shape_rejected(self, tmp_path, model):
        path = save_model(tmp_path / "m.npz", model)
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        payload["mask_0"] = np.ones((3, 3))
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="mask_0"):
            load_model(path)


class TestResolveArtifact:
    def test_resolve_artifact_adds_suffix(self, tmp_path, model):
        path = save_model(tmp_path / "m.npz", model)
        assert resolve_artifact(tmp_path / "m") == path
        assert resolve_artifact(path) == path
        with pytest.raises(FileNotFoundError):
            resolve_artifact(tmp_path / "nope")


class TestDetectorSpecHeader:
    """The artifact header pins the readout head (mode + geometry)."""

    @staticmethod
    def _tamper(path, mutate):
        import json

        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        header = json.loads(bytes(payload["header"].tobytes()).decode())
        mutate(header)
        payload["header"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **payload)

    @pytest.fixture()
    def differential(self, tmp_path):
        model = DONN(
            DONNConfig.laptop(n=20, detector_mode="differential"),
            rng=spawn_rng(3),
        )
        return model, save_model(tmp_path / "diff.npz", model)

    def test_header_carries_spec(self, tmp_path, model, differential):
        plain = save_model(tmp_path / "plain.npz", model)
        assert read_model_header(plain)["detector_spec"]["mode"] == \
            "standard"
        _, path = differential
        spec = read_model_header(path)["detector_spec"]
        assert spec["mode"] == "differential"
        assert len(read_model_header(path)["detector_regions"]) == 20

    def test_differential_round_trip_bit_identical(self, differential,
                                                   images):
        model, path = differential
        clone = load_model(path)
        assert clone.config.detector_mode == "differential"
        assert np.array_equal(
            clone.inference_engine().logits(images),
            model.inference_engine().logits(images))

    def test_tampered_spec_rejected(self, differential):
        _, path = differential

        def mutate(header):
            header["detector_spec"]["region_size"] = 7

        self._tamper(path, mutate)
        with pytest.raises(ValueError,
                           match="refusing to serve a mismatched "
                                 "readout head"):
            load_model(path)

    def test_tampered_regions_rejected(self, differential):
        _, path = differential

        def mutate(header):
            # Drop the spec so the independent region check fires.
            del header["detector_spec"]
            header["detector_regions"] = header["detector_regions"][:-2]

        self._tamper(path, mutate)
        with pytest.raises(ValueError, match="readout geometry"):
            load_model(path)

    def test_pre_spec_artifact_still_loads(self, differential, images):
        # Older artifacts (same format version) lack the spec fields;
        # the checks are opt-in on presence, not a version bump.
        model, path = differential

        def mutate(header):
            del header["detector_spec"]
            del header["detector_regions"]

        self._tamper(path, mutate)
        clone = load_model(path)
        assert np.array_equal(clone.predict(images),
                              model.predict(images))


class TestArtifactPrecisionResolution:
    def test_artifact_precision_becomes_serving_default(self, tmp_path,
                                                        model):
        path = model.save(tmp_path / "m.npz", precision="single")
        server = Server(artifact=path)
        assert server.resolved_precision() == "single"
        assert server.info()["precision"] == "single"

    def test_explicit_config_precision_wins(self, tmp_path, model):
        path = model.save(tmp_path / "m.npz", precision="single")
        server = Server(artifact=path,
                        config=ServeConfig(precision="double"))
        assert server.resolved_precision() == "double"

    def test_unrecorded_precision_defaults_to_double(self, tmp_path, model):
        path = model.save(tmp_path / "m.npz")
        server = Server(artifact=path)
        assert server.resolved_precision() == "double"

    def test_live_model_defaults_to_double(self, model):
        assert Server(model=model).resolved_precision() == "double"

    def test_served_engine_runs_at_artifact_precision(self, tmp_path,
                                                      model, images):
        path = model.save(tmp_path / "m.npz", precision="single")
        reference = model.inference_engine(
            precision="single").logits(images)
        with Server(artifact=path) as server:
            served = server.logits(images)
        assert served.dtype == np.float32
        np.testing.assert_array_equal(served, reference)
