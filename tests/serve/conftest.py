"""Shared serving fixtures: one small model and the artifact it is
served from (the artifact round trip is 0 ULP, so every served result
is compared byte for byte against ``model``)."""

import pytest

from repro.autodiff.rng import spawn_rng
from repro.donn import DONN, DONNConfig
from repro.utils.serialization import save_model


@pytest.fixture(scope="module")
def model():
    return DONN(DONNConfig.laptop(n=16), rng=spawn_rng(0))


@pytest.fixture(scope="module")
def artifact(model, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "model.npz"
    return str(save_model(path, model))
