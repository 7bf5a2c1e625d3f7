"""End-to-end HTTP/JSON frontend tests (real sockets, ephemeral ports)."""

import json
import socket
import struct
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.autodiff.rng import spawn_rng
from repro.serve import ServeConfig, Server


@pytest.fixture(scope="module")
def images():
    return spawn_rng(1).random((6, 28, 28))


@pytest.fixture(scope="module")
def served(artifact):
    config = ServeConfig(max_batch=4, max_delay=0.005)
    with Server(artifact=artifact, config=config) as server:
        frontend = server.serve_http(port=0)  # ephemeral port
        yield server, frontend.url


def post(url, path, payload, timeout=30):
    request = urllib.request.Request(
        url + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def get(url, path, timeout=30):
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return response.status, json.loads(response.read())


class TestEndpoints:
    def test_healthz(self, served):
        _, url = served
        status, payload = get(url, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert "batcher" in payload and "shards" in payload
        assert [shard["state"] for shard in payload["shards"]] == ["ok"]
        assert payload["restarts"] == 0

    def test_model_info(self, served, model):
        _, url = served
        status, payload = get(url, "/v1/model")
        assert status == 200
        assert payload["model"]["config"]["n"] == model.config.n
        assert payload["max_batch"] == 4

    def test_predict_batch_matches_model(self, served, model, images):
        _, url = served
        status, payload = post(url, "/v1/predict",
                               {"inputs": images.tolist()})
        assert status == 200
        assert payload["predictions"] == model.predict(images).tolist()

    def test_predict_single_sample(self, served, model, images):
        _, url = served
        status, payload = post(url, "/v1/predict",
                               {"inputs": images[0].tolist()})
        assert status == 200
        assert payload["predictions"] == int(model.predict(
            images[0][None])[0])

    def test_logits(self, served, model, images):
        _, url = served
        status, payload = post(url, "/v1/logits",
                               {"inputs": images[:2].tolist()})
        assert status == 200
        reference = model.inference_engine().logits(images[:2])
        assert np.abs(np.asarray(payload["logits"]) - reference).max() < 1e-9

    def test_intensity(self, served, model, images):
        _, url = served
        status, payload = post(url, "/v1/intensity",
                               {"inputs": images[0].tolist()})
        assert status == 200
        reference = model.inference_engine().intensity_map(images[:1])[0]
        served = np.asarray(payload["intensity"])
        assert served.shape == reference.shape
        assert np.abs(served - reference).max() < 1e-9

    def test_complex_fields_via_imag_part(self, served, model):
        _, url = served
        n = model.config.n
        rng = spawn_rng(3)
        fields = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal(
            (2, n, n))
        status, payload = post(url, "/v1/predict", {
            "inputs": fields.real.tolist(),
            "inputs_imag": fields.imag.tolist(),
        })
        assert status == 200
        assert payload["predictions"] == model.predict(fields).tolist()


class TestHTTPErrors:
    def expect_error(self, url, path, body: bytes, status: int):
        request = urllib.request.Request(
            url + path, data=body,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == status
        return json.loads(excinfo.value.read())

    def test_unknown_path_404(self, served):
        _, url = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url + "/nope", timeout=30)
        assert excinfo.value.code == 404

    def test_invalid_json_400(self, served):
        _, url = served
        payload = self.expect_error(url, "/v1/predict", b"{nope", 400)
        assert "JSON" in payload["error"]

    def test_missing_inputs_400(self, served):
        _, url = served
        payload = self.expect_error(url, "/v1/predict", b'{"x": 1}', 400)
        assert "inputs" in payload["error"]

    def test_wrong_rank_400(self, served):
        _, url = served
        self.expect_error(url, "/v1/predict", b'{"inputs": [1, 2, 3]}', 400)

    def test_non_numeric_400(self, served):
        _, url = served
        self.expect_error(url, "/v1/predict",
                          b'{"inputs": [["a", "b"]]}', 400)

    def test_mismatched_imag_400(self, served):
        _, url = served
        self.expect_error(
            url, "/v1/predict",
            b'{"inputs": [[1.0, 2.0]], "inputs_imag": [[1.0]]}', 400,
        )

    def test_empty_body_400(self, served):
        _, url = served
        self.expect_error(url, "/v1/predict", b"", 400)

    def test_wrong_field_shape_400(self, served):
        # A complex field whose shape does not match the grid is an
        # engine-side ValueError -> 400, not a 500.
        _, url = served
        self.expect_error(
            url, "/v1/predict",
            json.dumps({
                "inputs": [[1.0, 0.0], [0.0, 1.0]],
                "inputs_imag": [[0.0, 0.0], [0.0, 0.0]],
            }).encode(), 400,
        )


class TestIdentityAndDrain:
    """Replica identity on /healthz, the drain endpoint, and the
    jittered Retry-After contract routers and clients rely on."""

    def test_healthz_identity_fields(self, served):
        _, url = served
        _, payload = get(url, "/healthz")
        import repro

        assert payload["replica_id"] is None  # standalone server
        assert payload["version"] == repro.__version__
        assert payload["uptime_s"] >= 0

    def test_replica_id_is_exposed(self, artifact):
        config = ServeConfig(max_batch=4, replica_id="r7")
        with Server(artifact=artifact, config=config) as server:
            url = server.serve_http(port=0).url
            _, payload = get(url, "/healthz")
            assert payload["replica_id"] == "r7"

    def test_uptime_advances(self, artifact):
        with Server(artifact=artifact) as server:
            url = server.serve_http(port=0).url
            _, first = get(url, "/healthz")
            import time

            time.sleep(0.05)
            _, second = get(url, "/healthz")
            assert second["uptime_s"] > first["uptime_s"] >= 0

    def test_admin_drain_endpoint(self, artifact):
        with Server(artifact=artifact) as server:
            url = server.serve_http(port=0).url
            status, payload = post(url, "/admin/drain", {})
            assert status == 200
            assert payload["status"] == "draining"
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(url + "/healthz", timeout=30)
            assert info.value.code == 503

    def test_retry_after_is_jittered(self, artifact, images):
        # max_inflight=0 makes every request shed with 429; the
        # suggested retry is max_delay * 4 = 1.0s, jittered into
        # [0.75, 1.25) so herds of retrying clients spread out.
        from repro.serve.http import RETRY_AFTER_JITTER

        config = ServeConfig(max_inflight=0, max_delay=0.25)
        with Server(artifact=artifact, config=config) as server:
            url = server.serve_http(port=0).url
            seen = []
            for _ in range(20):
                request = urllib.request.Request(
                    url + "/v1/predict",
                    data=json.dumps(
                        {"inputs": images[0].tolist()}).encode(),
                    headers={"Content-Type": "application/json"})
                with pytest.raises(urllib.error.HTTPError) as info:
                    urllib.request.urlopen(request, timeout=30)
                assert info.value.code == 429
                seen.append(float(info.value.headers["Retry-After"]))
        low, high = RETRY_AFTER_JITTER
        assert all(low <= value <= high for value in seen)
        assert len(set(seen)) >= 2  # actually jittered, not constant


class TestClientDisconnect:
    def test_early_hangup_is_counted_without_a_traceback(self, artifact,
                                                         images, capfd):
        config = ServeConfig(max_batch=4, max_delay=0.001,
                             faults="delay:shard=0,ms=300,times=100")
        with Server(artifact=artifact, config=config) as server:
            host, port = server.serve_http(port=0).address
            body = json.dumps({"inputs": images[0].tolist()}).encode()
            client = socket.create_connection((host, port), timeout=10)
            client.sendall(
                b"POST /v1/predict HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
            time.sleep(0.05)  # the request is read and queued
            # Close with a reset, before the delayed shard answers.
            client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                              struct.pack("ii", 1, 0))
            client.close()
            name = "repro_http_client_disconnects_total"
            deadline = time.monotonic() + 10
            while (server.metrics.as_dict().get(name, 0) < 1
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert server.metrics.as_dict()[name] == 1
            assert name in server.metrics_text()
        assert "Traceback" not in capfd.readouterr().err
