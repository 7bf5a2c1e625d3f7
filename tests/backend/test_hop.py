"""The shared propagation hop: training and serving both run it."""

from repro.autodiff import Tensor, ops
from repro.autodiff.rng import spawn_rng
from repro.backend import hop
from repro.donn import DONN, DONNConfig
from repro.runtime import InferenceEngine


def test_engine_and_fused_op_call_the_one_hop(monkeypatch):
    calls = []
    real = hop.propagate_rows

    def counted(*args):
        calls.append(args[0].shape[0])
        return real(*args)

    monkeypatch.setattr(hop, "propagate_rows", counted)
    model = DONN(DONNConfig.laptop(n=8, num_layers=3), rng=spawn_rng(0))

    # Three layer hops plus the detector hop, once per chunk.
    engine = InferenceEngine(model, max_batch=4)
    engine.logits(spawn_rng(1).random((9, 28, 28)))
    assert calls == [4] * 4 + [4] * 4 + [1] * 4

    # One fused layer: the forward hop plus the field-adjoint hop.
    calls.clear()
    layer = model.layers[0]
    rng = spawn_rng(2)
    field = Tensor(rng.standard_normal((2, 8, 8))
                   + 1j * rng.standard_normal((2, 8, 8)),
                   requires_grad=True)
    ops.sum(ops.abs2(layer(field))).backward()
    assert calls == [2, 2]
