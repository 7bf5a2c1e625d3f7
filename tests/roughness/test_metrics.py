"""Unit and property tests of the roughness metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, fused, gradcheck, ops
from repro.autodiff.rng import spawn_rng
from repro.roughness import (
    IntraBlockRegularizer,
    RoughnessRegularizer,
    block_variances,
    intra_block_smoothness,
    intra_block_tensor,
    model_roughness,
    neighbor_offsets,
    overall_roughness,
    roughness,
    roughness_map,
    roughness_tensor,
)


class TestNeighborOffsets:
    def test_counts(self):
        assert len(neighbor_offsets(4)) == 4
        assert len(neighbor_offsets(8)) == 8

    def test_unique_and_centered(self):
        for k in (4, 8):
            offs = neighbor_offsets(k)
            assert len(set(offs)) == k
            assert (0, 0) not in offs

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            neighbor_offsets(6)


class TestRoughnessValues:
    def test_zero_mask_is_zero(self):
        assert roughness(np.zeros((6, 6))) == 0.0

    def test_constant_mask_has_only_boundary_roughness(self):
        flat = np.full((6, 6), 2.0)
        rmap = roughness_map(flat, k=8)
        interior = rmap[1:-1, 1:-1]
        assert np.allclose(interior, 0.0)
        assert rmap[0, 0] > 0.0  # zero padding creates a boundary step

    def test_single_pixel_spike(self):
        # A unit spike at the center of a zero mask: spike pixel sees 8
        # unit differences -> sqrt(8)/8; each neighbor sees one ->  1/8.
        mask = np.zeros((5, 5))
        mask[2, 2] = 1.0
        rmap = roughness_map(mask, k=8)
        assert rmap[2, 2] == pytest.approx(np.sqrt(8) / 8)
        assert rmap[1, 1] == pytest.approx(1 / 8)
        assert roughness(mask) == pytest.approx(
            (np.sqrt(8) / 8 + 8 / 8) / 2
        )

    def test_scale_equivariance(self):
        rng = spawn_rng(0)
        mask = rng.random((8, 8))
        assert roughness(3.0 * mask) == pytest.approx(3.0 * roughness(mask))

    def test_translation_invariance_of_values(self):
        # Roughness depends on differences, but zero padding makes a
        # constant shift matter only at the boundary.
        rng = spawn_rng(1)
        mask = rng.random((8, 8))
        interior_a = roughness_map(mask)[1:-1, 1:-1]
        interior_b = roughness_map(mask + 5.0)[1:-1, 1:-1]
        assert np.allclose(interior_a, interior_b)

    def test_k4_differs_from_k8(self):
        rng = spawn_rng(2)
        mask = rng.random((8, 8))
        assert roughness(mask, k=4) != pytest.approx(roughness(mask, k=8))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            roughness_map(np.zeros((2, 2, 2)))

    def test_smooth_vs_rough_ordering(self):
        n = 16
        x = np.linspace(0, 1, n)
        smooth = np.tile(np.sin(2 * np.pi * x), (n, 1))
        rough_mask = spawn_rng(3).uniform(-1, 1, (n, n))
        assert roughness(smooth) < roughness(rough_mask)

    def test_overall_roughness_is_mean(self):
        rng = spawn_rng(4)
        masks = [rng.random((6, 6)) for _ in range(3)]
        assert overall_roughness(masks) == pytest.approx(
            np.mean([roughness(m) for m in masks])
        )

    def test_overall_requires_masks(self):
        with pytest.raises(ValueError):
            overall_roughness([])


class TestRoughnessTensor:
    def test_matches_numpy_metric(self):
        rng = spawn_rng(5)
        mask = rng.random((7, 7))
        diff = roughness_tensor(Tensor(mask)).item()
        assert diff == pytest.approx(roughness(mask), rel=1e-6)

    @pytest.mark.parametrize("k", [4, 8])
    def test_gradcheck(self, k):
        rng = spawn_rng(6)
        mask = Tensor(rng.random((5, 5)) + 0.5, requires_grad=True)
        gradcheck(lambda: roughness_tensor(mask, k=k), [mask], rtol=1e-3)

    def test_gradient_finite_on_flat_regions(self):
        # Zeroed blocks create flat neighborhoods; eps must keep the sqrt
        # gradient finite there.
        mask = Tensor(np.zeros((6, 6)), requires_grad=True)
        roughness_tensor(mask).backward()
        assert np.all(np.isfinite(mask.grad))

    def test_minimizing_reduces_roughness(self):
        from repro.autodiff import Adam

        rng = spawn_rng(7)
        mask = Tensor(rng.uniform(0, 2 * np.pi, (10, 10)),
                      requires_grad=True)
        start = roughness(mask.data)
        optimizer = Adam([mask], lr=0.05)
        for _ in range(100):
            optimizer.zero_grad()
            roughness_tensor(mask).backward()
            optimizer.step()
        assert roughness(mask.data) < 0.5 * start


def composed_roughness_tensor(phase, k=8, eps=1e-12):
    """The composed per-op roughness graph (the fused node's oracle)."""
    with fused.fused_disabled():
        return roughness_tensor(phase, k=k, eps=eps)


def loss_and_grad(fn, data, k):
    phase = Tensor(data.copy(), requires_grad=True)
    loss = fn(phase, k=k)
    (loss * 0.37).backward()
    return loss.data.tobytes(), phase.grad.tobytes()


class TestFusedRoughnessNode:
    #: Relative gradient tolerance when the node's input also feeds
    #: ``diffmod``: the composed graph then interleaves the two
    #: consumers' contributions into one sum, so only the rounding of
    #: that sum (a few ulp) may differ.
    SHARED_INPUT_RTOL = 1e-13

    def test_records_one_node(self):
        phase = Tensor(spawn_rng(20).random((6, 9)), requires_grad=True)
        loss = roughness_tensor(phase)
        assert [parent for parent, _ in loss._parents] == [phase]

    @pytest.mark.parametrize("k", [4, 8])
    def test_gradcheck_non_square(self, k):
        rng = spawn_rng(21)
        mask = Tensor(rng.random((5, 7)) + 0.5, requires_grad=True)
        gradcheck(lambda: roughness_tensor(mask, k=k), [mask], rtol=1e-3)

    @pytest.mark.parametrize("k", [4, 8])
    def test_bit_identical_to_composed_graph(self, k):
        rng = spawn_rng(22 + k)
        for case in range(40):
            n, m = rng.integers(1, 45, size=2)
            data = rng.uniform(0, 2 * np.pi, (n, m))
            if case % 2:
                data[: n // 2] = 0.0  # a zeroed sparsity region
            assert loss_and_grad(roughness_tensor, data, k) == \
                loss_and_grad(composed_roughness_tensor, data, k)

    def trainer_step(self, monkeypatch, composed, **config):
        from repro.data import DataLoader, make_dataset
        from repro.donn import DONN, DONNConfig, Trainer
        from repro.roughness import regularizers

        if composed:
            monkeypatch.setattr(regularizers, "roughness_tensor",
                                composed_roughness_tensor)
        model = DONN(DONNConfig.laptop(n=16, num_layers=2,
                                       detector_region_size=2, **config),
                     rng=spawn_rng(23))
        if config.get("parametrization", "sigmoid") == "sigmoid":
            mask = np.ones((16, 16))
            mask[4:8, 8:12] = 0.0
            model.apply_sparsity_masks([mask, mask])
        train, _ = make_dataset("digits", 12, 1, seed=0)
        trainer = Trainer(model, regularizers=[RoughnessRegularizer(p=0.5)])
        trainer.train_epoch(DataLoader(train, batch_size=12, shuffle=False))
        return [p.data.copy() for p in model.parameters()]

    def test_trainer_step_bit_identical(self, monkeypatch):
        fused_params = self.trainer_step(monkeypatch, composed=False)
        composed_params = self.trainer_step(monkeypatch, composed=True)
        for a, b in zip(fused_params, composed_params):
            assert a.tobytes() == b.tobytes()

    def test_shared_input_within_tolerance(self):
        """Under ``parametrization="direct"`` without a mask,
        ``effective_phase()`` is the layer parameter itself, which
        ``diffmod`` also consumes: the gradients agree to
        ``SHARED_INPUT_RTOL`` (relative to the largest entry), not bit
        for bit."""
        from repro.data import make_dataset
        from repro.donn import DONN, DONNConfig, Trainer

        train, _ = make_dataset("digits", 12, 1, seed=0)
        grads = []
        for fn in (roughness_tensor, composed_roughness_tensor):
            model = DONN(DONNConfig.laptop(n=16, num_layers=2,
                                           detector_region_size=2,
                                           parametrization="direct"),
                         rng=spawn_rng(24))
            layer = model.layers[0]
            assert layer.effective_phase() is layer.phase
            trainer = Trainer(model)
            total, _, _ = trainer.loss(train.images, train.labels)
            for each in model.layers:
                total = total + fn(each.effective_phase()) * 0.5
            total.backward()
            grads.append([p.grad.copy() for p in model.parameters()])
        for a, b in zip(*grads):
            scale = np.abs(b).max()
            np.testing.assert_allclose(
                a, b, rtol=0, atol=self.SHARED_INPUT_RTOL * scale)


class TestIntraBlock:
    def test_constant_blocks_have_zero_variance(self):
        mask = np.kron(np.arange(9.0).reshape(3, 3), np.ones((2, 2)))
        assert intra_block_smoothness(mask, block_size=2) == 0.0

    def test_matches_numpy_by_hand(self):
        mask = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = np.var([1, 2, 3, 4], ddof=1)
        assert intra_block_smoothness(mask, 2) == pytest.approx(expected)

    def test_block_variance_grid_shape(self):
        assert block_variances(np.zeros((8, 8)), 2).shape == (4, 4)

    def test_indivisible_shape_rejected(self):
        with pytest.raises(ValueError):
            block_variances(np.zeros((6, 6)), 4)

    def test_block_size_one_rejected(self):
        with pytest.raises(ValueError):
            block_variances(np.zeros((6, 6)), 1)

    def test_tensor_matches_numpy(self):
        rng = spawn_rng(8)
        mask = rng.random((8, 8))
        value = intra_block_tensor(Tensor(mask), block_size=4).item()
        assert value == pytest.approx(intra_block_smoothness(mask, 4))

    def test_tensor_gradcheck(self):
        rng = spawn_rng(9)
        mask = Tensor(rng.random((4, 4)), requires_grad=True)
        gradcheck(lambda: intra_block_tensor(mask, 2), [mask])


class TestRegularizers:
    def make_model(self):
        from repro.autodiff.rng import spawn_rng
        from repro.donn import DONN, DONNConfig

        return DONN(DONNConfig.laptop(n=16, num_layers=2,
                                      detector_region_size=2),
                    rng=spawn_rng(10))

    def test_roughness_regularizer_value(self):
        model = self.make_model()
        reg = RoughnessRegularizer(p=0.5)
        expected = 0.5 * sum(
            roughness(layer.phase_array()) for layer in model.layers
        )
        assert reg(model).item() == pytest.approx(expected, rel=1e-5)

    def test_intra_block_regularizer_value(self):
        model = self.make_model()
        reg = IntraBlockRegularizer(q=2.0, block_size=4)
        expected = 2.0 * sum(
            intra_block_smoothness(layer.phase_array(), 4)
            for layer in model.layers
        )
        assert reg(model).item() == pytest.approx(expected, rel=1e-6)

    def test_negative_factors_rejected(self):
        with pytest.raises(ValueError):
            RoughnessRegularizer(p=-0.1)
        with pytest.raises(ValueError):
            IntraBlockRegularizer(q=-1.0, block_size=2)

    def test_regularizers_respect_sparsity_masks(self):
        model = self.make_model()
        mask = np.ones((16, 16))
        mask[:8] = 0.0
        model.apply_sparsity_masks([mask, mask])
        reg = RoughnessRegularizer(p=1.0)
        value = reg(model)
        value.backward()
        # Pruned pixels receive no gradient through the regularizer.
        assert np.allclose(model.layers[0].phase.grad[:8], 0.0)

    def test_model_roughness_report(self):
        model = self.make_model()
        report = model_roughness(model)
        assert len(report.per_layer) == 2
        assert report.overall == pytest.approx(np.mean(report.per_layer))
        assert "R_overall" in str(report)

    def test_model_roughness_with_offsets(self):
        model = self.make_model()
        offsets = [np.zeros((16, 16)), np.zeros((16, 16))]
        base = model_roughness(model)
        same = model_roughness(model, offsets=offsets)
        assert same.overall == pytest.approx(base.overall)
        with pytest.raises(ValueError):
            model_roughness(model, offsets=[np.zeros((16, 16))])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.sampled_from([4, 8]))
def test_roughness_nonnegative_property(seed, k):
    rng = np.random.default_rng(seed)
    mask = rng.uniform(-5, 5, (6, 6))
    assert roughness(mask, k=k) >= 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_roughness_symmetry_property(seed):
    # Roughness is invariant to transposition and flips (neighborhoods are
    # symmetric).
    rng = np.random.default_rng(seed)
    mask = rng.uniform(0, 2 * np.pi, (7, 7))
    base = roughness(mask)
    assert roughness(mask.T) == pytest.approx(base)
    assert roughness(np.flip(mask, axis=0)) == pytest.approx(base)
    assert roughness(np.flip(mask, axis=1)) == pytest.approx(base)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_smoothing_never_increases_roughness_property(seed):
    # Local averaging (a smoothing operation) should not increase the
    # roughness of a random mask.
    ndimage = pytest.importorskip(
        "scipy.ndimage", reason="smoothing oracle needs scipy")

    rng = np.random.default_rng(seed)
    mask = rng.uniform(0, 2 * np.pi, (10, 10))
    smoothed = ndimage.uniform_filter(mask, size=3, mode="nearest")
    assert roughness(smoothed) <= roughness(mask) + 1e-9
