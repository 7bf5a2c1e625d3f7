"""Tests of the shared utilities (ASCII art, Pareto, serialization)."""

import numpy as np
import pytest

from repro.utils import pareto_frontier, render_mask, render_side_by_side


class TestRenderMask:
    def test_shape_of_output(self):
        art = render_mask(np.random.default_rng(0).random((8, 12)))
        lines = art.split("\n")
        assert len(lines) == 8
        assert all(len(line) == 12 for line in lines)

    def test_low_is_space_high_is_dense(self):
        mask = np.zeros((2, 2))
        mask[1, 1] = 1.0
        art = render_mask(mask)
        assert art.split("\n")[0][0] == " "
        assert art.split("\n")[1][1] == "@"

    def test_downsampling(self):
        art = render_mask(np.ones((8, 8)), downsample=2)
        assert len(art.split("\n")) == 4

    def test_zero_mask_is_blank(self):
        art = render_mask(np.zeros((3, 3)))
        assert set(art.replace("\n", "")) == {" "}

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            render_mask(np.zeros(5))

    def test_side_by_side(self):
        a = np.zeros((4, 4))
        b = np.ones((4, 4))
        art = render_side_by_side([a, b], ["zero", "one"])
        lines = art.split("\n")
        assert "zero" in lines[0] and "one" in lines[0]
        assert len(lines) == 5

    def test_side_by_side_validation(self):
        with pytest.raises(ValueError):
            render_side_by_side([np.zeros((4, 4))], ["a", "b"])


class TestParetoFrontier:
    def test_simple_frontier(self):
        # (accuracy, roughness): maximize acc, minimize roughness.
        points = [(0.9, 100), (0.95, 200), (0.8, 50), (0.85, 150)]
        frontier = pareto_frontier(points)
        # (0.85, 150) is dominated by (0.9, 100).
        assert set(frontier) == {0, 1, 2}

    def test_single_point(self):
        assert pareto_frontier([(1.0, 1.0)]) == [0]

    def test_sorted_by_first_objective(self):
        points = [(0.95, 200), (0.8, 50), (0.9, 100)]
        frontier = pareto_frontier(points)
        values = [points[i][0] for i in frontier]
        assert values == sorted(values)

    def test_duplicate_points_kept(self):
        points = [(0.9, 100), (0.9, 100)]
        assert len(pareto_frontier(points)) == 2

    def test_orientation_flags(self):
        # Minimize both objectives.
        points = [(1.0, 1.0), (2.0, 2.0), (1.5, 0.5)]
        frontier = pareto_frontier(points, maximize_first=False,
                                   minimize_second=True)
        assert set(frontier) == {0, 2}

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            pareto_frontier([(1.0, 2.0, 3.0)])


class TestSerialization:
    def test_model_roundtrip(self, tmp_path):
        # The artifact carries its own geometry: no config is passed back.
        from repro.autodiff.rng import spawn_rng
        from repro.donn import DONN, DONNConfig
        from repro.utils import load_model, save_model

        model = DONN(DONNConfig.laptop(n=16, num_layers=2,
                                       detector_region_size=2),
                     rng=spawn_rng(0))
        clone = load_model(save_model(tmp_path / "model.npz", model))
        images = spawn_rng(1).random((2, 28, 28))
        assert np.array_equal(clone(images).data, model(images).data)
