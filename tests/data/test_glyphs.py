"""Tests of the glyph rasterizer."""

import numpy as np
import pytest

from repro.data.glyphs import (
    arc,
    curve,
    line,
    polygon,
    rasterize,
    transform_primitives,
)


class TestRasterizeBasics:
    def test_canvas_shape_and_range(self):
        img = rasterize([line((0.1, 0.5), (0.9, 0.5))], size=28)
        assert img.shape == (28, 28)
        assert img.min() >= 0.0
        assert img.max() <= 1.0

    def test_empty_primitives_gives_blank(self):
        assert rasterize([], size=16).sum() == 0.0

    def test_horizontal_line_covers_expected_row(self):
        img = rasterize([line((0.05, 0.5), (0.95, 0.5))], size=28,
                        thickness=0.08)
        # Ink concentrated around row 14 (y = 0.5).
        row_ink = img.sum(axis=1)
        assert np.argmax(row_ink) in (13, 14)
        assert row_ink[0] == 0.0
        assert row_ink[-1] == 0.0

    def test_vertical_line_covers_expected_column(self):
        img = rasterize([line((0.5, 0.05), (0.5, 0.95))], size=28)
        col_ink = img.sum(axis=0)
        assert np.argmax(col_ink) in (13, 14)

    def test_thickness_increases_ink(self):
        thin = rasterize([line((0.1, 0.5), (0.9, 0.5))], thickness=0.04)
        thick = rasterize([line((0.1, 0.5), (0.9, 0.5))], thickness=0.15)
        assert thick.sum() > thin.sum() * 1.5

    def test_overlap_is_max_not_sum(self):
        cross = rasterize(
            [line((0.1, 0.5), (0.9, 0.5)), line((0.5, 0.1), (0.5, 0.9))]
        )
        assert cross.max() <= 1.0

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            rasterize([], size=2)

    def test_invalid_thickness_rejected(self):
        with pytest.raises(ValueError):
            rasterize([], thickness=0.0)

    def test_unknown_primitive_rejected(self):
        with pytest.raises(ValueError):
            rasterize([("blob", ())])


class TestStrokePrimitives:
    def test_curve_passes_through_endpoints(self):
        img = rasterize([curve((0.1, 0.1), (0.9, 0.1), (0.9, 0.9))], size=40,
                        thickness=0.06)
        # Endpoints carry ink.
        assert img[4, 4] > 0.5  # (0.1, 0.1) -> pixel (4, 4)
        assert img[36, 36] > 0.5

    def test_arc_full_circle_is_ring(self):
        img = rasterize([arc((0.5, 0.5), 0.3, 0.3, 0, 2 * np.pi)], size=40,
                        thickness=0.05)
        assert img[20, 20] == 0.0  # hollow center
        assert img[20, int(0.8 * 40)] > 0.5  # on the ring

    def test_arc_partial_leaves_gap(self):
        img = rasterize([arc((0.5, 0.5), 0.3, 0.3, 0.5 * np.pi, 1.5 * np.pi)],
                        size=40, thickness=0.05)
        # Right side of the circle (angle 0) must be empty.
        assert img[20, 32] == 0.0


class TestFilledPrimitives:
    def test_polygon_square_fill(self):
        img = rasterize([polygon([(0.25, 0.25), (0.75, 0.25),
                                  (0.75, 0.75), (0.25, 0.75)])], size=40)
        assert img[20, 20] == 1.0  # inside
        assert img[2, 2] == 0.0  # outside
        inside_fraction = img.mean()
        assert 0.2 < inside_fraction < 0.3  # ~0.25 area

    def test_polygon_concave(self):
        # L-shape: the notch must stay empty.
        shape = [(0.2, 0.2), (0.8, 0.2), (0.8, 0.5), (0.5, 0.5),
                 (0.5, 0.8), (0.2, 0.8)]
        img = rasterize([polygon(shape)], size=40)
        assert img[10, 10] == 1.0  # in the L body
        assert img[28, 28] == 0.0  # in the notch


class TestTransform:
    def test_identity_transform_is_noop(self):
        prims = [line((0.2, 0.2), (0.8, 0.8)), curve((0.1, 0.5), (0.5, 0.1),
                                                     (0.9, 0.5))]
        out = transform_primitives(prims, np.eye(2))
        a = rasterize(prims, size=32)
        b = rasterize(out, size=32)
        assert np.allclose(a, b)

    def test_translation_moves_ink(self):
        prims = [polygon([(0.3, 0.3), (0.5, 0.3), (0.5, 0.5), (0.3, 0.5)])]
        moved = transform_primitives(prims, np.eye(2), translation=(0.2, 0.2))
        img = rasterize(moved, size=40)
        assert img[24, 24] == 1.0  # center now at (0.6, 0.6)
        assert img[16, 16] == 0.0

    def test_rotation_about_center(self):
        prims = [line((0.5, 0.1), (0.5, 0.9))]  # vertical
        quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
        rotated = transform_primitives(prims, quarter)
        img = rasterize(rotated, size=28)
        row_ink = img.sum(axis=1)
        assert np.argmax(row_ink) in (13, 14)  # now horizontal

    def test_arc_becomes_polyline_under_transform(self):
        prims = [arc((0.5, 0.5), 0.2, 0.3, 0, 2 * np.pi)]
        out = transform_primitives(prims, 0.5 * np.eye(2))
        assert out[0][0] == "polyline"

    def test_scaling_shrinks_extent(self):
        prims = [polygon([(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.2, 0.8)])]
        small = transform_primitives(prims, 0.5 * np.eye(2))
        assert rasterize(small, 40).sum() < rasterize(prims, 40).sum() * 0.5

    def test_bad_matrix_rejected(self):
        with pytest.raises(ValueError):
            transform_primitives([line((0, 0), (1, 1))], np.eye(3))
