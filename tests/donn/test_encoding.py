"""Tests of image encoding onto the coherent source field."""

import numpy as np
import pytest

from repro.donn.encoding import bilinear_resize, encode_amplitude


class TestBilinearResize:
    def test_identity_at_same_size(self):
        rng = np.random.default_rng(0)
        img = rng.random((12, 12))
        assert np.allclose(bilinear_resize(img, 12), img)

    def test_constant_image_stays_constant(self):
        img = np.full((7, 7), 0.6)
        out = bilinear_resize(img, 29)
        assert np.allclose(out, 0.6)

    def test_output_shape(self):
        out = bilinear_resize(np.zeros((5, 28, 28)), 40)
        assert out.shape == (5, 40, 40)

    def test_upsampling_preserves_range(self):
        rng = np.random.default_rng(1)
        img = rng.random((28, 28))
        out = bilinear_resize(img, 200)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    def test_linear_ramp_preserved(self):
        # Bilinear interpolation reproduces affine images exactly
        # (away from the clamped border half-pixels).
        ramp = np.tile(np.linspace(0, 1, 16), (16, 1))
        out = bilinear_resize(ramp, 32)
        diffs = np.diff(out[16, 2:-2])
        assert np.allclose(diffs, diffs[0], atol=1e-12)

    def test_downsampling(self):
        img = np.zeros((8, 8))
        img[:4] = 1.0
        out = bilinear_resize(img, 4)
        assert out.shape == (4, 4)
        assert out[0, 0] == pytest.approx(1.0)
        assert out[3, 0] == pytest.approx(0.0)

    def test_batch_consistency(self):
        rng = np.random.default_rng(2)
        imgs = rng.random((3, 10, 10))
        batched = bilinear_resize(imgs, 24)
        single = np.stack([bilinear_resize(im, 24) for im in imgs])
        assert np.allclose(batched, single)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bilinear_resize(np.zeros(5), 10)
        with pytest.raises(ValueError):
            bilinear_resize(np.zeros((4, 4)), 0)


class TestEncodeAmplitude:
    def test_output_is_complex_with_zero_phase(self):
        rng = np.random.default_rng(3)
        field = encode_amplitude(rng.random((2, 28, 28)), 32)
        assert field.shape == (2, 32, 32)
        assert np.iscomplexobj(field)
        assert np.allclose(field.imag, 0.0)

    def test_unit_power_normalization(self):
        rng = np.random.default_rng(4)
        field = encode_amplitude(rng.random((3, 28, 28)), 40)
        powers = np.sum(np.abs(field) ** 2, axis=(-2, -1))
        assert np.allclose(powers, 1.0)

    @pytest.mark.parametrize("size", [12, 19, 40])
    def test_each_sample_encodes_as_if_alone(self, size):
        # A sample's normalized field does not depend on its batch.
        imgs = np.random.default_rng(5).random((9, 28, 28))
        batched = encode_amplitude(imgs, size)
        for index, img in enumerate(imgs):
            assert np.array_equal(encode_amplitude(img, size)[0],
                                  batched[index])

    def test_unnormalized_preserves_values(self):
        img = np.full((28, 28), 0.5)
        field = encode_amplitude(img, 28, normalize=False)
        assert np.allclose(field.real, 0.5)

    def test_blank_image_stays_blank(self):
        field = encode_amplitude(np.zeros((28, 28)), 32)
        assert np.allclose(field, 0.0)

    def test_2d_input_gets_batch_axis(self):
        field = encode_amplitude(np.ones((28, 28)), 32)
        assert field.shape == (1, 32, 32)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            encode_amplitude(np.full((4, 4), -1.0), 8)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            encode_amplitude(np.zeros((2, 3, 4, 4)), 8)
