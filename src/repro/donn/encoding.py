"""Input encoding: images onto the coherent source field (Sec. III-A).

The paper interpolates 28 x 28 dataset images up to the 200 x 200 mask
resolution and encodes them on the amplitude of the 532 nm laser field.
This module provides the batched bilinear interpolation and the
amplitude-encoding step (with optional unit-power normalization so detector
readings are comparable across images).
"""

from __future__ import annotations

import numpy as np

__all__ = ["bilinear_resize", "encode_amplitude"]


def bilinear_resize(images: np.ndarray, size: int) -> np.ndarray:
    """Bilinearly resample ``images`` (``(..., h, w)``) to ``(..., size, size)``.

    Uses the half-pixel-center convention (as ``align_corners=False``
    in the deep-learning world): source coordinate of destination pixel
    ``i`` is ``(i + 0.5) * scale - 0.5``, clamped to the valid range.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim < 2:
        raise ValueError("images must have at least 2 dimensions")
    if size < 1:
        raise ValueError(f"target size must be positive, got {size}")
    h, w = images.shape[-2], images.shape[-1]

    def source_axis(n_src: int) -> tuple:
        scale = n_src / size
        coord = (np.arange(size) + 0.5) * scale - 0.5
        coord = np.clip(coord, 0.0, n_src - 1.0)
        low = np.floor(coord).astype(int)
        high = np.minimum(low + 1, n_src - 1)
        frac = coord - low
        return low, high, frac

    y0, y1, fy = source_axis(h)
    x0, x1, fx = source_axis(w)

    top = (
        images[..., y0[:, None], x0[None, :]] * (1 - fx)[None, :]
        + images[..., y0[:, None], x1[None, :]] * fx[None, :]
    )
    bottom = (
        images[..., y1[:, None], x0[None, :]] * (1 - fx)[None, :]
        + images[..., y1[:, None], x1[None, :]] * fx[None, :]
    )
    return top * (1 - fy)[:, None] + bottom * fy[:, None]


def encode_amplitude(
    images: np.ndarray,
    size: int,
    normalize: bool = True,
    dtype=np.complex128,
) -> np.ndarray:
    """Encode images as the amplitude of a unit-phase coherent field.

    Parameters
    ----------
    images:
        ``(batch, h, w)`` or ``(h, w)`` array of non-negative intensities.
    size:
        Mask resolution to interpolate to (the paper uses 200).
    normalize:
        Scale each field to unit total power, making detector intensity
        sums comparable across images with different ink coverage.
    dtype:
        Complex dtype of the returned field; the single-precision
        inference fast path asks for ``complex64`` directly instead of
        round-tripping through a complex128 intermediate.

    Returns
    -------
    Complex field array of shape ``(batch, size, size)`` (a singleton batch
    axis is added for 2-D inputs).
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 2:
        images = images[None]
    if images.ndim != 3:
        raise ValueError(
            f"expected (batch, h, w) or (h, w) images, got shape {images.shape}"
        )
    if np.any(images < 0):
        raise ValueError("image intensities must be non-negative")
    amplitude = bilinear_resize(images, size)
    if normalize:
        # Each sample's power is the sequential raster-order sum of its
        # squares.  That is the order ``np.sum`` takes over a batch in
        # the resize's batch-innermost layout, so batched fields (and
        # every model trained on them) keep their values; ``np.sum`` on
        # a lone sample switches to a pairwise sum, which would make a
        # sample's field depend on its batch.
        square = (amplitude ** 2).reshape(amplitude.shape[0], -1)
        power = np.cumsum(square, axis=-1, out=square)[:, -1, None, None]
        # Blank images stay blank instead of dividing by zero.
        amplitude = amplitude / np.sqrt(np.maximum(power, 1e-30))
    dtype = np.dtype(dtype)
    if dtype.kind != "c":
        raise TypeError(f"encoded fields are complex, got dtype {dtype}")
    return amplitude.astype(dtype)
