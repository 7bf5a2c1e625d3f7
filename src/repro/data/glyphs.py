"""Anti-aliased glyph rasterizer for the synthetic dataset families.

The build environment has no network access, so the MNIST / FMNIST /
KMNIST / EMNIST images the paper trains on cannot be downloaded.  This
module provides the drawing substrate for procedurally generated stand-ins:
glyphs are described as small lists of primitives in normalized ``[0, 1]^2``
coordinates (x right, y down) and rasterized onto small float canvases with
soft (anti-aliased) edges.

Primitives
----------
* ``line(p0, p1)``           — straight stroke;
* ``curve(p0, p1, p2)``      — quadratic Bezier stroke;
* ``arc(center, rx, ry, a0, a1)`` — elliptical arc stroke (radians);
* ``polygon(vertices)``      — filled polygon (even-odd rule).

Strokes are rendered via a distance field to densely sampled path points;
fills get a half-pixel soft edge.  Everything is pure numpy.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "line",
    "curve",
    "arc",
    "polygon",
    "transform_primitives",
    "rasterize",
]

Point = Tuple[float, float]

# Primitive encoding: ("kind", payload...).  Plain tuples keep prototypes
# declarative, hashable and trivially transformable.


def line(p0: Point, p1: Point) -> tuple:
    """Straight stroke from ``p0`` to ``p1`` (normalized coordinates)."""
    return ("line", (tuple(p0), tuple(p1)))


def curve(p0: Point, p1: Point, p2: Point) -> tuple:
    """Quadratic Bezier stroke with control point ``p1``."""
    return ("curve", (tuple(p0), tuple(p1), tuple(p2)))


def arc(center: Point, rx: float, ry: float, a0: float, a1: float) -> tuple:
    """Elliptical arc stroke from angle ``a0`` to ``a1`` (radians)."""
    return ("arc", (tuple(center), float(rx), float(ry), float(a0), float(a1)))


def polygon(vertices: Sequence[Point]) -> tuple:
    """Filled polygon (vertices in order, even-odd fill)."""
    return ("polygon", tuple(tuple(v) for v in vertices))


# ----------------------------------------------------------------------
# Geometry helpers
# ----------------------------------------------------------------------
def _sample_path(prim: tuple, samples_per_unit: int = 96) -> np.ndarray:
    """Sample a stroke primitive into an ``(m, 2)`` array of points."""
    kind, payload = prim
    if kind == "line":
        (p0, p1) = payload
        p0, p1 = np.asarray(p0), np.asarray(p1)
        length = float(np.linalg.norm(p1 - p0))
        m = max(2, int(length * samples_per_unit))
        t = np.linspace(0.0, 1.0, m)[:, None]
        return p0 + t * (p1 - p0)
    if kind == "curve":
        (p0, p1, p2) = (np.asarray(p) for p in payload)
        approx_len = float(
            np.linalg.norm(p1 - p0) + np.linalg.norm(p2 - p1)
        )
        m = max(3, int(approx_len * samples_per_unit))
        t = np.linspace(0.0, 1.0, m)[:, None]
        return (1 - t) ** 2 * p0 + 2 * (1 - t) * t * p1 + t ** 2 * p2
    if kind == "arc":
        (center, rx, ry, a0, a1) = payload
        cx, cy = center
        span = abs(a1 - a0)
        m = max(4, int(span * max(rx, ry) * samples_per_unit))
        theta = np.linspace(a0, a1, m)
        return np.stack(
            [cx + rx * np.cos(theta), cy + ry * np.sin(theta)], axis=1
        )
    raise ValueError(f"{kind!r} is not a stroke primitive")


def transform_primitives(
    primitives: Sequence[tuple],
    matrix: np.ndarray,
    translation: Point = (0.0, 0.0),
    center: Point = (0.5, 0.5),
) -> List[tuple]:
    """Apply an affine map ``p -> M (p - c) + c + t`` to every primitive.

    Arc primitives are converted to sampled polylines first (an ellipse
    under shear/rotation is no longer axis aligned), which keeps the
    transform exact for rendering purposes.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (2, 2):
        raise ValueError(f"affine matrix must be 2x2, got {matrix.shape}")
    center_arr = np.asarray(center, dtype=float)
    shift = np.asarray(translation, dtype=float)

    def warp(points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return (pts - center_arr) @ matrix.T + center_arr + shift

    result: List[tuple] = []
    for prim in primitives:
        kind, payload = prim
        if kind == "line":
            p0, p1 = warp(payload)
            result.append(line(p0, p1))
        elif kind == "curve":
            p0, p1, p2 = warp(payload)
            result.append(curve(p0, p1, p2))
        elif kind == "arc":
            pts = warp(_sample_path(prim))
            result.append(("polyline", pts))
        elif kind == "polyline":
            result.append(("polyline", warp(payload)))
        elif kind == "polygon":
            result.append(polygon(warp(payload)))
        else:
            raise ValueError(f"unknown primitive kind {kind!r}")
    return result


# ----------------------------------------------------------------------
# Rasterization
# ----------------------------------------------------------------------
def _pixel_grid(size: int) -> Tuple[np.ndarray, np.ndarray]:
    axis = (np.arange(size) + 0.5) / size
    return np.meshgrid(axis, axis, indexing="xy")


def _render_stroke(points: np.ndarray, px: np.ndarray, py: np.ndarray,
                   thickness: float) -> np.ndarray:
    """Soft stroke coverage from the distance to sampled path points."""
    dx = px[..., None] - points[:, 0]
    dy = py[..., None] - points[:, 1]
    dist = np.sqrt(dx * dx + dy * dy).min(axis=-1)
    size = px.shape[0]
    half_pixel = 0.5 / size
    return np.clip((thickness / 2 + half_pixel - dist) / (2 * half_pixel),
                   0.0, 1.0)


def _render_polygon(vertices: np.ndarray, px: np.ndarray,
                    py: np.ndarray) -> np.ndarray:
    """Even-odd filled polygon with a half-pixel softened boundary."""
    vertices = np.asarray(vertices, dtype=float)
    x0, y0 = vertices[:, 0], vertices[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    # Ray casting to the right of each pixel center, vectorized over edges.
    pxe = px[..., None]
    pye = py[..., None]
    crosses = ((y0 <= pye) & (pye < y1)) | ((y1 <= pye) & (pye < y0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(y1 != y0, (pye - y0) / (y1 - y0), 0.0)
    intersect_x = x0 + t * (x1 - x0)
    inside = (np.sum(crosses & (intersect_x > pxe), axis=-1) % 2).astype(float)
    return inside


def rasterize(
    primitives: Sequence[tuple],
    size: int = 28,
    thickness: float = 0.08,
) -> np.ndarray:
    """Render primitives onto a ``size x size`` float canvas in ``[0, 1]``.

    Overlapping ink combines with ``max`` (opaque strokes), so stroke order
    is irrelevant.
    """
    if size < 4:
        raise ValueError(f"canvas size must be >= 4, got {size}")
    if thickness <= 0:
        raise ValueError(f"stroke thickness must be positive, got {thickness}")
    px, py = _pixel_grid(size)
    canvas = np.zeros((size, size), dtype=np.float64)
    for prim in primitives:
        kind, payload = prim
        if kind in ("line", "curve", "arc"):
            layer = _render_stroke(_sample_path(prim), px, py, thickness)
        elif kind == "polyline":
            layer = _render_stroke(np.asarray(payload), px, py, thickness)
        elif kind == "polygon":
            layer = _render_polygon(np.asarray(payload), px, py)
        else:
            raise ValueError(f"unknown primitive kind {kind!r}")
        np.maximum(canvas, layer, out=canvas)
    return canvas
