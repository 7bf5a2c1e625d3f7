"""Class prototypes for the four synthetic dataset families.

Each family provides ten classes (matching the DONN's ten detector
regions).  Prototypes are declarative primitive lists in normalized
coordinates; per-sample variation (affine jitter, control-point noise,
stroke-width changes, pixel noise) is applied by
:mod:`repro.data.synthetic`.

Families and the paper datasets they stand in for:

* ``digits``    — MNIST: handwritten digits 0-9;
* ``fashion``   — FMNIST: clothing silhouettes (filled shapes, several
  visually similar classes — the hardest family, as in the paper);
* ``kuzushiji`` — KMNIST: cursive multi-stroke glyphs (high variability);
* ``letters``   — EMNIST: uppercase letters A-J.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .glyphs import arc, curve, line, polygon

__all__ = ["FAMILIES", "class_names", "prototype"]

PI = np.pi

_DIGITS: List[Sequence[tuple]] = [
    # 0
    [arc((0.5, 0.5), 0.26, 0.37, 0.0, 2 * PI)],
    # 1
    [line((0.38, 0.26), (0.52, 0.12)), line((0.52, 0.12), (0.52, 0.88))],
    # 2
    [curve((0.27, 0.32), (0.5, 0.02), (0.72, 0.33)),
     curve((0.72, 0.33), (0.68, 0.55), (0.27, 0.86)),
     line((0.27, 0.86), (0.76, 0.86))],
    # 3
    [curve((0.3, 0.18), (0.72, 0.08), (0.62, 0.44)),
     line((0.62, 0.44), (0.45, 0.48)),
     curve((0.45, 0.48), (0.85, 0.55), (0.6, 0.82)),
     curve((0.6, 0.82), (0.45, 0.95), (0.27, 0.8))],
    # 4
    [line((0.62, 0.12), (0.24, 0.62)), line((0.24, 0.62), (0.8, 0.62)),
     line((0.63, 0.34), (0.63, 0.9))],
    # 5
    [line((0.72, 0.12), (0.32, 0.12)), line((0.32, 0.12), (0.29, 0.46)),
     curve((0.29, 0.46), (0.78, 0.38), (0.7, 0.68)),
     curve((0.7, 0.68), (0.6, 0.95), (0.26, 0.8))],
    # 6
    [curve((0.64, 0.1), (0.32, 0.25), (0.3, 0.6)),
     arc((0.5, 0.66), 0.21, 0.21, 0.0, 2 * PI)],
    # 7
    [line((0.25, 0.14), (0.75, 0.14)), line((0.75, 0.14), (0.42, 0.88))],
    # 8
    [arc((0.5, 0.3), 0.19, 0.17, 0.0, 2 * PI),
     arc((0.5, 0.67), 0.23, 0.2, 0.0, 2 * PI)],
    # 9
    [arc((0.5, 0.34), 0.21, 0.2, 0.0, 2 * PI),
     curve((0.71, 0.38), (0.7, 0.7), (0.4, 0.88))],
]

_LETTERS: List[Sequence[tuple]] = [
    # A
    [line((0.5, 0.1), (0.24, 0.88)), line((0.5, 0.1), (0.76, 0.88)),
     line((0.35, 0.6), (0.65, 0.6))],
    # B
    [line((0.3, 0.12), (0.3, 0.88)),
     curve((0.3, 0.12), (0.78, 0.16), (0.3, 0.48)),
     curve((0.3, 0.48), (0.85, 0.55), (0.3, 0.88))],
    # C
    [arc((0.55, 0.5), 0.28, 0.37, 0.35 * PI, 1.65 * PI)],
    # D
    [line((0.3, 0.12), (0.3, 0.88)),
     curve((0.3, 0.12), (0.85, 0.5), (0.3, 0.88))],
    # E
    [line((0.32, 0.12), (0.32, 0.88)), line((0.32, 0.12), (0.74, 0.12)),
     line((0.32, 0.5), (0.66, 0.5)), line((0.32, 0.88), (0.74, 0.88))],
    # F
    [line((0.32, 0.12), (0.32, 0.88)), line((0.32, 0.12), (0.74, 0.12)),
     line((0.32, 0.5), (0.66, 0.5))],
    # G
    [arc((0.53, 0.5), 0.28, 0.37, 0.3 * PI, 1.75 * PI),
     line((0.55, 0.55), (0.81, 0.55)), line((0.81, 0.55), (0.81, 0.78))],
    # H
    [line((0.3, 0.12), (0.3, 0.88)), line((0.7, 0.12), (0.7, 0.88)),
     line((0.3, 0.5), (0.7, 0.5))],
    # I
    [line((0.5, 0.12), (0.5, 0.88)), line((0.36, 0.12), (0.64, 0.12)),
     line((0.36, 0.88), (0.64, 0.88))],
    # J
    [line((0.42, 0.12), (0.78, 0.12)), line((0.62, 0.12), (0.62, 0.68)),
     curve((0.62, 0.68), (0.58, 0.95), (0.28, 0.78))],
]

_FASHION: List[Sequence[tuple]] = [
    # t-shirt
    [polygon([(0.18, 0.24), (0.36, 0.16), (0.44, 0.2), (0.56, 0.2),
              (0.64, 0.16), (0.82, 0.24), (0.74, 0.42), (0.66, 0.37),
              (0.66, 0.82), (0.34, 0.82), (0.34, 0.37), (0.26, 0.42)])],
    # trouser
    [polygon([(0.33, 0.14), (0.67, 0.14), (0.72, 0.86), (0.55, 0.86),
              (0.5, 0.46), (0.45, 0.86), (0.28, 0.86)])],
    # pullover
    [polygon([(0.16, 0.3), (0.34, 0.15), (0.66, 0.15), (0.84, 0.3),
              (0.8, 0.62), (0.67, 0.56), (0.67, 0.85), (0.33, 0.85),
              (0.33, 0.56), (0.2, 0.62)])],
    # dress
    [polygon([(0.42, 0.1), (0.58, 0.1), (0.6, 0.32), (0.78, 0.88),
              (0.22, 0.88), (0.4, 0.32)])],
    # coat
    [polygon([(0.18, 0.26), (0.38, 0.13), (0.5, 0.22), (0.62, 0.13),
              (0.82, 0.26), (0.78, 0.88), (0.53, 0.88), (0.5, 0.4),
              (0.47, 0.88), (0.22, 0.88)])],
    # sandal
    [polygon([(0.12, 0.68), (0.88, 0.68), (0.88, 0.8), (0.12, 0.8)]),
     line((0.25, 0.68), (0.45, 0.4)), line((0.45, 0.4), (0.65, 0.68)),
     line((0.32, 0.55), (0.6, 0.55))],
    # shirt (t-shirt silhouette + collar/button detail)
    [polygon([(0.2, 0.26), (0.38, 0.18), (0.46, 0.24), (0.54, 0.24),
              (0.62, 0.18), (0.8, 0.26), (0.73, 0.44), (0.65, 0.4),
              (0.65, 0.84), (0.35, 0.84), (0.35, 0.4), (0.27, 0.44)]),
     line((0.5, 0.3), (0.5, 0.8))],
    # sneaker
    [polygon([(0.1, 0.7), (0.9, 0.7), (0.9, 0.82), (0.1, 0.82)]),
     polygon([(0.14, 0.7), (0.3, 0.44), (0.52, 0.44), (0.66, 0.56),
              (0.88, 0.7)])],
    # bag
    [polygon([(0.18, 0.42), (0.82, 0.42), (0.78, 0.86), (0.22, 0.86)]),
     arc((0.5, 0.42), 0.16, 0.18, PI, 2 * PI)],
    # ankle boot
    [polygon([(0.26, 0.16), (0.52, 0.16), (0.52, 0.52), (0.78, 0.6),
              (0.86, 0.82), (0.16, 0.82), (0.26, 0.55)])],
]


def _kuzushiji_prototypes() -> List[Sequence[tuple]]:
    """Ten deterministic cursive multi-stroke glyphs.

    Each class is a fixed set of 2-4 random smooth Bezier strokes drawn
    from a class-seeded generator — visually reminiscent of Kuzushiji
    characters and, like KMNIST, harder than digits because strokes of
    different classes overlap heavily in pixel space.
    """
    prototypes: List[Sequence[tuple]] = []
    for label in range(10):
        rng = np.random.default_rng(7000 + label)
        strokes = []
        for _ in range(2 + int(rng.integers(0, 3))):
            pts = rng.uniform(0.15, 0.85, size=(3, 2))
            strokes.append(curve(pts[0], pts[1], pts[2]))
        prototypes.append(strokes)
    return prototypes


_KUZUSHIJI = _kuzushiji_prototypes()

#: family name -> (list of per-class primitive lists, class names)
FAMILIES: Dict[str, tuple] = {
    "digits": (_DIGITS, [str(d) for d in range(10)]),
    "fashion": (
        _FASHION,
        ["tshirt", "trouser", "pullover", "dress", "coat",
         "sandal", "shirt", "sneaker", "bag", "boot"],
    ),
    "kuzushiji": (_KUZUSHIJI, [f"ku{k}" for k in range(10)]),
    "letters": (_LETTERS, list("ABCDEFGHIJ")),
}


def prototype(family: str, label: int) -> Sequence[tuple]:
    """Primitive list of class ``label`` in ``family``."""
    if family not in FAMILIES:
        raise KeyError(
            f"unknown family {family!r}; available: {sorted(FAMILIES)}"
        )
    protos, _ = FAMILIES[family]
    return protos[label]


def class_names(family: str) -> List[str]:
    """Human-readable class names of ``family``."""
    if family not in FAMILIES:
        raise KeyError(
            f"unknown family {family!r}; available: {sorted(FAMILIES)}"
        )
    return list(FAMILIES[family][1])
