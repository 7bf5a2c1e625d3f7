"""Synthetic image datasets (MNIST / FMNIST / KMNIST / EMNIST stand-ins).

No network access is available at build time, so the four families are
procedurally generated 28 x 28 ten-class image sets with graded difficulty
(see DESIGN.md §1 for the substitution rationale):

* ``digits``    — MNIST-like handwritten digits;
* ``fashion``   — FMNIST-like clothing silhouettes;
* ``kuzushiji`` — KMNIST-like cursive glyphs;
* ``letters``   — EMNIST-like uppercase letters.
"""

from . import glyphs, prototypes
from .loaders import DataLoader
from .synthetic import (
    FAMILY_SPECS,
    AugmentationSpec,
    Dataset,
    make_dataset,
    render_sample,
)

__all__ = [
    "glyphs",
    "prototypes",
    "DataLoader",
    "Dataset",
    "AugmentationSpec",
    "FAMILY_SPECS",
    "make_dataset",
    "render_sample",
]
