"""Packaging for the ``repro`` library (sources under ``src/``).

This file holds all project metadata; the version is read from
``src/repro/__init__.py`` so it has one home.  Install with
``pip install .`` (or ``python setup.py develop`` for an editable
install where pip's PEP 660 path is unavailable).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Physics-aware roughness optimization for diffractive "
                "optical neural networks",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
