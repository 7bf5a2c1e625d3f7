"""File-driven experiments: JSON/TOML specs and dotted-key overrides.

An *experiment file* declares a recipe plus a configuration, so scenarios
are data instead of code::

    {
      "recipe": "ours_c",
      "base": "laptop",
      "family": "digits",
      "n": 40,
      "seed": 0,
      "set": {"slr.block_size": 5, "n_train": 1200}
    }

Schema
------
* ``recipe`` — a registered recipe name (optional if the caller supplies
  one, e.g. ``repro run file.json --recipe ours_a``);
* either ``base`` (``"laptop"`` | ``"paper"``) with optional ``family``
  / ``n`` / ``seed`` — start from a canonical scale — **or** ``config``,
  a full nested :meth:`~repro.pipeline.config.ExperimentConfig.to_dict`
  mapping (mutually exclusive);
* ``set`` — dotted-key overrides applied on top (same syntax as the CLI
  ``--set`` flag): top-level fields (``n_train``) or nested sub-config
  fields (``slr.block_size``, ``twopi.iterations``,
  ``system.num_layers``).

TOML files use the same keys (``[set]`` as a table).  TOML parsing uses
the stdlib ``tomllib`` (Python 3.11+); on older interpreters JSON files
keep working and TOML raises a clear error.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from .config import NESTED_CONFIGS, ExperimentConfig

__all__ = [
    "ExperimentSpec",
    "load_experiment",
    "resolve_base_config",
    "apply_overrides",
    "parse_override_items",
    "EXPERIMENT_FILE_SUFFIXES",
]

#: File suffixes recognized as experiment files.
EXPERIMENT_FILE_SUFFIXES = (".json", ".toml")

_TOP_LEVEL_KEYS = {"recipe", "base", "family", "n", "seed", "config",
                   "set"}
_BASES = ("laptop", "paper")


class ExperimentSpec:
    """A resolved experiment: ``(recipe, config)`` plus its source path."""

    def __init__(self, recipe: Optional[str], config: ExperimentConfig,
                 source: Optional[Path] = None) -> None:
        self.recipe = recipe
        self.config = config
        self.source = source

    def __repr__(self) -> str:
        return (f"ExperimentSpec(recipe={self.recipe!r}, "
                f"family={self.config.family!r}, "
                f"n={self.config.system.n}, source={str(self.source)!r})")


def _field_names(cls) -> set:
    return {f.name for f in fields(cls)}


def _coerce(value: Any) -> Any:
    """Parse a CLI override string as a JSON literal, else keep it as a
    plain string (so ``--set precision=single`` needs no quoting)."""
    if not isinstance(value, str):
        return value
    try:
        return json.loads(value)
    except (json.JSONDecodeError, ValueError):
        return value


def parse_override_items(items: Sequence[str]) -> Dict[str, Any]:
    """Parse ``["slr.block_size=5", ...]`` (the CLI ``--set`` values)
    into an override mapping with JSON-decoded values."""
    overrides: Dict[str, Any] = {}
    for item in items:
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(
                f"bad override {item!r}; expected KEY=VALUE "
                "(e.g. slr.block_size=5)"
            )
        overrides[key] = _coerce(raw.strip())
    return overrides


def apply_overrides(config: ExperimentConfig,
                    overrides: Mapping[str, Any]) -> ExperimentConfig:
    """Apply dotted-key ``overrides`` to ``config`` functionally.

    Keys are either top-level :class:`ExperimentConfig` fields
    (``n_train``) or ``<sub>.<field>`` into a nested sub-config
    (``slr.block_size``, ``twopi.iterations``, ``system.num_layers``).
    Unknown keys, unknown fields and deeper nesting are rejected with
    the valid alternatives named, and so is ``family``: the family
    picks the canonical block sizes, so it is chosen where the base
    config is built.  Values are used as given — CLI
    strings go through :func:`parse_override_items` first (which JSON-
    decodes them exactly once, so a quoted value like ``'"5"'`` stays a
    string), and file values arrive already typed.
    """
    top_updates: Dict[str, Any] = {}
    nested_updates: Dict[str, Dict[str, Any]] = {}
    top_names = _field_names(ExperimentConfig)
    for key, value in overrides.items():
        parts = key.split(".")
        if len(parts) == 1:
            name = parts[0]
            if name not in top_names:
                raise ValueError(
                    f"unknown config key {name!r}; expected one of "
                    f"{', '.join(sorted(top_names))}"
                )
            if name == "family":
                raise ValueError(
                    "'family' cannot be overridden (the base config's "
                    "family-derived block sizes would stay); set the "
                    "top-level 'family' key of the experiment file or "
                    "sweep spec, or pass --family"
                )
            if name in NESTED_CONFIGS:
                sub_fields = sorted(_field_names(NESTED_CONFIGS[name]))
                raise ValueError(
                    f"{name!r} is a nested config; set its fields with "
                    f"dotted keys ({name}.<field> with field in "
                    f"{', '.join(sub_fields)})"
                )
            top_updates[name] = value
        elif len(parts) == 2 and parts[0] in NESTED_CONFIGS:
            sub, name = parts
            sub_names = _field_names(NESTED_CONFIGS[sub])
            if name not in sub_names:
                raise ValueError(
                    f"unknown config key {key!r}; {sub} fields are "
                    f"{', '.join(sorted(sub_names))}"
                )
            nested_updates.setdefault(sub, {})[name] = value
        else:
            raise ValueError(
                f"bad override key {key!r}; expected a top-level field "
                f"or <sub>.<field> with sub in "
                f"{', '.join(sorted(NESTED_CONFIGS))}"
            )
    for sub, changes in nested_updates.items():
        top_updates[sub] = replace(getattr(config, sub), **changes)
    return config.with_overrides(**top_updates) if top_updates else config


def _parse_file(path: Path) -> Dict[str, Any]:
    text = path.read_text()
    if path.suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    elif path.suffix == ".toml":
        try:
            import tomllib
        except ImportError:  # Python < 3.11
            raise ValueError(
                f"{path}: TOML experiment files need Python 3.11+ "
                "(stdlib tomllib); use the JSON format instead"
            ) from None
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ValueError(f"{path}: invalid TOML: {exc}") from exc
    else:
        raise ValueError(
            f"{path}: unrecognized experiment file suffix "
            f"{path.suffix!r} (expected one of "
            f"{', '.join(EXPERIMENT_FILE_SUFFIXES)})"
        )
    if not isinstance(data, dict):
        raise ValueError(f"{path}: experiment file must hold a mapping, "
                         f"got {type(data).__name__}")
    return data


def resolve_base_config(data: Mapping[str, Any],
                        source: Any = "experiment") -> ExperimentConfig:
    """Resolve the shared config portion of an experiment-style mapping:
    ``config`` *or* ``base``/``family``/``n``/``seed``, plus dotted
    ``set`` overrides (see the module docstring).

    Extra keys in ``data`` are ignored here — callers validate their own
    schema on top (:func:`load_experiment` for experiment files, the
    sweep spec loader for ``grid``/``random`` sweeps).  ``source`` only
    labels error messages.
    """
    if "config" in data:
        for key in ("base", "family", "n"):
            if key in data:
                raise ValueError(
                    f"{source}: 'config' and '{key}' are mutually "
                    "exclusive (a full config already fixes the scale)"
                )
        config = ExperimentConfig.from_dict(data["config"])
        if "seed" in data:
            # `seed` governs the whole run in both schema forms: the
            # canonical scales thread it into the 2-pi solver too, so
            # the full-config form must as well (use
            # `set.{seed,twopi.seed}` for field-level control instead).
            seed = int(data["seed"])
            config = config.with_overrides(
                seed=seed, twopi=replace(config.twopi, seed=seed)
            )
    else:
        base = data.get("base", "laptop")
        if base not in _BASES:
            raise ValueError(
                f"{source}: unknown base {base!r}; expected one of {_BASES}"
            )
        family = data.get("family", "digits")
        seed = int(data.get("seed", 0))
        if base == "paper":
            if "n" in data:
                raise ValueError(
                    f"{source}: 'n' only applies to base 'laptop' "
                    "(the paper scale is fixed at 200)"
                )
            config = ExperimentConfig.paper_scale(family, seed=seed)
        else:
            config = ExperimentConfig.laptop(family, n=int(data.get("n", 40)),
                                             seed=seed)
    overrides = data.get("set", {})
    if not isinstance(overrides, Mapping):
        raise ValueError(f"{source}: 'set' must be a mapping of dotted "
                         "keys to values")
    return apply_overrides(config, overrides)


def load_experiment(path: Union[str, Path]) -> ExperimentSpec:
    """Load an experiment file (see the module docstring for the schema).

    Returns an :class:`ExperimentSpec`; ``spec.recipe`` is ``None`` when
    the file does not pin a recipe (the caller must supply one).
    """
    path = Path(path)
    data = _parse_file(path)
    unknown = sorted(set(data) - _TOP_LEVEL_KEYS)
    if unknown:
        raise ValueError(
            f"{path}: unknown experiment key(s) {', '.join(unknown)} "
            f"(expected {', '.join(sorted(_TOP_LEVEL_KEYS))})"
        )
    config = resolve_base_config(data, source=path)
    recipe = data.get("recipe")
    if recipe is not None and not isinstance(recipe, str):
        raise ValueError(f"{path}: 'recipe' must be a string")
    return ExperimentSpec(recipe=recipe, config=config, source=path)
