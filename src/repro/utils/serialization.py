"""The trained-model artifact: save and restore a DONN as one ``.npz``.

:func:`save_model` / :func:`load_model` write and read the versioned
*self-contained* model artifact that run directories, ``repro serve``
and replicas all consume: the full :class:`~repro.donn.model.DONNConfig`
(geometry, wavelength, pitch, distances, detector layout,
parametrization), the raw per-layer weights (bit-exact — not the
wrapped phase view, so a load reproduces the original forward to
0 ULP), sparsity masks and free-form metadata, all in one ``.npz``.
``load_model`` rebuilds a ready-to-run :class:`~repro.donn.model.DONN`
with no other inputs; :func:`read_model_header` reads just the header,
and :func:`serving_precision` decides the precision it is served at.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

__all__ = [
    "save_model",
    "load_model",
    "read_model_header",
    "serving_precision",
    "dataclass_to_dict",
    "dataclass_from_dict",
    "MODEL_FORMAT",
    "MODEL_FORMAT_VERSION",
]

#: Identifies a self-contained model artifact.
MODEL_FORMAT = "repro-donn-model"
#: Bump when the artifact layout changes incompatibly; ``load_model``
#: rejects versions it does not understand instead of misreading them.
MODEL_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Dataclass <-> dict round trips (the experiment-config format)
# ----------------------------------------------------------------------
def dataclass_to_dict(obj) -> Dict[str, Any]:
    """Shallow ``dataclass -> dict`` with JSON-safe scalar values.

    Unlike :func:`dataclasses.asdict` this does not recurse — nested
    dataclasses stay objects, so callers decide which sub-configs get
    their own nested dicts (see ``ExperimentConfig.to_dict``).
    """
    import dataclasses

    if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
        raise TypeError(f"expected a dataclass instance, got {obj!r}")
    return {f.name: getattr(obj, f.name)
            for f in dataclasses.fields(obj)}


def dataclass_from_dict(cls, data: Dict[str, Any], context: str = ""):
    """Build ``cls(**data)``, rejecting unknown keys by name.

    ``context`` prefixes error messages (e.g. the nested-config key the
    dict came from) so a bad experiment file points at the exact field.
    Missing keys fall back to the dataclass defaults; the class's own
    ``__post_init__`` validation still applies.
    """
    import dataclasses

    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"expected a dataclass type, got {cls!r}")
    if not isinstance(data, dict):
        where = f" for {context}" if context else ""
        raise ValueError(
            f"expected a mapping{where}, got {type(data).__name__}"
        )
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        where = f"{context}." if context else ""
        raise ValueError(
            f"unknown {cls.__name__} key(s): "
            f"{', '.join(where + key for key in unknown)} "
            f"(known: {', '.join(sorted(names))})"
        )
    return cls(**data)


# ----------------------------------------------------------------------
# Self-contained model artifacts (the serving format)
# ----------------------------------------------------------------------
def save_model(
    path: Union[str, Path],
    model,
    metadata: Optional[Dict[str, Any]] = None,
    precision: Optional[str] = None,
) -> Path:
    """Write ``model`` (a :class:`~repro.donn.model.DONN`) as a versioned,
    self-contained artifact.

    The artifact stores the JSON-encoded header (format tag + version +
    the full ``DONNConfig`` + the derived detector regions + ``metadata``)
    alongside the *raw* per-layer parameter arrays ``weight_0..L-1`` and
    any sparsity masks ``mask_0..L-1``.  Storing raw weights instead of
    the wrapped phase view sidesteps the sigmoid parametrization's
    clip-and-invert round trip, so a loaded model's forward pass is
    bit-identical to the original (test-enforced to 0 ULP).

    ``metadata`` must be JSON-serializable (accuracy numbers, recipe
    names, training provenance — whatever the caller wants to carry).
    ``precision`` records the precision the model was trained at
    (``"double"`` / ``"single"``); :func:`serving_precision` makes it
    the default engine precision when serving the artifact.  Returns
    the written path.
    """
    from dataclasses import asdict

    path = Path(path)
    if path.suffix != ".npz":
        # np.savez appends the suffix silently; normalize up front so
        # the returned path is the file that actually exists.
        path = path.with_name(path.name + ".npz")
    if precision is not None:
        from ..backend import resolve_precision

        precision = resolve_precision(precision).name
    config = asdict(model.config)
    header = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "config": config,
        "num_layers": len(model.layers),
        "resolved_distance": model.config.resolved_distance(),
        # The full head recipe (mode/classes/region size), not just the
        # derived regions: serving reloads differential-detection runs
        # from the spec instead of re-deriving geometry, and load_model
        # rejects an artifact whose stored spec disagrees with its
        # config.  Absent in pre-spec artifacts (same format version —
        # the addition is backward/forward compatible).
        "detector_spec": model.config.detector_spec().to_dict(),
        "detector_regions": [
            list(region) for region in model.detector.layout.regions
        ],
        "metadata": dict(metadata or {}),
    }
    if precision is not None:
        # Optional field: readers default absent to "double", so format
        # version 1 artifacts stay readable in both directions.
        header["precision"] = precision
    try:
        encoded = json.dumps(header, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"metadata is not JSON-serializable: {exc}") from exc
    payload: Dict[str, np.ndarray] = {
        "header": np.frombuffer(encoded.encode("utf-8"), dtype=np.uint8),
    }
    for index, layer in enumerate(model.layers):
        payload[f"weight_{index}"] = np.asarray(layer.phase.data)
        mask = layer.sparsity_mask
        if mask is not None:
            payload[f"mask_{index}"] = np.asarray(mask)
    np.savez(path, **payload)
    return path


def read_model_header(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate just the JSON header of a model artifact.

    Cheap relative to :func:`load_model` (no weight arrays are
    materialized); :class:`repro.serve.Server` reads it at startup.
    """
    path = Path(path)
    with np.load(path) as data:
        if "header" not in data.files:
            raise ValueError(f"{path} is not a model artifact (no header)")
        raw = bytes(data["header"].tobytes())
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt artifact header: {exc}") from exc
    if header.get("format") != MODEL_FORMAT:
        raise ValueError(
            f"{path}: unknown artifact format {header.get('format')!r} "
            f"(expected {MODEL_FORMAT!r})"
        )
    version = header.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"{path}: artifact version {version!r} is not supported "
            f"(this build reads version {MODEL_FORMAT_VERSION})"
        )
    return header


def serving_precision(header: Optional[Dict[str, Any]],
                      precision: Optional[str] = None) -> str:
    """The engine precision an artifact is served at.

    An explicit ``precision`` (``ServeConfig.precision``) wins; else
    the precision ``header`` recorded at training time; else
    ``"double"`` (live models have no header, and artifacts may predate
    the field).
    """
    if precision is not None:
        return precision
    return (header or {}).get("precision") or "double"


def load_model(path: Union[str, Path]):
    """Rebuild a ready-to-run :class:`~repro.donn.model.DONN` from an
    artifact written by :func:`save_model`.

    Validates the format tag, version, per-layer weight shapes and mask
    shapes before touching the model.  The package-default RNG is left
    untouched (reconstruction seeds its own throwaway generator; every
    weight is overwritten by the stored arrays anyway).
    """
    from ..donn.model import DONN, DONNConfig

    path = Path(path)
    header = read_model_header(path)
    config = DONNConfig(**header["config"])
    num_layers = int(header["num_layers"])
    if num_layers != config.num_layers:
        raise ValueError(
            f"{path}: header says {num_layers} layers but config builds "
            f"{config.num_layers}"
        )
    stored_spec = header.get("detector_spec")
    if stored_spec is not None:
        expected_spec = config.detector_spec().to_dict()
        if dict(stored_spec) != expected_spec:
            raise ValueError(
                f"{path}: artifact detector spec {stored_spec} does not "
                f"match the config-derived spec {expected_spec}; the "
                "header was edited or written by an incompatible build "
                "— refusing to serve a mismatched readout head"
            )
    stored_regions = header.get("detector_regions")
    if stored_regions is not None:
        expected_regions = [list(region)
                            for region in config.detector_layout().regions]
        if [list(region) for region in stored_regions] != expected_regions:
            raise ValueError(
                f"{path}: artifact detector regions do not match the "
                f"geometry its config derives (stored "
                f"{len(stored_regions)} regions, derived "
                f"{len(expected_regions)}); refusing to load a model "
                "whose readout geometry is ambiguous"
            )
    n = config.n
    weights: List[np.ndarray] = []
    masks: List[Optional[np.ndarray]] = []
    with np.load(path) as data:
        for index in range(num_layers):
            key = f"weight_{index}"
            if key not in data.files:
                raise ValueError(f"{path}: missing {key}")
            weight = data[key]
            if weight.shape != (n, n):
                raise ValueError(
                    f"{path}: {key} has shape {weight.shape}, expected "
                    f"({n}, {n})"
                )
            weights.append(np.array(weight, dtype=np.float64))
            mask_key = f"mask_{index}"
            if mask_key in data.files:
                mask = data[mask_key]
                if mask.shape != weight.shape:
                    raise ValueError(
                        f"{path}: {mask_key} has shape {mask.shape} but "
                        f"{key} has shape {weight.shape}"
                    )
                masks.append(np.array(mask))
            else:
                masks.append(None)
    # A throwaway generator: the init draw is overwritten below, and the
    # package default RNG must not advance as a side effect of loading.
    model = DONN(config, rng=np.random.default_rng(0))
    for layer, weight in zip(model.layers, weights):
        layer.phase.data = weight
    model.apply_sparsity_masks(masks)
    return model
