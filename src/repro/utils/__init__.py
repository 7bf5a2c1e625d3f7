"""Small shared utilities: ASCII mask art, Pareto frontiers, the model
artifact (:func:`save_model` / :func:`load_model`)."""

from .ascii_art import render_mask, render_side_by_side
from .interrupt import (
    InterruptRequested,
    check_interrupt,
    graceful_sigint,
    interrupt_requested,
)
from .pareto import pareto_frontier
from .serialization import (
    MODEL_FORMAT,
    MODEL_FORMAT_VERSION,
    dataclass_from_dict,
    dataclass_to_dict,
    load_model,
    read_model_header,
    save_model,
)

__all__ = [
    "render_mask",
    "render_side_by_side",
    "pareto_frontier",
    "save_model",
    "load_model",
    "read_model_header",
    "dataclass_to_dict",
    "dataclass_from_dict",
    "MODEL_FORMAT",
    "MODEL_FORMAT_VERSION",
    "InterruptRequested",
    "graceful_sigint",
    "interrupt_requested",
    "check_interrupt",
]
