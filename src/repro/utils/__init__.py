"""Shared utilities: RNG handling, logging, serialization, validation."""

from repro.utils.rng import RngMixin, as_rng, spawn_rngs
from repro.utils.logging import get_logger, set_verbosity
from repro.utils.serialization import load_json, load_npz, save_json, save_npz
from repro.utils.validation import (
    check_positive,
    check_in_range,
    check_shape,
    check_dtype,
    check_choice,
)

__all__ = [
    "RngMixin",
    "as_rng",
    "spawn_rngs",
    "get_logger",
    "set_verbosity",
    "save_json",
    "load_json",
    "save_npz",
    "load_npz",
    "check_positive",
    "check_in_range",
    "check_shape",
    "check_dtype",
    "check_choice",
]
