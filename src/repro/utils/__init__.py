"""Shared utilities: validation, deterministic RNG, ASCII plotting.

These helpers are deliberately dependency-light so every other subpackage can use
them without import cycles.
"""

# make_rng/spawn_rngs construct NumPy generators lazily, so this import works
# without NumPy; only calling them then raises.
from repro.utils.rng import derive_seed, make_rng, spawn_rngs
from repro.utils.validation import (
    require_in_range,
    require_non_empty,
    require_non_negative,
    require_positive,
    require_probability,
    require_type,
)

__all__ = [
    "derive_seed",
    "make_rng",
    "spawn_rngs",
    "require_in_range",
    "require_non_empty",
    "require_non_negative",
    "require_positive",
    "require_probability",
    "require_type",
]
