"""Argument validation helpers.

Every public constructor in the library validates its inputs eagerly and raises
``ValueError``/``TypeError`` with a message naming the offending parameter, so that
misconfiguration fails at construction time rather than deep inside a simulation.
"""

from __future__ import annotations

from typing import Any, Iterable, Sized

_PLAIN_INT = frozenset({int})


def require_positive(value: float, name: str) -> float:
    """Return ``value`` if it is strictly positive, else raise ``ValueError``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Return ``value`` if it is >= 0, else raise ``ValueError``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def require_probability(value: float, name: str) -> float:
    """Return ``value`` if it lies in the closed interval [0, 1]."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def require_in_range(value: float, name: str, low: float, high: float) -> float:
    """Return ``value`` if ``low <= value <= high``, else raise ``ValueError``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def require_non_empty(value: Sized, name: str) -> Any:
    """Return ``value`` if it has at least one element."""
    if len(value) == 0:
        raise ValueError(f"{name} must not be empty")
    return value


def require_type(value: Any, name: str, expected: type | tuple[type, ...]) -> Any:
    """Return ``value`` if it is an instance of ``expected``, else raise ``TypeError``."""
    if not isinstance(value, expected):
        expected_names = (
            expected.__name__
            if isinstance(expected, type)
            else " | ".join(t.__name__ for t in expected)
        )
        raise TypeError(f"{name} must be {expected_names}, got {type(value).__name__}")
    return value


def require_all_integers(values: Iterable[Any], name: str) -> list[int]:
    """Validate that every element of ``values`` is an integer and return them as a list.

    The paper restricts pattern values to natural numbers (call counts, durations in
    whole seconds, partner counts), so the time-series layer enforces integer inputs.
    """
    out = list(values)
    # Fast path first: the per-element loop below only runs to build the error
    # message (or to narrow int subclasses), so valid inputs — every Pattern
    # built on the hot paths — pay one C-level pass collecting element types.
    if set(map(type, out)) <= _PLAIN_INT:
        return out
    for index, value in enumerate(out):
        if isinstance(value, bool) or not isinstance(value, (int,)):
            raise TypeError(
                f"{name}[{index}] must be an integer, got {type(value).__name__}: {value!r}"
            )
    return [int(value) for value in out]
