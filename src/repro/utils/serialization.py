"""Storage-size accounting for patterns, reports and filters.

Message bytes on the backhaul are always real codec bytes
(:meth:`repro.distributed.messages.Message.size_bytes`).  What stations and
the center keep in memory is sized with a simple, explicit model instead: a
fixed number of bytes per integer, per float and per identifier, which the
``size_bytes()`` methods of patterns, reports and filters use.
"""

from __future__ import annotations

#: Bytes charged for one integer field (e.g. a pattern value or a timestamp).
INT_BYTES = 4
#: Bytes charged for one floating point field (e.g. a weight).
FLOAT_BYTES = 8
#: Bytes charged for one identifier (user id, station id).
ID_BYTES = 8


def sizeof_int(count: int = 1) -> int:
    """Size in bytes of ``count`` integer fields."""
    return INT_BYTES * count


def sizeof_float(count: int = 1) -> int:
    """Size in bytes of ``count`` float fields."""
    return FLOAT_BYTES * count


def sizeof_id(count: int = 1) -> int:
    """Size in bytes of ``count`` identifier fields."""
    return ID_BYTES * count
