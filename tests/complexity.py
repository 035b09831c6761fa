"""Operation counting for the complexity guards.

A guard builds its stations from :class:`CountingId` and hands each verb an
equal id that is not the same object, as callers pass.  A dict or set probe
then costs a constant number of equality tests per station, and a list scan a
number that grows with the station count, so a guard asserts that the count
per station is the same at two station counts.  :class:`KeptId` also
survives ``str()``, so a path that normalizes ids keeps counting them.
"""

from __future__ import annotations


class CountingId(str):
    """A station id that counts the equality tests made on it."""

    comparisons = 0
    __hash__ = str.__hash__

    def __eq__(self, other):
        CountingId.comparisons += 1
        return str.__eq__(self, other)


class KeptId(CountingId):
    """A :class:`CountingId` that ``str()`` returns unchanged."""

    def __str__(self) -> str:
        return self
