"""Pattern data model.

The paper distinguishes three pattern notions:

* a **pattern** — a fixed-length integer time series describing a user's
  communication intensity per time interval (Definition 1);
* a **local pattern** — the fragment of a user's pattern observed by one base
  station (the values recorded while the user was attached to that station);
* a **global pattern** — the per-interval sum of a user's local patterns across all
  base stations (``V_i = Σ_j V_{i,j}``), which is never materialised at any single
  station.

Patterns are immutable value objects; arithmetic (summing local fragments) returns
new objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.utils.validation import require_all_integers, require_non_empty


@dataclass(frozen=True)
class Pattern:
    """A fixed-length integer time series identified by the owning user."""

    user_id: str
    values: tuple[int, ...]

    def __init__(self, user_id: str, values: Sequence[int]) -> None:
        object.__setattr__(self, "user_id", str(user_id))
        object.__setattr__(self, "values", tuple(require_all_integers(values, "values")))
        require_non_empty(self.values, "values")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __getitem__(self, index: int) -> int:
        return self.values[index]

    @property
    def length(self) -> int:
        """Number of time intervals covered by the pattern."""
        return len(self.values)

    @property
    def total(self) -> int:
        """Sum of all interval values."""
        return sum(self.values)

    @property
    def maximum(self) -> int:
        """Largest interval value."""
        return max(self.values)

    def add(self, other: "Pattern") -> "Pattern":
        """Per-interval sum of two equally long patterns for the same user."""
        self._check_addable(other)
        summed = tuple(a + b for a, b in zip(self.values, other.values))
        return Pattern(self.user_id, summed)

    def _check_addable(self, other: "Pattern") -> None:
        if not isinstance(other, Pattern):
            raise TypeError(f"expected Pattern, got {type(other).__name__}")
        if len(other) != len(self):
            raise ValueError(
                f"patterns have different lengths: {len(self)} vs {len(other)}"
            )
        if other.user_id != self.user_id:
            raise ValueError(
                f"patterns belong to different users: {self.user_id!r} vs {other.user_id!r}"
            )

    def __add__(self, other: "Pattern") -> "Pattern":
        return self.add(other)

    def __repr__(self) -> str:
        preview = ", ".join(str(v) for v in self.values[:6])
        suffix = ", ..." if len(self.values) > 6 else ""
        return f"Pattern(user_id={self.user_id!r}, values=[{preview}{suffix}])"


@dataclass(frozen=True, repr=False)
class LocalPattern(Pattern):
    """The fragment of a user's pattern observed at one base station."""

    station_id: str = field(default="")

    def __init__(self, user_id: str, values: Sequence[int], station_id: str) -> None:
        super().__init__(user_id, values)
        object.__setattr__(self, "station_id", str(station_id))

    def __repr__(self) -> str:
        return (
            f"LocalPattern(user_id={self.user_id!r}, station_id={self.station_id!r}, "
            f"length={len(self)})"
        )


class GlobalPattern(Pattern):
    """A user's global pattern: the per-interval sum of local fragments."""

    @classmethod
    def from_locals(cls, locals_: Sequence[LocalPattern]) -> "GlobalPattern":
        """Aggregate local fragments (all for one user, equal length) into the global pattern."""
        require_non_empty(locals_, "locals_")
        user_ids = {p.user_id for p in locals_}
        if len(user_ids) != 1:
            raise ValueError(f"local patterns belong to multiple users: {sorted(user_ids)}")
        lengths = {len(p) for p in locals_}
        if len(lengths) != 1:
            raise ValueError(f"local patterns have different lengths: {sorted(lengths)}")
        (length,) = lengths
        summed = [0] * length
        for local in locals_:
            for index, value in enumerate(local.values):
                summed[index] += value
        return cls(locals_[0].user_id, summed)


class PatternSet:
    """An ordered collection of patterns (the paper's Ψ^g), indexable by user id."""

    def __init__(self, patterns: Iterable[Pattern] = ()) -> None:
        self._patterns: list[Pattern] = []
        self._by_user: dict[str, list[Pattern]] = {}
        for pattern in patterns:
            self.add(pattern)

    def add(self, pattern: Pattern) -> None:
        """Append ``pattern`` to the set."""
        if not isinstance(pattern, Pattern):
            raise TypeError(f"expected Pattern, got {type(pattern).__name__}")
        self._patterns.append(pattern)
        self._by_user.setdefault(pattern.user_id, []).append(pattern)

    def patterns_for(self, user_id: str) -> list[Pattern]:
        """All patterns stored for ``user_id`` (empty list if none)."""
        return list(self._by_user.get(user_id, []))

    def user_ids(self) -> list[str]:
        """Distinct user ids in insertion order of first appearance."""
        seen: dict[str, None] = {}
        for pattern in self._patterns:
            seen.setdefault(pattern.user_id, None)
        return list(seen.keys())

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self._patterns)

    def __len__(self) -> int:
        return len(self._patterns)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._by_user

    def __repr__(self) -> str:
        return f"PatternSet(patterns={len(self._patterns)}, users={len(self._by_user)})"
