"""Match reports as integer columns: the hand-off from Algorithm 2 to Algorithm 3.

A base station reports ``(user, query, weight)`` triples and the data center
sums them per user and query.  Every WBF weight of query ``q`` is
``Fraction(sum(combination), D_q)``, so that sum needs only integers.  A
:class:`ReportColumns` keeps one report list the way the wire layout already
carries it: the sorted table of the ids its reports use, plus parallel
integer columns — user, station and query codes into that table, and each
weight's numerator and denominator in lowest terms.  The station kernel emits
one per station, the codec writes and reads them, the transports carry them
and the ranker groups on their codes.  A
:class:`~repro.core.protocol.MatchReport` is built only when a caller reads an
element (late materialization, as in column stores).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from math import gcd
from operator import add, attrgetter, eq, lt
from typing import Iterable

from repro.core.protocol import MatchReport

_TABLES = attrgetter("table")
_USERS = attrgetter("users")
_STATIONS = attrgetter("stations")
_QUERIES = attrgetter("queries")
_NUMERATORS = attrgetter("numerators")
_DENOMINATORS = attrgetter("denominators")


class ReportColumns(Sequence):
    """One report list as a sorted string table plus parallel integer columns.

    ``table`` holds every id the reports use, each once, in ascending order.
    Report ``i`` is user ``table[users[i]]`` at station ``table[stations[i]]``
    for query ``table[queries[i]]``, weighing
    ``numerators[i] / denominators[i]`` in lowest terms — reduced exactly as
    ``Fraction(n, d)`` reduces them — or carrying no weight when
    ``denominators[i]`` is 0.  Columns are any sequences of ints.

    A value is read-only and compares equal to the list of
    :class:`MatchReport` it stands for.  Reading an element builds that
    report; the reports read from one value share one ``Fraction`` per
    distinct weight.
    """

    __slots__ = (
        "table",
        "users",
        "stations",
        "queries",
        "numerators",
        "denominators",
        "_fractions",
    )

    def __init__(
        self,
        table: Sequence[str],
        users: Sequence[int],
        stations: Sequence[int],
        queries: Sequence[int],
        numerators: Sequence[int],
        denominators: Sequence[int],
    ) -> None:
        self.table = table
        self.users = users
        self.stations = stations
        self.queries = queries
        self.numerators = numerators
        self.denominators = denominators
        self._fractions: dict[tuple[int, int], Fraction] | None = None

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_reports(cls, reports: Iterable[object]) -> "ReportColumns | None":
        """The columns of ``reports``; ``None`` when an entry is not a :class:`MatchReport`.

        ``reports`` itself when it already is columns.  A weight contributes
        its own ``numerator`` and ``denominator``.
        """
        if isinstance(reports, ReportColumns):
            return reports
        reports = list(reports)
        for report in reports:
            if not isinstance(report, MatchReport):
                return None
        table = sorted(
            {text for r in reports for text in (r.user_id, r.station_id, r.query_id)}
        )
        index = {text: code for code, text in enumerate(table)}
        weights = [report.weight for report in reports]
        return cls(
            table,
            [index[report.user_id] for report in reports],
            [index[report.station_id] for report in reports],
            [index[report.query_id] for report in reports],
            [0 if weight is None else weight.numerator for weight in weights],
            [0 if weight is None else weight.denominator for weight in weights],
        )

    @classmethod
    def weightless(cls, station_id: str, user_ids: Sequence[str]) -> "ReportColumns":
        """One weightless report per entry of ``user_ids`` at ``station_id``, in order.

        A weightless report's query id is empty, as :class:`MatchReport`'s is.
        """
        if not user_ids:
            return NO_REPORTS
        table = sorted({station_id, "", *user_ids})
        index = {text: code for code, text in enumerate(table)}
        count = len(user_ids)
        return cls(
            table,
            [index[user_id] for user_id in user_ids],
            [index[station_id]] * count,
            [index[""]] * count,
            [0] * count,
            [0] * count,
        )

    @classmethod
    def normalized(
        cls,
        table: Sequence[str],
        users: Sequence[int],
        stations: Sequence[int],
        queries: Sequence[int],
        numerators: Sequence[int],
        denominators: Sequence[int],
    ) -> "ReportColumns":
        """Columns over any string table, with every weight in lowest terms.

        ``table`` may repeat ids, leave some unused or be unordered, as a
        hand-made frame's may; every code must index it and every
        denominator be non-negative.  Terms reduce as ``Fraction(n, d)``
        reduces them.
        """
        if max(map(gcd, numerators, denominators), default=0) > 1:
            lowest = {}
            for pair in zip(numerators, denominators):
                if pair not in lowest:
                    divisor = gcd(*pair) or 1
                    lowest[pair] = (pair[0] // divisor, pair[1] // divisor)
            terms = list(map(lowest.__getitem__, zip(numerators, denominators)))
            numerators = [numerator for numerator, _ in terms]
            denominators = [denominator for _, denominator in terms]
        used = set(users)
        used.update(stations, queries)
        if len(used) != len(table) or not all(map(lt, table, islice(table, 1, None))):
            canonical = sorted({table[code] for code in used})
            index = {text: code for code, text in enumerate(canonical)}
            codes = [index.get(text) for text in table]
            table = canonical
            users = [codes[code] for code in users]
            stations = [codes[code] for code in stations]
            queries = [codes[code] for code in queries]
        return cls(table, users, stations, queries, numerators, denominators)

    @classmethod
    def concat(cls, parts: Sequence["ReportColumns"]) -> "ReportColumns":
        """Every part's reports, in order, over the union of their tables."""
        parts = [part for part in parts if part.denominators]
        if len(parts) < 2:
            return parts[0] if parts else NO_REPORTS
        tables = list(map(_TABLES, parts))
        flat = list(chain.from_iterable(tables))
        table = sorted(set(flat))
        index = dict(zip(table, range(len(table))))
        # Part p's local code c is global code ``codes[starts[p] + c]``; each
        # report carries its part's start, so the remap runs in C.
        codes = list(map(index.__getitem__, flat))
        starts = accumulate(map(len, tables), initial=0)
        row_starts = list(
            chain.from_iterable(map(repeat, starts, map(len, map(_DENOMINATORS, parts))))
        )

        def remapped(column) -> list[int]:
            local = chain.from_iterable(map(column, parts))
            return list(map(codes.__getitem__, map(add, row_starts, local)))

        return cls(
            table,
            remapped(_USERS),
            remapped(_STATIONS),
            remapped(_QUERIES),
            list(chain.from_iterable(map(_NUMERATORS, parts))),
            list(chain.from_iterable(map(_DENOMINATORS, parts))),
        )

    # -- derived values ----------------------------------------------------------

    @property
    def weighted(self) -> bool:
        """Whether every report carries a weight."""
        return 0 not in self.denominators

    def deduplicated(self) -> "ReportColumns":
        """Each report's first occurrence, in order (this value when none repeats)."""
        unique = list(
            dict.fromkeys(
                zip(
                    self.users,
                    self.stations,
                    self.queries,
                    self.numerators,
                    self.denominators,
                )
            )
        )
        if len(unique) == len(self.denominators):
            return self
        return ReportColumns(self.table, *map(list, zip(*unique)))

    def weight_of(self, numerator: int, denominator: int) -> Fraction:
        """The value's one ``Fraction`` for lowest terms ``numerator / denominator``."""
        fractions = self._fractions
        if fractions is None:
            fractions = self._fractions = {}
        weight = fractions.get((numerator, denominator))
        if weight is None:
            weight = fractions[numerator, denominator] = Fraction(numerator, denominator)
        return weight

    # -- the sequence of reports ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.denominators)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[position] for position in range(*index.indices(len(self)))]
        table = self.table
        denominator = self.denominators[index]
        return MatchReport(
            table[self.users[index]],
            table[self.stations[index]],
            self.weight_of(self.numerators[index], denominator) if denominator else None,
            table[self.queries[index]],
        )

    def __iter__(self):
        table, weight_of = self.table, self.weight_of
        for user, station, query, numerator, denominator in zip(
            self.users, self.stations, self.queries, self.numerators, self.denominators
        ):
            yield MatchReport(
                table[user],
                table[station],
                weight_of(numerator, denominator) if denominator else None,
                table[query],
            )

    def _rows(self) -> list[tuple]:
        ids = self.table.__getitem__
        return list(
            zip(
                map(ids, self.users),
                map(ids, self.stations),
                map(ids, self.queries),
                self.numerators,
                self.denominators,
            )
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReportColumns):
            return self._rows() == other._rows()
        if isinstance(other, list):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # like the list it stands for

    def __add__(self, other: object) -> Sequence[object]:
        # ``station_match`` returned a list, which callers extend with ``+=``.
        if isinstance(other, (ReportColumns, list)):
            return concat_reports((self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"ReportColumns({list(self)!r})"


#: The empty report list.
NO_REPORTS = ReportColumns((), (), (), (), (), ())


def own_reports(reports: Sequence[object]) -> Sequence[object]:
    """``reports`` for a caller to keep: columns as they are (they never change), else a list copy."""
    return reports if reports.__class__ is ReportColumns else list(reports)


def concat_reports(parts: Iterable[Sequence[object]]) -> Sequence[object]:
    """Every part's reports, in order, as one sequence.

    Columns when every part is columns or empty; otherwise a list, as the
    naive method's raw pattern uploads are.
    """
    parts = list(parts)
    columns = [part for part in parts if part.__class__ is ReportColumns]
    if len(columns) == len(parts) or not any(
        [part for part in parts if part.__class__ is not ReportColumns]
    ):
        return ReportColumns.concat(columns)
    return [report for part in parts for report in part]
