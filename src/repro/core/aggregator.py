"""Data-center side similarity ranking (Algorithm 3).

The data center sums the reported weights per user across base stations, deletes
sums that exceed 1 (the user's aggregated pattern is larger than the query pattern —
the paper's over-matching case), ranks users by weight sum in descending order and
returns the top-K.

When the batch contains several query patterns, the sums are formed per
``(user, query)`` pair — a user's fragments may legitimately relate to more than one
query pattern, and weights belonging to different queries must not be added together.
A user's ranking score is then the best surviving per-query sum (1 means a complete
match of some query's global pattern).

A base station may report more than one consistent weight for the same
``(user, query)`` when combinations of the query differ by less than ε at every
sampled point; the ranker resolves the ambiguity by selecting exactly one weight per
reporting station so as to maximise the sum without exceeding 1.  That choice is a
multiple-choice subset sum, solved exactly on integers.  The encoder writes every
weight of query ``q`` as ``Fraction(sum(combination), D_q)``, ``D_q`` being the sum
of ``q``'s global pattern, so within one ``(user, query)`` group every denominator
divides ``D_q``: the group's weights and the bound are integers over one scale, the
LCM of their denominators.  The search keeps the set of reachable partial sums and
extends it one station at a time, dropping a partial sum as soon as even the least
option of every later station would carry it past the bound.  Nothing is truncated
or enumerated, and the set never outgrows either the assignment count or the
integers between the least possible sum and the bound.

Reports arrive as :class:`~repro.core.reports.ReportColumns` (a list of
:class:`MatchReport` is read into them): groups are keyed on the columns'
integer codes, their weights summed as integer terms, and a ``Fraction`` and a
``float`` built once per distinct score.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add
from typing import Collection, Iterable, Mapping, Sequence

from repro.core.exceptions import MatchingError
from repro.core.protocol import MatchReport, RankedResults, RankedUser
from repro.core.reports import ReportColumns

#: Lowest terms ``(numerator, denominator)`` of a weight or a weight sum.
Terms = tuple[int, int]


class SimilarityRanker:
    """Implements Algorithm 3: weight aggregation and top-K ranking."""

    def __init__(self, max_weight_sum: Fraction = Fraction(1)) -> None:
        if not isinstance(max_weight_sum, Fraction):
            raise TypeError(
                f"max_weight_sum must be a Fraction, got {type(max_weight_sum).__name__}"
            )
        if max_weight_sum <= 0:
            raise ValueError(f"max_weight_sum must be positive, got {max_weight_sum}")
        self._max_weight_sum = max_weight_sum
        self._bound = (max_weight_sum.numerator, max_weight_sum.denominator)

    @property
    def max_weight_sum(self) -> Fraction:
        """Per-query weight sums above this bound are discarded (the paper uses 1)."""
        return self._max_weight_sum

    def weight_options(
        self, reports: Sequence[MatchReport]
    ) -> dict[tuple[str, str], dict[str, set[Fraction]]]:
        """Group reports into ``(user, query) -> station -> candidate weights``."""
        columns = _weighted_columns(reports)
        table, weight_of = columns.table, columns.weight_of
        options: dict[tuple[str, str], dict[str, set[Fraction]]] = {}
        for user, station, query, numerator, denominator in _rows(columns):
            per_station = options.setdefault((table[user], table[query]), {})
            per_station.setdefault(table[station], set()).add(
                weight_of(numerator, denominator)
            )
        return options

    def best_weight_sum(
        self, options_by_station: Mapping[str, set[Fraction]]
    ) -> Fraction | None:
        """Best achievable weight sum that does not exceed :attr:`max_weight_sum`.

        Exactly one weight is chosen from every reporting station (every reporting
        fragment is part of the user's data and must be accounted for); the sum is
        maximised subject to the bound.  ``None`` means every assignment exceeds the
        bound — the over-matching case Algorithm 3 deletes.
        """
        terms = _best_terms(
            self._bound,
            [
                [(weight.numerator, weight.denominator) for weight in weights]
                for weights in options_by_station.values()
            ],
        )
        return None if terms is None else Fraction(*terms)

    def user_scores(self, reports: Sequence[MatchReport]) -> dict[str, Fraction]:
        """Best surviving per-query weight sum for every reported user.

        Per-query sums above :attr:`max_weight_sum` are deleted (over-matching); a
        user with no surviving sum is dropped entirely.
        """
        columns = _weighted_columns(reports)
        width = len(columns.table)
        # ``(user, query)`` code -> its rows: station code and weight terms.
        groups: dict[int, list[tuple[int, int, int]]] = {}
        for key, row in zip(
            map(add, map(width.__mul__, columns.users), columns.queries),
            zip(columns.stations, columns.numerators, columns.denominators),
        ):
            groups.setdefault(key, []).append(row)
        bound = self._bound
        best: dict[int, Terms] = {}
        for key, rows in groups.items():
            terms = _best_terms(bound, _options(rows))
            if terms is None:
                continue
            user = key // width
            current = best.get(user)
            if current is None or (
                terms != current and terms[0] * current[1] > current[0] * terms[1]
            ):
                best[user] = terms
        # One Fraction per distinct score, shared by the users holding it.
        fractions = {terms: Fraction(*terms) for terms in set(best.values())}
        table = columns.table
        return {table[user]: fractions[terms] for user, terms in best.items()}

    def aggregate(
        self, reports: Sequence[MatchReport], k: int | None = None
    ) -> RankedResults:
        """Aggregate reports into the ranked top-K result.

        ``k=None`` returns every surviving user (sorted); otherwise the first ``k``.
        Ties are broken by user id so results are deterministic.
        """
        # A round's distinct scores are few (star-10k ranks thousands of
        # users on two): users are grouped on their score's terms, each
        # distinct score is sorted once, descending, then the ids sharing it
        # as plain strings.
        by_score: dict[Terms, list[str]] = {}
        values: dict[Terms, Fraction] = {}
        for user_id, weight_sum in self.user_scores(reports).items():
            terms = weight_sum.numerator, weight_sum.denominator
            users = by_score.get(terms)
            if users is None:
                users = by_score[terms] = []
                values[terms] = weight_sum
            users.append(user_id)
        ranked: list[RankedUser] = []
        for terms in sorted(by_score, key=values.__getitem__, reverse=True):
            score = terms[0] / terms[1]
            ranked.extend(
                RankedUser(user_id=user_id, score=score) for user_id in sorted(by_score[terms])
            )
        results = RankedResults(tuple(ranked))
        if k is None:
            return results
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return results.top(k)

    def open_ranking(self) -> "IncrementalRanking":
        """An empty Algorithm-3 ranking maintained under per-station updates."""
        return IncrementalRanking(self)


def _best_terms(bound: Terms, options_by_station: Iterable[Collection[Terms]]) -> Terms | None:
    """:meth:`SimilarityRanker.best_weight_sum` on lowest terms.

    ``options_by_station`` holds each reporting station's candidate weights
    and ``bound`` is the largest sum kept.
    """
    options_by_station = list(options_by_station)
    if max(map(len, options_by_station), default=1) == 1:
        # One option per station (star-10k's every group): one assignment,
        # summed over the LCM of its denominators.
        scale = 1
        total = 0
        for ((numerator, denominator),) in options_by_station:
            if scale % denominator:
                multiple = lcm(scale, denominator)
                total *= multiple // scale
                scale = multiple
            total += numerator * (scale // denominator)
        if total * bound[1] > bound[0] * scale:
            return None
        divisor = gcd(total, scale)
        return total // divisor, scale // divisor
    scale = bound[1]
    for options in options_by_station:
        for _numerator, denominator in options:
            if scale % denominator:
                scale = lcm(scale, denominator)
    # Each station's options as sorted integers over ``scale``.  ``rest`` is
    # the least the stations not yet added can contribute: a partial sum
    # that it would carry past ``cap`` can never finish under it, whatever
    # the signs of the weights.
    scaled: list[list[int]] = []
    rest = 0
    for options in options_by_station:
        steps = sorted([numerator * (scale // denominator) for numerator, denominator in options])
        rest += steps[0]
        scaled.append(steps)
    cap = bound[0] * (scale // bound[1])
    sums = {0}
    for steps in scaled:
        rest -= steps[0]
        room = cap - rest
        sums = {total + step for total in sums for step in steps if total + step <= room}
        if not sums:
            return None
    total = max(sums)
    divisor = gcd(total, scale)
    return total // divisor, scale // divisor


def _weighted_columns(reports: Sequence[object]) -> ReportColumns:
    """``reports`` as columns of weighted reports.

    Raises :class:`MatchingError` at the first entry that is not a
    :class:`MatchReport` or carries no weight.
    """
    columns = ReportColumns.from_reports(reports)
    if columns is None or 0 in columns.denominators:
        for report in reports:
            if not isinstance(report, MatchReport):
                raise MatchingError("ranking received non-MatchReport entries")
            if report.weight is None:
                raise MatchingError(
                    f"report for user {report.user_id!r} carries no weight; "
                    "SimilarityRanker requires weighted reports"
                )
    return columns


def _rows(columns: ReportColumns):
    """Each report's user, station and query codes and weight terms."""
    return zip(
        columns.users,
        columns.stations,
        columns.queries,
        columns.numerators,
        columns.denominators,
    )


class IncrementalRanking:
    """Algorithm 3 kept up to date as stations replace their reports.

    ``results(k)`` always equals :meth:`SimilarityRanker.aggregate` over the
    concatenation of every station's current reports, but an update costs
    only the ``(user, query)`` groups it touches: their best weight sums are
    re-decided, the touched users' best surviving scores recomputed, and each
    user whose score moved is re-placed in a sorted key list by bisection.
    Untouched groups, users and cached :class:`RankedUser` entries are reused,
    and so is the previous :class:`RankedResults` when no score moved.

    Groups keep their string keys and integer weights, so nothing interned
    outlives the reports that use it.  Work is deferred to :meth:`results`,
    so a station removed and re-added with the same reports between two
    reads moves nothing.
    """

    def __init__(self, ranker: SimilarityRanker) -> None:
        self._bound = ranker._bound
        #: ``(user, query) -> sending station -> {(report station, numerator, denominator)}``.
        self._groups: dict[tuple[str, str], dict[str, set[tuple[str, int, int]]]] = {}
        #: The groups each sending station currently contributes to.
        self._station_groups: dict[str, tuple[tuple[str, str], ...]] = {}
        self._user_queries: dict[str, set[str]] = {}
        #: Best weight sum per group (``None``: every assignment over-matches).
        self._sums: dict[tuple[str, str], Terms | None] = {}
        self._scores: dict[str, Terms] = {}
        #: ``(-float(score), -score, user_id)`` ascending, i.e. rank order; the
        #: float decides most comparisons and never contradicts the exact one.
        self._keys: list[tuple[float, Fraction, str]] = []
        #: The :class:`RankedUser` of every key, at the same index.
        self._entries: list[RankedUser] = []
        #: Per score some user holds: the ``(-float, -Fraction)`` its keys
        #: share (so equal scores compare by identity) and its holder count.
        self._held: dict[Terms, list] = {}
        self._touched: set[tuple[str, str]] = set()
        self._results: RankedResults | None = RankedResults(())

    def replace(self, station_id: str, reports: Sequence[MatchReport]) -> None:
        """Make ``reports`` the whole current contribution of ``station_id``.

        Raises :class:`MatchingError` — leaving the ranking untouched — on a
        non-:class:`MatchReport` entry or a report without a weight.
        """
        columns = _weighted_columns(reports)
        table = columns.table
        grouped: dict[tuple[str, str], set[tuple[str, int, int]]] = {}
        for user, station, query, numerator, denominator in _rows(columns):
            grouped.setdefault((table[user], table[query]), set()).add(
                (table[station], numerator, denominator)
            )
        self.remove(station_id)
        for key, options in grouped.items():
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = {}
                self._user_queries.setdefault(key[0], set()).add(key[1])
            group[station_id] = options
        if grouped:
            self._station_groups[station_id] = tuple(grouped)
            self._touched.update(grouped)

    def remove(self, station_id: str) -> None:
        """Drop every report ``station_id`` contributed (a no-op if none)."""
        for key in self._station_groups.pop(station_id, ()):
            group = self._groups[key]
            del group[station_id]
            if not group:
                del self._groups[key]
                queries = self._user_queries[key[0]]
                queries.discard(key[1])
                if not queries:
                    del self._user_queries[key[0]]
            self._touched.add(key)

    def results(self, k: int | None = None) -> RankedResults:
        """The current ranked top-``k`` (every surviving user for ``None``)."""
        if k is not None and k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if self._touched:
            self._settle()
        if self._results is None:
            self._results = RankedResults(tuple(self._entries))
        return self._results if k is None else self._results.top(k)

    def _hold(self, terms: Terms) -> tuple[float, Fraction]:
        """The key prefix of a user now scoring ``terms``."""
        held = self._held.get(terms)
        if held is None:
            held = self._held[terms] = [(-(terms[0] / terms[1]), -Fraction(*terms)), 0]
        held[1] += 1
        return held[0]

    def _release(self, terms: Terms) -> tuple[float, Fraction]:
        """The key prefix of a user no longer scoring ``terms``."""
        held = self._held[terms]
        held[1] -= 1
        if not held[1]:
            del self._held[terms]
        return held[0]

    def _settle(self) -> None:
        """Re-decide the touched groups and re-place every user whose score moved."""
        touched, self._touched = self._touched, set()
        users: set[str] = set()
        for key in touched:
            group = self._groups.get(key)
            if group is None:
                self._sums.pop(key, None)
            else:
                self._sums[key] = _best_terms(
                    self._bound, _options(chain.from_iterable(group.values()))
                )
            users.add(key[0])
        moved: list[tuple[str, Terms | None, Terms | None]] = []
        for user_id in users:
            best: Terms | None = None
            for query_id in self._user_queries.get(user_id, ()):
                terms = self._sums[(user_id, query_id)]
                if terms is not None and (
                    best is None or terms[0] * best[1] > best[0] * terms[1]
                ):
                    best = terms
            old = self._scores.get(user_id)
            if best != old:
                moved.append((user_id, old, best))
        if not moved:
            return
        self._results = None
        scores, keys, entries = self._scores, self._keys, self._entries
        if 2 * len(moved) > len(keys):
            # Most of the ranking moved (a rotation): one sort beats bisection.
            ranked = dict(zip((key[2] for key in keys), entries))
            for user_id, old, new in moved:
                ranked.pop(user_id, None)
                if old is not None:
                    self._release(old)
                if new is None:
                    del scores[user_id]
                else:
                    scores[user_id] = new
                    prefix = self._hold(new)
                    ranked[user_id] = RankedUser(user_id=user_id, score=-prefix[0])
            held = self._held
            keys[:] = sorted((*held[score][0], user_id) for user_id, score in scores.items())
            entries[:] = [ranked[key[2]] for key in keys]
            return
        for user_id, old, new in moved:
            if old is not None:
                index = bisect_left(keys, (*self._release(old), user_id))
                del keys[index]
                del entries[index]
            if new is None:
                del scores[user_id]
                continue
            scores[user_id] = new
            prefix = self._hold(new)
            key = (*prefix, user_id)
            index = bisect_left(keys, key)
            keys.insert(index, key)
            entries.insert(index, RankedUser(user_id=user_id, score=-prefix[0]))


def _options(rows: Iterable[tuple[object, int, int]]) -> list[set[Terms]]:
    """One group's candidate weights per reporting station.

    ``rows`` are the group's ``(reporting station, numerator, denominator)``.
    """
    options: dict[object, set[Terms]] = {}
    for station, numerator, denominator in rows:
        options.setdefault(station, set()).add((numerator, denominator))
    return list(options.values())
