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
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from repro.core.exceptions import MatchingError
from repro.core.protocol import MatchReport, RankedResults, RankedUser


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

    @property
    def max_weight_sum(self) -> Fraction:
        """Per-query weight sums above this bound are discarded (the paper uses 1)."""
        return self._max_weight_sum

    def weight_options(
        self, reports: Sequence[MatchReport]
    ) -> dict[tuple[str, str], dict[str, set[Fraction]]]:
        """Group reports into ``(user, query) -> station -> candidate weights``."""
        options: dict[tuple[str, str], dict[str, set[Fraction]]] = {}
        for report in reports:
            if report.weight is None:
                raise MatchingError(
                    f"report for user {report.user_id!r} carries no weight; "
                    "SimilarityRanker requires weighted reports"
                )
            per_station = options.setdefault((report.user_id, report.query_id), {})
            per_station.setdefault(report.station_id, set()).add(report.weight)
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
        bound = self._max_weight_sum
        scale = bound.denominator
        for weights in options_by_station.values():
            for weight in weights:
                if scale % weight.denominator:
                    scale = lcm(scale, weight.denominator)
        # Each station's options as sorted integers over ``scale``.  ``rest`` is
        # the least the stations not yet added can contribute: a partial sum
        # that it would carry past ``cap`` can never finish under it, whatever
        # the signs of the weights.
        scaled: list[list[int]] = []
        rest = 0
        for weights in options_by_station.values():
            steps = sorted([w.numerator * (scale // w.denominator) for w in weights])
            rest += steps[0]
            scaled.append(steps)
        cap = bound.numerator * (scale // bound.denominator)
        sums = {0}
        for steps in scaled:
            rest -= steps[0]
            room = cap - rest
            sums = {total + step for total in sums for step in steps if total + step <= room}
            if not sums:
                return None
        return Fraction(max(sums), scale)

    def user_scores(self, reports: Sequence[MatchReport]) -> dict[str, Fraction]:
        """Best surviving per-query weight sum for every reported user.

        Per-query sums above :attr:`max_weight_sum` are deleted (over-matching); a
        user with no surviving sum is dropped entirely.
        """
        best: dict[str, Fraction] = {}
        for (user_id, _query_id), per_station in self.weight_options(reports).items():
            weight_sum = self.best_weight_sum(per_station)
            if weight_sum is None:
                continue
            current = best.get(user_id)
            if current is None or weight_sum > current:
                best[user_id] = weight_sum
        return best

    def aggregate(
        self, reports: Sequence[MatchReport], k: int | None = None
    ) -> RankedResults:
        """Aggregate reports into the ranked top-K result.

        ``k=None`` returns every surviving user (sorted); otherwise the first ``k``.
        Ties are broken by user id so results are deterministic.
        """
        scores = self.user_scores(reports)
        # Sorting users on (-score, user_id) compares Fractions at every tie,
        # yet a round's distinct scores are few (star-10k ranks thousands of
        # users on two).  The same order: each distinct score sorted once,
        # descending, then the ids sharing it as plain strings.
        by_score: dict[Fraction, list[str]] = {}
        for user_id, weight_sum in scores.items():
            by_score.setdefault(weight_sum, []).append(user_id)
        ranked: list[RankedUser] = []
        for weight_sum in sorted(by_score, reverse=True):
            score = float(weight_sum)
            ranked.extend(
                RankedUser(user_id=user_id, score=score)
                for user_id in sorted(by_score[weight_sum])
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


class IncrementalRanking:
    """Algorithm 3 kept up to date as stations replace their reports.

    ``results(k)`` always equals :meth:`SimilarityRanker.aggregate` over the
    concatenation of every station's current reports, but an update costs
    only the ``(user, query)`` groups it touches: their best weight sums are
    re-decided, the touched users' best surviving scores recomputed, and each
    user whose score moved is re-placed in a sorted key list by bisection.
    Untouched groups, users and cached :class:`RankedUser` entries are reused,
    and so is the previous :class:`RankedResults` when no score moved.

    Work is deferred to :meth:`results`, so a station removed and re-added
    with the same reports between two reads moves nothing.
    """

    def __init__(self, ranker: SimilarityRanker) -> None:
        self._ranker = ranker
        #: ``(user, query) -> sending station -> {(report station, weight)}``.
        self._groups: dict[tuple[str, str], dict[str, set[tuple[str, Fraction]]]] = {}
        #: The groups each sending station currently contributes to.
        self._station_groups: dict[str, tuple[tuple[str, str], ...]] = {}
        self._user_queries: dict[str, set[str]] = {}
        #: Best weight sum per group (``None``: every assignment over-matches).
        self._sums: dict[tuple[str, str], Fraction | None] = {}
        self._scores: dict[str, Fraction] = {}
        #: ``(-float(score), -score, user_id)`` ascending, i.e. rank order; the
        #: float decides most comparisons and never contradicts the exact one.
        self._keys: list[tuple[float, Fraction, str]] = []
        #: The :class:`RankedUser` of every key, at the same index.
        self._entries: list[RankedUser] = []
        self._touched: set[tuple[str, str]] = set()
        self._results: RankedResults | None = RankedResults(())

    def replace(self, station_id: str, reports: Sequence[MatchReport]) -> None:
        """Make ``reports`` the whole current contribution of ``station_id``.

        Raises :class:`MatchingError` — leaving the ranking untouched — on a
        non-:class:`MatchReport` entry or a report without a weight.
        """
        grouped: dict[tuple[str, str], set[tuple[str, Fraction]]] = {}
        for report in reports:
            if not isinstance(report, MatchReport):
                raise MatchingError("ranking received non-MatchReport entries")
            if report.weight is None:
                raise MatchingError(
                    f"report for user {report.user_id!r} carries no weight; "
                    "SimilarityRanker requires weighted reports"
                )
            grouped.setdefault((report.user_id, report.query_id), set()).add(
                (report.station_id, report.weight)
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

    def _settle(self) -> None:
        """Re-decide the touched groups and re-place every user whose score moved."""
        touched, self._touched = self._touched, set()
        users: set[str] = set()
        for key in touched:
            group = self._groups.get(key)
            if group is None:
                self._sums.pop(key, None)
            else:
                self._sums[key] = self._ranker.best_weight_sum(_options(group))
            users.add(key[0])
        moved: list[tuple[str, Fraction | None, Fraction | None]] = []
        for user_id in users:
            best: Fraction | None = None
            for query_id in self._user_queries.get(user_id, ()):
                weight_sum = self._sums[(user_id, query_id)]
                if weight_sum is not None and (best is None or weight_sum > best):
                    best = weight_sum
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
            for user_id, _old, new in moved:
                ranked.pop(user_id, None)
                if new is None:
                    del scores[user_id]
                else:
                    scores[user_id] = new
                    ranked[user_id] = RankedUser(user_id=user_id, score=float(new))
            keys[:] = sorted(
                (-ranked[user_id].score, -score, user_id)
                for user_id, score in scores.items()
            )
            entries[:] = [ranked[key[2]] for key in keys]
            return
        for user_id, old, new in moved:
            if old is not None:
                index = bisect_left(keys, (-float(old), -old, user_id))
                del keys[index]
                del entries[index]
            if new is None:
                del scores[user_id]
                continue
            scores[user_id] = new
            entry = RankedUser(user_id=user_id, score=float(new))
            key = (-entry.score, -new, user_id)
            index = bisect_left(keys, key)
            keys.insert(index, key)
            entries.insert(index, entry)


def _options(group: Mapping[str, set[tuple[str, Fraction]]]) -> dict[str, set[Fraction]]:
    """One group's candidate weights per *reporting* station, across senders."""
    options: dict[str, set[Fraction]] = {}
    for pairs in group.values():
        for station_id, weight in pairs:
            options.setdefault(station_id, set()).add(weight)
    return options
