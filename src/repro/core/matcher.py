"""Base-station side pattern matching (Algorithm 2).

Each base station transforms every locally stored pattern into accumulated form,
samples the same ``b`` time indices the encoder used, probes the received filter with
each sampled value and reports a user only if

* every sampled value hits all-1 bits, **and**
* all sampled values agree on (at least) one common weight.

The reported weight is that common weight — the fraction of the query's global
pattern the matched fragment accounts for.  The per-pattern cost is ``O(b·k)`` bit
probes, matching the paper's complexity analysis.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from repro.bloom.standard import BloomFilter
from repro.core.config import DIMatchingConfig
from repro.core.encoder import EncodedQueryBatch, PatternEncoder
from repro.core.exceptions import MatchingError
from repro.core.protocol import MatchReport
from repro.core.wbf import WeightedBloomFilter
from repro.timeseries.pattern import Pattern, PatternSet


class StationMatcherCache:
    """Per-station :class:`BaseStationMatcher` reuse across protocol rounds.

    Matcher construction accumulates and samples every local candidate, so
    protocols keep one matcher per station alive between rounds (streaming,
    query sweeps).  A cached matcher is reused only while the station passes
    the *same* :class:`PatternSet` object with an unchanged length —
    ``PatternSet``'s only mutator is ``add`` and patterns themselves are
    immutable, so the length check catches in-place growth.
    """

    def __init__(self, config: DIMatchingConfig) -> None:
        self._config = config
        # One encoder serves every station's matcher, so the sampled indices
        # are held once per protocol rather than once per station.
        self._encoder = PatternEncoder(config)
        self._matchers: dict[str, tuple[PatternSet, int, "BaseStationMatcher"]] = {}

    def __getstate__(self) -> dict:
        # Cached matchers are keyed by PatternSet identity, which does not
        # survive pickling (process-executor workers receive copies), so only
        # the configuration travels; workers rebuild matchers on demand.
        return {"_config": self._config}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["_config"])

    def matcher_for(self, station_id: str, patterns: PatternSet) -> "BaseStationMatcher":
        cached = self._matchers.get(station_id)
        if cached is not None:
            cached_patterns, cached_length, matcher = cached
            if cached_patterns is patterns and cached_length == len(patterns):
                return matcher
        matcher = BaseStationMatcher(self._config, station_id, patterns, self._encoder)
        self._matchers[station_id] = (patterns, len(patterns), matcher)
        return matcher


class BaseStationMatcher:
    """Implements the base-station side of DI-matching for one station.

    ``encoder`` must be built from ``config``; passing one lets many
    stations' matchers share its sampled-index table.
    """

    def __init__(
        self,
        config: DIMatchingConfig,
        station_id: str,
        patterns: PatternSet,
        encoder: PatternEncoder | None = None,
    ) -> None:
        self._config = config
        self._station_id = str(station_id)
        self._encoder = PatternEncoder(config) if encoder is None else encoder
        # The candidates as of construction (patterns are immutable).
        self._candidates: list[Pattern] = list(patterns)
        # Every candidate's position rows, packed for the filter's row test,
        # and how many rows each candidate owns.  Positions depend only on
        # the hash family, so both are built for the first filter of a family
        # and reused until one of another family arrives (see _probe_for).
        self._probe: Sequence[Sequence[int]] = []
        self._row_counts: list[int] = []
        self._probe_key: tuple | None = None

    @property
    def station_id(self) -> str:
        """Identifier of the station this matcher runs at."""
        return self._station_id

    @property
    def candidate_count(self) -> int:
        """Number of locally stored patterns."""
        return len(self._candidates)

    # -- the packed probe -----------------------------------------------------------

    def _probe_items(self, pattern: Pattern) -> list[object]:
        """The items ``pattern`` probes: its accumulated values at the sample indices.

        ``Pattern`` validated its values when it was built, so the running sum
        is taken directly rather than through the checking ``accumulate()``.
        """
        values = pattern.values
        if self._config.use_accumulation:
            values = list(itertools.accumulate(values))
        return self._encoder.items_for_accumulated(values)

    def _probe_for(
        self,
        filter_: WeightedBloomFilter | BloomFilter,
        pack: Callable[[list[list[int]]], Sequence[Sequence[int]]],
    ) -> Sequence[Sequence[int]]:
        """All candidates' position rows for ``filter_``, in order, packed by ``pack``.

        Built once per hash family ``(m, k, seed)`` and bit backend, then
        reused by every later round.  Only the packed form and the row counts
        are kept — not the probe items, nor their rows as lists; the
        candidates that pass the bit test read their rows back out of it.
        """
        family = filter_.hash_family
        key = (family.value_range, family.hash_count, family.seed, filter_.backend_name)
        if self._probe_key != key:
            candidates = [self._probe_items(pattern) for pattern in self._candidates]
            items = [item for candidate in candidates for item in candidate]
            # Candidates share many values (e.g. zero-activity intervals):
            # hash each distinct item once.
            unique = list(dict.fromkeys(items))
            rows = dict(zip(unique, family.indices_batch(unique)))
            self._probe = pack([rows[item] for item in items])
            self._row_counts = [len(candidate) for candidate in candidates]
            self._probe_key = key
        return self._probe

    def _passing_candidates(
        self, probe: Sequence[Sequence[int]], passed: list[bool]
    ) -> Iterator[tuple[str, list[list[int]]]]:
        """``(user id, position rows)`` of each candidate whose bits all passed."""
        offset = 0
        for pattern, row_count in zip(self._candidates, self._row_counts):
            end = offset + row_count
            if all(passed[offset:end]):
                rows = probe[offset:end]
                yield pattern.user_id, rows if rows.__class__ is list else rows.tolist()
            offset = end

    # -- weighted matching (Algorithm 2) --------------------------------------------

    def match_pattern(
        self, pattern: Pattern, wbf: WeightedBloomFilter
    ) -> dict[str, frozenset[Fraction]]:
        """Match a single pattern against a WBF.

        Returns a mapping ``query_id -> consistent weights``: one entry per query
        pattern the local pattern is consistent with (empty when nothing matches).
        A set usually holds a single weight; it holds several when combinations of
        the same query differ by less than ε at every sampled point and are therefore
        indistinguishable through the filter — the data center resolves that
        ambiguity during aggregation.
        """
        items = self._probe_items(pattern)
        return self._match_rows(wbf.hash_family.indices_batch(items), wbf)

    def _match_rows(
        self,
        rows: list[list[int]],
        wbf: WeightedBloomFilter,
        *,
        bits_checked: bool = False,
    ) -> dict[str, frozenset[Fraction]]:
        """Algorithm 2's per-candidate test over precomputed position rows.

        The bit membership of every sampled value is tested in one vectorized
        backend call (unless the caller already did); the sparse weight
        intersection runs only when all bits pass, which on real workloads is
        the rare case.
        """
        if not bits_checked and not all(wbf.bits_all_set_rows(rows)):
            return {}
        if wbf.MASK_INDEX_ENABLED:
            # One integer-mask AND across all sampled positions: equivalent to
            # intersecting per-row weight sets (intersection is associative and
            # the result is empty iff any partial intersection is), but without
            # building a Python set per row.
            common: "frozenset | set | None" = wbf.consistent_weights_over(
                position for row in rows for position in row
            )
            if not common:
                return {}
        else:
            common = None
            for row in rows:
                weights = wbf.query_weights_at(row, bits_checked=True)
                if not weights:
                    return {}
                common = set(weights) if common is None else (common & weights)
                if not common:
                    return {}
            if not common:
                return {}
        grouped: dict[str, set[Fraction]] = {}
        for query_id, weight in common:
            grouped.setdefault(query_id, set()).add(weight)
        return {query_id: frozenset(weights) for query_id, weights in grouped.items()}

    def match_against(self, encoded: EncodedQueryBatch) -> list[MatchReport]:
        """Match every locally stored pattern against the received WBF.

        The bit pre-check of *all* candidates' sampled values runs as one
        vectorized row-test per station; only candidates whose every sampled
        value hits all-1 bits proceed to the weight-intersection stage.  One
        report is emitted per (user, query, consistent weight); the similarity
        ranker later selects one weight per reporting station when summing.
        """
        if encoded.config.sample_count != self._config.sample_count:
            raise MatchingError(
                "encoder and matcher sample counts differ "
                f"({encoded.config.sample_count} vs {self._config.sample_count}); "
                "center and stations must share the configuration"
            )
        wbf = encoded.wbf
        probe = self._probe_for(wbf, wbf.pack_rows)
        passed = wbf.bits_all_set_rows(probe)
        reports: list[MatchReport] = []
        for user_id, rows in self._passing_candidates(probe, passed):
            matched = self._match_rows(rows, wbf, bits_checked=True)
            for query_id, weights in matched.items():
                for weight in weights:
                    reports.append(
                        MatchReport(
                            user_id=user_id,
                            station_id=self._station_id,
                            weight=weight,
                            query_id=query_id,
                        )
                    )
        return reports

    # -- membership-only matching (plain BF baseline) ---------------------------------

    def match_against_plain(self, bloom: BloomFilter) -> list[MatchReport]:
        """Match every locally stored pattern against a plain Bloom filter.

        Used by the BF baseline: a pattern is reported when all its sampled values
        are (possibly falsely) present; no weight is available.  All candidates'
        probes run as a single vectorized row-test against the filter.
        """
        bits = bloom.bits
        probe = self._probe_for(bloom, bits.pack_rows)
        return [
            MatchReport(user_id=user_id, station_id=self._station_id, weight=None)
            for user_id, _rows in self._passing_candidates(probe, bits.all_set_rows(probe))
        ]
