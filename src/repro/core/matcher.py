"""Base-station side pattern matching (Algorithm 2).

Each base station transforms every locally stored pattern into accumulated form,
samples the same ``b`` time indices the encoder used, probes the received filter with
each sampled value and reports a user only if

* every sampled value hits all-1 bits, **and**
* all sampled values agree on (at least) one common weight.

The reported weight is that common weight — the fraction of the query's global
pattern the matched fragment accounts for.  The per-pattern cost is ``O(b·k)`` bit
probes, matching the paper's complexity analysis.

Every station of a round matches the same filter, so :func:`match_weighted`
and :func:`match_plain` run Algorithm 2 for many stations in one pass: the
stations' packed probes form one rows × k table, each position is looked up
in the filter's *position table* (a set bit's weight mask, 0 for a clear
bit), and the lookups are AND-reduced across the ``k`` hash columns and then
across each candidate's rows.  A candidate matches iff its reduced mask is
non-zero.  Without NumPy, and for calls too small to repay NumPy's fixed
cost, the same rule runs per candidate in Python.
"""

from __future__ import annotations

import itertools
import weakref
from fractions import Fraction
from typing import Iterator, Sequence

from repro.bloom.hashing import HashFamily
from repro.bloom.standard import BloomFilter
from repro.core.config import DIMatchingConfig
from repro.core.encoder import EncodedQueryBatch, PatternEncoder
from repro.core.exceptions import MatchingError
from repro.core.protocol import MatchReport
from repro.core.wbf import WeightedBloomFilter
from repro.timeseries.pattern import Pattern, PatternSet

try:  # pragma: no cover - exercised indirectly through the kernel
    import numpy as _np
except ImportError:  # pragma: no cover - the CI matrix covers the no-NumPy leg
    _np = None


def _packed_rows(rows: list[list[int]], width: int, dtype) -> "_np.ndarray":
    """``rows`` as one C-contiguous ``len(rows) × width`` array owning its data.

    Packed flat straight from the rows, without converting each nested list,
    then shaped in place — not reshaped: a reshaped view would keep a second
    array header alive per station.
    """
    packed = _np.fromiter(
        itertools.chain.from_iterable(rows), dtype, count=len(rows) * width
    )
    packed.shape = (len(rows), width)
    return packed


class _CachedMatcher(weakref.ref):
    """A matcher cache entry: a weak reference to the station's ``PatternSet``."""

    __slots__ = ("station_id", "length", "matcher")

    def __new__(cls, patterns: PatternSet, callback, station_id: str, matcher):
        return super().__new__(cls, patterns, callback)

    def __init__(self, patterns: PatternSet, callback, station_id: str, matcher) -> None:
        super().__init__(patterns, callback)
        self.station_id = station_id
        self.length = len(patterns)
        self.matcher = matcher


class StationMatcherCache:
    """Per-station :class:`BaseStationMatcher` reuse across protocol rounds.

    Matcher construction accumulates and samples every local candidate, so
    protocols keep one matcher per station alive between rounds (streaming,
    query sweeps).  A cached matcher is reused only while the station passes
    the *same* :class:`PatternSet` object with an unchanged length —
    ``PatternSet``'s only mutator is ``add`` and patterns themselves are
    immutable, so the length check catches in-place growth.

    The cache holds each ``PatternSet`` weakly and drops the station's entry
    once the set is collected: a released or replaced pattern set can never
    be passed again, so its matcher must not outlive it.
    """

    def __init__(self, config: DIMatchingConfig) -> None:
        self._config = config
        # One encoder serves every station's matcher, so the sampled indices
        # are held once per protocol rather than once per station.
        self._encoder = PatternEncoder(config)
        self._matchers: dict[str, _CachedMatcher] = {}
        # One collection callback for every entry.  It reaches the cache
        # through a weak reference, so entries never keep the cache alive.
        cache = weakref.ref(self)

        def forget(entry: _CachedMatcher) -> None:
            owner = cache()
            if owner is not None and owner._matchers.get(entry.station_id) is entry:
                del owner._matchers[entry.station_id]

        self._forget = forget

    def __getstate__(self) -> dict:
        # Cached matchers are keyed by PatternSet identity, which does not
        # survive pickling (process-executor workers receive copies), so only
        # the configuration travels; workers rebuild matchers on demand.
        return {"_config": self._config}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["_config"])

    def matcher_for(self, station_id: str, patterns: PatternSet) -> "BaseStationMatcher":
        entry = self._matchers.get(station_id)
        if entry is not None and entry() is patterns and entry.length == len(patterns):
            return entry.matcher
        matcher = BaseStationMatcher(self._config, station_id, patterns, self._encoder)
        self._matchers[station_id] = _CachedMatcher(
            patterns, self._forget, station_id, matcher
        )
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
        # Every candidate's position rows, packed, and how many rows each
        # candidate owns.  Positions depend only on the hash family, so both
        # are built for the first filter of a family and reused until one of
        # another family arrives (see _probe_for).
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

    def _probe_for(self, family: HashFamily) -> Sequence[Sequence[int]]:
        """All candidates' position rows under ``family``, in order, packed.

        With NumPy the rows pack as one rows × k index array (int32 while
        positions fit); without it they stay lists.  Built once per hash
        family ``(m, k, seed)`` and reused by every later round.  Only the
        packed form and the row counts are kept — not the probe items, nor
        their rows as lists.
        """
        key = (family.value_range, family.hash_count, family.seed, _np is not None)
        if self._probe_key != key:
            candidates = [self._probe_items(pattern) for pattern in self._candidates]
            items = [item for candidate in candidates for item in candidate]
            # Candidates share many values (e.g. zero-activity intervals):
            # hash each distinct item once.
            unique = list(dict.fromkeys(items))
            rows = dict(zip(unique, family.indices_batch(unique)))
            probe = [rows[item] for item in items]
            if _np is not None:
                dtype = _np.int32 if family.value_range <= 2**31 else _np.int64
                probe = _packed_rows(probe, family.hash_count, dtype)
            self._probe = probe
            self._row_counts = [len(candidate) for candidate in candidates]
            self._probe_key = key
        return self._probe

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
        rows = wbf.hash_family.indices_batch(self._probe_items(pattern))
        return _grouped(wbf.weights_of_mask(_rows_mask(wbf.position_masks(), rows)))

    def match_against(self, encoded: EncodedQueryBatch) -> list[MatchReport]:
        """Match every locally stored pattern against the received WBF.

        The one-station case of :func:`match_weighted`.  One report is
        emitted per (user, query, consistent weight); the similarity ranker
        later selects one weight per reporting station when summing.
        """
        return match_weighted([self], encoded)[0]

    # -- membership-only matching (plain BF baseline) ---------------------------------

    def match_against_plain(self, bloom: BloomFilter) -> list[MatchReport]:
        """Match every locally stored pattern against a plain Bloom filter.

        Used by the BF baseline: a pattern is reported when all its sampled values
        are (possibly falsely) present; no weight is available.  The
        one-station case of :func:`match_plain`.
        """
        return match_plain([self], bloom)[0]


# -- the many-station kernel ----------------------------------------------------------

#: Calls probing fewer rows than this run the per-candidate rule in Python even
#: with NumPy installed: below it, the fixed cost of the dozen array operations
#: of one NumPy pass exceeds the whole Python pass.  Measured on a 2-vCPU host
#: with k = 4, the two break even near 128 rows; at 16 rows (a delta-session
#: publish: one station, two candidates) Python takes 18 µs and NumPy 68 µs.
#: A full round, or one TCP station, probes far more.
_VECTORIZE_ROWS = 128


def match_weighted(
    matchers: Sequence[BaseStationMatcher], encoded: EncodedQueryBatch
) -> list[list[MatchReport]]:
    """Algorithm 2 at every matcher's station against one WBF; one report list each.

    A candidate's reports follow candidate order, then the query/weight
    grouping of its common weight set (see :func:`_report_pairs`).
    """
    for matcher in matchers:
        if encoded.config.sample_count != matcher._config.sample_count:
            raise MatchingError(
                "encoder and matcher sample counts differ "
                f"({encoded.config.sample_count} vs {matcher._config.sample_count}); "
                "center and stations must share the configuration"
            )
    wbf = encoded.wbf
    reports: list[list[MatchReport]] = [[] for _ in matchers]
    probes = [matcher._probe_for(wbf.hash_family) for matcher in matchers]
    if _vectorized(probes):
        hits = _array_hits(matchers, probes, wbf.position_table())
    else:
        hits = _list_hits(matchers, probes, wbf.position_masks())
    pairs_by_mask: dict[int, list[tuple[str, Fraction]]] = {}
    for station, candidate, mask in hits:
        pairs = pairs_by_mask.get(mask)
        if pairs is None:
            pairs = pairs_by_mask[mask] = _report_pairs(wbf.weights_of_mask(mask))
        _report(reports[station], matchers[station], candidate, pairs)
    return reports


def match_plain(
    matchers: Sequence[BaseStationMatcher], bloom: BloomFilter
) -> list[list[MatchReport]]:
    """Membership-only Algorithm 2 against one plain Bloom filter; one report list each.

    The position table holds only the bit, so a candidate passes iff all
    its sampled positions are set.
    """
    probes = [matcher._probe_for(bloom.hash_family) for matcher in matchers]
    if _vectorized(probes):
        data = _np.frombuffer(bloom.bits.to_bytes(), dtype=_np.uint8)
        table = _np.unpackbits(data, bitorder="little")[: bloom.bit_count]
        hits = _array_hits(matchers, probes, table.reshape(-1, 1))
    else:
        hits = _list_hits(matchers, probes, bloom.bits)
    reports: list[list[MatchReport]] = [[] for _ in matchers]
    for station, candidate, _mask in hits:
        matcher = matchers[station]
        reports[station].append(
            MatchReport(matcher._candidates[candidate].user_id, matcher._station_id, None)
        )
    return reports


def _vectorized(probes: Sequence) -> bool:
    """Whether one NumPy pass beats the Python rule for these probes."""
    rows = sum(len(probe) for probe in probes)
    return _np is not None and rows > 0 and rows >= _VECTORIZE_ROWS


def _list_hits(
    matchers: Sequence[BaseStationMatcher], probes: Sequence, table
) -> Iterator[tuple[int, int, int]]:
    """``(matcher index, candidate index, mask)`` of every matching candidate, in order.

    The per-candidate rule in Python: ``table[position]`` is the position
    table's entry (an int mask, or a bit), and a candidate's mask is the
    AND of the entries at all its positions.
    """
    for station, (matcher, probe) in enumerate(zip(matchers, probes)):
        if probe.__class__ is not list:
            probe = probe.tolist()
        offset = 0
        for candidate, row_count in enumerate(matcher._row_counts):
            mask = _rows_mask(table, probe[offset : offset + row_count])
            if mask:
                yield station, candidate, mask
            offset += row_count


def _array_hits(
    matchers: Sequence[BaseStationMatcher], probes: Sequence, table
) -> Iterator[tuple[int, int, int]]:
    """:func:`_list_hits` as one NumPy pass over all the probes' rows.

    ``table`` is the position table as an ``m × words`` array.  Every
    candidate owns at least one row (patterns are never empty), so the
    candidates' first rows are strictly increasing reduction offsets.
    """
    rows = probes[0] if len(probes) == 1 else _np.concatenate(probes)
    # One hash column at a time keeps the temporaries at rows × words.
    acc = table[rows[:, 0]]
    for column in range(1, rows.shape[1]):
        _np.bitwise_and(acc, table[rows[:, column]], out=acc)
    per_station = [len(matcher._row_counts) for matcher in matchers]
    row_counts = _np.fromiter(
        itertools.chain.from_iterable(matcher._row_counts for matcher in matchers),
        dtype=_np.int64,
        count=sum(per_station),
    )
    masks = _np.bitwise_and.reduceat(acc, _np.cumsum(row_counts) - row_counts, axis=0)
    matched = masks.any(axis=1)
    hits = _np.flatnonzero(matched).tolist()
    first_candidate = _np.cumsum(per_station) - per_station
    stations = (_np.searchsorted(first_candidate, hits, side="right") - 1).tolist()
    data = masks[matched].tobytes()
    width = masks.itemsize * masks.shape[1]
    for index, (hit, station) in enumerate(zip(hits, stations)):
        mask = int.from_bytes(data[index * width : (index + 1) * width], "little")
        yield station, hit - int(first_candidate[station]), mask


def _rows_mask(table: Sequence[int], rows: Sequence[Sequence[int]]) -> int:
    """The AND of ``table`` over every position of ``rows``; 0 when there are none."""
    acc = -1 if len(rows) else 0
    for row in rows:
        for position in row:
            acc &= table[position]
        if not acc:
            break
    return acc


def _grouped(common) -> dict[str, frozenset[Fraction]]:
    """A common weight set as ``query_id -> weights``."""
    grouped: dict[str, set[Fraction]] = {}
    for query_id, weight in common:
        grouped.setdefault(query_id, set()).add(weight)
    return {query_id: frozenset(weights) for query_id, weights in grouped.items()}


def _report_pairs(common) -> list[tuple[str, Fraction]]:
    """``(query_id, weight)`` of each report a common weight set yields, in emit order."""
    return [
        (query_id, weight)
        for query_id, weights in _grouped(common).items()
        for weight in weights
    ]


def _report(
    reports: list[MatchReport],
    matcher: BaseStationMatcher,
    candidate: int,
    pairs: Sequence[tuple[str, Fraction]],
) -> None:
    user_id = matcher._candidates[candidate].user_id
    station_id = matcher._station_id
    for query_id, weight in pairs:
        reports.append(MatchReport(user_id, station_id, weight, query_id))
