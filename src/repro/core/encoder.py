"""Data-center side pattern representation and encoding (Algorithm 1).

Given a batch of query patterns, the encoder

1. enumerates every non-empty combination of each query's local fragments (Eq. 4) —
   each combination is a pattern a target user's *single-station* fragment could
   legitimately equal;
2. transforms every combined pattern into accumulated form (Eq. 3);
3. assigns each combined pattern the weight ``max accumulated value of the
   combination / max accumulated value of the query's global pattern`` (an exact
   fraction, so disjoint fragments of a true target sum to exactly 1);
4. uniformly samples ``b`` points per pattern and hashes each sampled value (and,
   when ε > 0, its tolerance neighbourhood) into a single Weighted Bloom Filter with
   the pattern's weight attached.

When several query patterns are encoded into one filter (the batch case of Figure 4)
the attached weight is *qualified by the query id* — the filter stores
``(query_id, Fraction)`` pairs — so that Algorithm 3's weight-sum rule is applied per
query and weights belonging to different query patterns are never summed together.
With a single query this degenerates to the paper's plain weight.

The same item-enumeration logic is reused by the plain-Bloom-filter baseline (which
simply ignores the weights).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from repro.bloom.standard import BloomFilter
from repro.core.config import DIMatchingConfig
from repro.core.exceptions import EncodingError
from repro.core.wbf import WeightedBloomFilter
from repro.timeseries.combinations import enumerate_pattern_combinations
from repro.timeseries.query import QueryPattern
from repro.timeseries.sampling import uniform_sample_indices
from repro.timeseries.transform import accumulate
from repro.utils.validation import require_non_empty

#: Every filter, the WBF and the BF baseline's alike, holds
#: ``BITS_PER_ITEM × inserted items`` bits, and never fewer than ``MIN_BIT_COUNT``.
BITS_PER_ITEM = 12
MIN_BIT_COUNT = 1024
#: Filters hash with this seed, shared by the center and every station.
HASH_SEED = 0
#: Most local fragments a query may have: the combination count is ``2^l − 1``
#: (Eq. 4), so this caps encoder blow-up.
MAX_LOCAL_PATTERNS = 12


def bits_for_items(item_count: int) -> int:
    """Filter length for ``item_count`` inserted items."""
    return max(MIN_BIT_COUNT, item_count * BITS_PER_ITEM)


@dataclass(frozen=True)
class CombinedQueryPattern:
    """One combination of a query's local fragments, in its encoded (accumulated) form.

    When the accumulation transform is disabled (ablation), ``accumulated`` holds the
    raw interval values instead.
    """

    query_id: str
    accumulated: tuple[int, ...]
    weight: Fraction


@dataclass(frozen=True)
class EncodedQueryBatch:
    """The artifact distributed to base stations: one WBF plus its parameters."""

    wbf: WeightedBloomFilter
    config: DIMatchingConfig
    pattern_length: int
    query_count: int
    combined_pattern_count: int
    inserted_item_count: int

    @property
    def revision(self) -> int:
        """The WBF's mutation revision: the batch changes exactly when its filter does."""
        return self.wbf.revision


class PatternEncoder:
    """Implements the data-center side of DI-matching (Algorithm 1)."""

    def __init__(self, config: DIMatchingConfig | None = None) -> None:
        self._config = config or DIMatchingConfig()
        # Pattern length -> sampled indices: the same few lengths recur for
        # every pattern, so each is sampled once per encoder.
        self._sample_indices: dict[int, tuple[int, ...]] = {}

    @property
    def config(self) -> DIMatchingConfig:
        """The pipeline configuration in use."""
        return self._config

    # -- pattern representation -------------------------------------------------

    def combined_patterns(self, query: QueryPattern) -> list[CombinedQueryPattern]:
        """Enumerate, accumulate and weight the combinations of one query (steps 1-3)."""
        if query.station_count > MAX_LOCAL_PATTERNS:
            raise EncodingError(
                f"query {query.query_id!r} has {query.station_count} local fragments; "
                f"the maximum is {MAX_LOCAL_PATTERNS} "
                f"(the combination count 2^l - 1 would be too large)"
            )
        global_total = sum(query.global_pattern.values)
        if global_total <= 0:
            raise EncodingError(
                f"query {query.query_id!r} has an all-zero global pattern and cannot be encoded"
            )
        combos = enumerate_pattern_combinations(list(query.local_patterns))
        # Duplicate shapes arise when a fragment is all zeros; the larger weight wins.
        best_by_shape: dict[tuple[int, ...], CombinedQueryPattern] = {}
        for combo in combos:
            accumulated = (
                tuple(accumulate(combo.values))
                if self._config.use_accumulation
                else tuple(combo.values)
            )
            weight = Fraction(sum(combo.values), global_total)
            if weight == 0:
                # An all-zero combination (a fragment with no activity) carries no
                # information and would attach weight 0 to the zero-prefix bits.
                continue
            existing = best_by_shape.get(accumulated)
            if existing is None or weight > existing.weight:
                best_by_shape[accumulated] = CombinedQueryPattern(
                    query_id=query.query_id, accumulated=accumulated, weight=weight
                )
        results = list(best_by_shape.values())
        if not results:
            raise EncodingError(
                f"query {query.query_id!r} produced no non-zero combined patterns"
            )
        return results

    # -- item enumeration ---------------------------------------------------------

    def sample_indices(self, pattern_length: int) -> tuple[int, ...]:
        """The shared sampled time indices for patterns of the given length."""
        indices = self._sample_indices.get(pattern_length)
        if indices is None:
            indices = tuple(uniform_sample_indices(pattern_length, self._config.sample_count))
            self._sample_indices[pattern_length] = indices
        return indices

    def items_for_accumulated(self, accumulated: Sequence[int]) -> list[object]:
        """The hashable items a *candidate* pattern probes (no ε expansion).

        Base stations call this (through the matcher) on the accumulated form of each
        locally stored pattern; the encoder applies the ε expansion on the insert
        side only, so candidates probe their exact values.
        """
        indices = self.sample_indices(len(accumulated))
        if self._config.include_sample_index:
            return [(index, accumulated[index]) for index in indices]
        return [accumulated[index] for index in indices]

    def _insert_items_for_pattern(
        self, combined: CombinedQueryPattern
    ) -> Iterator[tuple[object, tuple[str, Fraction]]]:
        """Yield every (item, qualified weight) pair Algorithm 1 inserts for one pattern."""
        epsilon = self._config.epsilon
        qualified_weight = (combined.query_id, combined.weight)
        for index in self.sample_indices(len(combined.accumulated)):
            value = combined.accumulated[index]
            # "Hash all the possible approximate values into WBF" (Section IV-B):
            # the ±ε band around the sampled accumulated value.
            values = (
                range(max(0, value - epsilon), value + epsilon + 1) if epsilon else (value,)
            )
            for candidate_value in values:
                item = (
                    (index, candidate_value)
                    if self._config.include_sample_index
                    else candidate_value
                )
                yield item, qualified_weight

    def enumerate_insertions(
        self, queries: Sequence[QueryPattern]
    ) -> tuple[list[tuple[object, tuple[str, Fraction]]], int, int]:
        """All (item, qualified weight) insertions for a query batch.

        Returns ``(insertions, pattern_length, combined_pattern_count)``.  All queries
        in a batch must cover the same number of intervals, since base stations sample
        candidate patterns at indices derived from the shared pattern length.
        """
        require_non_empty(queries, "queries")
        query_ids = [query.query_id for query in queries]
        if len(set(query_ids)) != len(query_ids):
            raise EncodingError("query ids within a batch must be unique")
        lengths = {query.length for query in queries}
        if len(lengths) != 1:
            raise EncodingError(
                f"all queries in a batch must have the same length, got lengths {sorted(lengths)}"
            )
        (pattern_length,) = lengths
        insertions: list[tuple[object, tuple[str, Fraction]]] = []
        combined_count = 0
        for query in queries:
            for combined in self.combined_patterns(query):
                combined_count += 1
                insertions.extend(self._insert_items_for_pattern(combined))
        return insertions, pattern_length, combined_count

    # -- filter construction -------------------------------------------------------

    def encode_batch(self, queries: Sequence[QueryPattern]) -> EncodedQueryBatch:
        """Algorithm 1: build the Weighted Bloom Filter for a query batch.

        Insertions are grouped by qualified weight and fed through the batched
        :meth:`~repro.core.wbf.WeightedBloomFilter.insert_many` path, so the
        ``n × k`` hash positions of each group are computed and written in one
        vectorized call instead of item-by-item.
        """
        insertions, pattern_length, combined_count = self.enumerate_insertions(queries)
        wbf = WeightedBloomFilter(
            bit_count=bits_for_items(len(insertions)),
            hash_count=self._config.hash_count,
            seed=HASH_SEED,
        )
        by_weight: dict[tuple[str, Fraction], list[object]] = {}
        for item, weight in insertions:
            by_weight.setdefault(weight, []).append(item)
        for weight, items in by_weight.items():
            wbf.insert_many(items, weight)
        return EncodedQueryBatch(
            wbf=wbf,
            config=self._config,
            pattern_length=pattern_length,
            query_count=len(queries),
            combined_pattern_count=combined_count,
            inserted_item_count=len(insertions),
        )

    def encode_batch_plain(self, queries: Sequence[QueryPattern]) -> BloomFilter:
        """Encode the same insertions into a plain Bloom filter (the BF baseline)."""
        insertions, _, _ = self.enumerate_insertions(queries)
        bloom = BloomFilter(
            bit_count=bits_for_items(len(insertions)),
            hash_count=self._config.hash_count,
            seed=HASH_SEED,
        )
        bloom.add_many([item for item, _weight in insertions])
        return bloom
