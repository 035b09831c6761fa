"""The regional aggregator node of a two-tier deployment.

A :class:`RegionalAggregator` sits between one region's base stations and
the data center.  It reuses the :class:`~repro.distributed.datacenter.DataCenterNode`
machinery wholesale — the same inbox, the same decoded-``MATCH_REPORT``
grouping, the same protocol-violation surface — because downstream of its
stations it *is* a little data center: the regional uplink terminates at its
ingress, and what travels on upstream is one re-encoded summary message
whose real ``DIMW`` bytes the trunk hop charges.

Aggregation semantics: the summary is the union of the region's per-station
report streams in canonical station order, with *exact duplicates* of
weighted reports collapsed.  Weighted (WBF) reports are safe to deduplicate
because the ranker keys weights as per-station *sets* — a second identical
``(user, station, weight, query)`` observation cannot change any ranking.
Count-based reports (the bf/local baselines count occurrences) and raw
pattern uploads (naive) are forwarded verbatim: collapsing those would
change results, so the aggregator never touches them.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.reports import ReportColumns, concat_reports
from repro.distributed.datacenter import DataCenterNode
from repro.topology.tiers import Region


def dedupe_weighted_reports(reports: Sequence[object]) -> Sequence[object]:
    """Collapse exact duplicates, only when every report is weighted.

    Order-preserving (first occurrence wins), so the surviving sequence is a
    subsequence of the input and the ranker's insertion-order tie-breaking is
    untouched.  Any unweighted or non-``MatchReport`` entry disables
    deduplication for the whole batch — mixed batches are forwarded verbatim
    rather than partially collapsed.  Weights compare by value, so 2/4
    collapses into 1/2.
    """
    columns = ReportColumns.from_reports(reports)
    if columns is None or not columns.weighted:
        return reports
    return columns.deduplicated()


class RegionalAggregator(DataCenterNode):
    """One region's mid-tier node: gathers station reports, ships one summary."""

    def __init__(self, region: Region) -> None:
        super().__init__(region.aggregator_id)
        self.region = region

    def summarize(self, sender_order: Sequence[str]) -> Sequence[object]:
        """Union the inbox's decoded reports into one upstream payload.

        ``sender_order`` is the canonical station order of this region's
        round participants, or a delta shipment's send order; consuming the
        inbox in that order (never in delivery order) keeps the summary —
        and therefore the center's aggregation input — independent of
        network reordering, exactly like a star's uplink consumption.
        """
        grouped = self.reports_by_sender()
        return dedupe_weighted_reports(
            concat_reports(
                grouped[station_id] for station_id in sender_order if station_id in grouped
            )
        )
