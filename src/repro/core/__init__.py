"""DI-matching: the paper's core contribution.

The package contains the Weighted Bloom Filter (:mod:`repro.core.wbf`), the
data-center encoder (Algorithm 1), the base-station matcher (Algorithm 2), the
similarity ranker (Algorithm 3) and the :class:`DIMatchingProtocol` that ties them
together behind the common :class:`~repro.core.protocol.MatchingProtocol` interface
shared with the baselines.
"""

from repro.core.aggregator import SimilarityRanker
from repro.core.config import DIMatchingConfig
from repro.core.dimatching import DIMatchingProtocol, run_dimatching
from repro.core.encoder import EncodedQueryBatch, PatternEncoder
from repro.core.exceptions import ConfigurationError, EncodingError, MatchingError, ReproError
from repro.core.matcher import BaseStationMatcher
from repro.core.protocol import (
    MatchingProtocol,
    MatchReport,
    RankedResults,
    RankedUser,
)
from repro.core.reports import ReportColumns
from repro.core.streaming import ContinuousMatchingSession
from repro.core.wbf import WeightedBloomFilter
from repro.timeseries.query import QueryPattern

__all__ = [
    "SimilarityRanker",
    "DIMatchingConfig",
    "DIMatchingProtocol",
    "run_dimatching",
    "EncodedQueryBatch",
    "PatternEncoder",
    "ConfigurationError",
    "EncodingError",
    "MatchingError",
    "ReproError",
    "BaseStationMatcher",
    "MatchingProtocol",
    "MatchReport",
    "ReportColumns",
    "RankedResults",
    "RankedUser",
    "ContinuousMatchingSession",
    "WeightedBloomFilter",
    "QueryPattern",
]
