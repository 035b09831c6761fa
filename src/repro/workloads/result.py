"""Streaming aggregation of multi-round workload runs.

The engine feeds one :class:`RoundMetrics` (plus the round's event
transcript) at a time into a :class:`WorkloadAggregator`; cumulative
statistics are maintained as running :class:`StreamingStat` accumulators so a
long workload never re-scans its history.  :meth:`WorkloadAggregator.finish`
freezes everything into a :class:`WorkloadResult`, whose
:meth:`~WorkloadResult.transcript_bytes` is the workload-level replay token
(the concatenation of every round's canonical transcript under a round
header) and whose :meth:`~WorkloadResult.to_payload` is the JSON shape
emitted through :func:`repro.evaluation.benchjson.workload_payload`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction

from repro.distributed.events import TranscriptEntry, transcript_to_bytes

#: Percentiles every cumulative statistic reports, in emission order.
PERCENTILES = (50, 90, 99)


@dataclass(frozen=True)
class StatSummary:
    """Frozen summary of one streamed quantity."""

    count: int
    total: float
    mean: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float


class StreamingStat:
    """Running aggregate of one per-round quantity.

    :meth:`push` is amortized O(1): values append to a tail buffer and the
    whole list is re-sorted lazily on the first read after a push (Timsort is
    near-linear on a sorted-prefix-plus-small-tail list, so a push/read
    alternation stays cheap and a long push burst costs one sort).  The old
    ``bisect.insort`` insertion was O(n) *per push* — quadratic over a long
    workload.  count/total/min/max are O(1) running fields; the total uses
    Neumaier compensated summation, so the mean does not drift under
    catastrophic cancellation over million-push streams the way a naive
    running float sum does.

    Percentiles use the nearest-rank definition — exact, no interpolation —
    with the rank computed in pure integer arithmetic via
    :class:`~fractions.Fraction`.  A float ``q`` is read at its *decimal*
    face value (``Fraction(str(q))``): ``percentile(99.9)`` means the exact
    rational 999/1000, not the binary expansion of the float ``99.9`` (which
    sits just above it and could push the ceiling rank one step too far at
    large counts).  Pass a :class:`~fractions.Fraction` directly for
    arbitrary exact quantiles.
    """

    def __init__(self) -> None:
        self._values: list[float] = []
        self._sorted_count = 0
        self._total = 0.0
        self._compensation = 0.0

    def push(self, value: float) -> None:
        """Fold one round's value into the aggregate (amortized O(1))."""
        number = float(value)
        self._values.append(number)
        # Neumaier's variant of Kahan summation: carry the rounding error of
        # each addition in a separate compensation term.
        updated = self._total + number
        if abs(self._total) >= abs(number):
            self._compensation += (self._total - updated) + number
        else:
            self._compensation += (number - updated) + self._total
        self._total = updated

    def _ordered(self) -> list[float]:
        if self._sorted_count != len(self._values):
            self._values.sort()
            self._sorted_count = len(self._values)
        return self._values

    @property
    def count(self) -> int:
        """Number of values pushed so far."""
        return len(self._values)

    @property
    def total(self) -> float:
        """Compensated running sum of the pushed values."""
        return self._total + self._compensation

    def percentile(self, q: "float | int | Fraction") -> float:
        """Nearest-rank percentile ``q`` (0 < q <= 100) of the pushed values.

        ``q`` may be an int, a :class:`~fractions.Fraction`, or a float —
        floats are interpreted at their decimal face value (see the class
        docstring).
        """
        if not self._values:
            raise ValueError("cannot take a percentile of an empty stream")
        if isinstance(q, bool) or not isinstance(q, (int, float, Fraction)):
            raise TypeError(f"percentile must be an int, float or Fraction, got {q!r}")
        if isinstance(q, float):
            if q != q or q in (float("inf"), float("-inf")):
                raise ValueError(f"percentile must be within (0, 100], got {q!r}")
            quantile = Fraction(str(q))
        else:
            quantile = Fraction(q)
        if not 0 < quantile <= 100:
            raise ValueError(f"percentile must be within (0, 100], got {q!r}")
        ordered = self._ordered()
        # ceil(count * q / 100) in exact integer arithmetic.
        numerator = len(ordered) * quantile.numerator
        denominator = 100 * quantile.denominator
        rank = max(1, -(-numerator // denominator))
        return ordered[rank - 1]

    def summary(self) -> StatSummary:
        """Freeze the current cumulative aggregate."""
        if not self._values:
            raise ValueError("cannot summarize an empty stream")
        ordered = self._ordered()
        total = self.total
        return StatSummary(
            count=len(ordered),
            total=total,
            mean=total / len(ordered),
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=self.percentile(50),
            p90=self.percentile(90),
            p99=self.percentile(99),
        )


@dataclass(frozen=True)
class RoundMetrics:
    """Everything one workload round reports upward.

    ``latency_s`` is the round's *virtual* transmission time, deterministic
    under the seed contract.

    The trailing three fields exist only under the open-system drive: the
    ramp-phase label the arrival fell in, the virtual arrival time, and the
    queueing delay accrued waiting behind earlier arrivals.  In that mode
    ``latency_s`` is queueing delay *plus* service time, so saturation shows
    up as graceful latency growth rather than an error.  Closed-loop drives
    leave them at their defaults and the payload omits them entirely.
    """

    round_index: int
    query_count: int
    active_station_count: int
    joined: tuple[str, ...]
    left: tuple[str, ...]
    downlink_bytes: int
    uplink_bytes: int
    precision: float
    recall: float
    latency_s: float
    goodput_fraction: float
    retransmit_count: int
    lost_station_count: int
    batch_refreshed: bool
    phase: str = ""
    arrival_s: float = 0.0
    queue_delay_s: float = 0.0
    #: Multi-tenant runs: which tenant's query stream this round served.
    #: Empty on single-stream workloads and then stripped from the payload,
    #: so pre-tenant baselines stay byte-identical.
    tenant: str = ""

    @property
    def total_bytes(self) -> int:
        """Downlink plus uplink bytes of the round."""
        return self.downlink_bytes + self.uplink_bytes


#: The per-round quantities aggregated cumulatively, with their extractors.
_STREAMED_QUANTITIES = {
    "bytes": lambda metrics: float(metrics.total_bytes),
    "latency_s": lambda metrics: metrics.latency_s,
    "goodput": lambda metrics: metrics.goodput_fraction,
    "precision": lambda metrics: metrics.precision,
    "recall": lambda metrics: metrics.recall,
}

#: RoundMetrics fields that only carry meaning under the open-system drive;
#: stripped from closed-loop payload rows so those stay byte-identical to the
#: committed benchmark baselines.
_OPEN_LOOP_FIELDS = ("phase", "arrival_s", "queue_delay_s")


@dataclass(frozen=True)
class TenantWindow:
    """Frozen per-tenant slice of a multi-tenant run.

    One window per :class:`~repro.workloads.spec.TenantSpec`, in declaration
    order.  The byte and query totals partition the run's totals exactly —
    every round belongs to exactly one tenant — which is the isolation
    invariant the tenant accounting suite pins.
    """

    name: str
    round_count: int
    query_count: int
    downlink_bytes: int
    uplink_bytes: int
    precision: StatSummary
    recall: StatSummary
    latency: StatSummary

    @property
    def total_bytes(self) -> int:
        """Downlink plus uplink bytes across the tenant's rounds."""
        return self.downlink_bytes + self.uplink_bytes

    def to_payload(self) -> dict:
        """JSON-ready shape embedded in the workload payload's ``tenants``."""
        return {
            "name": self.name,
            "round_count": self.round_count,
            "query_count": self.query_count,
            "downlink_bytes": self.downlink_bytes,
            "uplink_bytes": self.uplink_bytes,
            "precision": asdict(self.precision),
            "recall": asdict(self.recall),
            "latency": asdict(self.latency),
        }


@dataclass(frozen=True)
class PhaseWindow:
    """Frozen per-ramp-phase percentile window of an open-system run.

    One window per :class:`~repro.workloads.spec.RampPhase` the run admitted
    arrivals in, in schedule order.  ``offered_qps`` is the phase's target
    arrival rate (base rate × multiplier); ``achieved_qps`` is what the
    virtual clock actually completed within the phase's wall of admitted
    arrivals — below saturation the two track each other, past it
    ``achieved_qps`` plateaus while the latency window degrades.
    """

    label: str
    arrival_count: int
    offered_qps: float
    duration_s: float
    achieved_qps: float
    latency: StatSummary | None
    queue_delay: StatSummary | None

    def to_payload(self) -> dict:
        """JSON-ready shape embedded in the workload payload's ``phases``."""
        return {
            "label": self.label,
            "arrival_count": self.arrival_count,
            "offered_qps": self.offered_qps,
            "duration_s": self.duration_s,
            "achieved_qps": self.achieved_qps,
            "latency": None if self.latency is None else asdict(self.latency),
            "queue_delay": (
                None if self.queue_delay is None else asdict(self.queue_delay)
            ),
        }


@dataclass(frozen=True)
class WorkloadResult:
    """The frozen outcome of one workload run."""

    scenario: str
    seed: int
    drive: str
    method: str
    fault_profile: str
    rounds: tuple[RoundMetrics, ...]
    cumulative: dict[str, StatSummary]
    transcripts: tuple[bytes, ...] = field(repr=False, default=())
    phases: tuple[PhaseWindow, ...] = ()
    #: Multi-tenant runs: one window per tenant, in declaration order.  Empty
    #: for single-stream workloads, and then absent from the payload.
    tenants: tuple[TenantWindow, ...] = ()
    #: Streaming-source runs: the source's residency accounting (declared
    #: users, peak resident station batches, evictions).  ``None`` for eager
    #: datasets, and then absent from the payload so committed closed-loop
    #: baselines stay byte-identical.
    source_stats: "dict[str, object] | None" = None

    @property
    def round_count(self) -> int:
        """Number of rounds the workload ran."""
        return len(self.rounds)

    @property
    def total_bytes(self) -> int:
        """All bytes moved across every round."""
        return sum(metrics.total_bytes for metrics in self.rounds)

    @property
    def total_queries(self) -> int:
        """All queries served across every round."""
        return sum(metrics.query_count for metrics in self.rounds)

    def transcript_bytes(self) -> bytes:
        """The workload-level replay token.

        Each round's canonical event transcript
        (:func:`repro.distributed.events.transcript_to_bytes`) is prefixed
        with a round header; two workload runs are "the same" exactly when
        these bytes are identical.
        """
        parts: list[bytes] = []
        for index, transcript in enumerate(self.transcripts):
            parts.append(b"== round %d ==\n" % index)
            parts.append(transcript)
            parts.append(b"\n")
        return b"".join(parts)

    def to_payload(self) -> dict:
        """The JSON-ready shape written as ``BENCH_workload_<scenario>.json``."""
        open_loop = bool(self.phases)
        skip = () if open_loop else _OPEN_LOOP_FIELDS
        if not self.tenants:
            skip = skip + ("tenant",)
        payload = {
            "scenario": self.scenario,
            "seed": self.seed,
            "drive": self.drive,
            "method": self.method,
            "fault_profile": self.fault_profile,
            # Every committed payload and baseline holds this key; matching
            # has one backend, so its value never varies.
            "executor": "serial",
            "round_count": self.round_count,
            "totals": {
                "bytes": self.total_bytes,
                "queries": self.total_queries,
                "lost_stations": sum(m.lost_station_count for m in self.rounds),
                "retransmits": sum(m.retransmit_count for m in self.rounds),
            },
            "rounds": [
                {k: v for k, v in asdict(metrics).items() if k not in skip}
                for metrics in self.rounds
            ],
            "cumulative": {
                name: asdict(summary) for name, summary in self.cumulative.items()
            },
        }
        if open_loop:
            payload["phases"] = [window.to_payload() for window in self.phases]
        if self.tenants:
            payload["tenants"] = [window.to_payload() for window in self.tenants]
        if self.source_stats is not None:
            payload["source"] = dict(self.source_stats)
        return payload


class WorkloadAggregator:
    """Streaming consumer of round outcomes.

    The engine calls :meth:`add_round` once per round; the aggregator folds
    the round into the cumulative streams and stores the round's canonical
    transcript bytes.  :meth:`snapshot` exposes the cumulative statistics
    mid-run (for progress displays); :meth:`finish` freezes the result.
    """

    def __init__(
        self,
        scenario: str,
        seed: int,
        drive: str,
        method: str,
        fault_profile: str,
    ) -> None:
        self._scenario = scenario
        self._seed = seed
        self._drive = drive
        self._method = method
        self._fault_profile = fault_profile
        self._rounds: list[RoundMetrics] = []
        self._transcripts: list[bytes] = []
        self._streams = {name: StreamingStat() for name in _STREAMED_QUANTITIES}
        self._phases: list[dict] = []
        self._tenants: dict[str, dict] = {}
        self._source_stats: "dict[str, object] | None" = None

    def set_source_stats(self, stats: "dict[str, object] | None") -> None:
        """Attach the streaming source's residency accounting (or ``None``)."""
        self._source_stats = None if stats is None else dict(stats)

    def begin_phase(
        self,
        label: str,
        offered_qps: float,
        duration_s: float,
        start_s: float = 0.0,
    ) -> None:
        """Open a per-phase percentile window (open-system drive only).

        Rounds folded in afterwards accrue into this window's latency and
        queue-delay streams until the next ``begin_phase``.  ``start_s`` is
        the phase's virtual start time; together with each round's
        ``arrival_s + latency_s`` completion it yields the window's achieved
        throughput, which plateaus past saturation while offered keeps
        climbing.
        """
        self._phases.append(
            {
                "label": label,
                "offered_qps": float(offered_qps),
                "duration_s": float(duration_s),
                "start_s": float(start_s),
                "last_completion_s": float(start_s),
                "arrival_count": 0,
                "latency": StreamingStat(),
                "queue_delay": StreamingStat(),
            }
        )

    def add_round(
        self,
        metrics: RoundMetrics,
        transcript: "tuple[TranscriptEntry, ...] | bytes",
    ) -> None:
        """Fold one completed round into the aggregate."""
        if metrics.round_index != len(self._rounds):
            raise ValueError(
                f"rounds must arrive in order: expected index {len(self._rounds)}, "
                f"got {metrics.round_index}"
            )
        self._rounds.append(metrics)
        if isinstance(transcript, bytes):
            self._transcripts.append(transcript)
        else:
            self._transcripts.append(transcript_to_bytes(transcript))
        for name, extract in _STREAMED_QUANTITIES.items():
            self._streams[name].push(extract(metrics))
        if metrics.tenant:
            window = self._tenants.setdefault(
                metrics.tenant,
                {
                    "round_count": 0,
                    "query_count": 0,
                    "downlink_bytes": 0,
                    "uplink_bytes": 0,
                    "precision": StreamingStat(),
                    "recall": StreamingStat(),
                    "latency": StreamingStat(),
                },
            )
            window["round_count"] += 1
            window["query_count"] += metrics.query_count
            window["downlink_bytes"] += metrics.downlink_bytes
            window["uplink_bytes"] += metrics.uplink_bytes
            window["precision"].push(metrics.precision)
            window["recall"].push(metrics.recall)
            window["latency"].push(metrics.latency_s)
        if self._phases:
            window = self._phases[-1]
            window["arrival_count"] += 1
            window["latency"].push(metrics.latency_s)
            window["queue_delay"].push(metrics.queue_delay_s)
            window["last_completion_s"] = max(
                window["last_completion_s"], metrics.arrival_s + metrics.latency_s
            )

    def snapshot(self) -> dict[str, StatSummary]:
        """Cumulative statistics over the rounds folded in so far."""
        return {name: stream.summary() for name, stream in self._streams.items()}

    def _frozen_phases(self) -> tuple[PhaseWindow, ...]:
        windows: list[PhaseWindow] = []
        for window in self._phases:
            count = window["arrival_count"]
            # A phase is judged over whichever is longer: its scheduled wall
            # or the span its completions actually spilled into — that is
            # what makes achieved_qps plateau past saturation.
            span = max(
                window["duration_s"], window["last_completion_s"] - window["start_s"]
            )
            windows.append(
                PhaseWindow(
                    label=window["label"],
                    arrival_count=count,
                    offered_qps=window["offered_qps"],
                    duration_s=window["duration_s"],
                    achieved_qps=count / span if span > 0 else 0.0,
                    latency=window["latency"].summary() if count else None,
                    queue_delay=window["queue_delay"].summary() if count else None,
                )
            )
        return tuple(windows)

    def _frozen_tenants(self) -> tuple[TenantWindow, ...]:
        return tuple(
            TenantWindow(
                name=name,
                round_count=window["round_count"],
                query_count=window["query_count"],
                downlink_bytes=window["downlink_bytes"],
                uplink_bytes=window["uplink_bytes"],
                precision=window["precision"].summary(),
                recall=window["recall"].summary(),
                latency=window["latency"].summary(),
            )
            for name, window in self._tenants.items()
        )

    def finish(self) -> WorkloadResult:
        """Freeze everything into a :class:`WorkloadResult`."""
        if not self._rounds:
            raise ValueError("cannot finish a workload with no rounds")
        return WorkloadResult(
            scenario=self._scenario,
            seed=self._seed,
            drive=self._drive,
            method=self._method,
            fault_profile=self._fault_profile,
            rounds=tuple(self._rounds),
            cumulative=self.snapshot(),
            transcripts=tuple(self._transcripts),
            phases=self._frozen_phases(),
            tenants=self._frozen_tenants(),
            source_stats=self._source_stats,
        )
