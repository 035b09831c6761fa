"""Declarative, fully-seeded workload specifications.

A :class:`WorkloadSpec` is everything needed to replay a multi-round traffic
scenario against the distributed matching system: the synthetic city's shape,
how many rounds to run, how many query batches arrive per round (the
:class:`ArrivalProcess`), how the query mix concentrates on hot exemplars
(:class:`QueryMix`), how stations join and leave between rounds
(:class:`ChurnProcess`), and which seeded fault profile the simulated
transport runs under.  Every stochastic choice the engine makes is derived
from ``(spec.name, spec.seed)`` through :func:`repro.utils.rng.derive_seed`,
so one spec replays a byte-identical event transcript run after run — the
same determinism contract the simulation harness pins for single rounds,
extended to whole workloads.

The spec is *declarative*: it never references datasets, protocols or
networks — :mod:`repro.workloads.engine` compiles it into an actual
multi-round drive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.core.config import FAULT_PROFILE_CHOICES
from repro.core.exceptions import ConfigurationError
from repro.datagen.source import SourceSpec
from repro.topology.spec import TopologySpec
from repro.utils.validation import require_non_negative, require_positive

#: Query arrival shapes over the rounds of a workload.
ARRIVAL_KINDS = ("constant", "flash", "diurnal")

#: Inter-arrival draw processes of the open-system drive.
INTERARRIVAL_KINDS = ("poisson", "scheduled")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _require_finite_positive(value: object, name: str) -> None:
    _require(
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(float(value))
        and float(value) > 0.0,
        f"{name} must be a finite number > 0, got {value!r}",
    )


@dataclass(frozen=True)
class RampPhase:
    """One labelled segment of an open-system ramp schedule.

    During the phase, arrivals are offered at
    ``OfferedLoad.rate_qps × rate_multiplier`` for ``duration_s`` *virtual*
    seconds.  A multiplier of 0 is a silence window (the drain tail of a
    spike test); the virtual clock still advances through it.
    """

    label: str
    duration_s: float
    rate_multiplier: float = 1.0

    def __post_init__(self) -> None:
        _require(
            isinstance(self.label, str) and bool(self.label),
            f"phase label must be a non-empty string, got {self.label!r}",
        )
        _require_finite_positive(self.duration_s, "duration_s")
        _require(
            isinstance(self.rate_multiplier, (int, float))
            and not isinstance(self.rate_multiplier, bool)
            and math.isfinite(float(self.rate_multiplier))
            and float(self.rate_multiplier) >= 0.0,
            f"rate_multiplier must be a finite number >= 0, got {self.rate_multiplier!r}",
        )


@dataclass(frozen=True)
class OfferedLoad:
    """The open-system (rate-driven) arrival model of a workload.

    Instead of draining ``rounds`` closed-loop barriers, the open drive
    *offers* query-batch admissions against the virtual clock at
    ``rate_qps`` (scaled per :class:`RampPhase`):

    * ``poisson`` — exponential inter-arrival gaps, the classic open-system
      arrival process;
    * ``scheduled`` — exact ``1/rate`` spacing, for deterministic rate
      sweeps where only queueing (not arrival jitter) should move latency.

    Every gap draw comes from a per-phase RNG derived from
    ``(seed, "workload-arrivals", scenario, phase.label)``, so the arrival
    schedule is a pure function of the workload identity — the same
    determinism contract as every other process in the spec.
    ``max_arrivals`` caps the whole run (a saturated schedule must not run
    unbounded).
    """

    rate_qps: float
    process: str = "poisson"
    ramp: tuple[RampPhase, ...] = (RampPhase("plateau", 30.0, 1.0),)
    max_arrivals: int = 512

    def __post_init__(self) -> None:
        _require_finite_positive(self.rate_qps, "rate_qps")
        _require(
            self.process in INTERARRIVAL_KINDS,
            f"process must be one of {INTERARRIVAL_KINDS}, got {self.process!r}",
        )
        _require(
            isinstance(self.ramp, tuple) and len(self.ramp) > 0,
            f"ramp must be a non-empty tuple of RampPhase, got {self.ramp!r}",
        )
        for phase in self.ramp:
            _require(
                isinstance(phase, RampPhase),
                f"ramp entries must be RampPhase instances, got {phase!r}",
            )
        labels = [phase.label for phase in self.ramp]
        _require(
            len(labels) == len(set(labels)),
            f"ramp phase labels must be unique, got {labels!r}",
        )
        try:
            require_positive(self.max_arrivals, "max_arrivals")
        except (TypeError, ValueError) as error:
            raise ConfigurationError(str(error)) from error

    def rate_during(self, phase: RampPhase) -> float:
        """Offered arrival rate (arrivals per virtual second) of one phase."""
        return float(self.rate_qps) * float(phase.rate_multiplier)

    @property
    def total_duration_s(self) -> float:
        """Virtual length of the whole ramp schedule."""
        return sum(float(phase.duration_s) for phase in self.ramp)


@dataclass(frozen=True)
class ArrivalProcess:
    """How many queries arrive per round, as a pure function of the round index.

    * ``constant`` — ``base`` queries every round;
    * ``flash`` — ``base`` queries normally, ``base × burst_multiplier`` on
      every ``burst_every``-th round (the flash-crowd spike);
    * ``diurnal`` — a sinusoid between ``base`` and ``peak`` with the given
      ``period`` in rounds, starting at the trough (night → day → night).

    ``refresh_every`` controls query-batch rotation: 1 samples a fresh batch
    every round (each round is a new campaign), ``n > 1`` keeps a batch for
    ``n`` rounds (long-running campaigns — the regime where the session drive's
    incremental matching pays off).  A batch is also refreshed whenever the
    arrival count changes, since the batch size must match the round's count.
    """

    kind: str = "constant"
    base: int = 4
    burst_multiplier: float = 4.0
    burst_every: int = 4
    peak: int = 12
    period: int = 8
    refresh_every: int = 1

    def __post_init__(self) -> None:
        _require(
            self.kind in ARRIVAL_KINDS,
            f"arrival kind must be one of {ARRIVAL_KINDS}, got {self.kind!r}",
        )
        try:
            require_positive(self.base, "base")
            require_positive(self.burst_every, "burst_every")
            require_positive(self.period, "period")
            require_positive(self.refresh_every, "refresh_every")
        except (TypeError, ValueError) as error:
            raise ConfigurationError(str(error)) from error
        _require(
            isinstance(self.burst_multiplier, (int, float))
            and self.burst_multiplier >= 1.0,
            f"burst_multiplier must be >= 1, got {self.burst_multiplier!r}",
        )
        # peak is only consulted by the diurnal shape; a constant/flash spec
        # with a large base must not trip over the unused default.
        if self.kind == "diurnal":
            _require(
                isinstance(self.peak, int) and self.peak >= self.base,
                f"peak must be an integer >= base ({self.base}), got {self.peak!r}",
            )

    def count_at(self, round_index: int) -> int:
        """Number of queries arriving in round ``round_index`` (always >= 1)."""
        require_non_negative(round_index, "round_index")
        if self.kind == "constant":
            return self.base
        if self.kind == "flash":
            if (round_index + 1) % self.burst_every == 0:
                return max(1, int(round(self.base * self.burst_multiplier)))
            return self.base
        # Diurnal: trough at round 0, crest half a period later.
        phase = 2.0 * math.pi * (round_index % self.period) / self.period
        level = (1.0 - math.cos(phase)) / 2.0
        return self.base + int(round((self.peak - self.base) * level))

    def refreshes_at(self, round_index: int) -> bool:
        """Whether a fresh query batch is sampled at ``round_index``."""
        if round_index == 0:
            return True
        if round_index % self.refresh_every == 0:
            return True
        return self.count_at(round_index) != self.count_at(round_index - 1)


@dataclass(frozen=True)
class ChurnProcess:
    """Station join/leave behavior between rounds.

    Each round, every active station leaves with ``leave_probability`` and
    every inactive station rejoins with ``join_probability``; at least
    ``min_active`` stations always stay up (leavers are revived in sorted
    station order until the floor holds).  All draws come from a per-round
    RNG derived from the workload seed, so the churn schedule is part of the
    replayable transcript.
    """

    leave_probability: float = 0.0
    join_probability: float = 1.0
    min_active: int = 1

    def __post_init__(self) -> None:
        for name in ("leave_probability", "join_probability"):
            value = getattr(self, name)
            _require(
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and 0.0 <= float(value) <= 1.0,
                f"{name} must be within [0, 1], got {value!r}",
            )
        try:
            require_positive(self.min_active, "min_active")
        except (TypeError, ValueError) as error:
            raise ConfigurationError(str(error)) from error

    @property
    def is_static(self) -> bool:
        """True when no station can ever leave."""
        return self.leave_probability == 0.0


@dataclass(frozen=True)
class QueryMix:
    """How query exemplars are drawn from the subscriber population.

    ``zipf_s = 0`` draws exemplars uniformly; larger values concentrate the
    mix on a seeded "hot set" with Zipf weight ``1 / rank^s`` — the
    skewed-hotset regime where a few profiles dominate the query stream.
    ``categories`` optionally restricts exemplars to the named ground-truth
    categories.
    """

    zipf_s: float = 0.0
    categories: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        _require(
            isinstance(self.zipf_s, (int, float))
            and not isinstance(self.zipf_s, bool)
            and float(self.zipf_s) >= 0.0,
            f"zipf_s must be >= 0, got {self.zipf_s!r}",
        )
        if self.categories is not None:
            _require(
                len(self.categories) > 0
                and all(isinstance(name, str) and name for name in self.categories),
                f"categories must be a non-empty tuple of names, got {self.categories!r}",
            )


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's slice of a multi-tenant workload.

    Each tenant runs its own independent :class:`QueryMix` stream against the
    shared deployment: per macro-round the engine serves the tenants
    round-robin in declaration order, each slot sampling from the tenant's
    own seeded hot-set stream (labelled by the tenant name, so the streams
    never correlate).  The result reports per-tenant precision, latency and
    byte totals whose sums equal the run's totals exactly — the accounting
    invariant the tenant suite pins.
    """

    name: str
    mix: QueryMix = field(default_factory=QueryMix)

    def __post_init__(self) -> None:
        _require(
            isinstance(self.name, str) and bool(self.name),
            f"tenant name must be a non-empty string, got {self.name!r}",
        )
        _require(
            isinstance(self.mix, QueryMix),
            f"tenant mix must be a QueryMix, got {self.mix!r}",
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """One declarative, fully-seeded traffic scenario.

    The dataset-shape fields mirror :class:`repro.datagen.workload.DatasetSpec`;
    the process fields declare the per-round behavior the engine compiles.
    ``(name, seed)`` fully determines the replayed event transcript — see
    ``docs/workloads.md`` for the determinism contract.
    """

    name: str
    description: str = ""
    # -- dataset shape ---------------------------------------------------------
    users_per_category: int = 6
    station_count: int = 5
    days: int = 1
    intervals_per_day: int = 24
    noise_level: int = 0
    epsilon: int = 0
    # -- round structure -------------------------------------------------------
    rounds: int = 8
    arrival: ArrivalProcess = field(default_factory=ArrivalProcess)
    churn: ChurnProcess = field(default_factory=ChurnProcess)
    mix: QueryMix = field(default_factory=QueryMix)
    #: Open-system arrival model; required by (and only consulted in) the
    #: ``open`` drive.  Closed-loop drives keep using ``rounds``/``arrival``.
    offered: OfferedLoad | None = None
    #: The one cohort-shape spelling going forward: a declarative
    #: :class:`~repro.datagen.source.SourceSpec`.  When set, the legacy
    #: dataset-shape fields above must stay at their defaults (naming the
    #: shape twice is a :class:`ConfigurationError`, not a precedence rule).
    #: ``kind="streaming"`` sources drive the bounded-memory lazy path.
    source: SourceSpec | None = None
    #: Multi-tenant multiplexing: when non-empty, every macro-round serves
    #: each tenant once (in declaration order) from its own query-mix stream,
    #: and the result carries per-tenant accounting.  Empty means the classic
    #: single-stream workload, byte-identical to the pre-tenant engine.
    tenants: tuple[TenantSpec, ...] = ()
    # -- environment pairing ---------------------------------------------------
    #: Deployment topology the compiled cluster runs under; ``None`` is the
    #: classic flat star.  A two-tier spec routes every round through
    #: regional aggregators (see ``docs/topology.md``).
    topology: "TopologySpec | None" = None
    method: str = "wbf"
    fault_profile: str = "none"
    allow_partial: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        _require(
            isinstance(self.name, str) and bool(self.name),
            f"name must be a non-empty string, got {self.name!r}",
        )
        try:
            require_positive(self.users_per_category, "users_per_category")
            require_positive(self.station_count, "station_count")
            require_positive(self.days, "days")
            require_positive(self.intervals_per_day, "intervals_per_day")
            require_non_negative(self.noise_level, "noise_level")
            require_non_negative(self.epsilon, "epsilon")
            require_positive(self.rounds, "rounds")
        except (TypeError, ValueError) as error:
            raise ConfigurationError(str(error)) from error
        _require(
            self.method in ("naive", "local", "bf", "wbf"),
            f"method must be one of naive/local/bf/wbf, got {self.method!r}",
        )
        _require(
            self.fault_profile in FAULT_PROFILE_CHOICES,
            f"fault_profile must be one of {FAULT_PROFILE_CHOICES}, "
            f"got {self.fault_profile!r}",
        )
        _require(
            isinstance(self.seed, int) and not isinstance(self.seed, bool),
            f"seed must be an integer, got {self.seed!r}",
        )
        _require(
            self.source is None or isinstance(self.source, SourceSpec),
            f"source must be a SourceSpec or None, got {self.source!r}",
        )
        if self.source is not None:
            spelled_twice = [
                name
                for name, default in (
                    ("users_per_category", 6),
                    ("station_count", 5),
                    ("days", 1),
                    ("intervals_per_day", 24),
                    ("noise_level", 0),
                )
                if getattr(self, name) != default
            ]
            _require(
                not spelled_twice,
                "cohort shape is spelled twice: source= is set, so the legacy "
                f"field(s) {spelled_twice} must stay at their defaults — move "
                "them into the SourceSpec",
            )
            if self.source.kind == "streaming":
                _require(
                    self.mix == QueryMix(),
                    "streaming sources sample exemplars uniformly: QueryMix "
                    "hot-set/category shaping needs an eager source",
                )
        _require(
            isinstance(self.churn.min_active, int)
            and self.churn.min_active <= self.effective_station_count,
            f"churn.min_active ({self.churn.min_active}) cannot exceed "
            f"station_count ({self.effective_station_count})",
        )
        _require(
            self.offered is None or isinstance(self.offered, OfferedLoad),
            f"offered must be an OfferedLoad or None, got {self.offered!r}",
        )
        _require(
            isinstance(self.tenants, tuple)
            and all(isinstance(tenant, TenantSpec) for tenant in self.tenants),
            f"tenants must be a tuple of TenantSpec, got {self.tenants!r}",
        )
        tenant_names = [tenant.name for tenant in self.tenants]
        _require(
            len(tenant_names) == len(set(tenant_names)),
            f"tenant names must be unique, got {tenant_names!r}",
        )
        if self.tenants:
            _require(
                self.source is None,
                "tenant query mixes need the materialized dataset path: "
                "sources sample exemplars uniformly, so declare the city "
                "through the legacy dataset-shape fields instead of source=",
            )
        _require(
            self.topology is None or isinstance(self.topology, TopologySpec),
            f"topology must be a TopologySpec or None, got {self.topology!r}",
        )
        if self.topology is not None:
            _require(
                self.topology.regions <= self.effective_station_count,
                f"topology regions ({self.topology.regions}) must not exceed "
                f"stations ({self.effective_station_count})",
            )

    def effective_source(self) -> SourceSpec:
        """The city declaration: ``source`` or the legacy fields lifted into one."""
        if self.source is not None:
            return self.source
        return SourceSpec(
            kind="eager",
            station_count=self.station_count,
            users_per_category=self.users_per_category,
            days=self.days,
            intervals_per_day=self.intervals_per_day,
            noise_level=self.noise_level,
        )

    @property
    def effective_station_count(self) -> int:
        """Declared stations, whichever spelling declared them."""
        return (
            self.source.station_count if self.source is not None else self.station_count
        )

    def with_updates(self, **changes: object) -> "WorkloadSpec":
        """A copy of this spec with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    def total_query_count(self) -> int:
        """Total queries the arrival process emits over all rounds."""
        return sum(self.arrival.count_at(r) for r in range(self.rounds))
