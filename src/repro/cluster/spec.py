"""Typed, validated specification of one cluster deployment.

A :class:`ClusterSpec` is everything needed to stand up the distributed
matching system behind one :class:`~repro.cluster.facade.Cluster` facade: the
synthetic city to serve (:class:`~repro.datagen.workload.DatasetSpec`), the
matching protocol the data center runs (:class:`ProtocolSpec`), the simulated
backhaul (:class:`TransportSpec`), the station-execution backend
(:class:`ExecutorSpec`, always ``"serial"``) and the seeded fault environment
(:class:`FaultSpec`).
Like :class:`~repro.workloads.spec.WorkloadSpec` every field is validated at
construction with :class:`~repro.core.exceptions.ConfigurationError`, so a
mis-built deployment fails before any traffic moves.

The fault knobs are set here (or through the same-named ``Cluster.adopt``
keywords) and nowhere else: the protocol's
:class:`~repro.core.config.DIMatchingConfig` says what the filter means, the
deployment says how the round runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.config import (
    DIMatchingConfig,
    FAULT_PROFILE_CHOICES,
    TRANSPORT_CHOICES,
)
from repro.core.exceptions import ConfigurationError
from repro.datagen.source import SourceSpec
from repro.datagen.workload import DatasetSpec
from repro.distributed.network import NetworkConfig
from repro.topology.spec import TopologySpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.protocol import MatchingProtocol
    from repro.workloads.spec import WorkloadSpec

#: Protocols the facade can deploy, matching the evaluation vocabulary.
PROTOCOL_METHODS = ("naive", "local", "bf", "wbf")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class ProtocolSpec:
    """Which matching protocol the deployment's data center runs.

    ``config`` carries the full :class:`DIMatchingConfig` for the filter-based
    methods; when ``None`` a default configuration with ``int(epsilon)`` is
    built.  The baselines (``naive`` / ``local``) only consume ``epsilon``.
    """

    method: str = "wbf"
    epsilon: float = 0.0
    config: DIMatchingConfig | None = None

    def __post_init__(self) -> None:
        _require(
            self.method in PROTOCOL_METHODS,
            f"method must be one of {PROTOCOL_METHODS}, got {self.method!r}",
        )
        _require(
            isinstance(self.epsilon, (int, float))
            and not isinstance(self.epsilon, bool)
            and float(self.epsilon) >= 0.0,
            f"epsilon must be >= 0, got {self.epsilon!r}",
        )
        _require(
            self.config is None or isinstance(self.config, DIMatchingConfig),
            f"config must be a DIMatchingConfig or None, got {type(self.config).__name__}",
        )

    def resolved_config(self) -> DIMatchingConfig:
        """The effective protocol configuration."""
        return self.config or DIMatchingConfig(epsilon=int(self.epsilon))

    def build(self) -> "MatchingProtocol":
        """Instantiate the configured protocol."""
        # Imported here so the spec module stays importable without pulling in
        # the whole protocol stack at definition time.
        from repro.baselines import (
            BloomFilterProtocol,
            LocalOnlyProtocol,
            NaiveProtocol,
        )
        from repro.core.dimatching import DIMatchingProtocol

        if self.method == "naive":
            return NaiveProtocol(epsilon=float(self.epsilon))
        if self.method == "local":
            return LocalOnlyProtocol(epsilon=float(self.epsilon))
        if self.method == "bf":
            return BloomFilterProtocol(self.resolved_config())
        return DIMatchingProtocol(self.resolved_config())


@dataclass(frozen=True)
class TransportSpec:
    """Backhaul backend selection plus its link/reliability parameters.

    ``transport="sim"`` runs every round through the deterministic
    event-driven :class:`~repro.distributed.network.SimulatedNetwork`;
    ``transport="tcp"`` runs the stations as real localhost worker processes
    speaking the same ``DIMW`` wire frames over asyncio sockets, with a
    byte-level fault proxy driven by the same seeded fault plan
    (:mod:`repro.distributed.transport.tcp`).  The link parameters feed both
    backends; ``tcp_connect_timeout_s`` only applies to the real-socket
    backend.
    """

    bandwidth_bytes_per_s: float = 2_000_000.0
    latency_s: float = 0.02
    max_attempts: int = 8
    retransmit_timeout_s: float | None = None
    #: Which backend carries the deployment's traffic.
    transport: str = "sim"
    #: TCP only: how long to wait for a spawned station worker to register.
    tcp_connect_timeout_s: float = 20.0

    def __post_init__(self) -> None:
        _require(
            self.transport in TRANSPORT_CHOICES,
            f"transport must be one of {TRANSPORT_CHOICES}, got {self.transport!r}",
        )
        _require(
            isinstance(self.tcp_connect_timeout_s, (int, float))
            and not isinstance(self.tcp_connect_timeout_s, bool)
            and float(self.tcp_connect_timeout_s) > 0.0,
            f"tcp_connect_timeout_s must be > 0, got {self.tcp_connect_timeout_s!r}",
        )
        try:
            # NetworkConfig owns the link invariants; building one surfaces
            # any violation as the facade's ConfigurationError.
            self.network_config()
        except (TypeError, ValueError) as error:
            raise ConfigurationError(str(error)) from error

    def network_config(self) -> NetworkConfig:
        """The :class:`NetworkConfig` this spec describes."""
        return NetworkConfig(
            bandwidth_bytes_per_s=self.bandwidth_bytes_per_s,
            latency_s=self.latency_s,
            max_attempts=self.max_attempts,
            retransmit_timeout_s=self.retransmit_timeout_s,
        )

    @classmethod
    def from_network_config(
        cls, config: NetworkConfig | None, transport: str = "sim"
    ) -> "TransportSpec":
        """Lift an existing :class:`NetworkConfig` into a spec (``None`` = defaults)."""
        if config is None:
            return cls(transport=transport)
        return cls(
            bandwidth_bytes_per_s=config.bandwidth_bytes_per_s,
            latency_s=config.latency_s,
            max_attempts=config.max_attempts,
            retransmit_timeout_s=config.retransmit_timeout_s,
            transport=transport,
        )


@dataclass(frozen=True)
class ExecutorSpec:
    """Station-execution backend of the matching phase.

    ``kind`` is ``"serial"``, the only backend: every station of a round is
    matched in one in-process call, each charged an equal share of its time.
    """

    kind: str = "serial"

    def __post_init__(self) -> None:
        _require(
            self.kind == "serial",
            f"executor kind must be 'serial', got {self.kind!r}",
        )


@dataclass(frozen=True)
class FaultSpec:
    """Seeded fault environment of the deployment's transport.

    ``profile`` names a plan of :data:`repro.distributed.faults.FAULT_PROFILES`
    and ``net_seed`` seeds its injector; together with the dataset seed they
    fully determine a round's event transcript.  ``allow_partial`` lets
    rounds survive stations that exhaust their retransmission budget.
    """

    profile: str = "none"
    net_seed: int = 0
    allow_partial: bool = False

    def __post_init__(self) -> None:
        _require(
            self.profile in FAULT_PROFILE_CHOICES,
            f"fault profile must be one of {FAULT_PROFILE_CHOICES}, "
            f"got {self.profile!r}",
        )
        _require(
            isinstance(self.net_seed, int) and not isinstance(self.net_seed, bool),
            f"net_seed must be an integer, got {self.net_seed!r}",
        )
        _require(
            isinstance(self.allow_partial, bool),
            f"allow_partial must be a bool, got {self.allow_partial!r}",
        )


@dataclass(frozen=True)
class ClusterSpec:
    """One complete, validated cluster deployment."""

    name: str = "cluster"
    #: Synthetic city to build; ``None`` means a pre-built dataset (or a
    #: :class:`~repro.datagen.source.StationSource`) is adopted at
    #: :class:`~repro.cluster.facade.Cluster` construction time, or that
    #: ``source`` below declares the city instead.
    dataset: DatasetSpec | None = None
    #: Declarative station source; mutually exclusive with ``dataset``.  A
    #: ``kind="streaming"`` source makes the facade serve station batches
    #: lazily under the source's resident cap instead of front-loading them.
    source: SourceSpec | None = None
    protocol: ProtocolSpec = field(default_factory=ProtocolSpec)
    transport: TransportSpec = field(default_factory=TransportSpec)
    executor: ExecutorSpec = field(default_factory=ExecutorSpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    #: Tier layout; ``None`` (and ``kind="star"``) is the paper's flat star —
    #: both run the round engine's trunkless one-level map, byte-identically.
    topology: TopologySpec | None = None

    def __post_init__(self) -> None:
        _require(
            isinstance(self.name, str) and bool(self.name),
            f"name must be a non-empty string, got {self.name!r}",
        )
        _require(
            self.dataset is None or isinstance(self.dataset, DatasetSpec),
            f"dataset must be a DatasetSpec or None, got {type(self.dataset).__name__}",
        )
        _require(
            self.source is None or isinstance(self.source, SourceSpec),
            f"source must be a SourceSpec or None, got {type(self.source).__name__}",
        )
        _require(
            self.dataset is None or self.source is None,
            "dataset and source are mutually exclusive — a deployment has "
            "exactly one city declaration",
        )
        for attribute, expected in (
            ("protocol", ProtocolSpec),
            ("transport", TransportSpec),
            ("executor", ExecutorSpec),
            ("faults", FaultSpec),
        ):
            value = getattr(self, attribute)
            _require(
                isinstance(value, expected),
                f"{attribute} must be a {expected.__name__}, got {type(value).__name__}",
            )
        _require(
            self.topology is None or isinstance(self.topology, TopologySpec),
            f"topology must be a TopologySpec or None, "
            f"got {type(self.topology).__name__}",
        )

    def with_updates(self, **changes: object) -> "ClusterSpec":
        """A copy of this spec with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    @classmethod
    def from_workload(
        cls,
        workload: "WorkloadSpec",
        *,
        network_config: NetworkConfig | None = None,
        transport: str = "sim",
    ) -> "ClusterSpec":
        """Compile a :class:`~repro.workloads.spec.WorkloadSpec` into a deployment.

        The dataset seed is derived from the workload identity exactly like the
        pre-facade engine (``derive_seed(seed, "workload-dataset", name)``), so
        a workload driven through the compiled cluster replays the same
        byte-identical transcript.  A workload whose :class:`SourceSpec` is
        ``kind="streaming"`` compiles to a source-backed deployment (the
        facade serves station batches lazily under the source's resident
        cap); eager shapes — legacy fields or an eager source — compile to
        the exact :class:`DatasetSpec` the pre-facade engine built.
        """
        from repro.utils.rng import derive_seed

        derived_seed = derive_seed(workload.seed, "workload-dataset", workload.name)
        shape = workload.effective_source()
        dataset: DatasetSpec | None = None
        source: SourceSpec | None = None
        if shape.kind == "streaming":
            source = shape.with_updates(
                seed=shape.seed if shape.seed is not None else derived_seed
            )
        else:
            dataset = DatasetSpec(
                users_per_category=shape.users_per_category,
                station_count=shape.station_count,
                days=shape.days,
                intervals_per_day=shape.intervals_per_day,
                noise_level=shape.noise_level,
                seed=shape.seed if shape.seed is not None else derived_seed,
            )
        config = DIMatchingConfig(epsilon=workload.epsilon)
        return cls(
            name=workload.name,
            dataset=dataset,
            source=source,
            protocol=ProtocolSpec(
                method=workload.method, epsilon=float(workload.epsilon), config=config
            ),
            transport=TransportSpec.from_network_config(network_config, transport=transport),
            faults=FaultSpec(
                profile=workload.fault_profile, allow_partial=workload.allow_partial
            ),
            topology=workload.topology,
        )
