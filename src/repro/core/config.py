"""Configuration of the DI-matching pipeline.

The parameters mirror the paper's Table I notation where applicable:

* ``sample_count`` — ``b``, the number of uniformly sampled points per pattern;
* ``hash_count`` — ``k``, the number of hash functions;
* ``epsilon`` — ``ε``, the user-specified approximation parameter of Eq. (2).

The filter length ``m`` is not a setting: the encoder sizes every filter from
what it holds (:mod:`repro.core.encoder`).  Two switches select implementation
choices the paper leaves open; each has an ablation benchmark
(``benchmarks/bench_ablation_sample_index.py`` and
``benchmarks/bench_ablation_accumulation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.exceptions import ConfigurationError

#: Named fault profiles accepted by ``FaultSpec.profile``, ``Cluster.adopt``,
#: ``WorkloadSpec.fault_profile`` and the CLI.  The plans themselves live in
#: :data:`repro.distributed.faults.FAULT_PROFILES` (which asserts its keys
#: match this tuple); only the names live here so the dependency-light core
#: package can validate specs without importing the simulator.
FAULT_PROFILE_CHOICES = (
    "none",
    "lossy",
    "duplicating",
    "corrupting",
    "reordering",
    "straggler",
    "blackout",
    "chaos",
)

#: Transport backends accepted by ``TransportSpec.transport`` and the CLI:
#: "sim" is the deterministic event-driven simulator on a virtual clock
#: (:class:`~repro.distributed.network.SimulatedNetwork`), "tcp" runs the
#: stations as real localhost worker processes over asyncio sockets
#: (:mod:`repro.distributed.transport.tcp`).  Only the names live here so the
#: dependency-light core can validate configurations without importing either
#: backend.
TRANSPORT_CHOICES = ("sim", "tcp")

#: Drive modes of the declarative workload engine (:mod:`repro.workloads`):
#: "simulation" replays every round through the full event-driven transport
#: (a ``rounds`` session of the :class:`repro.cluster.Cluster` facade),
#: "session" drives the facade's incremental ``deltas`` session and ships only
#: per-round deltas, and "open" is the open-system mode where
#: query-batch admissions are offered by arrival *time* (a rate-driven
#: virtual-clock queue, see ``WorkloadSpec.offered``) instead of closed-loop
#: round barriers.  Like the fault-profile names above, the choices live in
#: the dependency-light core so the CLI and configuration validation never
#: have to import the engine.
WORKLOAD_DRIVE_CHOICES = ("simulation", "session", "open")


def _require_count(value: object, name: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r}")


def _require_switch(value: object, name: str) -> None:
    if not isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a bool, got {value!r}")


@dataclass(frozen=True)
class DIMatchingConfig:
    """Immutable configuration shared by the encoder, matcher and aggregator.

    Every field travels on the wire inside an encoded query batch, so a
    station matches under exactly the configuration the center encoded with.
    Deployment knobs (transport, fault profile) live on
    :class:`~repro.cluster.spec.ClusterSpec`, never here.
    """

    #: ``b`` — sampled points per pattern (the paper converges at 5, is stable at 12).
    sample_count: int = 12
    #: ``k`` — number of hash functions.
    hash_count: int = 4
    #: ``ε`` — per-interval matching tolerance of Eq. (2); integer, as the paper
    #: restricts values to natural numbers.
    epsilon: int = 0
    #: Hash ``(time index, accumulated value)`` tuples rather than bare values.  The
    #: accumulation transform already embeds order, but including the index removes
    #: residual cross-position collisions; the paper hashes values only, so this is
    #: exposed as an ablation switch.
    include_sample_index: bool = True
    #: Apply the accumulation transform (Eq. 3) before sampling and hashing.  Turning
    #: this off hashes raw interval values instead — the ablation for the paper's
    #: claim that accumulation is what distinguishes reordered time series.
    use_accumulation: bool = True

    def __post_init__(self) -> None:
        _require_count(self.sample_count, "sample_count")
        _require_count(self.hash_count, "hash_count")
        if not isinstance(self.epsilon, int) or isinstance(self.epsilon, bool):
            raise ConfigurationError(f"epsilon must be an integer, got {self.epsilon!r}")
        if self.epsilon < 0:
            raise ConfigurationError(f"epsilon must be >= 0, got {self.epsilon!r}")
        _require_switch(self.include_sample_index, "include_sample_index")
        _require_switch(self.use_accumulation, "use_accumulation")

    def with_updates(self, **changes: object) -> "DIMatchingConfig":
        """Return a copy of this configuration with the given fields replaced."""
        return replace(self, **changes)
