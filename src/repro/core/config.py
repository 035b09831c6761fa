"""Configuration of the DI-matching pipeline.

The parameters mirror the paper's Table I notation where applicable:

* ``sample_count`` — ``b``, the number of uniformly sampled points per pattern;
* ``hash_count`` — ``k``, the number of hash functions;
* ``bit_count`` / ``bits_per_element`` — ``m``, the filter length (fixed or auto-sized);
* ``epsilon`` — ``ε``, the user-specified approximation parameter of Eq. (2).

Extra switches control implementation choices the paper leaves open; each has an
ablation benchmark (see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.exceptions import ConfigurationError
from repro.utils.validation import require_non_negative, require_positive

#: Station-execution backends accepted by ``ExecutorSpec.kind``,
#: ``Cluster.adopt`` and the CLI (see :mod:`repro.distributed.executor`).
EXECUTOR_CHOICES = ("serial", "thread", "process")

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


@dataclass(frozen=True)
class DIMatchingConfig:
    """Immutable configuration shared by the encoder, matcher and aggregator.

    Every field travels on the wire inside an encoded query batch, so a
    station matches under exactly the configuration the center encoded with.
    Deployment knobs (executor, shard count, transport, fault profile) live
    on :class:`~repro.cluster.spec.ClusterSpec`, never here.
    """

    #: ``b`` — sampled points per pattern (the paper converges at 5, is stable at 12).
    sample_count: int = 12
    #: ``k`` — number of hash functions.
    hash_count: int = 4
    #: ``ε`` — per-interval matching tolerance of Eq. (2); integer, as the paper
    #: restricts values to natural numbers.
    epsilon: int = 0
    #: Explicit filter length ``m`` in bits, used when ``auto_size`` is False.
    bit_count: int = 16384
    #: When True the encoder sizes the filter as ``bits_per_element × inserted items``.
    auto_size: bool = True
    #: Bits allocated per inserted item when auto-sizing.
    bits_per_element: int = 12
    #: Lower bound on the auto-sized filter length.
    min_bit_count: int = 1024
    #: Seed for the filter hash family (must be shared by center and stations).
    seed: int = 0
    #: Hash ``(time index, accumulated value)`` tuples rather than bare values.  The
    #: accumulation transform already embeds order, but including the index removes
    #: residual cross-position collisions; the paper hashes values only, so this is
    #: exposed as an ablation switch.
    include_sample_index: bool = True
    #: Apply the accumulation transform (Eq. 3) before sampling and hashing.  Turning
    #: this off hashes raw interval values instead — the ablation for the paper's
    #: claim that accumulation is what distinguishes reordered time series.
    use_accumulation: bool = True
    #: Insert the ε-neighbourhood of every sampled value at encode time ("hash all
    #: the possible approximate values into WBF", Section IV-B).
    expand_epsilon: bool = True
    #: Width of the inserted ε-neighbourhood around each sampled accumulated value:
    #: "interval" inserts ``±ε`` (the default — candidates whose deviations are
    #: timing-like and largely cancel in accumulated form are matched without
    #: sacrificing discrimination), "accumulated" inserts ``±ε·(index+1)`` (the fully
    #: conservative band that can never miss an Eq.-2-similar candidate, at the cost
    #: of very wide bands at late time indices).
    epsilon_tolerance_mode: str = "interval"
    #: Drop duplicate combined patterns, keeping the one with the larger weight
    #: (duplicates arise when a query local fragment is all zeros).
    deduplicate_combinations: bool = True
    #: Upper bound on the number of local fragments per query; the combination count
    #: is ``2^l − 1`` (Eq. 4), so this caps encoder blow-up.
    max_local_patterns: int = 12

    def __post_init__(self) -> None:
        try:
            require_positive(self.sample_count, "sample_count")
            require_positive(self.hash_count, "hash_count")
            require_non_negative(self.epsilon, "epsilon")
            require_positive(self.bit_count, "bit_count")
            require_positive(self.bits_per_element, "bits_per_element")
            require_positive(self.min_bit_count, "min_bit_count")
            require_positive(self.max_local_patterns, "max_local_patterns")
        except (TypeError, ValueError) as error:
            raise ConfigurationError(str(error)) from error
        if not isinstance(self.epsilon, int):
            raise ConfigurationError(f"epsilon must be an integer, got {self.epsilon!r}")
        if self.epsilon_tolerance_mode not in ("interval", "accumulated"):
            raise ConfigurationError(
                "epsilon_tolerance_mode must be 'interval' or 'accumulated', "
                f"got {self.epsilon_tolerance_mode!r}"
            )

    def filter_bit_count(self, item_count: int) -> int:
        """Filter length to use for ``item_count`` inserted items."""
        if not self.auto_size:
            return self.bit_count
        return max(self.min_bit_count, int(item_count) * self.bits_per_element)

    def with_updates(self, **changes: object) -> "DIMatchingConfig":
        """Return a copy of this configuration with the given fields replaced."""
        return replace(self, **changes)
