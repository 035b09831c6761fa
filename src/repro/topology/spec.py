"""Typed, validated description of a deployment's tier layout.

A :class:`TopologySpec` says how the cluster's stations are wired to the data
center: the paper's flat star (``kind="star"``, every station one hop from
the center) or the hierarchical two-tier layout (``kind="two-tier"``,
stations grouped into regions behind :class:`~repro.topology.aggregator.RegionalAggregator`
nodes that union their region's reports into one upstream summary).  Like
every other sub-spec it validates at construction with
:class:`~repro.core.exceptions.ConfigurationError` and never touches live
state — the concrete station partition is computed against a station order by
:func:`repro.topology.tiers.build_tier_map`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.core.config import FAULT_PROFILE_CHOICES
from repro.core.exceptions import ConfigurationError

#: Tier layouts the facade can deploy.
TOPOLOGY_KINDS = ("star", "two-tier")

#: Fields that only shape a regional tier; a star must leave them at default.
_REGIONAL_FIELDS = ("stations_per_region", "degraded_regions")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _str_tuple(value: object, field_name: str) -> tuple[str, ...]:
    _require(
        isinstance(value, (tuple, list))
        and all(isinstance(item, str) for item in value),
        f"{field_name} must be a tuple of region names, got {value!r}",
    )
    return tuple(value)


@dataclass(frozen=True)
class TopologySpec:
    """How the deployment's stations are wired to the data center.

    ``kind="star"`` is the paper's flat layout and the default everywhere —
    a star deployment behaves byte-identically to a spec with no topology at
    all, and rejects every regional knob.  ``kind="two-tier"`` partitions
    the station order into ``regions`` contiguous slices (balanced, or
    ``stations_per_region`` wide), each served by a regional aggregator.  ``tenant_count`` declares how many
    independent query streams share the deployment (the workload layer binds
    one :class:`~repro.workloads.spec.TenantSpec` per slot).

    Regions named in ``degraded_regions`` run their regional hop under
    ``degraded_profile`` instead of the deployment's fault plan.
    """

    kind: str = "star"
    regions: int = 1
    #: Stations per region slice; ``None`` balances the station order evenly.
    stations_per_region: int | None = None
    tenant_count: int = 1
    #: Regions whose regional hop runs a degraded fault profile.
    degraded_regions: tuple[str, ...] = ()
    degraded_profile: str = "none"

    def __post_init__(self) -> None:
        _require(
            self.kind in TOPOLOGY_KINDS,
            f"topology kind must be one of {TOPOLOGY_KINDS}, got {self.kind!r}",
        )
        _require(
            isinstance(self.regions, int)
            and not isinstance(self.regions, bool)
            and self.regions >= 1,
            f"regions must be a positive integer, got {self.regions!r}",
        )
        _require(
            self.kind != "star" or self.regions == 1,
            f"a star topology has no regional tier; regions must be 1, "
            f"got {self.regions!r}",
        )
        _require(
            self.stations_per_region is None
            or (
                isinstance(self.stations_per_region, int)
                and not isinstance(self.stations_per_region, bool)
                and self.stations_per_region >= 1
            ),
            f"stations_per_region must be a positive integer or None, "
            f"got {self.stations_per_region!r}",
        )
        _require(
            isinstance(self.tenant_count, int)
            and not isinstance(self.tenant_count, bool)
            and self.tenant_count >= 1,
            f"tenant_count must be a positive integer, got {self.tenant_count!r}",
        )
        object.__setattr__(
            self,
            "degraded_regions",
            _str_tuple(self.degraded_regions, "degraded_regions"),
        )
        _require(
            self.degraded_profile in FAULT_PROFILE_CHOICES,
            f"degraded_profile must be one of {FAULT_PROFILE_CHOICES}, "
            f"got {self.degraded_profile!r}",
        )
        region_names = {self.region_name(index) for index in range(self.regions)}
        unknown = [name for name in self.degraded_regions if name not in region_names]
        _require(
            not unknown,
            f"degraded_regions names unknown region(s) {unknown!r}; this "
            f"topology declares {sorted(region_names)}",
        )
        if self.kind == "star":
            regional = [
                spec_field.name
                for spec_field in fields(self)
                if spec_field.name in _REGIONAL_FIELDS
                and getattr(self, spec_field.name) != spec_field.default
            ]
            _require(
                not regional,
                f"a star topology has no regional tier; {', '.join(regional)} "
                f"must keep the default",
            )

    @property
    def is_hierarchical(self) -> bool:
        """Whether rounds route through a regional aggregation tier."""
        return self.kind == "two-tier"

    def region_name(self, index: int) -> str:
        """Canonical name of the ``index``-th region slice."""
        return f"region-{index}"

    def with_updates(self, **changes: object) -> "TopologySpec":
        """A copy of this spec with the given fields replaced (re-validated)."""
        return replace(self, **changes)
