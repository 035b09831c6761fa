"""Seeded fault plans for the deterministic event-driven network.

A :class:`FaultPlan` declares *what* can go wrong on the simulated backhaul —
frame loss, duplication, payload corruption, reordering delays, per-station
latency jitter, straggler links and station blackout windows — while a
:class:`FaultInjector` decides *when*, deterministically: every decision is a
pure function of ``(net seed, frame id, attempt)`` or ``(net seed, station
id)``, never of global RNG state or event interleaving.  Two runs with the
same seeds therefore inject byte-identical faults, which is what lets the
simulation-test harness replay a failing schedule from nothing but its seed
triple (FoundationDB-style deterministic simulation testing).

Named profiles (:data:`FAULT_PROFILES`) give the CLI, the experiments and the
test grid a shared vocabulary; the profile *names* live in
:data:`repro.core.config.FAULT_PROFILE_CHOICES` so the dependency-light core
package can validate configurations without importing this module.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace

from repro.core.config import FAULT_PROFILE_CHOICES

#: Fixed odd multipliers mixing the seed components into one RNG seed.  The
#: values are arbitrary large primes; what matters is that the mix is a pure
#: integer function (``hash()`` of strings is process-salted and must never be
#: used here).
_SEED_MIX_A = 0x9E3779B97F4A7C15
_SEED_MIX_B = 0xC2B2AE3D27D4EB4F
_SEED_MIX_C = 0x165667B19E3779F9


def _station_key(station_id: str) -> int:
    """Stable integer identity of a station (crc32 — never builtin ``hash``)."""
    return zlib.crc32(station_id.encode("utf-8"))


def _mixed_rng(*parts: int) -> random.Random:
    """A ``random.Random`` seeded from integer parts, stable across processes."""
    seed = _SEED_MIX_C
    for mix, part in zip((_SEED_MIX_A, _SEED_MIX_B, _SEED_MIX_C) * len(parts), parts):
        seed = (seed ^ (int(part) + mix)) * _SEED_MIX_A % (1 << 64)
    return random.Random(seed)


def _require_probability(value: float, name: str) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not 0.0 <= float(value) <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")


def _require_non_negative(value: float, name: str) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if float(value) < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults a simulated round is exposed to.

    All probabilities are per transmitted frame (retransmissions re-roll with a
    fresh attempt number); jitter, stragglers and blackouts are per *station*,
    drawn once per round from the network seed so a straggler link stays slow
    for the whole round.
    """

    #: Probability a data frame is silently lost in transit.
    drop_probability: float = 0.0
    #: Probability the network delivers a second copy of a frame.
    duplicate_probability: float = 0.0
    #: Probability the frame's payload bytes are corrupted in transit.
    corrupt_probability: float = 0.0
    #: Probability a frame is held back and delivered late (reordering).
    reorder_probability: float = 0.0
    #: Extra in-flight delay applied to reordered frames, in seconds.
    reorder_delay_s: float = 0.05
    #: Upper bound of the uniform per-frame latency jitter, in seconds.
    jitter_s: float = 0.0
    #: Probability a station's link is a straggler for the round.
    straggler_probability: float = 0.0
    #: Transfer-time multiplier applied on straggler links (>= 1).
    straggler_multiplier: float = 1.0
    #: Probability a station is blacked out during the blackout window.
    blackout_probability: float = 0.0
    #: Virtual-time window (per phase) during which blacked-out stations
    #: neither send nor receive; frames emitted in the window are lost.
    blackout_start_s: float = 0.0
    blackout_end_s: float = 0.0
    #: Profile name, for reports and transcripts ("custom" for ad-hoc plans).
    name: str = "custom"

    def __post_init__(self) -> None:
        _require_probability(self.drop_probability, "drop_probability")
        _require_probability(self.duplicate_probability, "duplicate_probability")
        _require_probability(self.corrupt_probability, "corrupt_probability")
        _require_probability(self.reorder_probability, "reorder_probability")
        _require_probability(self.straggler_probability, "straggler_probability")
        _require_probability(self.blackout_probability, "blackout_probability")
        _require_non_negative(self.reorder_delay_s, "reorder_delay_s")
        _require_non_negative(self.jitter_s, "jitter_s")
        _require_non_negative(self.blackout_start_s, "blackout_start_s")
        _require_non_negative(self.blackout_end_s, "blackout_end_s")
        if self.straggler_multiplier < 1.0:
            raise ValueError(
                f"straggler_multiplier must be >= 1, got {self.straggler_multiplier!r}"
            )
        if self.blackout_end_s < self.blackout_start_s:
            raise ValueError("blackout_end_s must be >= blackout_start_s")
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"name must be a non-empty string, got {self.name!r}")

    @property
    def is_fault_free(self) -> bool:
        """True when the plan can never perturb a transmission.

        The fault-free plan is the parity anchor: under it the event-driven
        network reproduces the legacy accounting model's bytes and latencies
        exactly, which the simulation harness asserts.
        """
        return (
            self.drop_probability == 0.0
            and self.duplicate_probability == 0.0
            and self.corrupt_probability == 0.0
            and self.reorder_probability == 0.0
            and self.jitter_s == 0.0
            and self.straggler_probability == 0.0
            and self.blackout_probability == 0.0
        )

    def with_updates(self, **changes: object) -> "FaultPlan":
        """A copy of this plan with the given fields replaced."""
        return replace(self, **changes)


#: Named fault profiles shared by the CLI, the experiments and the test grid.
#: Keys must match :data:`repro.core.config.FAULT_PROFILE_CHOICES` exactly.
FAULT_PROFILES: dict[str, FaultPlan] = {
    "none": FaultPlan(name="none"),
    "lossy": FaultPlan(name="lossy", drop_probability=0.15, jitter_s=0.01),
    "duplicating": FaultPlan(name="duplicating", duplicate_probability=0.25, jitter_s=0.005),
    "corrupting": FaultPlan(name="corrupting", corrupt_probability=0.2),
    "reordering": FaultPlan(
        name="reordering", reorder_probability=0.35, reorder_delay_s=0.08, jitter_s=0.01
    ),
    "straggler": FaultPlan(
        name="straggler", straggler_probability=0.4, straggler_multiplier=8.0
    ),
    "blackout": FaultPlan(
        name="blackout",
        blackout_probability=0.35,
        blackout_start_s=0.0,
        blackout_end_s=0.3,
        drop_probability=0.05,
    ),
    "chaos": FaultPlan(
        name="chaos",
        drop_probability=0.1,
        duplicate_probability=0.1,
        corrupt_probability=0.1,
        reorder_probability=0.2,
        reorder_delay_s=0.05,
        jitter_s=0.02,
        straggler_probability=0.25,
        straggler_multiplier=4.0,
    ),
}

if set(FAULT_PROFILES) != set(FAULT_PROFILE_CHOICES):  # pragma: no cover - import guard
    raise RuntimeError(
        "FAULT_PROFILES keys must match repro.core.config.FAULT_PROFILE_CHOICES"
    )


def resolve_fault_plan(profile: "FaultPlan | str | None") -> FaultPlan:
    """Resolve a profile name (or pass through a plan) into a :class:`FaultPlan`."""
    if profile is None:
        return FAULT_PROFILES["none"]
    if isinstance(profile, FaultPlan):
        return profile
    if isinstance(profile, str):
        try:
            return FAULT_PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown fault profile {profile!r}; expected one of {sorted(FAULT_PROFILES)}"
            ) from None
    raise TypeError(f"profile must be a FaultPlan, a profile name or None, got {profile!r}")


@dataclass(frozen=True)
class FrameFaults:
    """The fault decisions for one physical frame transmission."""

    drop: bool
    duplicate: bool
    corrupt: bool
    reorder_delay_s: float
    jitter_s: float


#: The one decision every frame gets under a fault-free plan, shared instead
#: of allocated per frame.
NO_FRAME_FAULTS = FrameFaults(False, False, False, 0.0, 0.0)


class FaultInjector:
    """Deterministic per-frame and per-station fault decisions.

    Every decision is drawn from an RNG seeded purely by ``(seed, frame id,
    attempt)`` (frames) or ``(seed, crc32(station id))`` (stations), so the
    outcome is independent of call order and event interleaving — the replay
    guarantee the transcript tests pin.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise TypeError(f"seed must be an integer, got {seed!r}")
        self._plan = plan
        self._seed = seed
        self._fault_free = plan.is_fault_free

    @property
    def plan(self) -> FaultPlan:
        """The fault plan decisions are drawn from."""
        return self._plan

    @property
    def seed(self) -> int:
        """The network seed all decisions derive from."""
        return self._seed

    def frame_faults(self, frame_id: int, attempt: int) -> FrameFaults:
        """Fault decisions for attempt ``attempt`` of frame ``frame_id``.

        The draw order within the RNG is fixed (drop, duplicate, corrupt,
        reorder, jitter) so adding a new fault type to the *end* preserves all
        existing decisions for a given seed.
        """
        if self._fault_free:
            return NO_FRAME_FAULTS
        plan = self._plan
        rng = _mixed_rng(self._seed, frame_id, attempt)
        drop = rng.random() < plan.drop_probability
        duplicate = rng.random() < plan.duplicate_probability
        corrupt = rng.random() < plan.corrupt_probability
        reorder = rng.random() < plan.reorder_probability
        jitter = rng.random() * plan.jitter_s if plan.jitter_s else 0.0
        return FrameFaults(
            drop=drop,
            duplicate=duplicate,
            corrupt=corrupt,
            reorder_delay_s=plan.reorder_delay_s if reorder else 0.0,
            jitter_s=jitter,
        )

    def straggler_multiplier(self, station_id: str) -> float:
        """Transfer-time multiplier of ``station_id``'s link for this round."""
        plan = self._plan
        if plan.straggler_probability == 0.0 or plan.straggler_multiplier == 1.0:
            return 1.0
        rng = _mixed_rng(self._seed, _station_key(station_id), 1)
        if rng.random() < plan.straggler_probability:
            return plan.straggler_multiplier
        return 1.0

    def blackout_window(self, station_id: str) -> tuple[float, float] | None:
        """The per-phase virtual-time window ``station_id`` is dark, if any."""
        plan = self._plan
        if plan.blackout_probability == 0.0 or plan.blackout_end_s == plan.blackout_start_s:
            return None
        rng = _mixed_rng(self._seed, _station_key(station_id), 2)
        if rng.random() < plan.blackout_probability:
            return (plan.blackout_start_s, plan.blackout_end_s)
        return None

    def corrupt_bytes(self, data: bytes, frame_id: int, attempt: int) -> bytes:
        """A deterministically corrupted copy of ``data`` (always differs)."""
        if not data:
            return b"\x00"
        rng = _mixed_rng(self._seed, frame_id, attempt, 3)
        corrupted = bytearray(data)
        index = rng.randrange(len(corrupted))
        corrupted[index] ^= 1 + rng.randrange(255)
        return bytes(corrupted)
