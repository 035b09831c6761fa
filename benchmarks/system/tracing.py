"""Span tracer for the system benchmark, installed from outside the program.

The tracer wraps each layer's public entry points (class and module
attributes of ``repro``) with a span recorder for the duration of a traced
loop, then restores the originals.  Nothing under ``src/`` knows about it.

A span records ``id``, ``parent``, ``round``, ``name``, ``start_ns`` and
``end_ns`` (``time.perf_counter_ns``).  Counts are recorded at the same
boundaries and attach to the innermost open span.  Everything stays in memory
until :meth:`Tracer.write_jsonl` runs at the end of the benchmark.

Self time is a span's duration minus the union of its children's intervals,
so for a well-nested trace the self times of one round sum exactly to the
round's wall time; :attr:`RootBreakdown.error` measures how far a trace is
from that.  Only the main thread keeps a span stack.  A span opened on another
thread (the TCP transport's event loop) becomes a child of the main thread's
innermost open span, which is blocked waiting on that thread's work.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
from threading import get_ident
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Iterable, Iterator

#: Root span names.  The benchmark opens one root per measured operation.
#: ``round`` roots belong to the facade: time no child span covers is facade
#: self time.  ``engine`` roots wrap one ``run_workload`` call, so their
#: uncovered time is workload-engine overhead.  ``setup`` roots wrap one
#: set-up and are excluded from the per-round numbers.
ROOT_LAYERS = {"round": "facade", "engine": "engine", "setup": "setup"}

#: Span name -> layer, where several entry points feed one layer.  Every
#: other span name is its own layer.
SPAN_LAYERS = {
    "facade.round": "facade",
    "facade.drive": "facade",
    "facade.step": "facade",
    "facade.retire": "facade",
    "facade.subscribe": "facade",
    "transport.downlink": "transport",
    "transport.uplink": "transport",
    "router.summarize": "router",
    "session.update": "session",
    "session.ship": "session",
    "session.rotate": "session",
}


def _calls(name: str) -> Callable:
    def count(tracer: "Tracer", args: tuple, result: object) -> None:
        tracer.count(name, 1)

    return count


def _matched(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.count("match.stations", 1)
    tracer.count("match.reports", len(result))


def _reports_in(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.count("aggregate.reports_in", len(args[1]))


def _frames(tracer: "Tracer", args: tuple, result: object) -> None:
    # Every per-round transport instance ends with exactly one gather, so the
    # cumulative ledger read here covers that instance's whole round.
    stats = args[0].frame_stats()
    tracer.count("transport.frames", stats.frames_sent)
    tracer.count("transport.retransmits", stats.retransmit_count)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module[.owner].attr`` recorded as ``span``.

    ``outermost`` spans open only when no span of the same name is open, so
    a layer entered through two nested entry points is timed once (counts
    are still recorded on every call).
    """

    module: str
    owner: str | None
    attr: str
    span: str
    outermost: bool = False
    count: Callable | None = None


TARGETS = (
    Target("repro.cluster.facade", "Cluster", "round", "facade.round"),
    Target("repro.cluster.facade", "Cluster", "drive", "facade.drive"),
    Target("repro.cluster.facade", "ClusterSession", "step", "facade.step"),
    Target("repro.cluster.facade", "Cluster", "publish", "facade.publish"),
    Target("repro.cluster.facade", "Cluster", "retire", "facade.retire"),
    Target("repro.cluster.facade", "Cluster", "subscribe", "facade.subscribe"),
    Target("repro.core.dimatching", "DIMatchingProtocol", "encode", "encode",
           count=_calls("encode.calls")),
    Target("repro.distributed.messages", "Message", "to_wire", "wire.encode",
           count=_calls("wire.encode_calls")),
    Target("repro.distributed.messages", "Message", "from_wire", "wire.decode",
           count=_calls("wire.decode_calls")),
    Target("repro.distributed.network", "SimulatedNetwork", "broadcast",
           "transport.downlink"),
    Target("repro.distributed.network", "SimulatedNetwork", "gather",
           "transport.uplink", count=_frames),
    Target("repro.distributed.transport.tcp", "TcpTransport", "broadcast",
           "transport.downlink"),
    Target("repro.distributed.transport.tcp", "TcpTransport", "gather",
           "transport.uplink", count=_frames),
    Target("repro.distributed.executor", "ShardedStationRunner", "run", "match",
           outermost=True),
    Target("repro.core.dimatching", "DIMatchingProtocol", "station_match", "match",
           outermost=True, count=_matched),
    Target("repro.core.dimatching", "DIMatchingProtocol", "aggregate", "aggregate",
           outermost=True, count=_reports_in),
    # The facade imports the router's functions by name, so they are patched
    # where the facade looks them up.
    Target("repro.cluster.facade", None, "run_two_tier_round", "router"),
    Target("repro.cluster.facade", None, "ship_two_tier_deltas", "router"),
    Target("repro.topology.aggregator", "RegionalAggregator", "summarize",
           "router.summarize"),
    Target("repro.core.streaming", "ContinuousMatchingSession", "update_station",
           "session.update", count=_calls("session.update_calls")),
    Target("repro.core.streaming", "ContinuousMatchingSession", "ship_deltas",
           "session.ship"),
    Target("repro.core.streaming", "ContinuousMatchingSession", "replace_queries",
           "session.rotate"),
    # The benchmark calls the scale-dataset functions through their module, so these
    # module attributes are the ones it looks up.
    Target("repro.datagen.scale", None, "build_scale_dataset", "datagen.build"),
    Target("repro.datagen.scale", None, "build_scale_queries", "datagen.build"),
    Target("repro.datagen.streaming", "StreamingStationSource", "local_patterns_at",
           "datagen.materialize", count=_calls("datagen.materialize_calls")),
)


class Tracer:
    """In-memory span and count recorder."""

    def __init__(self) -> None:
        #: ``(id, parent, round, name, start_ns, end_ns)``, in end order.
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.root_rounds: dict[int, int] = {}
        self.round_id: object = None
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        #: Open spans per name, kept for ``outermost`` targets only.
        self._open: Counter = Counter()
        self._main = threading.main_thread().ident

    # -- recording -------------------------------------------------------------

    def count(self, name: str, n: int) -> None:
        """Add ``n`` to ``name`` on the innermost open span (if any)."""
        if self._stack:
            self.counts[(self._stack[-1], self.round_id, name)] += n

    @contextmanager
    def root(self, name: str, round_id: object) -> Iterator[None]:
        """Open one root span.  Wrapped calls outside any root record nothing."""
        self.round_id = round_id
        span_id = next(self._ids)
        self._stack.append(span_id)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append((span_id, None, round_id, name, start, perf_counter_ns()))
            self._stack.pop()
            self.round_id = None

    def set_rounds(self, round_id: object, rounds: int) -> None:
        """How many measured rounds the root of ``round_id`` covered."""
        self.root_rounds[round_id] = rounds

    # -- installation ----------------------------------------------------------

    def _wrap(self, original: Callable, target: Target) -> Callable:
        # The wrapper runs tens of thousands of times per 10k-station round,
        # so it binds everything it touches as locals, calls no methods, and
        # stores each span as one tuple of atoms, which the cyclic garbage
        # collector stops tracking.
        tracer, name, outermost, count = self, target.span, target.outermost, target.count
        spans, stack, open_names, ids, main = (
            self.spans, self._stack, self._open, self._ids, self._main
        )

        def traced(*args, **kwargs):
            if not stack or (outermost and open_names[name]):
                result = original(*args, **kwargs)
            else:
                # Only the main thread keeps a stack; a span from another
                # thread hangs under the main thread's innermost open span.
                on_main = get_ident() == main
                span_id, parent, round_id = next(ids), stack[-1], tracer.round_id
                if on_main:
                    stack.append(span_id)
                    if outermost:
                        open_names[name] += 1
                start = perf_counter_ns()
                try:
                    result = original(*args, **kwargs)
                finally:
                    spans.append((span_id, parent, round_id, name, start, perf_counter_ns()))
                    if on_main:
                        stack.pop()
                        if outermost:
                            open_names[name] -= 1
            if count is not None:
                count(tracer, args, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every :data:`TARGETS` entry point; restore them on exit."""
        saved: list[tuple[object, str, object]] = []
        try:
            for target in TARGETS:
                module = importlib.import_module(target.module)
                owner = module if target.owner is None else getattr(module, target.owner)
                descriptor = (
                    owner.__dict__[target.attr]
                    if isinstance(owner, type)
                    else getattr(owner, target.attr)
                )
                saved.append((owner, target.attr, descriptor))
                if isinstance(descriptor, classmethod):
                    wrapped = classmethod(self._wrap(descriptor.__func__, target))
                else:
                    wrapped = self._wrap(descriptor, target)
                setattr(owner, target.attr, wrapped)
            yield self
        finally:
            for owner, attr, descriptor in reversed(saved):
                setattr(owner, attr, descriptor)

    # -- output ----------------------------------------------------------------

    def records(self) -> Iterator[dict]:
        for span_id, parent, round_id, name, start, end in self.spans:
            record = {
                "type": "span", "id": span_id, "parent": parent, "round": round_id,
                "name": name, "start_ns": start, "end_ns": end,
            }
            if parent is None and round_id in self.root_rounds:
                record["rounds"] = self.root_rounds[round_id]
            yield record
        for (span_id, round_id, name), n in self.counts.items():
            yield {"type": "count", "span": span_id, "round": round_id, "name": name, "n": n}

    def write_jsonl(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "meta", **meta}) + "\n")
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


# -- analysis (shared by the runner and summarize.py) ---------------------------


@dataclass
class RootBreakdown:
    """Per-layer self time and counts inside one root span."""

    name: str
    round_id: object
    start_ns: int
    wall_ns: int
    rounds: int
    self_ns: dict
    counts: Counter

    @property
    def error(self) -> float:
        """|sum of self times - wall| / wall; 0 for a well-nested trace."""
        return abs(sum(self.self_ns.values()) - self.wall_ns) / max(self.wall_ns, 1)


def _covered_ns(start: int, end: int, children: list[tuple[int, int]]) -> int:
    covered, cursor = 0, start
    for child_start, child_end in sorted(children):
        child_start, child_end = max(child_start, cursor), min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return covered


def breakdown(records: Iterable[dict]) -> list[RootBreakdown]:
    """Fold span and count records into one :class:`RootBreakdown` per root."""
    spans: dict[int, dict] = {}
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    counts: list[dict] = []
    for record in records:
        if record["type"] == "span":
            spans[record["id"]] = record
            if record["parent"] is not None:
                children[record["parent"]].append((record["start_ns"], record["end_ns"]))
        elif record["type"] == "count":
            counts.append(record)

    def root_of(span_id):
        while spans[span_id]["parent"] is not None:
            span_id = spans[span_id]["parent"]
        return span_id

    roots = {
        span_id: RootBreakdown(
            name=span["name"],
            round_id=span["round"],
            start_ns=span["start_ns"],
            wall_ns=span["end_ns"] - span["start_ns"],
            rounds=span.get("rounds", 1),
            self_ns=defaultdict(int),
            counts=Counter(),
        )
        for span_id, span in spans.items()
        if span["parent"] is None
    }
    for span_id, span in spans.items():
        start, end = span["start_ns"], span["end_ns"]
        self_ns = end - start - _covered_ns(start, end, children.get(span_id, []))
        if span["parent"] is None:
            layer = ROOT_LAYERS.get(span["name"], span["name"])
        else:
            layer = SPAN_LAYERS.get(span["name"], span["name"])
        roots[root_of(span_id)].self_ns[layer] += self_ns
    for record in counts:
        if record["span"] is not None:
            roots[root_of(record["span"])].counts[record["name"]] += record["n"]
    return list(roots.values())


def measured(roots: list[RootBreakdown]) -> list[RootBreakdown]:
    return [root for root in roots if root.name != "setup"]


#: Per-layer metric -> (unit, layers summed) for self-time metrics in seconds
#: per measured round.  Only layers every workload exercises are reported in
#: seconds; workload-specific layers are reported as shares (see SHARE_METRICS).
SECONDS_METRICS = {
    "encode.s": ("encode",),
    "wire.encode_s": ("wire.encode",),
    "wire.decode_s": ("wire.decode",),
    "transport.self_s": ("transport",),
    "match.s": ("match",),
    "aggregate.s": ("aggregate",),
    "facade.self_s": ("facade", "facade.publish"),
}
#: Share of the measured wall time spent in a layer that only some workloads use.
SHARE_METRICS = {
    "router.share": ("router",),
    "session.share": ("session",),
    "facade.publish_share": ("facade.publish",),
    "engine.share": ("engine",),
    "datagen.materialize_share": ("datagen.materialize",),
}
#: Counts per measured round.
COUNT_METRICS = (
    "encode.calls",
    "wire.encode_calls",
    "wire.decode_calls",
    "transport.frames",
    "transport.retransmits",
    "match.stations",
    "match.reports",
    "aggregate.reports_in",
    "datagen.materialize_calls",
    "session.update_calls",
)


def layer_metrics(roots: list[RootBreakdown], slowdown: Callable | None = None) -> dict[str, dict]:
    """Per-layer metrics over the measured roots, plus ``datagen.setup_s``.

    ``slowdown(start_s, end_s)``, when given, divides each root's self times,
    so the seconds are corrected like the end-to-end times (see cpuprobe.py).
    """

    def seconds(root: RootBreakdown, layers: tuple[str, ...]) -> float:
        factor = 1.0
        if slowdown is not None:
            factor = slowdown(root.start_ns / 1e9, (root.start_ns + root.wall_ns) / 1e9)
        return sum(root.self_ns.get(layer, 0) for layer in layers) / 1e9 / factor

    loop = measured(roots)
    rounds = sum(root.rounds for root in loop) or 1
    wall = sum(root.wall_ns for root in loop) or 1
    totals: Counter = Counter()
    counts: Counter = Counter()
    for root in loop:
        totals.update(root.self_ns)
        counts.update(root.counts)
    metrics: dict[str, tuple[float, str]] = {}
    for name, layers in SECONDS_METRICS.items():
        metrics[name] = (sum(seconds(root, layers) for root in loop) / rounds, "s")
    for name, layers in SHARE_METRICS.items():
        metrics[name] = (sum(totals[layer] for layer in layers) / wall, "fraction")
    for name in COUNT_METRICS:
        metrics[name] = (counts[name] / rounds, "count")
    setups = [root for root in roots if root.name == "setup"]
    datagen = ("datagen.build", "datagen.materialize")
    metrics["datagen.setup_s"] = (
        statistics.mean(seconds(root, datagen) for root in setups) if setups else 0.0, "s"
    )
    metrics["trace.reconcile_err"] = (
        max((root.error for root in roots), default=0.0), "fraction"
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def layer_table(roots: list[RootBreakdown]) -> list[tuple[str, float, float]]:
    """``(layer, median self seconds per round, share of wall)`` rows, largest first."""
    loop = measured(roots)
    wall = sum(root.wall_ns for root in loop) or 1
    layers = sorted({layer for root in loop for layer in root.self_ns})
    rows = []
    for layer in layers:
        per_round = [root.self_ns.get(layer, 0) / root.rounds / 1e9 for root in loop]
        share = sum(root.self_ns.get(layer, 0) for root in loop) / wall
        rows.append((layer, statistics.median(per_round), share))
    return sorted(rows, key=lambda row: -row[2])


def format_table(roots: list[RootBreakdown]) -> str:
    loop = measured(roots)
    lines = [f"{'layer':<22}{'median self/round (s)':>24}{'share':>9}"]
    for layer, median_s, share in layer_table(roots):
        lines.append(f"{layer:<22}{median_s:>24.6f}{share:>9.1%}")
    counts: Counter = Counter()
    for root in loop:
        counts.update(root.counts)
    rounds = sum(root.rounds for root in loop) or 1
    lines.append(f"counts per round over {rounds} measured round(s):")
    for name in sorted(counts):
        lines.append(f"  {name:<26}{counts[name] / rounds:>14.2f}")
    return "\n".join(lines)
