"""Perf-trajectory gate: compare fresh ``BENCH_*.json`` files to baselines.

The bench harness persists every benchmark's numbers as machine-readable
``BENCH_<name>.json`` (:mod:`repro.evaluation.benchjson`); committed baseline
copies live under ``benchmarks/baselines/``.  This module extracts each
payload's *headline metrics* — deliberately only the deterministic
quantities (byte counts, precision, goodput, virtual latency), never
wall-clock timings, so the gate is immune to CI machine noise — and fails
when a fresh value regresses by more than the tolerance (default 25%)
against its baseline.

Run as a CLI (CI's perf-trajectory job)::

    python -m repro.evaluation.trajectory \
        --baseline-dir benchmarks/baselines --fresh-dir benchmarks/results

Exit status 1 means at least one regression (or a baselined benchmark that
no longer emits JSON); new benchmarks without a baseline pass with a notice —
commit their JSON to ``benchmarks/baselines/`` to start tracking them.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.evaluation.benchjson import read_bench_json

#: Default regression tolerance: fail beyond +/-25% of the baseline value.
DEFAULT_TOLERANCE = 0.25

#: Directions a headline metric can prefer.
_HIGHER, _LOWER = "higher", "lower"


@dataclass(frozen=True)
class HeadlineMetric:
    """One tracked quantity of one benchmark."""

    name: str
    value: float
    #: "higher" = regressions are drops (precision), "lower" = growth (bytes).
    direction: str


@dataclass(frozen=True)
class MetricComparison:
    """A baseline/fresh pair for one headline metric."""

    benchmark: str
    metric: str
    direction: str
    baseline: float
    fresh: float | None
    regressed: bool
    note: str = ""

    def render(self) -> str:
        """One human-readable report line."""
        status = "REGRESSED" if self.regressed else "ok"
        fresh = "missing" if self.fresh is None else f"{self.fresh:g}"
        line = (
            f"{status:>9}  {self.benchmark}:{self.metric} "
            f"({self.direction} is better)  baseline={self.baseline:g}  fresh={fresh}"
        )
        return line + (f"  [{self.note}]" if self.note else "")


def headline_metrics(document: dict) -> list[HeadlineMetric]:
    """Extract the deterministic headline metrics of one bench document.

    Payload shapes are detected structurally so new benchmarks of a known
    shape are tracked without touching this module; unknown shapes yield no
    metrics (the gate then only checks the file still exists).
    """
    payload = document.get("payload", {})
    metrics: list[HeadlineMetric] = []
    if "series" in payload and "methods" in payload:  # Figure-4 comparison sweep
        for method in payload["methods"]:
            precision_series = payload["series"].get("precision", {}).get(method)
            if precision_series:
                metrics.append(
                    HeadlineMetric(
                        f"{method}.precision.final", float(precision_series[-1]), _HIGHER
                    )
                )
            byte_series = payload.get("communication_bytes", {}).get(method)
            if byte_series:
                metrics.append(
                    HeadlineMetric(
                        f"{method}.communication_bytes.final",
                        float(byte_series[-1]),
                        _LOWER,
                    )
                )
    if "cumulative" in payload and "totals" in payload:  # workload run
        totals = payload["totals"]
        metrics.append(HeadlineMetric("total_bytes", float(totals["bytes"]), _LOWER))
        cumulative = payload["cumulative"]
        metrics.append(
            HeadlineMetric("precision.mean", float(cumulative["precision"]["mean"]), _HIGHER)
        )
        metrics.append(
            HeadlineMetric("goodput.min", float(cumulative["goodput"]["minimum"]), _HIGHER)
        )
        # Virtual transmission time: deterministic under the seed contract,
        # unlike the wall-clock compute fields (which are never tracked).
        metrics.append(
            HeadlineMetric("latency.p90", float(cumulative["latency_s"]["p90"]), _LOWER)
        )
    if "max_sustainable_qps" in payload:  # open-loop saturation sweep
        sustainable = payload["max_sustainable_qps"]
        if isinstance(sustainable, dict):
            # One entry per executor the sweep ran under (``serial``); the
            # gate tracks each.
            for executor in sorted(sustainable):
                metrics.append(
                    HeadlineMetric(
                        f"max_sustainable_qps.{executor}",
                        float(sustainable[executor]),
                        _HIGHER,
                    )
                )
        else:
            metrics.append(
                HeadlineMetric("max_sustainable_qps", float(sustainable), _HIGHER)
            )
        if "below_saturation_p99_s" in payload:
            # The flat part of the latency curve: p99 while offered load is
            # under capacity.  Growth here means service itself got slower.
            metrics.append(
                HeadlineMetric(
                    "below_saturation_p99_s",
                    float(payload["below_saturation_p99_s"]),
                    _LOWER,
                )
            )
    if "round" in payload and "station_count" in payload:  # 100x-scale round
        round_metrics = payload["round"]
        for key, direction in (
            ("downlink_bytes", _LOWER),
            ("uplink_bytes", _LOWER),
            # Deterministic counts: a drop means reports/matches went missing.
            ("report_count", _HIGHER),
            ("ranked_count", _HIGHER),
        ):
            if key in round_metrics:
                metrics.append(
                    HeadlineMetric(f"round.{key}", float(round_metrics[key]), direction)
                )
        # The digests are strings, so they cannot ride the numeric gate; the
        # benchmark itself (and the parity suites) assert byte-identity.
    if isinstance(payload.get("source"), dict) and "peak_resident" in payload["source"]:
        # Streaming-source soak: residency is the memory bound under test —
        # growth means the LRU cap stopped holding; shrinking declared scale
        # means the soak quietly stopped exercising the census it claims.
        source = payload["source"]
        metrics.append(
            HeadlineMetric("source.peak_resident", float(source["peak_resident"]), _LOWER)
        )
        if "evictions" in source:
            metrics.append(
                HeadlineMetric("source.evictions", float(source["evictions"]), _LOWER)
            )
        if "declared_users" in source:
            metrics.append(
                HeadlineMetric(
                    "source.declared_users", float(source["declared_users"]), _HIGHER
                )
            )
    if isinstance(payload.get("ingress"), dict) and "ratio" in payload["ingress"]:
        # Hierarchy benchmark: the ingress ratio (flat bytes over two-tier
        # bytes at the center's uplink) is the quantity the regional tier
        # exists to improve; both absolute byte counts ride along so a
        # codec-wide bloat cannot hide inside a stable ratio.
        ingress = payload["ingress"]
        metrics.append(HeadlineMetric("ingress.ratio", float(ingress["ratio"]), _HIGHER))
        for key in ("flat_bytes", "two_tier_bytes"):
            if key in ingress:
                metrics.append(
                    HeadlineMetric(f"ingress.{key}", float(ingress[key]), _LOWER)
                )
    if "batch_bytes" in payload:  # wire-codec size benchmark
        for key in ("batch_bytes", "batch_bytes_zlib", "report_upload_bytes"):
            if key in payload:
                metrics.append(HeadlineMetric(key, float(payload[key]), _LOWER))
    return metrics


def _is_regression(
    baseline: float, fresh: float, direction: str, tolerance: float
) -> bool:
    """Whether ``fresh`` regressed past ``tolerance`` relative to ``baseline``."""
    if direction == _LOWER:
        if baseline == 0.0:
            return fresh > 0.0
        return fresh > baseline * (1.0 + tolerance)
    if baseline == 0.0:
        return False  # a zero higher-is-better baseline cannot be undercut
    return fresh < baseline * (1.0 - tolerance)


def compare_documents(
    baseline_doc: dict, fresh_doc: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[MetricComparison]:
    """Compare two bench documents metric by metric."""
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")
    benchmark = baseline_doc.get("benchmark", "?")
    fresh_metrics = {m.name: m for m in headline_metrics(fresh_doc)}
    comparisons = []
    for metric in headline_metrics(baseline_doc):
        fresh = fresh_metrics.get(metric.name)
        if fresh is None:
            comparisons.append(
                MetricComparison(
                    benchmark=benchmark,
                    metric=metric.name,
                    direction=metric.direction,
                    baseline=metric.value,
                    fresh=None,
                    regressed=True,
                    note="metric disappeared from the fresh payload",
                )
            )
            continue
        comparisons.append(
            MetricComparison(
                benchmark=benchmark,
                metric=metric.name,
                direction=metric.direction,
                baseline=metric.value,
                fresh=fresh.value,
                regressed=_is_regression(
                    metric.value, fresh.value, metric.direction, tolerance
                ),
            )
        )
    return comparisons


def compare_directories(
    baseline_dir: "Path | str",
    fresh_dir: "Path | str",
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[list[MetricComparison], list[str]]:
    """Compare every baselined benchmark against its fresh rerun.

    Returns ``(comparisons, notices)``: notices name fresh benchmarks that
    have no baseline yet (informational, never failing).  A baselined file
    with no fresh counterpart is reported as a regression — a benchmark that
    silently stops emitting JSON must not pass the gate.
    """
    baseline_dir, fresh_dir = Path(baseline_dir), Path(fresh_dir)
    baseline_paths = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baseline_paths:
        raise FileNotFoundError(f"no BENCH_*.json baselines under {baseline_dir}")
    comparisons: list[MetricComparison] = []
    for baseline_path in baseline_paths:
        baseline_doc = read_bench_json(baseline_path)
        fresh_path = fresh_dir / baseline_path.name
        if not fresh_path.exists():
            comparisons.append(
                MetricComparison(
                    benchmark=baseline_doc.get("benchmark", baseline_path.name),
                    metric="(file)",
                    direction=_LOWER,
                    baseline=0.0,
                    fresh=None,
                    regressed=True,
                    note=f"{baseline_path.name} was not produced by the fresh run",
                )
            )
            continue
        comparisons.extend(
            compare_documents(baseline_doc, read_bench_json(fresh_path), tolerance)
        )
    baseline_names = {path.name for path in baseline_paths}
    notices = [
        f"no baseline for {path.name} — commit it to start tracking"
        for path in sorted(fresh_dir.glob("BENCH_*.json"))
        if path.name not in baseline_names
    ]
    return comparisons, notices


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; exit 1 when any headline metric regressed."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation.trajectory",
        description="Fail when fresh BENCH_*.json results regress vs committed baselines.",
    )
    parser.add_argument("--baseline-dir", default="benchmarks/baselines")
    parser.add_argument("--fresh-dir", default="benchmarks/results")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative drift of each headline metric (default 0.25 = 25%%)",
    )
    args = parser.parse_args(argv)
    comparisons, notices = compare_directories(
        args.baseline_dir, args.fresh_dir, args.tolerance
    )
    for comparison in comparisons:
        print(comparison.render())
    for notice in notices:
        print(f"   notice  {notice}")
    regressions = [c for c in comparisons if c.regressed]
    print(
        f"{len(comparisons)} headline metric(s) checked, "
        f"{len(regressions)} regression(s), tolerance {args.tolerance:.0%}"
    )
    return 1 if regressions else 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
