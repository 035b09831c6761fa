#!/usr/bin/env python3
"""Wall-clock system benchmark of the whole round pipeline.

One workload, in this process:

    python3 benchmarks/system/run.py --workload star-10k [--seed N] [--seconds S] [--trace 0|1] [--smoke]

All five workloads, each in its own child process, one at a time:

    python3 benchmarks/system/run.py [--seconds S] [--trace 0|1] [--smoke]

A run pins itself to one CPU, sets the deployment up (several times;
``setup_s`` is the median), then drives closed-loop operations for
``--seconds`` seconds and checks every result.  Every time it reports is
corrected for CPU contention by ``cpuprobe.py``; the raw wall-clock values are
reported beside them.  With ``--trace 1`` it sets up once, traces every second
operation, writes the spans as JSONL and reports the per-layer metrics
instead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; everything is also
written to ``benchmarks/results/system/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results" / "system"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402  (raises ImportError when the checkout has no src/)

from cpuprobe import Probe  # noqa: E402
from tracing import Tracer, breakdown, format_table, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metric -> unit, in the order they are printed.
END_TO_END_UNITS = {
    "setup_s": "s",
    "round_p50_s": "s",
    "rounds_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
#: A p90 is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    from repro.bloom.backend import resolve_backend_class

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "bit_backend": resolve_backend_class("auto").name,
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def pin_to_one_cpu() -> int:
    """Pin the client, and every thread and process it starts, to one CPU.

    Unpinned, where the scheduler places the client and the TCP workers, and
    how often it migrates them, changes from run to run; on the 2-CPU host
    this benchmark was built on that made tcp-8 round times spread by 17%
    across runs against 11% pinned.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_average(nproc: int, when: str) -> float:
    load = os.getloadavg()[0]
    if load > nproc:
        cause = (
            "other processes compete for the CPU"
            if when == "before"
            else "this includes the run's own processes"
        )
        print(
            f"warning: 1-minute load average {load:.2f} {when} the workload exceeds "
            f"nproc {nproc}; {cause}",
            file=sys.stderr,
        )
    return load


def measure(workload, state, seconds: float, ops: int | None, tracer: Tracer | None = None):
    """Closed loop: one operation at a time until the time (or op count) is spent.

    The loop stops once half of another operation would overrun the budget,
    so on average it measures ``seconds`` whatever the operation length.
    With a tracer, every second operation is traced: traced and untraced
    operations then see the same machine conditions, so the ratio of their
    medians is the tracing overhead rather than drift between two halves.
    """
    samples, errors = [], []
    start = time.perf_counter()
    while True:
        index = len(samples)
        op_start = time.perf_counter()
        try:
            if tracer is None or index % 2 == 0:
                sample = workload.op(state, index)
            else:
                with tracer.installed():
                    sample = workload.op(
                        state, index, lambda: tracer.root(workload.root_span, index)
                    )
                tracer.set_rounds(index, sample.rounds)
                sample.traced = True
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            errors.append(f"op {index}")
            break
        samples.append(sample)
        now = time.perf_counter()
        if ops is not None:
            if len(samples) >= ops:
                break
        elif now - start + (now - op_start) / 2 >= seconds and len(samples) >= workload.min_ops:
            break
    return samples, (start, time.perf_counter()), errors


def raw(start: float, end: float) -> float:
    return end - start


def end_to_end(setup_spans, samples, loop_span, peak_rss_mb, seconds=raw) -> dict:
    """The gated metrics, every interval measured with ``seconds(start, end)``."""
    values = {
        "setup_s": statistics.median(seconds(*span) for span in setup_spans),
        "round_p50_s": statistics.median(
            seconds(*span) for sample in samples for span in sample.round_spans
        ),
        "rounds_per_s": sum(sample.rounds for sample in samples) / seconds(*loop_span),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def extras(workload, setup_spans, samples, loop_span, probe) -> dict:
    """Reported beside the end-to-end metrics but not gated by BENCHMARK.json."""
    round_times = [probe.corrected(*span) for sample in samples for span in sample.round_spans]
    # Bytes are a pure function of the seed, so they are averaged over the
    # first schedule cycle whatever the loop length.  They vary with the
    # seed's content, not with noise; the checks pin them exactly.
    cycle = samples[: workload.min_ops]
    values = {
        "rounds": (len(round_times), "count"),
        "downlink_bytes": (statistics.mean(b for s in cycle for b in s.downlink), "bytes"),
        "uplink_bytes": (statistics.mean(b for s in cycle for b in s.uplink), "bytes"),
        "cpu_slowdown": (probe.slowdown(*loop_span), "ratio"),
    }
    if len(round_times) >= P90_MIN_SAMPLES:
        values["round_p90_s"] = (statistics.quantiles(round_times, n=10)[-1], "s")
    values.update(workload.extra_metrics(samples, probe.corrected))
    for name, metric in end_to_end(setup_spans, samples, loop_span, 0.0).items():
        if name != "peak_rss_mb":
            values[f"wall_{name}"] = (metric["value"], metric["unit"])
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_one(args) -> int:
    if Path(repro.__file__).resolve().parents[1] != SRC:
        print(f"repro was imported from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    RESULTS.mkdir(parents=True, exist_ok=True)
    # TCP worker logs and any other temp files stay inside the checkout.
    tempfile.tempdir = str(RESULTS / "tmp")
    os.makedirs(tempfile.tempdir, exist_ok=True)
    info = fingerprint()
    load_before = load_average(info["nproc"], "before")
    info["pinned_cpu"] = pin_to_one_cpu()
    ops = workload.smoke_ops if args.smoke else None
    tracer = Tracer() if args.trace else None

    setup_spans, state = [], None
    with Probe() as probe:
        for _ in range(1 if tracer else workload.setup_reps):
            if state is not None:
                workload.close(state)
                state = None
                gc.collect()
            start = time.perf_counter()
            if tracer is None:
                state = workload.setup(seed, args.smoke)
            else:
                with tracer.installed(), tracer.root("setup", "setup"):
                    state = workload.setup(seed, args.smoke)
            setup_spans.append((start, time.perf_counter()))
        # The deployment's long-lived heap (hundreds of thousands of objects
        # at 10k stations) would otherwise be rescanned by every full
        # collection, a cost that swings by a third of a round from run to
        # run.  Freezing it keeps that out of the rounds; collections of what
        # rounds allocate still count.
        gc.collect()
        gc.freeze()
        try:
            samples, loop_span, errors = measure(workload, state, args.seconds, ops, tracer)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            try:
                failures = workload.check(state, samples, seed, args.smoke)
            except Exception:
                traceback.print_exc()
                failures = [("check", "the checks raised")]
        finally:
            workload.close(state)
    load_after = load_average(info["nproc"], "after")

    for label, message in failures:
        print(f"check failed [{label}]: {message}", file=sys.stderr)
    attempted = len(setup_spans) + len(samples) + len(errors)
    failed = len({label for label, _ in failures} | set(errors))
    result = {
        "workload": workload.name,
        "seed": seed,
        "default_seed": seed == workload.default_seed,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": info,
        "load_avg_1m": {"before": load_before, "after": load_after},
        "probe_samples": probe.sample_count,
        "setup_reps": len(setup_spans),
        "error_rate": failed / attempted,
        "failures": failures,
    }
    if tracer is None:
        metrics = end_to_end(setup_spans, samples, loop_span, peak_rss_mb, probe.corrected)
        result["extra"] = extras(workload, setup_spans, samples, loop_span, probe)
    else:
        roots = breakdown(tracer.records())
        metrics = layer_metrics(roots, probe.slowdown)
        traced = [sample for sample in samples if sample.traced]

        def round_p50(group):
            return statistics.median(
                probe.corrected(*span) for sample in group for span in sample.round_spans
            )

        plain_p50 = round_p50([sample for sample in samples if not sample.traced])
        traced_p50 = round_p50(traced)
        metrics["trace.overhead_frac"] = {"value": traced_p50 / plain_p50 - 1, "unit": "fraction"}
        for name, value in workload.layer_counts(traced).items():
            metrics[name] = {"value": value, "unit": "count"}
        trace_path = RESULTS / f"trace-{workload.name}-seed{seed}.jsonl"
        tracer.write_jsonl(trace_path, {"workload": workload.name, "seed": seed, **info})
        result["trace_file"] = str(trace_path.relative_to(ROOT))
        result["extra"] = {
            "untraced_round_p50_s": {"value": plain_p50, "unit": "s"},
            "traced_round_p50_s": {"value": traced_p50, "unit": "s"},
            "cpu_slowdown": {"value": probe.slowdown(*loop_span), "unit": "ratio"},
        }
    result["metrics"] = metrics
    (RESULTS / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, default=str) + "\n", encoding="utf-8"
    )

    print(f"workload {workload.name}  seed {seed}{' (default)' if result['default_seed'] else ''}"
          f"  {'smoke' if args.smoke else f'{args.seconds:g} s'}  trace {args.trace}")
    print("fingerprint " + " ".join(f"{key}={value}" for key, value in info.items()))
    print(f"load_avg_1m before={load_before:.2f} after={load_after:.2f}")
    print(f"correct={not failures and not errors}  attempted={attempted}  failed={failed}  "
          f"error_rate={result['error_rate']:.4f}")
    for section in ("metrics", "extra"):
        for name, metric in result[section].items():
            print(f"  {name:<28} {metric['value']:>16.6f} {metric['unit']}")
    if workload.name == "tcp-8" and tracer is None:
        print("  (peak_rss_mb is the client process only; it excludes the worker processes)")
    if tracer is not None:
        print(format_table(roots))
        print(f"trace written to {result['trace_file']}")
    print(json.dumps({
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        if args.smoke:
            command.append("--smoke")
        returncode = subprocess.run(command, cwd=ROOT).returncode
        status = status or returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured loop length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale and a fixed operation count, for tests")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
