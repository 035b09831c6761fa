"""CPU-speed probe: corrects wall-clock times for a contended CPU.

On a shared VM a vCPU alternates between running at full speed and running
slower (about 1.65x on the 2-CPU host this benchmark was built on) because
another tenant is busy on the same physical core.  The switch happens about
once a second and can last for minutes, and no statistic taken within one run
can separate it from a slower program.

The probe is a separate process, pinned to the client's CPU (it inherits the
client's affinity mask), that every 50 ms runs a fixed piece of Python work
and records its *CPU* time.  CPU time does not include waiting to be
scheduled, so the probe measures only how fast the CPU executes, not how busy
the client keeps it.  The probe uses about 1% of the CPU.

A wall-clock interval is corrected by dividing it by the interval's
*slowdown*: the probe's mean CPU time over the samples taken during the
interval, over the fixed :data:`REFERENCE_NS`.  Corrected seconds are
therefore seconds on a CPU that runs the probe's work in exactly 0.5 ms,
about the speed of that host's CPU when nothing else contends for it.

Run as a script it is the probe itself; :class:`Probe` starts and stops it.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right

#: Seconds between samples.
INTERVAL_S = 0.05
#: A corrected second is a second on a CPU that runs one sample's work in this.
REFERENCE_NS = 500_000
#: An interval shorter than a few samples also uses the samples this close to it.
PAD_S = 0.25


def work() -> int:
    """The fixed work one sample times: string, dict and tuple traffic."""
    table: dict[str, tuple[int, int]] = {}
    for value in range(2_000):
        table[str(value)] = (value, value * 2)
    return sum(pair[0] for pair in table.values())


def _run() -> None:
    stopped: list[int] = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(1))
    parent = os.getppid()
    samples = []
    while not stopped and os.getppid() == parent:
        start = time.thread_time_ns()
        work()
        samples.append(f"{time.perf_counter_ns()} {time.thread_time_ns() - start}")
        time.sleep(INTERVAL_S)
    sys.stdout.write("\n".join(samples) + "\n")


class Probe:
    """Runs the probe process for the duration of a ``with`` block.

    Timestamps are ``time.perf_counter`` seconds, which on Linux is the
    system-wide monotonic clock, so the client's and the probe's agree.
    """

    def __init__(self) -> None:
        self._times: list[float] = []
        self._cpu_ns: list[int] = []
        self._process: subprocess.Popen | None = None

    def __enter__(self) -> "Probe":
        self._process = subprocess.Popen(
            [sys.executable, __file__], stdout=subprocess.PIPE, text=True
        )
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self._process.terminate()
        output, _ = self._process.communicate(timeout=30)
        for line in output.split("\n"):
            if line:
                stamp, cpu_ns = line.split()
                self._times.append(int(stamp) / 1e9)
                self._cpu_ns.append(int(cpu_ns))

    @property
    def sample_count(self) -> int:
        return len(self._cpu_ns)

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe CPU time during ``[start, end]`` over :data:`REFERENCE_NS`."""
        if not self._times:
            raise RuntimeError("the CPU probe recorded no samples")
        low = bisect_left(self._times, start - PAD_S)
        high = bisect_right(self._times, end + PAD_S)
        if low == high:
            # Nothing that close (the probe was still starting): take the
            # nearest sample on either side.
            low = max(low - 1, 0)
            high = min(low + 2, len(self._times))
        return statistics.fmean(self._cpu_ns[low:high]) / REFERENCE_NS

    def corrected(self, start: float, end: float) -> float:
        """The interval's length in corrected seconds."""
        return (end - start) / self.slowdown(start, end)


if __name__ == "__main__":
    _run()
