"""One ledger behind both transports.

:class:`~repro.distributed.transport.base.Transport` owns a round's ledger:
the byte, message and frame counts, the frame ids, the transcript, the
delivered frames, the failure rule and the phase outcome.  The simulator and
the TCP backend keep only their byte movers.  A backend that defined a
ledger member of its own would start a second copy, which could drift from
the first with only the conformance suites to notice, so none may.

``benchmarks/system/tracing.py`` wraps each backend's own ``broadcast`` and
``gather`` (it reads them from the class ``__dict__``), so both stay defined
on each class.  Importing the TCP backend must stay cheap: no process, no
thread and no NumPy until a manager is built.

Nothing here imports ``repro.datagen``, so the file runs without NumPy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.distributed.network import SimulatedNetwork
from repro.distributed.transport.base import DeliveredFrames, Transport
from repro.distributed.transport.tcp import TcpTransport

#: The members only :class:`Transport` may define.
LEDGER = (
    "config",
    "fault_plan",
    "seed",
    "downlink_bytes",
    "uplink_bytes",
    "message_count",
    "transcript",
    "transcript_bytes",
    "delivered_payloads",
    "frame_stats",
    "transmission_time_s",
    "_charge",
    "_record",
)

BACKENDS = pytest.mark.parametrize(
    "backend", [SimulatedNetwork, TcpTransport], ids=lambda backend: backend.__name__
)


def test_the_base_defines_the_whole_ledger():
    assert [name for name in LEDGER if name not in vars(Transport)] == []


@BACKENDS
def test_a_backend_defines_no_ledger_member(backend):
    assert [name for name in LEDGER if name in vars(backend)] == []


@BACKENDS
def test_a_backend_defines_its_own_phase_verbs(backend):
    assert "broadcast" in vars(backend)
    assert "gather" in vars(backend)


def test_a_delivered_frame_is_recorded_as_its_head_and_payload_block():
    frames = DeliveredFrames()
    with pytest.raises(TypeError):
        frames.record("downlink", "bs-0", b"head")
    frames.record("downlink", "bs-0", b"head", b"-block")
    frames.record("uplink", "bs-0", b"report", b"")
    assert frames.grouped("downlink") == {"bs-0": (b"head-block",)}
    assert frames.grouped("uplink") == {"bs-0": (b"report",)}


def test_importing_the_tcp_backend_starts_nothing_and_needs_no_numpy():
    # A fresh interpreter, where ``None`` in ``sys.modules`` makes every
    # import of NumPy raise ImportError.
    probe = textwrap.dedent(
        """
        import glob, sys, threading
        sys.modules["numpy"] = None
        import repro.distributed.transport.tcp
        children = [
            pid
            for path in glob.glob("/proc/self/task/*/children")
            for pid in open(path).read().split()
        ]
        assert children == [], children
        assert threading.active_count() == 1, threading.enumerate()
        """
    )
    src_root = str(Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH", "")
    env = dict(os.environ, PYTHONPATH=src_root + (os.pathsep + existing if existing else ""))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
