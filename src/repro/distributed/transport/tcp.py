"""Asyncio TCP transport: real localhost processes speaking real DIMW frames.

This backend implements the :class:`~repro.distributed.transport.base.Transport`
contract over real sockets:

* the driving process hosts the data center's asyncio server on a loop thread;
* every participating station runs as a real OS worker process
  (:mod:`repro.distributed.transport.worker`) that performs the actual wire
  work — stream reassembly, checksum verification, real ``DIMW`` decodes,
  acks, duplicate suppression, and worker-side stop-and-wait uplink
  transmission with real timeouts;
* between them sits a byte-level **fault proxy**: workers connect to the proxy,
  the proxy connects to the center, and every ``DATA`` frame crossing it is
  subjected to the same seeded :class:`~repro.distributed.faults.FaultInjector`
  decisions the simulator draws — drop, duplicate (a pristine trailing copy),
  payload corruption with the original checksum preserved, and real sleep
  delays for jitter/reordering.  Control frames pass through untouched,
  mirroring the simulator's "acks are link-layer fictions" rule, and only
  ``DATA`` bodies enter the byte ledger.

The ledger is the one :class:`~repro.distributed.transport.base.Transport`
keeps for :class:`~repro.distributed.network.SimulatedNetwork` too; this
module supplies only the byte mover.  Fault decisions key on the same
``(seed, frame id, attempt)`` tuples, frame ids restart per round transport
exactly like the simulator's (a ``RESET`` control frame clears worker dedup
state between rounds), sender-side counters (frames sent, bytes, retransmits,
drops) are charged at the proxy, and receiver-side counters travel back as
``ACK``/``CORRUPT`` control frames.  A quiescence barrier holds each phase
open until every emitted frame copy is accounted for, so ``frame_stats()`` is
complete — not racing in-flight duplicates — the moment a phase returns.
For fault-free plans the delivered wire bytes, match results and frame counts
are identical across backends (the conformance suite pins this); wall-clock
timings are measured, not modeled, so transcripts and durations differ.

Station *matching* stays in the driving process: after a phase's socket
traffic resolves, each delivered frame reaches its in-process
:class:`~repro.distributed.node.Node` through
:meth:`~repro.distributed.node.Node.receive_frame`, as its envelope head plus
its payload block, on the caller thread and in send order — the simulator's
delivery call, which keeps results deterministic and byte-identical to it.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from concurrent.futures import TimeoutError as FutureTimeoutError
from pathlib import Path

import repro
from repro.distributed.faults import FaultPlan
from repro.distributed.network import NetworkConfig
from repro.distributed.transport import protocol
from repro.distributed.transport.base import (
    Frames,
    PhaseOutcome,
    Sends,
    Transfer,
    Transport,
)
from repro.wire.errors import WireFormatError
from repro.wire.stream import FrameStreamDecoder, encode_stream_frame

#: Socket read chunk size for the center server and the proxy pumps.
READ_CHUNK = 65536

#: Default stop-and-wait ack timeout on localhost, in seconds.  Deliberately
#: generous (~3 orders of magnitude above a localhost round trip): a spurious
#: retransmission would desynchronize the ledger from the simulator's, so the
#: timeout must only ever fire for frames the proxy really discarded.
DEFAULT_ACK_TIMEOUT_S = 0.5


def deadline_multiplier() -> float:
    """Global stretch factor for every TCP-transport deadline.

    Slow or heavily loaded machines (CI under coverage, sanitizers) set
    ``REPRO_TCP_DEADLINE_MULT`` to trade wall time for flake resistance;
    values below 1 are clamped so the knob can only ever loosen deadlines.
    """
    try:
        value = float(os.environ.get("REPRO_TCP_DEADLINE_MULT", "1.0"))
    except ValueError:
        return 1.0
    return max(1.0, value)


class _FrameWriter:
    """A stream-framed writer with serialized drains (one per connection)."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._lock = asyncio.Lock()

    async def send(self, frame_payload: bytes) -> None:
        async with self._lock:
            self._writer.write(encode_stream_frame(frame_payload))
            await self._writer.drain()

    def close(self) -> None:
        try:
            self._writer.close()
        except RuntimeError:  # pragma: no cover - loop already closing
            pass


class _TcpTransfer(Transfer):
    """One frame's reliable delivery state, with its checksum and resolution event."""

    __slots__ = ("crc", "resolved")

    def __init__(self, *fields: object) -> None:
        super().__init__(*fields)
        self.crc = zlib.crc32(self.payload, zlib.crc32(self.head))
        self.resolved = asyncio.Event()

    @property
    def frame(self) -> bytes:
        """The frame as one buffer, as it crosses the socket."""
        return self.head + self.payload


#: Stands for a frame id this transport never sent: its transcript rows carry
#: frame id -1 and no endpoints.
_STRAY = Transfer(-1, "-", "-", "-", None, "uplink", b"", b"", 0)


class TcpTransportManager:
    """Long-lived TCP infrastructure shared by a deployment's round transports.

    Owns the asyncio loop thread, the center server, the fault-proxy server
    and the station worker processes (spawned lazily on first participation,
    reused across rounds).  One round's traffic is carried by one
    :class:`TcpTransport` obtained from :meth:`create_transport`.
    """

    def __init__(
        self,
        config: NetworkConfig | None = None,
        *,
        connect_timeout_s: float = 20.0,
        host: str = "127.0.0.1",
    ) -> None:
        self.config = config or NetworkConfig()
        self._connect_timeout_s = float(connect_timeout_s)
        self._host = host
        self._links: dict[str, _FrameWriter] = {}
        self._hello_events: dict[str, asyncio.Event] = {}
        self._procs: dict[str, subprocess.Popen] = {}
        self._stderr_paths: dict[str, str] = {}
        self._stderr_files: dict[str, object] = {}
        self._active: "TcpTransport | None" = None
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name="repro-tcp-transport", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(self._start_servers(), self.loop)
        self.center_port, self.proxy_port = future.result(timeout=30.0)
        self._closed = False

    # -- transports --------------------------------------------------------------

    def create_transport(
        self,
        fault_plan: FaultPlan | str | None = None,
        seed: int = 0,
        allow_partial: bool = False,
    ) -> "TcpTransport":
        """A fresh per-round transport carried by this manager's sockets."""
        return TcpTransport(
            self, fault_plan=fault_plan, seed=seed, allow_partial=allow_partial
        )

    # -- servers (loop thread) ---------------------------------------------------

    async def _start_servers(self) -> tuple[int, int]:
        self._center_server = await asyncio.start_server(
            self._serve_center, self._host, 0
        )
        self._proxy_server = await asyncio.start_server(
            self._serve_proxy, self._host, 0
        )
        center_port = self._center_server.sockets[0].getsockname()[1]
        proxy_port = self._proxy_server.sockets[0].getsockname()[1]
        return center_port, proxy_port

    async def _serve_center(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One proxied worker connection, as seen by the data center."""
        station: str | None = None
        out = _FrameWriter(writer)
        decoder = FrameStreamDecoder()
        try:
            while True:
                chunk = await reader.read(READ_CHUNK)
                if not chunk:
                    break
                for stream_frame in decoder.feed(chunk):
                    frame = protocol.parse_frame(stream_frame.payload)
                    if frame.kind == protocol.HELLO:
                        station = frame.station_id
                        self._links[station] = out
                        self._hello_events.setdefault(station, asyncio.Event()).set()
                        continue
                    active = self._active
                    if active is not None and station is not None:
                        await active._on_center_frame(station, frame)
        except (ConnectionError, WireFormatError):
            pass
        finally:
            if station is not None and self._links.get(station) is out:
                del self._links[station]
                self._hello_events.pop(station, None)
                active = self._active
                if active is not None:
                    active._on_link_lost(station)
            out.close()

    async def _serve_proxy(
        self, worker_reader: asyncio.StreamReader, worker_writer: asyncio.StreamWriter
    ) -> None:
        """One worker connection: splice it to the center through the fault pipe."""
        try:
            center_reader, center_writer = await asyncio.open_connection(
                self._host, self.center_port
            )
        except OSError:  # pragma: no cover - center server gone mid-shutdown
            worker_writer.close()
            return
        uplink_out = _FrameWriter(center_writer)
        downlink_out = _FrameWriter(worker_writer)
        await asyncio.gather(
            self._pump(worker_reader, uplink_out),
            self._pump(center_reader, downlink_out),
        )

    async def _pump(self, reader: asyncio.StreamReader, out: _FrameWriter) -> None:
        """Forward one direction of a proxied connection, frame by frame.

        ``DATA`` frames route through the active transport's fault pipeline;
        everything else (acks, loads, corruption notices, lifecycle frames)
        passes through untouched.  Delays are applied inline, so frames on one
        connection never overtake each other — exactly the simulator's
        per-link FIFO ordering.
        """
        decoder = FrameStreamDecoder()
        try:
            while True:
                chunk = await reader.read(READ_CHUNK)
                if not chunk:
                    return
                for stream_frame in decoder.feed(chunk):
                    frame = protocol.parse_frame(stream_frame.payload)
                    active = self._active
                    if frame.kind == protocol.DATA and active is not None:
                        await active._proxy_data(frame, out)
                    else:
                        await out.send(stream_frame.payload)
        except (ConnectionError, WireFormatError):
            return
        finally:
            out.close()

    # -- workers -----------------------------------------------------------------

    def _spawn_worker(self, station_id: str) -> None:
        stderr_file = tempfile.NamedTemporaryFile(
            mode="w+b",
            prefix=f"repro-tcp-worker-{zlib.crc32(station_id.encode()):08x}-",
            suffix=".log",
            delete=False,
        )
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
        self._procs[station_id] = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.distributed.transport.worker",
                "--host",
                self._host,
                "--port",
                str(self.proxy_port),
                "--station-id",
                station_id,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=stderr_file,
        )
        self._stderr_paths[station_id] = stderr_file.name
        self._stderr_files[station_id] = stderr_file

    async def ensure_stations(self, station_ids: "set[str] | Sequence[str]") -> None:
        """Spawn any missing station workers and wait for their HELLOs."""
        wanted = sorted(set(station_ids))
        for station_id in wanted:
            if station_id not in self._links and station_id not in self._procs:
                self._spawn_worker(station_id)
        timeout = self._connect_timeout_s * deadline_multiplier()
        for station_id in wanted:
            if station_id in self._links:
                continue
            event = self._hello_events.setdefault(station_id, asyncio.Event())
            try:
                await asyncio.wait_for(event.wait(), timeout)
            except asyncio.TimeoutError:
                raise RuntimeError(
                    f"station worker {station_id!r} did not register within "
                    f"{timeout:.1f}s\n{self.diagnostics()}"
                ) from None

    async def set_active(self, transport: "TcpTransport") -> None:
        """Route proxy/center traffic to ``transport`` and reset frame dedup.

        Frame ids restart per round transport (matching the simulator's
        per-instance counter the fault seeding depends on), so every already
        connected worker must clear its duplicate-suppression set before the
        new round's first ``DATA`` frame — the ``RESET`` is ordered ahead of
        them by TCP itself.
        """
        if self._active is transport:
            return
        self._active = transport
        for link in list(self._links.values()):
            try:
                await link.send(protocol.encode_reset())
            except ConnectionError:  # pragma: no cover - worker died mid-reset
                pass

    def link(self, station_id: str) -> _FrameWriter | None:
        """The center-side writer of a station's connection, if alive."""
        return self._links.get(station_id)

    def diagnostics(self) -> str:
        """Per-worker process state and stderr tails, for failure messages."""
        lines = []
        for station_id, proc in sorted(self._procs.items()):
            returncode = proc.poll()
            state = "running" if returncode is None else f"exited {returncode}"
            tail = ""
            path = self._stderr_paths.get(station_id)
            if path:
                try:
                    with open(path, "rb") as handle:
                        handle.seek(0, os.SEEK_END)
                        handle.seek(max(0, handle.tell() - 2048))
                        tail = handle.read().decode("utf-8", "replace").strip()
                except OSError:
                    tail = "<stderr unavailable>"
            lines.append(f"worker {station_id}: {state}")
            if tail:
                lines.append(f"  stderr: {tail}")
        return "\n".join(lines) or "no workers spawned"

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop workers, close servers and join the loop thread (idempotent)."""
        if self._closed:
            return
        self._closed = True

        async def _close() -> None:
            for link in list(self._links.values()):
                try:
                    await link.send(protocol.encode_shutdown())
                except ConnectionError:
                    pass
            self._center_server.close()
            self._proxy_server.close()

        try:
            asyncio.run_coroutine_threadsafe(_close(), self.loop).result(timeout=10.0)
        except Exception:  # pragma: no cover - best-effort teardown
            pass
        for proc in self._procs.values():
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - hung worker
                proc.kill()
                proc.wait(timeout=5.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10.0)
        if not self._thread.is_alive():
            # Closing a loop that still runs raises, so a hung thread keeps it.
            self.loop.close()
        for handle in self._stderr_files.values():
            try:
                handle.close()
            except OSError:  # pragma: no cover
                pass
        for path in self._stderr_paths.values():
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover
                pass
        self._procs.clear()
        self._links.clear()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            if not self._closed:
                self.shutdown()
        except Exception:
            pass


class TcpTransport(Transport):
    """One round's reliable transport over the manager's real sockets.

    The ledger is :class:`~repro.distributed.transport.base.Transport`'s, as
    on the simulator; see the module docstring for how the sockets feed it.
    """

    def __init__(
        self,
        manager: TcpTransportManager,
        *,
        fault_plan: FaultPlan | str | None = None,
        seed: int = 0,
        allow_partial: bool = False,
    ) -> None:
        super().__init__(manager.config, fault_plan, seed, allow_partial)
        self._manager = manager
        self._ack_timeout = (
            float(self._config.retransmit_timeout_s or DEFAULT_ACK_TIMEOUT_S)
            * deadline_multiplier()
        )
        self._transfers: dict[int, _TcpTransfer] = {}
        self._outstanding = 0
        self._quiet: asyncio.Event | None = None
        self._degraded = False
        self._phase_started = time.monotonic()

    # -- sending (caller thread) -------------------------------------------------

    def broadcast(self, sends: Sends) -> PhaseOutcome:
        """Run one downlink phase: the center's frames to many stations."""
        return self._run_phase(Frames.of(sends), "downlink")

    def gather(self, sends: Sends) -> PhaseOutcome:
        """Run one uplink phase: station reports into the center's ingress."""
        return self._run_phase(Frames.of(sends), "uplink")

    def _phase_deadline(self, transfer_count: int) -> float:
        per_transfer = self._config.max_attempts * (self._ack_timeout + 0.25)
        return (per_transfer + 15.0 + 0.05 * transfer_count) * deadline_multiplier()

    def _run_phase(self, frames: Frames, direction: str) -> PhaseOutcome:
        deadline = self._phase_deadline(len(frames))
        future = asyncio.run_coroutine_threadsafe(
            self._phase(frames, direction), self._manager.loop
        )
        try:
            transfers = future.result(timeout=deadline)
        except FutureTimeoutError:
            future.cancel()
            raise RuntimeError(
                f"TCP {direction} phase did not converge within {deadline:.1f}s "
                f"({len(frames)} transfer(s), fault plan {self._plan.name!r}, "
                f"seed {self._injector.seed})\n{self._manager.diagnostics()}"
            ) from None

        # The socket traffic decided *whether* each transfer delivered; the
        # delivered frames now reach the in-process receivers on the caller
        # thread, in send order — deterministic, and byte-identical to what
        # the worker decoded (corrupt copies were never acked).
        for transfer in transfers:
            if transfer.delivered:
                self._hand_over(transfer)
        return self._settle(transfers, direction)

    # -- the phase engine (loop thread) ------------------------------------------

    def _elapsed(self) -> float:
        return time.monotonic() - self._phase_started

    def _signal_quiet(self) -> None:
        if self._quiet is not None:
            self._quiet.set()

    async def _phase(self, frames: Frames, direction: str) -> list[_TcpTransfer]:
        # Every frame is built before anything is sent: a payload with no
        # wire encoding raises here, like the simulator's, and leaves only the
        # frames before it counted as offered.
        opened = self._open_phase(frames, direction)
        transfers = _TcpTransfer.per_frame(frames, direction, *opened)
        await self._manager.set_active(self)
        self._phase_started = time.monotonic()
        self._quiet = asyncio.Event()
        for transfer in transfers:
            self._transfers[transfer.frame_id] = transfer
        await self._manager.ensure_stations({t.station for t in transfers})
        tasks = []
        for transfer in transfers:
            if direction == "downlink":
                tasks.append(asyncio.ensure_future(self._drive_downlink(transfer)))
            else:
                tasks.append(asyncio.ensure_future(self._drive_uplink(transfer)))
        if tasks:
            await asyncio.gather(*tasks)
        # Quiescence barrier: every emitted frame copy (including trailing
        # proxy duplicates) must be accounted before the phase returns, so the
        # ledger snapshot the caller reads is complete, like the simulator's
        # fully drained event heap.
        grace = time.monotonic() + 10.0 * deadline_multiplier()
        while self._outstanding > 0 and not self._degraded:
            self._quiet.clear()
            remaining = grace - time.monotonic()
            if remaining <= 0:  # pragma: no cover - only on pathological stalls
                break
            try:
                await asyncio.wait_for(self._quiet.wait(), remaining)
            except asyncio.TimeoutError:  # pragma: no cover
                break
        return transfers

    async def _drive_downlink(self, transfer: _TcpTransfer) -> None:
        """Center-side stop-and-wait: send, await ack, retransmit on timeout."""
        for attempt in range(1, self._config.max_attempts + 1):
            if transfer.delivered or transfer.failed:
                break
            transfer.attempts = attempt
            link = self._manager.link(transfer.station)
            if link is None:
                break
            self._outstanding += 1
            frame = protocol.encode_data(
                transfer.frame_id,
                attempt,
                protocol.DOWNLINK,
                transfer.frame,
                crc=transfer.crc,
            )
            try:
                await link.send(frame)
            except ConnectionError:
                self._outstanding -= 1
                self._signal_quiet()
                break
            try:
                await asyncio.wait_for(transfer.resolved.wait(), self._ack_timeout)
                if transfer.delivered or transfer.failed:
                    break
                transfer.resolved.clear()
            except asyncio.TimeoutError:
                continue
        if not transfer.delivered and not transfer.failed:
            self._mark_failed(self._elapsed(), transfer, transfer.attempts)

    async def _drive_uplink(self, transfer: _TcpTransfer) -> None:
        """Hand the body to the station worker; it transmits under stop-and-wait."""
        transfer.attempts = 1
        link = self._manager.link(transfer.station)
        failed_to_load = link is None
        if link is not None:
            load = protocol.encode_load(
                transfer.frame_id,
                self._config.max_attempts,
                self._ack_timeout,
                transfer.frame,
            )
            try:
                await link.send(load)
            except ConnectionError:
                failed_to_load = True
        if not failed_to_load:
            deadline = (
                self._config.max_attempts * (self._ack_timeout + 0.25) + 10.0
            ) * deadline_multiplier()
            try:
                await asyncio.wait_for(transfer.resolved.wait(), deadline)
            except asyncio.TimeoutError:  # pragma: no cover - hung/dead worker
                pass
        if not transfer.delivered and not transfer.failed:
            self._mark_failed(self._elapsed(), transfer, transfer.attempts)

    # -- the byte-level fault proxy (loop thread, called from the pumps) ---------

    async def _proxy_data(
        self, frame: "protocol.TransportFrame", out: _FrameWriter
    ) -> None:
        """Apply the seeded fault pipeline to one real ``DATA`` frame.

        Decisions key on the exact ``(seed, frame id, attempt)`` tuples the
        simulator draws, so a given ``(net_seed, profile)`` produces the same
        drop/duplicate/corrupt pattern on both backends.  Corruption flips
        bytes in the body while passing the original checksum through, so the
        receiver detects it exactly like the simulator's link-layer check.
        """
        transfer = self._transfers.get(frame.frame_id, _STRAY)
        direction = "downlink" if frame.direction == protocol.DOWNLINK else "uplink"
        size = len(frame.body)
        self._charge(direction, size)
        if frame.attempt > 1:
            self._retransmit_count += 1
            self._record(self._elapsed(), "retransmit", transfer, frame.attempt)
        self._record(self._elapsed(), "send", transfer, frame.attempt)
        faults = self._injector.frame_faults(frame.frame_id, frame.attempt)
        in_blackout = False
        if transfer is not _STRAY:
            window = self._injector.blackout_window(transfer.station)
            if window is not None:
                # Approximation of the simulator's virtual-time blackout: the
                # window is measured on the wall clock from the phase start.
                in_blackout = window[0] <= self._elapsed() < window[1]
        if faults.drop or in_blackout:
            self._frames_dropped += 1
            self._record(
                self._elapsed(), "blackout" if in_blackout else "drop", transfer, frame.attempt
            )
            if direction == "downlink":
                # The center already counted this copy as outstanding when it
                # sent it; a discarded frame will never produce a response.
                self._outstanding -= 1
                self._signal_quiet()
            return
        # Outstanding copies are counted *before* any forwarding await, so the
        # quiescence barrier can never observe a momentarily-zero counter
        # while a copy (or its trailing duplicate) is still being emitted.
        if direction == "uplink":
            self._outstanding += 1
        if faults.duplicate:
            self._outstanding += 1
        body = frame.body
        if faults.corrupt:
            body = self._injector.corrupt_bytes(body, frame.frame_id, frame.attempt)
        delay = faults.jitter_s + faults.reorder_delay_s
        if delay > 0.0:
            await asyncio.sleep(delay)
        await out.send(
            protocol.encode_data(
                frame.frame_id, frame.attempt, frame.direction, body, crc=frame.crc
            )
        )
        if faults.duplicate:
            # A network-generated duplicate: a pristine second copy trailing
            # the original (even when the original copy was corrupted).
            self._charge(direction, size)
            self._record(self._elapsed(), "dup-send", transfer, frame.attempt)
            await out.send(
                protocol.encode_data(
                    frame.frame_id,
                    frame.attempt,
                    frame.direction,
                    frame.body,
                    crc=frame.crc,
                )
            )

    # -- center-side frame handling (loop thread) --------------------------------

    async def _on_center_frame(
        self, station: str, frame: "protocol.TransportFrame"
    ) -> None:
        transfer = self._transfers.get(frame.frame_id, _STRAY)
        if frame.kind == protocol.ACK:
            # A worker's response to one downlink DATA copy.
            self._outstanding -= 1
            if transfer is not _STRAY:
                if frame.duplicate or transfer.delivered or transfer.failed:
                    self._frames_duplicate += 1
                    self._record(self._elapsed(), "duplicate", transfer, frame.attempt)
                    if transfer.delivered or transfer.failed:
                        transfer.resolved.set()
                else:
                    self._mark_delivered(self._elapsed(), transfer, frame.attempt)
                    transfer.resolved.set()
        elif frame.kind == protocol.CORRUPT:
            # A worker rejected one downlink DATA copy; the driver's timer
            # handles retransmission, exactly like the simulator's.
            self._outstanding -= 1
            self._count_corrupt(
                self._elapsed(),
                transfer,
                frame.attempt,
                frame.caught_by == protocol.CAUGHT_BY_CODEC,
            )
        elif frame.kind == protocol.DATA:
            # One uplink DATA copy arriving at the center's ingress.
            self._outstanding -= 1
            if transfer is not _STRAY:
                await self._on_uplink_data(station, transfer, frame)
        elif frame.kind == protocol.FAIL:
            if transfer is not _STRAY and not transfer.delivered and not transfer.failed:
                self._mark_failed(self._elapsed(), transfer, frame.attempt)
                transfer.resolved.set()
        self._signal_quiet()

    async def _on_uplink_data(
        self, station: str, transfer: _TcpTransfer, frame: "protocol.TransportFrame"
    ) -> None:
        link = self._manager.link(station)
        if transfer.delivered or transfer.failed:
            # A duplicate emission or a spurious retransmission landing after
            # the transfer was resolved.
            self._frames_duplicate += 1
            self._record(self._elapsed(), "duplicate", transfer, frame.attempt)
            if link is not None:
                await link.send(
                    protocol.encode_ack(frame.frame_id, frame.attempt, duplicate=True)
                )
            return
        if zlib.crc32(frame.body) != frame.crc:
            # Real corruption detection at the ingress: the center still runs
            # the actual codec decode on the corrupt bytes to classify the
            # catch, then stays silent so the worker's timer retransmits.
            self._count_corrupt(
                self._elapsed(), transfer, frame.attempt, self._caught_by_codec(frame.body)
            )
            return
        self._mark_delivered(self._elapsed(), transfer, frame.attempt)
        if link is not None:
            await link.send(
                protocol.encode_ack(frame.frame_id, frame.attempt, duplicate=False)
            )
        transfer.resolved.set()

    def _on_link_lost(self, station: str) -> None:
        """A worker connection died mid-round: fail its pending transfers."""
        self._degraded = True
        for transfer in self._transfers.values():
            if transfer.station == station and not transfer.delivered and not transfer.failed:
                self._mark_failed(self._elapsed(), transfer, transfer.attempts)
                transfer.resolved.set()
        self._signal_quiet()
