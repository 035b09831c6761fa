"""Station worker process of the TCP transport.

Each participating base station runs as one of these real OS processes
(``python -m repro.distributed.transport.worker``), connected to the data
center's listening socket (through the fault proxy) over localhost TCP.  The
worker is the station's *network agent*: it speaks the transport's framed
``DIMW`` protocol for real —

* downlink ``DATA`` frames are reassembled from the byte stream, checksummed,
  decoded through the real wire codec
  (:meth:`repro.distributed.messages.Message.from_wire`), acknowledged, and
  duplicate-suppressed by frame id (exactly-once delivery);
* corrupt frames (checksum mismatch, or a codec rejection) are reported with
  a ``CORRUPT`` control frame and *not* acknowledged, so the center's
  stop-and-wait retransmits them;
* ``LOAD`` commands hand the worker an uplink body (the station's encoded
  match report) to transmit under its own stop-and-wait ack/retransmit loop
  with real ``asyncio`` timeouts, failing over to a ``FAIL`` control frame
  when :attr:`~repro.distributed.network.NetworkConfig.max_attempts` is
  exhausted.

The matching computation itself stays in the driving process; what this
process proves is the *protocol*: the same frames, checksums,
retransmissions and duplicate suppression the simulator models, exercised
over real sockets.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import zlib

from repro.distributed.transport import protocol
from repro.wire.errors import WireFormatError
from repro.wire.stream import FrameStreamDecoder, encode_stream_frame

#: Socket read chunk size; small enough to exercise reassembly, large enough
#: to stay off the syscall hot path.
READ_CHUNK = 65536


class StationWorker:
    """One station's transport agent: connect, identify, speak the protocol."""

    def __init__(self, host: str, port: int, station_id: str) -> None:
        self._host = host
        self._port = port
        self._station_id = station_id
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._write_lock = asyncio.Lock()
        #: Downlink frame ids already delivered (exactly-once suppression).
        self._delivered: set[int] = set()
        #: Uplink frame id -> ack event for in-flight LOAD transmissions.
        self._acks: dict[int, asyncio.Event] = {}
        self._transmit_tasks: set[asyncio.Task] = set()
        self._shutdown = False

    async def run(self) -> int:
        """Connect and serve until SHUTDOWN or the center hangs up."""
        self._reader, self._writer = await asyncio.open_connection(self._host, self._port)
        await self._send(protocol.encode_hello(self._station_id))
        decoder = FrameStreamDecoder()
        while not self._shutdown:
            data = await self._reader.read(READ_CHUNK)
            if not data:
                break
            for stream_frame in decoder.feed(data):
                if not stream_frame.crc_ok:
                    raise WireFormatError(
                        f"station {self._station_id}: stream frame failed the "
                        "framing CRC — the stream is desynchronized"
                    )
                await self._handle(protocol.parse_frame(stream_frame.payload))
        for task in self._transmit_tasks:
            task.cancel()
        if self._writer is not None:
            self._writer.close()
        return 0

    async def _send(self, frame_payload: bytes) -> None:
        assert self._writer is not None
        async with self._write_lock:
            self._writer.write(encode_stream_frame(frame_payload))
            await self._writer.drain()

    async def _handle(self, frame: protocol.TransportFrame) -> None:
        if frame.kind == protocol.DATA:
            await self._on_data(frame)
        elif frame.kind == protocol.ACK:
            event = self._acks.get(frame.frame_id)
            if event is not None:
                event.set()
        elif frame.kind == protocol.LOAD:
            task = asyncio.get_running_loop().create_task(self._transmit(frame))
            self._transmit_tasks.add(task)
            task.add_done_callback(self._transmit_tasks.discard)
        elif frame.kind == protocol.RESET:
            # A new round transport restarted the frame-id namespace.
            self._delivered.clear()
        elif frame.kind == protocol.SHUTDOWN:
            self._shutdown = True

    async def _on_data(self, frame: protocol.TransportFrame) -> None:
        """Receive one downlink protocol frame: dedup, verify, decode, ack."""
        # Imported here so a worker that only ever relays control traffic
        # (connection probes) never pays the protocol-stack import.
        from repro.distributed.messages import Message

        if frame.frame_id in self._delivered:
            # Exactly-once: the frame already delivered (a network duplicate
            # or a spurious retransmission).  Re-ack so the sender stops.
            await self._send(protocol.encode_ack(frame.frame_id, frame.attempt, duplicate=True))
            return
        checksum_ok = zlib.crc32(frame.body) == frame.crc
        try:
            message = Message.from_wire(frame.body)
        except WireFormatError:
            message = None
        if not checksum_ok or message is None:
            caught = protocol.CAUGHT_BY_CODEC if message is None else protocol.CAUGHT_BY_CHECKSUM
            await self._send(protocol.encode_corrupt(frame.frame_id, frame.attempt, caught))
            return
        self._delivered.add(frame.frame_id)
        await self._send(protocol.encode_ack(frame.frame_id, frame.attempt, duplicate=False))

    async def _transmit(self, load: protocol.TransportFrame) -> None:
        """Stop-and-wait uplink transmission of one LOADed report body."""
        event = asyncio.Event()
        self._acks[load.frame_id] = event
        crc = zlib.crc32(load.body)
        try:
            for attempt in range(1, load.max_attempts + 1):
                await self._send(
                    protocol.encode_data(
                        load.frame_id, attempt, protocol.UPLINK, load.body, crc=crc
                    )
                )
                try:
                    await asyncio.wait_for(event.wait(), load.ack_timeout_s)
                    return
                except asyncio.TimeoutError:
                    continue
            await self._send(protocol.encode_fail(load.frame_id, load.max_attempts))
        finally:
            self._acks.pop(load.frame_id, None)


def main(argv: list[str] | None = None) -> int:
    """Entry point: ``python -m repro.distributed.transport.worker``."""
    parser = argparse.ArgumentParser(prog="repro-transport-worker")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--station-id", required=True)
    args = parser.parse_args(argv)
    worker = StationWorker(args.host, args.port, args.station_id)
    try:
        return asyncio.run(worker.run())
    except (ConnectionError, WireFormatError) as error:
        print(f"station worker {args.station_id}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised as a real subprocess
    sys.exit(main())
