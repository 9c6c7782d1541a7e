"""Framed channels and the analytic network-cost model.

Every message is a frame: a 1-byte kind tag, a big-endian 32-bit payload
length, then the payload. Endpoints only move frames; the session counts
them.

Two channel families exist: a deterministic in-memory pair for
benchmarking (communication time comes from the cost model below) and a
blocking TCP endpoint for real two-machine syncs (communication time is
the session's wall time minus its CPU time). Neither keeps a clock.
Emulated link behaviour is fully analytic rather than OS-enforced:
transfer seconds follow ``latency + bytes*8 / (bandwidth * (1 -
packet_loss))`` with latency charged once per request/response turn, and
compute seconds are scaled by the per-role CPU fraction. This keeps runs
portable and bit-reproducible.
"""

from __future__ import annotations

import queue
import socket
import struct
import time
from dataclasses import dataclass, fields

from .errors import ProtocolError, TransportError
from .params import SyncRole, check

HANDSHAKE = 1
SKETCH = 2
DIFFS = 3
ACK = 4
ABORT = 5

_KINDS = {HANDSHAKE, SKETCH, DIFFS, ACK, ABORT}

FRAME_HEADER = struct.Struct(">BI")
FRAME_OVERHEAD = FRAME_HEADER.size  # 5 bytes

WIRE_VERSION = 2

# seconds an endpoint waits for its peer to connect or to send a frame
PEER_TIMEOUT = 60.0

# the most bytes a TCP endpoint asks one recv call for
RECV_CHUNK = 1 << 20

UP = "up"  # client -> server
DOWN = "down"  # server -> client


@dataclass
class Frame:
    kind: int
    payload: bytes = b""

    @property
    def wire_size(self) -> int:
        return FRAME_OVERHEAD + len(self.payload)

    def encode(self) -> bytes:
        return FRAME_HEADER.pack(self.kind, len(self.payload)) + self.payload


def decode_header(header: bytes):
    kind, length = FRAME_HEADER.unpack(header)
    if kind not in _KINDS:
        raise ProtocolError(f"unknown frame kind {kind}")
    return kind, length


# ---------------------------------------------------------------------------
# emulated link model


@dataclass(frozen=True)
class ChannelParams:
    """Emulated link: one-way latency, asymmetric bandwidth, loss and CPU."""

    latency_ms: float = 0.0
    bandwidth_up_mbps: float = 10.0
    bandwidth_down_mbps: float = 10.0
    packet_loss: float = 0.0
    cpu_server: float = 100.0
    cpu_client: float = 100.0

    def __post_init__(self):
        for f in fields(self):
            check(f.name, getattr(self, f.name))


def _transfer_ms(params: ChannelParams, direction: str, nbytes: int) -> float:
    bw = params.bandwidth_up_mbps if direction == UP else params.bandwidth_down_mbps
    return nbytes * 8 * 1000.0 / (bw * 1e6 * (1.0 - params.packet_loss))


def simulate_cost(params: ChannelParams, direction: str, nbytes: int) -> float:
    """Seconds for a single one-way transfer of ``nbytes`` payload bytes.

    The ``(1 - packet_loss)`` divisor models expected retransmission
    inflation.
    """
    if nbytes < 0:
        raise ValueError("byte count cannot be negative")
    return (params.latency_ms + _transfer_ms(params, direction, nbytes)) / 1000.0


def session_time(params: ChannelParams, up_bytes: int, down_bytes: int, turns: int) -> float:
    """Communication seconds for a whole sync.

    Latency is charged once per request/response turn, never per frame,
    since the protocols send their frames in same-direction bursts.
    """
    ms = (
        turns * params.latency_ms
        + _transfer_ms(params, UP, up_bytes)
        + _transfer_ms(params, DOWN, down_bytes)
    )
    return ms / 1000.0


def scale_compute(params: ChannelParams, role: SyncRole, measured_seconds: float) -> float:
    """Inflate measured compute seconds for a CPU-throttled host."""
    if measured_seconds < 0:
        raise ValueError("measured time cannot be negative")
    cpu = params.cpu_client if role is SyncRole.CLIENT else params.cpu_server
    return measured_seconds * 100.0 / cpu


# ---------------------------------------------------------------------------
# in-memory channel


class MemoryEndpoint:
    """One side of an in-process channel pair with per-direction FIFO."""

    def __init__(self, outbox, inbox, is_client, params, timeout):
        self._outbox = outbox
        self._inbox = inbox
        self.is_client = is_client
        self.params = params
        self.timeout = timeout
        self._closed = False

    def send_frame(self, frame: Frame):
        if self._closed:
            raise TransportError("channel is closed")
        self._outbox.put(frame)

    def recv_frame(self) -> Frame:
        if self._closed:
            raise TransportError("channel is closed")
        try:
            frame = self._inbox.get(timeout=self.timeout)
        except queue.Empty:
            raise TransportError("timed out waiting for the peer") from None
        if frame is None:
            raise TransportError("peer closed the channel")
        return frame

    def close(self):
        if not self._closed:
            self._closed = True
            self._outbox.put(None)


def memory_channel_pair(params: ChannelParams | None = None, timeout: float = PEER_TIMEOUT):
    """A connected (client_endpoint, server_endpoint) pair in one process."""
    params = params or ChannelParams()
    up_q: queue.Queue = queue.Queue()
    down_q: queue.Queue = queue.Queue()
    client = MemoryEndpoint(up_q, down_q, True, params, timeout)
    server = MemoryEndpoint(down_q, up_q, False, params, timeout)
    return client, server


# ---------------------------------------------------------------------------
# TCP channel


class TcpEndpoint:
    """Blocking framed TCP endpoint; one sync session per connection."""

    def __init__(self, sock: socket.socket, is_client: bool):
        self._sock = sock
        self.is_client = is_client
        self.params = None  # real link; no emulation

    def send_frame(self, frame: Frame):
        data = frame.encode()
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def _recv_exact(self, n: int) -> bytes:
        # recv allocates what it is asked for, and n comes from the peer
        chunks = []
        got = 0
        while got < n:
            try:
                chunk = self._sock.recv(min(n - got, RECV_CHUNK))
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from exc
            if not chunk:
                raise TransportError("peer closed the connection")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def recv_frame(self) -> Frame:
        kind, length = decode_header(self._recv_exact(FRAME_OVERHEAD))
        return Frame(kind, self._recv_exact(length) if length else b"")

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def tcp_connect(host: str, port: int) -> TcpEndpoint:
    """Connect to a listening peer, retrying refusals for 2 s while a fresh one binds."""
    deadline = time.monotonic() + 2.0
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            break
        except ConnectionRefusedError as exc:
            if time.monotonic() >= deadline:
                raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
            time.sleep(0.05)
        except OSError as exc:
            raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
    sock.settimeout(PEER_TIMEOUT)
    return TcpEndpoint(sock, is_client=True)


class TcpListener:
    """Bound listening socket; accepts one peer at a time."""

    def __init__(self, host: str, port: int):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
        except OSError as exc:
            raise TransportError(f"cannot bind {host}:{port}: {exc}") from exc
        self._sock.listen(1)

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def accept(self) -> TcpEndpoint:
        self._sock.settimeout(PEER_TIMEOUT)
        try:
            conn, _ = self._sock.accept()
        except OSError as exc:
            raise TransportError(f"accept failed: {exc}") from exc
        conn.settimeout(PEER_TIMEOUT)
        return TcpEndpoint(conn, is_client=False)

    def close(self):
        self._sock.close()
