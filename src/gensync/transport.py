"""Framed channels and the analytic network-cost model.

Every message is a frame: a 1-byte kind tag, a big-endian 32-bit payload
length, then the payload. Both endpoints keep a byte ledger counting
``5 + length`` per frame sent or received, which feeds the byte accounting
of Observations.

Two channel families exist: a deterministic in-memory pair for
benchmarking (communication time comes from the cost model below) and a
blocking TCP endpoint for real two-machine syncs (communication time is
the session's wall time minus its CPU time). Neither keeps a clock.
Emulated link behaviour is fully analytic rather than OS-enforced:
transfer seconds follow ``latency + bytes*8 / (bandwidth * (1 -
packet_loss))`` with latency charged once per request/response turn,
which each in-memory endpoint counts from its own frames, and compute
seconds are scaled by the per-role CPU fraction. This keeps runs
portable and bit-reproducible.
"""

from __future__ import annotations

import queue
import socket
import struct
import time
from dataclasses import dataclass, fields

from .errors import ProtocolError, TransportError
from .params import SyncRole

HANDSHAKE = 1
SKETCH = 2
DIFFS = 3
ACK = 4
ABORT = 5

_KINDS = {HANDSHAKE, SKETCH, DIFFS, ACK, ABORT}

FRAME_HEADER = struct.Struct(">BI")
FRAME_OVERHEAD = FRAME_HEADER.size  # 5 bytes

WIRE_VERSION = 1

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


# Each link field's accepted values in interval notation: a square bracket
# takes its end in, a round one leaves it out, so NaN and the infinities
# lie in none of them.
LINK_RANGES = {
    "latency_ms": "[0, inf)",
    "bandwidth_up_mbps": "(0, inf)",
    "bandwidth_down_mbps": "(0, inf)",
    "packet_loss": "[0, 1)",
    "cpu_server": "(0, 100]",
    "cpu_client": "(0, 100]",
}


def in_range(value: float, interval: str) -> bool:
    """Whether ``value`` lies in ``interval``, written as in LINK_RANGES."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low <= value if interval[0] == "[" else low < value
    below = value <= high if interval[-1] == "]" else value < high
    return above and below


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
            value = getattr(self, f.name)
            if not in_range(value, LINK_RANGES[f.name]):
                raise ValueError(f"{f.name} must lie in {LINK_RANGES[f.name]}, got {value}")


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


@dataclass
class ByteLedger:
    sent: int = 0
    received: int = 0

    @property
    def total(self) -> int:
        return self.sent + self.received

    def reset(self):
        self.sent = 0
        self.received = 0


class MemoryEndpoint:
    """One side of an in-process channel pair with per-direction FIFO.

    Each endpoint counts the turns of its own sync from the frames it
    sends and receives: a turn starts at each client-to-server frame that
    follows a server-to-client frame or opens the sync. Both ends see
    every frame of the sync in the order the protocol imposes, so both
    count the same turns whichever starts first.
    """

    def __init__(self, outbox, inbox, direction, params, timeout=60.0):
        self._outbox = outbox
        self._inbox = inbox
        self.direction = direction  # direction of frames this endpoint sends
        self.params = params
        self.timeout = timeout
        self.ledger = ByteLedger()
        self.turns = 0
        self._last = None  # direction of the last frame sent or received
        self._closed = False

    @property
    def is_client(self) -> bool:
        return self.direction == UP

    def _count(self, direction: str):
        if direction == UP and self._last != UP:
            self.turns += 1
        self._last = direction

    def send_frame(self, frame: Frame):
        if self._closed:
            raise TransportError("channel is closed")
        self._count(self.direction)
        self.ledger.sent += frame.wire_size
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
        self._count(DOWN if self.is_client else UP)
        self.ledger.received += frame.wire_size
        return frame

    def close(self):
        if not self._closed:
            self._closed = True
            self._outbox.put(None)

    def reset_for_sync(self):
        self.ledger.reset()
        self.turns = 0
        self._last = None


def memory_channel_pair(params: ChannelParams | None = None, timeout: float = 60.0):
    """A connected (client_endpoint, server_endpoint) pair in one process."""
    params = params or ChannelParams()
    up_q: queue.Queue = queue.Queue()
    down_q: queue.Queue = queue.Queue()
    client = MemoryEndpoint(up_q, down_q, UP, params, timeout)
    server = MemoryEndpoint(down_q, up_q, DOWN, params, timeout)
    return client, server


# ---------------------------------------------------------------------------
# TCP channel


class TcpEndpoint:
    """Blocking framed TCP endpoint; one sync session per connection."""

    def __init__(self, sock: socket.socket, is_client: bool):
        self._sock = sock
        self.is_client = is_client
        self.params = None  # real link; no emulation
        self.ledger = ByteLedger()

    def send_frame(self, frame: Frame):
        data = frame.encode()
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        self.ledger.sent += len(data)

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        got = 0
        while got < n:
            try:
                chunk = self._sock.recv(n - got)
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from exc
            if not chunk:
                raise TransportError("peer closed the connection")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def recv_frame(self) -> Frame:
        kind, length = decode_header(self._recv_exact(FRAME_OVERHEAD))
        payload = self._recv_exact(length) if length else b""
        self.ledger.received += FRAME_OVERHEAD + length
        return Frame(kind, payload)

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def tcp_connect(host: str, port: int, timeout: float = 10.0, retry_window: float = 2.0) -> TcpEndpoint:
    """Connect to a listening peer, retrying brief refusals.

    A freshly started server may not have bound yet; refused connections
    are retried until ``retry_window`` elapses.
    """
    deadline = time.monotonic() + retry_window
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            break
        except ConnectionRefusedError as exc:
            if time.monotonic() >= deadline:
                raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
            time.sleep(0.05)
        except OSError as exc:
            raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
    sock.settimeout(timeout * 6)
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

    def accept(self, timeout: float = 60.0) -> TcpEndpoint:
        self._sock.settimeout(timeout)
        try:
            conn, _ = self._sock.accept()
        except OSError as exc:
            raise TransportError(f"accept failed: {exc}") from exc
        conn.settimeout(timeout)
        return TcpEndpoint(conn, is_client=False)

    def close(self):
        self._sock.close()
