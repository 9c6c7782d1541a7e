"""Framed channels and the analytic network-cost model.

Every message is a frame: a 1-byte kind tag, a big-endian 32-bit payload
length, then the payload. Both endpoints keep a byte ledger counting
``5 + length`` per frame sent or received, which feeds the byte accounting
of Observations.

Two channel families exist: a deterministic in-memory pair for
benchmarking (communication time comes from the cost model below) and a
blocking TCP endpoint for real two-machine syncs (communication time is
wall-clock spent in socket operations). Emulated link behaviour is fully
analytic rather than OS-enforced: transfer seconds follow
``latency + bytes*8 / (bandwidth * (1 - packet_loss))`` with latency
charged once per request/response turn, and compute seconds are scaled by
the per-role CPU fraction. This keeps runs portable and bit-reproducible.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass

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
        if self.bandwidth_up_mbps <= 0 or self.bandwidth_down_mbps <= 0:
            raise ValueError("bandwidths must be positive")
        if not 0.0 <= self.packet_loss < 1.0:
            raise ValueError("packet_loss must lie in [0, 1)")
        if self.latency_ms < 0:
            raise ValueError("latency cannot be negative")
        for cpu in (self.cpu_server, self.cpu_client):
            if not 0.0 < cpu <= 100.0:
                raise ValueError("cpu percentage must lie in (0, 100]")


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


class _PairState:
    """Shared turn counter: a turn starts at each client-side burst."""

    def __init__(self):
        self.lock = threading.Lock()
        self.turns = 0
        self.last_direction = None

    def record_send(self, direction: str):
        with self.lock:
            if direction == UP and self.last_direction != UP:
                self.turns += 1
            self.last_direction = direction

    def reset(self):
        with self.lock:
            self.turns = 0
            self.last_direction = None


class MemoryEndpoint:
    """One side of an in-process channel pair with per-direction FIFO."""

    def __init__(self, outbox, inbox, direction, pair_state, params, timeout=60.0):
        self._outbox = outbox
        self._inbox = inbox
        self.direction = direction  # direction of frames this endpoint sends
        self._pair = pair_state
        self.params = params
        self.timeout = timeout
        self.ledger = ByteLedger()
        self.comm_seconds = 0.0
        self._closed = False

    @property
    def is_client(self) -> bool:
        return self.direction == UP

    @property
    def turns(self) -> int:
        return self._pair.turns

    def send_frame(self, frame: Frame):
        if self._closed:
            raise TransportError("channel is closed")
        start = time.perf_counter()
        self._pair.record_send(self.direction)
        self.ledger.sent += frame.wire_size
        self._outbox.put(frame)
        self.comm_seconds += time.perf_counter() - start

    def recv_frame(self) -> Frame:
        if self._closed:
            raise TransportError("channel is closed")
        start = time.perf_counter()
        try:
            item = self._inbox.get(timeout=self.timeout)
        except queue.Empty:
            raise TransportError("timed out waiting for the peer") from None
        finally:
            self.comm_seconds += time.perf_counter() - start
        if item is None:
            raise TransportError("peer closed the channel")
        self.ledger.received += item.wire_size
        return item

    def close(self):
        if not self._closed:
            self._closed = True
            self._outbox.put(None)

    def reset_for_sync(self):
        self.ledger.reset()
        self._pair.reset()


def memory_channel_pair(params: ChannelParams | None = None, timeout: float = 60.0):
    """A connected (client_endpoint, server_endpoint) pair in one process."""
    params = params or ChannelParams()
    up_q: queue.Queue = queue.Queue()
    down_q: queue.Queue = queue.Queue()
    state = _PairState()
    client = MemoryEndpoint(up_q, down_q, UP, state, params, timeout)
    server = MemoryEndpoint(down_q, up_q, DOWN, state, params, timeout)
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
        self.comm_seconds = 0.0

    def send_frame(self, frame: Frame):
        data = frame.encode()
        start = time.perf_counter()
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        self.comm_seconds += time.perf_counter() - start
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
        start = time.perf_counter()
        try:
            header = self._recv_exact(FRAME_OVERHEAD)
            kind, length = decode_header(header)
            payload = self._recv_exact(length) if length else b""
        finally:
            self.comm_seconds += time.perf_counter() - start
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
