"""Wire choreography of one sync session.

All three protocols share the same shape: a parameter handshake rides in
front of the sketch phase, the client decodes (except for cuckoo, where
both sides query), and the difference phase closes the exchange. Each
protocol completes in two request/response turns; a CPI bound-doubling
retry adds one turn.

    CPI     client: HANDSHAKE            server: HANDSHAKE, SKETCH
            client: DIFFS(missing+confirm)   server: ACK
    IBLT    client: HANDSHAKE, SKETCH    server: HANDSHAKE, SKETCH
            client: DIFFS(missing+confirm)   server: ACK
    CUCKOO  client: HANDSHAKE, SKETCH    server: HANDSHAKE, SKETCH
            client: DIFFS(local-only)        server: DIFFS(local-only)

The CPI sketch travels only from server to client: the client holds its
own evaluations locally and recovers both difference sides from the
numerator and denominator roots, which keeps total traffic within twice
the optimal eight bytes per difference. IBLT and cuckoo exchange their
sketches in both directions.

The caller hands the session a function that returns the sketch of its
set, and the session calls it where the sketch is first needed: the
client first, the server once the client's sketch has arrived, so two
peers in one process do not build at once and each build counts as its
own peer's computation. The session never changes that sketch. A
bound-doubling retry computes its extra CPI points from the set.

A cuckoo sync hashes each element once. The filter from ``build_filter``
keeps every element's fingerprint and first-bucket hash, and the session
hands that filter to ``local_only``, which reuses them against the
peer's filter of any bucket count. A peer filter whose seed, fingerprint
width or bucket size is not the agreed one is malformed: the sync ends
with ABORT ``R_PROTOCOL``, as for an IBLT or CPI sketch of other
dimensions.

A session's computation seconds are the CPU seconds of the thread that
runs it, so sketch encoding and decoding count as computation, while
waiting for the peer, sleeping and the time another thread of the
process holds the GIL do not. The session also reports its wall
seconds, from which a channel without a link model takes its
communication time.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass

from . import cpi as cpi_mod
from . import cuckoo as cuckoo_mod
from . import iblt as iblt_mod
from .errors import (
    BoundExceededError,
    FilterFullError,
    GenSyncError,
    PeelError,
    ProtocolError,
    TransportError,
)
from .params import ProtocolId, ProtocolParams
from .transport import ABORT, ACK, DIFFS, HANDSHAKE, SKETCH, WIRE_VERSION, Frame

# abort reasons
R_HANDSHAKE = 1
R_VERSION = 2
R_DECODE = 3
R_FILTER_FULL = 4
R_PROTOCOL = 5
R_CONFIRM = 6

_U32 = struct.Struct(">I")


@dataclass
class SessionOutcome:
    success: bool
    to_add: set
    sent_missing: int
    compute_seconds: float  # CPU seconds of the session's thread
    wall_seconds: float
    failure_reason: str | None = None

    @property
    def differences_recovered(self) -> int:
        return self.sent_missing + len(self.to_add)


def handshake_payload(protocol: ProtocolId, params: ProtocolParams) -> bytes:
    return bytes([protocol.value]) + params.to_bytes() + struct.pack(">H", WIRE_VERSION)


def parse_handshake(payload: bytes):
    expected = 1 + ProtocolParams.wire_size() + 2
    if len(payload) != expected:
        raise ProtocolError(f"handshake payload has {len(payload)} bytes, expected {expected}")
    try:
        protocol = ProtocolId(payload[0])
    except ValueError:
        raise ProtocolError(f"unknown protocol id {payload[0]}") from None
    params = ProtocolParams.from_bytes(payload[1:-2])
    (version,) = struct.unpack(">H", payload[-2:])
    return protocol, params, version


def _encode_lists(*lists) -> bytes:
    out = bytearray()
    for lst in lists:
        items = sorted(lst)
        out += struct.pack(f">I{len(items)}Q", len(items), *items)
    return bytes(out)


def _decode_lists(payload: bytes, count: int):
    lists = []
    off = 0
    for _ in range(count):
        if off + 4 > len(payload):
            raise ProtocolError("truncated difference payload")
        (n,) = _U32.unpack_from(payload, off)
        off += 4
        end = off + 8 * n
        if end > len(payload):
            raise ProtocolError("truncated difference payload")
        lists.append(list(struct.unpack_from(f">{n}Q", payload, off)))
        off = end
    if off != len(payload):
        raise ProtocolError("trailing bytes in difference payload")
    return lists


class _Abort(GenSyncError):
    """Ends a session once either side has sent ABORT."""


def _abort(ch, code: int, message: str, reason: str | None = None) -> _Abort:
    """Send ABORT to the peer; returns the exception that ends this side."""
    try:
        ch.send_frame(Frame(ABORT, bytes([code]) + message.encode()))
    except GenSyncError:
        pass
    return _Abort(reason or message)


def _expect(ch, *kinds: int) -> Frame:
    frame = ch.recv_frame()
    if frame.kind == ABORT:
        if not frame.payload:
            raise _Abort("peer aborted")
        text = frame.payload[1:].decode(errors="replace")
        raise _Abort(f"peer aborted ({frame.payload[0]}): {text}")
    if frame.kind not in kinds:
        wanted = " or ".join(map(str, kinds))
        raise ProtocolError(f"expected frame kind {wanted}, got {frame.kind}")
    return frame


def _check_hello(ch, protocol, params) -> None:
    their_protocol, their_params, their_version = parse_handshake(_expect(ch, HANDSHAKE).payload)
    if their_version != WIRE_VERSION:
        message = f"wire version {their_version} != {WIRE_VERSION}"
        raise _abort(ch, R_VERSION, message, "wire version mismatch")
    if their_protocol is not protocol or their_params != params:
        raise _abort(ch, R_HANDSHAKE, "protocol or parameters disagree", "handshake mismatch")


def _local(ch, sketch):
    """Call ``sketch``; a cuckoo filter that overflows aborts the sync."""
    try:
        return sketch()
    except FilterFullError as exc:
        raise _abort(ch, R_FILTER_FULL, str(exc), f"filter full: {exc}") from None


def _run(role, ch, protocol: ProtocolId, params: ProtocolParams, elements: set, sketch) -> SessionOutcome:
    # the wall interval encloses the CPU interval, so CPU <= wall
    wall, cpu = time.perf_counter(), time.thread_time()
    to_add, sent_missing, reason = set(), 0, None
    try:
        to_add, sent_missing = role(ch, protocol, params, elements, sketch)
    except ProtocolError as exc:
        _abort(ch, R_PROTOCOL, str(exc))
        reason = str(exc)
    except (_Abort, TransportError) as exc:
        reason = str(exc)
    cpu = time.thread_time() - cpu
    wall = time.perf_counter() - wall
    return SessionOutcome(reason is None, to_add, sent_missing, cpu, wall, reason)


def run_client(ch, protocol: ProtocolId, params: ProtocolParams, elements: set, sketch) -> SessionOutcome:
    """The client side of one sync; ``sketch()`` returns the sketch of ``elements``."""
    return _run(_client, ch, protocol, params, elements, sketch)


def run_server(ch, protocol: ProtocolId, params: ProtocolParams, elements: set, sketch) -> SessionOutcome:
    """The server side of one sync; ``sketch()`` returns the sketch of ``elements``."""
    return _run(_server, ch, protocol, params, elements, sketch)


# ---------------------------------------------------------------------------
# client


def _client(ch, protocol, params, elements, sketch):
    """Returns (elements learned, count sent to the peer)."""
    local = _local(ch, sketch)
    ch.send_frame(Frame(HANDSHAKE, handshake_payload(protocol, params)))
    if protocol is not ProtocolId.CPI:
        ch.send_frame(Frame(SKETCH, local.to_bytes()))
    _check_hello(ch, protocol, params)
    their_payload = _expect(ch, SKETCH).payload

    if protocol is ProtocolId.CUCKOO:
        mine_only = cuckoo_mod.local_only(local, cuckoo_mod.CuckooFilter.from_bytes(their_payload))
        ch.send_frame(Frame(DIFFS, _encode_lists(mine_only)))
        (their_only,) = _decode_lists(_expect(ch, DIFFS).payload, 1)
        return set(their_only), len(mine_only)

    if protocol is ProtocolId.CPI:
        only_mine, only_theirs = _decode_cpi(ch, params, elements, local, their_payload)
    else:
        try:
            only_mine, only_theirs = local.subtract(iblt_mod.Iblt.from_bytes(their_payload)).peel()
        except PeelError as exc:
            raise _abort(ch, R_DECODE, str(exc), f"peel failed: {exc}") from None
    ch.send_frame(Frame(DIFFS, _encode_lists(only_mine, only_theirs)))
    _expect(ch, ACK)
    return set(only_theirs), len(only_mine)


def _decode_cpi(ch, params, elements, mine, their_payload):
    """Decode, doubling the bound up to ``cpi_retry_limit`` times."""
    theirs = cpi_mod.CpiSketch.from_bytes(their_payload)
    mbar = params.cpi_mbar
    ver = params.cpi_verification_points
    retries = 0
    while True:
        try:
            only_mine, only_theirs = cpi_mod.reconcile(mine, theirs)
            if cpi_mod.verify_membership(only_mine, only_theirs, elements):
                return only_mine, only_theirs
            raise BoundExceededError("decode contradicts local membership")
        except BoundExceededError as exc:
            if retries >= params.cpi_retry_limit:
                raise _abort(ch, R_DECODE, str(exc), f"difference bound exceeded: {exc}") from None
        retries += 1
        old_len = len(mine.evaluations)
        mbar *= 2
        # request the freshly appended evaluation points
        ch.send_frame(Frame(SKETCH, cpi_mod.CpiSketch(mbar, ver, len(elements), []).to_bytes()))
        appended_theirs = cpi_mod.CpiSketch.from_bytes(_expect(ch, SKETCH).payload)
        appended_mine = cpi_mod.make_sketch(elements, mbar, ver, start=old_len)
        mine = cpi_mod.extend_sketch(mine, appended_mine, mbar)
        theirs = cpi_mod.extend_sketch(theirs, appended_theirs, mbar)


# ---------------------------------------------------------------------------
# server


def _server(ch, protocol, params, elements, sketch):
    """Returns (elements learned, count sent to the peer)."""
    _check_hello(ch, protocol, params)
    if protocol is not ProtocolId.CPI:
        client_payload = _expect(ch, SKETCH).payload
    local = _local(ch, sketch)
    ch.send_frame(Frame(HANDSHAKE, handshake_payload(protocol, params)))
    ch.send_frame(Frame(SKETCH, local.to_bytes()))

    if protocol is ProtocolId.CUCKOO:
        server_only = cuckoo_mod.local_only(local, cuckoo_mod.CuckooFilter.from_bytes(client_payload))
        (client_only,) = _decode_lists(_expect(ch, DIFFS).payload, 1)
        ch.send_frame(Frame(DIFFS, _encode_lists(server_only)))
        return set(client_only), len(server_only)

    # a CPI client may ask for more evaluation points before it sends DIFFS:
    # each request doubles the bound, at most ``cpi_retry_limit`` times
    kinds = (DIFFS, SKETCH) if protocol is ProtocolId.CPI else (DIFFS,)
    ver = params.cpi_verification_points
    bound, served = params.cpi_mbar, 0
    frame = _expect(ch, *kinds)
    while frame.kind == SKETCH:
        request = cpi_mod.CpiSketch.from_bytes(frame.payload)
        if request.mbar != 2 * bound or served >= params.cpi_retry_limit:
            raise ProtocolError(f"request for bound {request.mbar} after {served} retries at bound {bound}")
        appended = cpi_mod.make_sketch(elements, request.mbar, ver, start=bound + ver)
        ch.send_frame(Frame(SKETCH, appended.to_bytes()))
        bound, served = request.mbar, served + 1
        frame = _expect(ch, *kinds)
    missing_here, confirmed = _decode_lists(frame.payload, 2)
    if any(v not in elements for v in confirmed):
        message = "peer confirmed elements this side does not hold"
        raise _abort(ch, R_CONFIRM, message, "confirmation list mismatch")
    ch.send_frame(Frame(ACK))
    return set(missing_here), len(confirmed)
