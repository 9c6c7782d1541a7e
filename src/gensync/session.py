"""Wire choreography of one sync session.

A protocol is an entry of ``PROTOCOLS``: its sketch class, build, cached
update, decode, whether the client sends its sketch, which side decodes
and its identifier range. The session runs one of two choreographies,
chosen by the entry: the client decodes (CPI, IBLT), or both sides query
the peer's sketch (cuckoo). A parameter handshake rides in front of the
sketch phase, and the difference phase closes the exchange. Each
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
keeps every element's fingerprint and first-bucket hash, and the decode
hands that filter to ``local_only``, which reuses them against the
peer's filter of any bucket count. A peer filter whose seed, fingerprint
width or bucket size is not the agreed one is malformed: the sync ends
with ABORT ``R_PROTOCOL``, as for an IBLT or CPI sketch of other
dimensions. A difference list holding an element outside the
protocol's identifier range is malformed too.

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
from typing import Callable

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
from .field import MODULUS
from .hashing import MASK64
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


def _decode_lists(payload: bytes, count: int, modulus: int):
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
        values = struct.unpack_from(f">{n}Q", payload, off)
        if values and max(values) >= modulus:
            raise ProtocolError(f"difference element {max(values)} is not below {modulus}")
        lists.append(list(values))
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


_ABORTS = {
    # a local failure -> (abort code, start of this side's failure reason)
    FilterFullError: (R_FILTER_FULL, "filter full"),
    PeelError: (R_DECODE, "peel failed"),
    BoundExceededError: (R_DECODE, "difference bound exceeded"),
}


def _run(role, ch, protocol: ProtocolId, params: ProtocolParams, elements: set, sketch) -> SessionOutcome:
    # the wall interval encloses the CPU interval, so CPU <= wall
    wall, cpu = time.perf_counter(), time.thread_time()
    to_add, sent_missing, reason = set(), 0, None
    try:
        to_add, sent_missing = role(ch, protocol, params, elements, sketch)
    except ProtocolError as exc:
        _abort(ch, R_PROTOCOL, str(exc))
        reason = str(exc)
    except tuple(_ABORTS) as exc:
        code, failure = _ABORTS[type(exc)]
        _abort(ch, code, str(exc))
        reason = f"{failure}: {exc}"
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
    entry = PROTOCOLS[protocol]
    local = sketch()
    ch.send_frame(Frame(HANDSHAKE, handshake_payload(protocol, params)))
    if entry.client_sends_sketch:
        # an IBLT server never reads this table; it stays so that the wire,
        # and the IBLT/CPI byte ratio of acceptance criterion 4, are unchanged
        ch.send_frame(Frame(SKETCH, local.to_bytes()))
    _check_hello(ch, protocol, params)
    theirs = entry.sketch.from_bytes(_expect(ch, SKETCH).payload)

    if not entry.client_decodes:
        mine_only = entry.decode(ch, params, elements, local, theirs)
        ch.send_frame(Frame(DIFFS, _encode_lists(mine_only)))
        (their_only,) = _decode_lists(_expect(ch, DIFFS).payload, 1, entry.modulus)
        return set(their_only), len(mine_only)

    only_mine, only_theirs = entry.decode(ch, params, elements, local, theirs)
    ch.send_frame(Frame(DIFFS, _encode_lists(only_mine, only_theirs)))
    _expect(ch, ACK)
    return set(only_theirs), len(only_mine)


def _decode_cpi(ch, params, elements, mine, theirs):
    """Decode, doubling the bound up to ``cpi_retry_limit`` times."""
    mbar = params.cpi_mbar
    ver = params.cpi_verification_points
    retries = 0
    while True:
        try:
            only_mine, only_theirs = cpi_mod.reconcile(mine, theirs)
            if only_mine <= elements and not only_theirs & elements:
                return only_mine, only_theirs
            raise BoundExceededError("decode contradicts local membership")
        except BoundExceededError:
            if retries >= params.cpi_retry_limit:
                raise
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
    entry = PROTOCOLS[protocol]
    _check_hello(ch, protocol, params)
    if entry.client_sends_sketch:
        client_payload = _expect(ch, SKETCH).payload
    local = sketch()
    ch.send_frame(Frame(HANDSHAKE, handshake_payload(protocol, params)))
    ch.send_frame(Frame(SKETCH, local.to_bytes()))

    if not entry.client_decodes:
        server_only = entry.decode(ch, params, elements, local, entry.sketch.from_bytes(client_payload))
        (client_only,) = _decode_lists(_expect(ch, DIFFS).payload, 1, entry.modulus)
        ch.send_frame(Frame(DIFFS, _encode_lists(server_only)))
        return set(client_only), len(server_only)

    frame = _expect(ch, DIFFS) if entry.serve_retries is None else entry.serve_retries(ch, params, elements)
    missing_here, confirmed = _decode_lists(frame.payload, 2, entry.modulus)
    if any(v not in elements for v in confirmed):
        message = "peer confirmed elements this side does not hold"
        raise _abort(ch, R_CONFIRM, message, "confirmation list mismatch")
    ch.send_frame(Frame(ACK))
    return set(missing_here), len(confirmed)


def _serve_cpi_retries(ch, params, elements):
    """Answer a CPI client's requests for more evaluation points; returns its DIFFS.

    Each request doubles the bound, at most ``cpi_retry_limit`` times.
    """
    ver = params.cpi_verification_points
    bound, served = params.cpi_mbar, 0
    frame = _expect(ch, DIFFS, SKETCH)
    while frame.kind == SKETCH:
        request = cpi_mod.CpiSketch.from_bytes(frame.payload)
        if request.mbar != 2 * bound or served >= params.cpi_retry_limit:
            raise ProtocolError(f"request for bound {request.mbar} after {served} retries at bound {bound}")
        appended = cpi_mod.make_sketch(elements, request.mbar, ver, start=bound + ver)
        ch.send_frame(Frame(SKETCH, appended.to_bytes()))
        bound, served = request.mbar, served + 1
        frame = _expect(ch, DIFFS, SKETCH)
    return frame


# ---------------------------------------------------------------------------
# protocols


@dataclass(frozen=True)
class Protocol:
    """What GenSync and the session know of one protocol.

    Entries look sketch functions up in their module, and ``from_bytes``
    in the class, when they run, so a wrapper put on one of those names
    later is the one called.
    """

    sketch: type  # its from_bytes reads the peer's sketch
    build: Callable  # (params, elements) -> the sketch of elements
    update: Callable | None  # (sketch, added, removed) -> sketch, or None to rebuild; None: nothing is cached
    # (ch, params, elements, mine, theirs) -> (only mine, only theirs) at a
    # client that decodes, or only mine where both sides query
    decode: Callable
    client_sends_sketch: bool
    client_decodes: bool  # else both sides query the peer's sketch
    modulus: int  # identifiers lie in [0, modulus)
    serve_retries: Callable | None = None  # (ch, params, elements) -> the client's DIFFS


PROTOCOLS = {
    ProtocolId.CPI: Protocol(
        cpi_mod.CpiSketch,
        lambda p, elements: cpi_mod.make_sketch(elements, p.cpi_mbar, p.cpi_verification_points),
        lambda sketch, added, removed: cpi_mod.update_sketch(sketch, added, removed),
        _decode_cpi,
        client_sends_sketch=False,
        client_decodes=True,
        modulus=MODULUS,  # GF(2^61 - 1); GenSync reduces larger identifiers when they are added
        serve_retries=_serve_cpi_retries,
    ),
    ProtocolId.IBLT: Protocol(
        iblt_mod.Iblt,
        lambda p, elements: iblt_mod.build_table(
            elements,
            iblt_mod.cell_count(p.iblt_expected_diffs, p.iblt_hedge, p.iblt_num_hashes),
            p.iblt_num_hashes,
            p.rng_seed,
        ),
        lambda sketch, added, removed: iblt_mod.update_table(sketch, added, removed),
        lambda ch, p, elements, mine, theirs: mine.subtract(theirs).peel(),
        client_sends_sketch=True,
        client_decodes=True,
        modulus=MASK64 + 1,
    ),
    ProtocolId.CUCKOO: Protocol(
        cuckoo_mod.CuckooFilter,
        lambda p, elements: cuckoo_mod.build_filter(
            elements, p.rng_seed, p.cuckoo_bucket_size, p.cuckoo_fingerprint_bits, p.cuckoo_max_kicks
        ),
        None,
        lambda ch, p, elements, mine, theirs: cuckoo_mod.local_only(mine, theirs),
        client_sends_sketch=True,
        client_decodes=False,
        modulus=MASK64 + 1,
    ),
}
