import math
import random
import threading
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gensync.errors import TransportError
from gensync.params import SyncRole
from gensync.session import WireCounter
from gensync.transport import (
    ACK,
    DIFFS,
    DOWN,
    FRAME_HEADER,
    HANDSHAKE,
    UP,
    ChannelParams,
    Frame,
    TcpEndpoint,
    TcpListener,
    memory_channel_pair,
    scale_compute,
    session_time,
    simulate_cost,
    tcp_connect,
)


def test_frame_round_trip_and_ledger_arithmetic():
    client, server = memory_channel_pair()
    payload = bytes(range(100))
    client.send_frame(Frame(DIFFS, payload))
    got = server.recv_frame()
    assert got.kind == DIFFS
    assert got.payload == payload
    assert got.wire_size == len(got.encode()) == 105


def test_recv_on_closed_channel_raises():
    client, server = memory_channel_pair()
    client.close()
    with pytest.raises(TransportError):
        server.recv_frame()


def test_recv_timeout_raises():
    client, server = memory_channel_pair(timeout=0.05)
    with pytest.raises(TransportError):
        server.recv_frame()


def test_bidirectional_fifo_order_preserved():
    rng = random.Random(17)
    client, server = memory_channel_pair()
    sent_up, sent_down = [], []
    # randomized interleaving of sends in both directions
    for i in range(200):
        payload = i.to_bytes(4, "big")
        if rng.random() < 0.5:
            client.send_frame(Frame(DIFFS, payload))
            sent_up.append(payload)
        else:
            server.send_frame(Frame(ACK, payload))
            sent_down.append(payload)
    got_up = [server.recv_frame().payload for _ in sent_up]
    got_down = [client.recv_frame().payload for _ in sent_down]
    assert got_up == sent_up
    assert got_down == sent_down


def test_turn_counting_once_per_request_response():
    client, server = (WireCounter(end) for end in memory_channel_pair())
    client.send_frame(Frame(HANDSHAKE))
    server.recv_frame()
    server.send_frame(Frame(HANDSHAKE))
    server.send_frame(Frame(DIFFS))  # same-direction burst, same turn
    client.recv_frame()
    client.recv_frame()
    client.send_frame(Frame(DIFFS))
    server.recv_frame()
    server.send_frame(Frame(ACK))
    client.recv_frame()
    assert client.turns == 2
    assert server.turns == 2


def test_simulate_cost_latency_only():
    params = ChannelParams(latency_ms=20, bandwidth_up_mbps=10, bandwidth_down_mbps=25)
    assert simulate_cost(params, UP, 0) == 0.020


def test_simulate_cost_forced_arithmetic():
    # 1 Mbps, 50 ms, no loss, 125000 bytes: 0.05 + 1.0 seconds exactly
    params = ChannelParams(latency_ms=50, bandwidth_up_mbps=1, bandwidth_down_mbps=1)
    assert simulate_cost(params, UP, 125_000) == 1.05


def test_simulate_cost_with_packet_loss():
    # closed form: 8e6 bits / (10 Mbps * 0.99) = 0.8081 s plus latency
    params = ChannelParams(latency_ms=20, bandwidth_up_mbps=10, bandwidth_down_mbps=10, packet_loss=0.01)
    expected = 0.020 + 1_000_000 * 8 / (10e6 * 0.99)
    assert simulate_cost(params, UP, 1_000_000) == pytest.approx(expected, rel=1e-12)


def test_scale_compute_examples():
    params = ChannelParams(cpu_server=100, cpu_client=20)
    assert scale_compute(params, SyncRole.SERVER, 0.25) == 0.25
    assert scale_compute(params, SyncRole.CLIENT, 0.1) == pytest.approx(0.5)
    assert scale_compute(params, SyncRole.CLIENT, 0.0) == 0.0


def test_session_time_charges_latency_per_turn():
    params = ChannelParams(latency_ms=30, bandwidth_up_mbps=1, bandwidth_down_mbps=2)
    t = session_time(params, up_bytes=1250, down_bytes=2500, turns=2)
    assert t == pytest.approx(0.060 + 0.01 + 0.01, rel=1e-12)


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=10**7),
    st.integers(min_value=1, max_value=10**6),
)
def test_cost_monotone_in_bytes(nbytes, extra):
    params = ChannelParams(latency_ms=5, bandwidth_up_mbps=3, bandwidth_down_mbps=3)
    assert simulate_cost(params, UP, nbytes + extra) > simulate_cost(params, UP, nbytes)


@settings(max_examples=60)
@given(
    st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
    st.floats(min_value=0.001, max_value=0.09, allow_nan=False),
)
def test_cost_monotone_in_loss_and_bandwidth(loss, bump):
    base = ChannelParams(latency_ms=5, bandwidth_up_mbps=2, bandwidth_down_mbps=2, packet_loss=loss)
    lossier = ChannelParams(latency_ms=5, bandwidth_up_mbps=2, bandwidth_down_mbps=2, packet_loss=loss + bump)
    faster = ChannelParams(latency_ms=5, bandwidth_up_mbps=2 + bump, bandwidth_down_mbps=2, packet_loss=loss)
    assert simulate_cost(lossier, UP, 10_000) > simulate_cost(base, UP, 10_000)
    assert simulate_cost(faster, UP, 10_000) < simulate_cost(base, UP, 10_000)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(packet_loss=1.0)
    with pytest.raises(ValueError):
        ChannelParams(bandwidth_up_mbps=0)
    with pytest.raises(ValueError):
        ChannelParams(cpu_client=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(ChannelParams)])
def test_channel_params_refuse_values_that_are_not_finite(name, value):
    # a NaN or infinite link made session_time return NaN or inf
    with pytest.raises(ValueError, match=f"{name} must lie in"):
        ChannelParams(**{name: value})


def wire(counter):
    return counter.bytes_up, counter.bytes_down, counter.turns


def test_tcp_frames_and_ledger_match_memory_channel():
    listener = TcpListener("127.0.0.1", 0)
    frames = [Frame(HANDSHAKE, b"hello"), Frame(DIFFS, bytes(1000)), Frame(ACK)]
    received = []
    counters = {}

    def serve():
        ep = listener.accept()
        counter = counters["server"] = WireCounter(ep)
        for _ in frames:
            received.append(counter.recv_frame())
        counter.send_frame(Frame(ACK, b"done"))
        ep.close()

    t = threading.Thread(target=serve)
    t.start()
    client_end = tcp_connect("127.0.0.1", listener.port)
    client = WireCounter(client_end)
    for f in frames:
        client.send_frame(f)
    reply = client.recv_frame()
    t.join()
    listener.close()
    client_end.close()

    assert [(f.kind, f.payload) for f in received] == [(f.kind, f.payload) for f in frames]
    assert reply.payload == b"done"
    assert wire(client) == wire(counters["server"]) == (sum(f.wire_size for f in frames), reply.wire_size, 1)

    mem_client, mem_server = (WireCounter(end) for end in memory_channel_pair())
    for f in frames:
        mem_client.send_frame(f)
        mem_server.recv_frame()
    mem_server.send_frame(Frame(ACK, b"done"))
    mem_client.recv_frame()
    assert wire(mem_client) == wire(mem_server) == wire(client)


class FakeSocket:
    """Hands out ``data`` to ``recv`` calls, then reports a closed peer."""

    def __init__(self, data: bytes):
        self._data = memoryview(data)
        self.asked = []

    def recv(self, n: int) -> bytes:
        self.asked.append(n)
        chunk, self._data = self._data[:n], self._data[n:]
        return bytes(chunk)


def test_tcp_recv_asks_for_what_may_arrive_not_what_the_header_announces():
    # recv allocates the bytes it is asked for before any arrive, so one
    # header announcing 4 GiB made this side ask for 4 GiB
    payload = bytes(range(256)) * 10_000  # 2.56 MB: several reads
    sock = FakeSocket(Frame(DIFFS, payload).encode() + FRAME_HEADER.pack(DIFFS, 0xFFFFFFFF) + bytes(1000))
    endpoint = TcpEndpoint(sock, is_client=True)
    assert endpoint.recv_frame().payload == payload
    with pytest.raises(TransportError, match="peer closed"):
        endpoint.recv_frame()
    assert max(sock.asked) <= 1 << 20
