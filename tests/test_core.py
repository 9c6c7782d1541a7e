import hashlib
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gensync import (
    Builder,
    ChannelParams,
    ConfigError,
    GenSync,
    ProtocolId,
    ProtocolParams,
    StateError,
    SyncRole,
    memory_channel_pair,
)
from gensync import cpi
from gensync.cpi import CpiSketch, make_sketch, sample_point
from gensync.cuckoo import CuckooFilter, build_filter
from gensync.field import MODULUS
from gensync.iblt import Iblt, build_table, cell_count
from gensync.session import R_PROTOCOL, R_VERSION, _encode_lists, handshake_payload, run_client, run_server
from gensync.transport import ABORT, DIFFS, HANDSHAKE, SKETCH, Frame, MemoryEndpoint


def build_pair(protocol, params=None, channel_params=None, server_params=None):
    client_end, server_end = memory_channel_pair(channel_params)
    client = (
        Builder()
        .set("protocol", protocol)
        .set("communicant", client_end)
        .set("protocol-params", params or ProtocolParams())
        .build()
    )
    server = (
        Builder()
        .set("protocol", protocol)
        .set("communicant", server_end)
        .set("protocol-params", server_params or params or ProtocolParams())
        .build()
    )
    return client, server


def run_sync(client, server):
    results = {}

    def serve():
        results["server"] = server.sync_begin()

    t = threading.Thread(target=serve)
    t.start()
    results["client"] = client.sync_begin()
    t.join()
    return results["client"], results["server"]


def fill(gs, values):
    for v in values:
        gs.add_element(v)


def seeded_sets(seed, n_common, n_a, n_b):
    rng = random.Random(seed)
    drawn, seen = [], set()
    while len(drawn) < n_common + n_a + n_b:
        v = rng.getrandbits(64)
        if v not in seen:
            seen.add(v)
            drawn.append(v)
    common = set(drawn[:n_common])
    return common | set(drawn[n_common : n_common + n_a]), common | set(drawn[n_common + n_a :])


# -- builder --------------------------------------------------------------


def test_builder_records_settings():
    b = Builder().set("protocol", "CPI").set("host", "the.peer.remote.addr")
    assert b._protocol is ProtocolId.CPI
    assert b._host == "the.peer.remote.addr"


def test_builder_rejects_unknown_protocol():
    with pytest.raises(ConfigError):
        Builder().set("protocol", "FOO")


def test_builder_rejects_unknown_key():
    with pytest.raises(ConfigError):
        Builder().set("speed", 9000)


def test_builder_requires_protocol():
    _, server_end = memory_channel_pair()
    with pytest.raises(ConfigError):
        Builder().set("communicant", server_end).build()


def test_builder_requires_host_port_for_tcp():
    with pytest.raises(ConfigError):
        Builder().set("protocol", "IBLT").set("communicant", "socket").set(
            "role", "client"
        ).build()


@pytest.mark.parametrize("port", [-1, 65536, "9431", 9431.0, True])
def test_builder_refuses_a_port_that_is_not_a_16_bit_integer(port):
    with pytest.raises(ConfigError, match="^port "):
        Builder().set("port", port)


def test_builder_tcp_server_not_yet_connected():
    gs = (
        Builder()
        .set("protocol", "IBLT")
        .set("communicant", "socket")
        .set("role", "server")
        .set("host", "127.0.0.1")
        .set("port", 0)
        .build()
    )
    assert len(gs) == 0
    assert gs.bound_port > 0
    gs.close()


def test_builder_fresh_instance_is_empty():
    client, _ = build_pair(ProtocolId.CPI)
    assert len(client) == 0


def test_protocol_id_parse_print_round_trip():
    for p in ProtocolId:
        assert ProtocolId.parse(str(p)) is p


# -- element management ----------------------------------------------------


def test_add_element_set_semantics():
    gs, _ = build_pair(ProtocolId.IBLT)
    assert gs.add_element(42) is True
    assert gs.add_element(42) is False
    assert gs.elements == frozenset({42})


def test_add_many_distinct():
    gs, _ = build_pair(ProtocolId.CUCKOO)
    fill(gs, range(10_000))
    assert len(gs) == 10_000


def test_remove_element_mirrors_add():
    gs, _ = build_pair(ProtocolId.IBLT)
    gs.add_element(7)
    assert gs.remove_element(7) is True
    assert gs.remove_element(7) is False
    assert len(gs) == 0


def test_cpi_reduces_large_identifiers_at_ingestion():
    gs, _ = build_pair(ProtocolId.CPI)
    gs.add_element(MODULUS + 5)
    assert gs.elements == frozenset({5})


def test_add_element_rejects_non_u64():
    gs, _ = build_pair(ProtocolId.IBLT)
    with pytest.raises(ValueError):
        gs.add_element(-1)
    with pytest.raises(ValueError):
        gs.add_element(1 << 64)


# -- sync -----------------------------------------------------------------


@pytest.mark.parametrize("protocol", list(ProtocolId))
def test_identical_sets_sync_trivially(protocol):
    client, server = build_pair(protocol)
    fill(client, (1, 2, 3))
    fill(server, (1, 2, 3))
    ok_c, ok_s = run_sync(client, server)
    assert ok_c and ok_s
    assert client.get_observation().differences_recovered == 0
    assert client.get_observation().success is True


def test_iblt_sync_recovers_union():
    a = set(range(1, 101))
    b = set(range(1, 91)) | set(range(200, 210))
    client, server = build_pair(ProtocolId.IBLT, ProtocolParams(iblt_expected_diffs=20))
    fill(client, a)
    fill(server, b)
    ok_c, ok_s = run_sync(client, server)
    assert ok_c and ok_s
    assert client.elements == server.elements == frozenset(a | b)


def test_cpi_over_bound_returns_false():
    a, b = seeded_sets(5, 300, 200, 200)  # 400 differences
    params = ProtocolParams(cpi_mbar=300, cpi_retry_limit=0)
    client, server = build_pair(ProtocolId.CPI, params)
    fill(client, a)
    fill(server, b)
    ok_c, ok_s = run_sync(client, server)
    assert not ok_c and not ok_s
    assert client.get_observation().success is False
    assert client.get_observation().differences_recovered == 0


def test_cpi_retry_doubles_bound_until_success():
    a, b = seeded_sets(6, 100, 6, 6)  # 12 differences, initial bound 4
    params = ProtocolParams(cpi_mbar=4, cpi_retry_limit=3)
    client, server = build_pair(ProtocolId.CPI, params)
    fill(client, a)
    fill(server, b)
    ok_c, ok_s = run_sync(client, server)
    assert ok_c and ok_s
    reduced = {x % MODULUS for x in a | b}
    assert client.elements == server.elements == frozenset(reduced)


@pytest.mark.parametrize("protocol", list(ProtocolId))
def test_union_correctness_small_random(protocol):
    for seed in (11, 12, 13):
        a, b = seeded_sets(seed, 400, 10, 10)
        params = ProtocolParams(cpi_mbar=20, iblt_expected_diffs=20, cuckoo_fingerprint_bits=16, rng_seed=seed)
        client, server = build_pair(protocol, params)
        fill(client, a)
        fill(server, b)
        ok_c, ok_s = run_sync(client, server)
        assert ok_c and ok_s
        if protocol is ProtocolId.CPI:
            expected = frozenset({x % MODULUS for x in a | b})
        else:
            expected = frozenset(a | b)
        if protocol is ProtocolId.CUCKOO:
            # false positives may hide differences but never invent them
            assert client.elements <= expected and server.elements <= expected
            assert client.elements >= frozenset(a) and server.elements >= frozenset(b)
        else:
            assert client.elements == server.elements == expected


@pytest.mark.parametrize("protocol", list(ProtocolId))
def test_second_sync_is_idempotent(protocol):
    a, b = seeded_sets(21, 50, 5, 5)
    params = ProtocolParams(cpi_mbar=10, iblt_expected_diffs=10, cuckoo_fingerprint_bits=16)
    client, server = build_pair(protocol, params)
    fill(client, a)
    fill(server, b)
    ok_c, ok_s = run_sync(client, server)
    assert ok_c and ok_s
    ok_c, ok_s = run_sync(client, server)
    assert ok_c and ok_s
    assert client.get_observation().differences_recovered == 0
    assert server.get_observation().differences_recovered == 0


def test_cpi_total_bytes_near_optimal():
    # with the bound matched to d, total traffic stays within twice the
    # eight bytes per difference plus a d-independent constant
    overheads = {}
    for seed, d in ((61, 10), (62, 30), (63, 50)):
        a, b = seeded_sets(seed, 200, d // 2, d - d // 2)
        client, server = build_pair(ProtocolId.CPI, ProtocolParams(cpi_mbar=d))
        fill(client, a)
        fill(server, b)
        ok_c, ok_s = run_sync(client, server)
        assert ok_c and ok_s
        total = client.get_observation().bytes_transmitted
        assert total <= 2 * 8 * d + 200
        overheads[d] = total - 16 * d
    assert len(set(overheads.values())) == 1  # fixed overhead is constant


def test_builder_rejects_malformed_protocol_params():
    with pytest.raises(ConfigError):
        Builder().set("protocol-params", {"cpi_mbar": 0})
    with pytest.raises(ConfigError):
        Builder().set("protocol-params", {"no_such_field": 1})
    with pytest.raises(ConfigError):
        Builder().set("protocol-params", 42)


def test_handshake_mismatch_never_succeeds():
    client_end, server_end = memory_channel_pair()
    client = Builder().set("protocol", "IBLT").set("communicant", client_end).build()
    server = Builder().set("protocol", "CPI").set("communicant", server_end).build()
    fill(client, (1, 2))
    fill(server, (1, 2))
    ok_c, ok_s = run_sync(client, server)
    assert not ok_c and not ok_s
    assert client.get_observation().success is False
    assert server.get_observation().success is False


def test_param_mismatch_never_succeeds():
    client, server = build_pair(
        ProtocolId.IBLT,
        params=ProtocolParams(iblt_expected_diffs=10),
        server_params=ProtocolParams(iblt_expected_diffs=20),
    )
    fill(client, (1, 2, 3))
    fill(server, (1, 2))
    ok_c, ok_s = run_sync(client, server)
    assert not ok_c and not ok_s


def test_client_filter_overflow_aborts_the_server_at_once():
    client_end, server_end = memory_channel_pair(timeout=5)
    params = ProtocolParams(cuckoo_bucket_size=1, cuckoo_max_kicks=1)
    client, server = (
        Builder().set("protocol", "CUCKOO").set("communicant", end).set("protocol-params", params).build()
        for end in (client_end, server_end)
    )
    values = range(1, 1_001)
    fill(client, values)
    fill(server, values)
    ok_c, ok_s = run_sync(client, server)
    assert not ok_c and not ok_s
    assert client.get_observation().failure_reason.startswith("filter full")
    assert server.get_observation().failure_reason.startswith("peer aborted")


def start(gs):
    """Run ``gs.sync_begin()`` on a thread; its result lands in the returned dict."""
    result = {}
    t = threading.Thread(target=lambda: result.setdefault("ok", gs.sync_begin()), daemon=True)
    t.start()
    return t, result


def bad_sketches():
    """Case name -> (protocol, payload) that a faulty server sends as its sketch to a client of range(1, 51)."""
    params, elements = ProtocolParams(), range(1, 51)
    k = params.iblt_num_hashes
    m = cell_count(params.iblt_expected_diffs, params.iblt_hedge, k)
    table = build_table(elements, m, k, params.rng_seed).to_bytes()
    cpi = make_sketch(elements, params.cpi_mbar, params.cpi_verification_points)
    sketch = cpi.to_bytes()
    outside = CpiSketch(cpi.mbar, cpi.verification_points, cpi.set_size, [MODULUS] + cpi.evaluations[1:])
    cuckoo = build_filter(elements, params.rng_seed, params.cuckoo_bucket_size, params.cuckoo_fingerprint_bits).to_bytes()
    return {
        "iblt-short": (ProtocolId.IBLT, table[:-5]),
        "iblt-trailing": (ProtocolId.IBLT, table + b"\0"),
        "iblt-other-size": (ProtocolId.IBLT, build_table(elements, m + k, k, params.rng_seed).to_bytes()),
        "iblt-huge-header": (ProtocolId.IBLT, (2**32 - 1).to_bytes(4, "big") + table[4:]),
        "cpi-short": (ProtocolId.CPI, sketch[:-20]),
        "cpi-trailing": (ProtocolId.CPI, sketch + bytes(8)),
        "cpi-other-size": (ProtocolId.CPI, make_sketch(elements, 2 * params.cpi_mbar, params.cpi_verification_points).to_bytes()),
        "cpi-outside-field": (ProtocolId.CPI, outside.to_bytes()),
        "cuckoo-short": (ProtocolId.CUCKOO, cuckoo[:-5]),
        "cuckoo-trailing": (ProtocolId.CUCKOO, cuckoo + b"\0"),
        "cuckoo-huge-header": (ProtocolId.CUCKOO, bytes([255]) + cuckoo[1:]),
    }


@pytest.mark.parametrize("case", sorted(bad_sketches()))
def test_client_aborts_at_once_on_a_malformed_sketch(case):
    protocol, payload = bad_sketches()[case]
    client_end, server_end = memory_channel_pair(timeout=5)
    client = Builder().set("protocol", protocol).set("communicant", client_end).build()
    fill(client, range(1, 51))
    t, result = start(client)
    server_end.recv_frame()  # handshake
    if protocol is not ProtocolId.CPI:
        server_end.recv_frame()  # the client's sketch
    server_end.send_frame(Frame(HANDSHAKE, handshake_payload(protocol, ProtocolParams())))
    server_end.send_frame(Frame(SKETCH, payload))
    began = time.perf_counter()
    reply = server_end.recv_frame()
    assert time.perf_counter() - began < 1
    assert (reply.kind, reply.payload[:1]) == (ABORT, bytes([R_PROTOCOL]))
    t.join(timeout=5)
    assert result == {"ok": False}


@pytest.mark.parametrize("side", ["client", "server"])
@pytest.mark.parametrize("field", ["seed", "fingerprint_bits", "bucket_size"])
def test_a_cuckoo_filter_off_the_handshake_aborts_the_sync(field, side):
    # the header is in range and the payload fits it, but one field is not the agreed one
    params, elements = ProtocolParams(), range(1, 51)
    header = {"seed": params.rng_seed, "fingerprint_bits": params.cuckoo_fingerprint_bits}
    header["bucket_size"] = params.cuckoo_bucket_size
    header[field] += 1
    foreign = build_filter(elements, **header).to_bytes()
    client_end, server_end = memory_channel_pair(timeout=3)
    real, fake = (client_end, server_end) if side == "client" else (server_end, client_end)
    peer = Builder().set("protocol", "CUCKOO").set("communicant", real).build()
    fill(peer, elements)
    t, result = start(peer)
    if side == "client":
        assert [fake.recv_frame().kind for _ in range(2)] == [HANDSHAKE, SKETCH]
    fake.send_frame(Frame(HANDSHAKE, handshake_payload(ProtocolId.CUCKOO, params)))
    fake.send_frame(Frame(SKETCH, foreign))
    if side == "server":
        assert [fake.recv_frame().kind for _ in range(2)] == [HANDSHAKE, SKETCH]
    began = time.perf_counter()
    reply = fake.recv_frame()
    assert time.perf_counter() - began < 1
    assert (reply.kind, reply.payload[:1]) == (ABORT, bytes([R_PROTOCOL]))
    t.join(timeout=5)
    assert result == {"ok": False}
    assert peer.get_observation().failure_reason.startswith("filters disagree")


BAD_DIFFS = {
    # (start of the abort message, payload of ``n`` difference lists, the last one malformed)
    "header-cut-short": (b"truncated", lambda n: bytes(4) * (n - 1) + bytes(2)),
    "list-cut-short": (b"truncated", lambda n: bytes(4) * (n - 1) + (2).to_bytes(4, "big") + bytes(8)),
    "trailing-byte": (b"trailing", lambda n: bytes(4) * n + b"\0"),
}


@pytest.mark.parametrize("case", sorted(BAD_DIFFS))
def test_iblt_server_aborts_at_once_on_malformed_diffs(case):
    message, payload = BAD_DIFFS[case]
    params, elements = ProtocolParams(), range(1, 51)
    m = cell_count(params.iblt_expected_diffs, params.iblt_hedge, params.iblt_num_hashes)
    client_end, server_end = memory_channel_pair(timeout=5)
    server = Builder().set("protocol", "IBLT").set("communicant", server_end).build()
    fill(server, elements)
    t, result = start(server)
    client_end.send_frame(Frame(HANDSHAKE, handshake_payload(ProtocolId.IBLT, params)))
    client_end.send_frame(Frame(SKETCH, build_table(elements, m, params.iblt_num_hashes, params.rng_seed).to_bytes()))
    assert [client_end.recv_frame().kind for _ in range(2)] == [HANDSHAKE, SKETCH]
    began = time.perf_counter()
    client_end.send_frame(Frame(DIFFS, payload(2)))
    reply = client_end.recv_frame()
    assert time.perf_counter() - began < 1
    assert (reply.kind, reply.payload[:1]) == (ABORT, bytes([R_PROTOCOL]))
    assert reply.payload[1:].startswith(message)
    t.join(timeout=5)
    assert result == {"ok": False}


@pytest.mark.parametrize("case", sorted(BAD_DIFFS))
def test_cuckoo_client_aborts_at_once_on_malformed_diffs(case):
    message, payload = BAD_DIFFS[case]
    params, elements = ProtocolParams(), range(1, 51)
    client_end, server_end = memory_channel_pair(timeout=5)
    client = Builder().set("protocol", "CUCKOO").set("communicant", client_end).build()
    fill(client, elements)
    t, result = start(client)
    assert [server_end.recv_frame().kind for _ in range(2)] == [HANDSHAKE, SKETCH]
    cf = build_filter(elements, params.rng_seed, params.cuckoo_bucket_size, params.cuckoo_fingerprint_bits)
    server_end.send_frame(Frame(HANDSHAKE, handshake_payload(ProtocolId.CUCKOO, params)))
    server_end.send_frame(Frame(SKETCH, cf.to_bytes()))
    assert server_end.recv_frame().kind == DIFFS
    began = time.perf_counter()
    server_end.send_frame(Frame(DIFFS, payload(1)))
    reply = server_end.recv_frame()
    assert time.perf_counter() - began < 1
    assert (reply.kind, reply.payload[:1]) == (ABORT, bytes([R_PROTOCOL]))
    assert reply.payload[1:].startswith(message)
    t.join(timeout=5)
    assert result == {"ok": False}


def test_cpi_server_refuses_a_retry_it_did_not_offer():
    params = ProtocolParams()  # cpi_retry_limit=0: no retry is legal
    client_end, server_end = memory_channel_pair(timeout=5)
    server = Builder().set("protocol", "CPI").set("communicant", server_end).build()
    fill(server, range(1, 51))
    t, result = start(server)
    client_end.send_frame(Frame(HANDSHAKE, handshake_payload(ProtocolId.CPI, params)))
    assert [client_end.recv_frame().kind for _ in range(2)] == [HANDSHAKE, SKETCH]
    began = time.perf_counter()
    client_end.send_frame(Frame(SKETCH, CpiSketch(2**20, params.cpi_verification_points, 50, []).to_bytes()))
    reply = client_end.recv_frame()
    t.join(timeout=1)
    assert time.perf_counter() - began < 1
    assert (reply.kind, reply.payload[:1]) == (ABORT, bytes([R_PROTOCOL]))
    assert result == {"ok": False}


def test_cpi_server_refuses_an_element_outside_the_field():
    # CPI identifiers lie below MODULUS; a peer's larger one would be held
    # unreduced, where remove_element, which reduces its argument, cannot
    # reach it
    params = ProtocolParams()
    client_end, server_end = memory_channel_pair(timeout=5)
    server = Builder().set("protocol", "CPI").set("communicant", server_end).build()
    fill(server, range(1, 51))
    t, result = start(server)
    client_end.send_frame(Frame(HANDSHAKE, handshake_payload(ProtocolId.CPI, params)))
    assert [client_end.recv_frame().kind for _ in range(2)] == [HANDSHAKE, SKETCH]
    began = time.perf_counter()
    client_end.send_frame(Frame(DIFFS, _encode_lists([MODULUS + 5], [])))
    reply = client_end.recv_frame()
    assert time.perf_counter() - began < 1
    assert (reply.kind, reply.payload[:1]) == (ABORT, bytes([R_PROTOCOL]))
    t.join(timeout=5)
    assert result == {"ok": False}
    assert max(server.elements) < MODULUS


# -- observations ----------------------------------------------------------


def test_observation_before_any_sync_is_an_error():
    gs, _ = build_pair(ProtocolId.CPI)
    with pytest.raises(StateError):
        gs.get_observation()


def test_observation_stable_until_next_sync():
    client, server = build_pair(ProtocolId.IBLT)
    fill(client, (1,))
    fill(server, (1,))
    run_sync(client, server)
    first = client.get_observation()
    assert client.get_observation() is first


def test_observation_bytes_match_ledger_and_are_nonzero():
    a, b = seeded_sets(31, 100, 50, 50)
    params = ProtocolParams(iblt_expected_diffs=100)
    client, server = build_pair(ProtocolId.IBLT, params)
    fill(client, a)
    fill(server, b)
    run_sync(client, server)
    obs_c = client.get_observation()
    obs_s = server.get_observation()
    assert obs_c.bytes_transmitted == obs_s.bytes_transmitted > 0
    # independent recount: two handshakes, two tables, diffs, ack
    from gensync.iblt import cell_count

    m = cell_count(100, 2.0, 4)
    expected = 2 * 40 + 2 * (5 + 13 + 20 * m) + (5 + 8 + 8 * 100) + 5
    assert obs_c.bytes_transmitted == expected


def test_observation_times_scale_with_cpu_fraction():
    cp = ChannelParams(latency_ms=10, cpu_client=20, cpu_server=100)
    a, b = seeded_sets(41, 200, 10, 10)
    client, server = build_pair(ProtocolId.IBLT, ProtocolParams(iblt_expected_diffs=20), channel_params=cp)
    fill(client, a)
    fill(server, b)
    run_sync(client, server)
    obs = client.get_observation()
    assert obs.communication_time > 0.02  # two turns at 10 ms minimum
    assert obs.computation_time > 0.0


def test_computation_time_counts_sketch_decoding(monkeypatch):
    decode = CuckooFilter.from_bytes

    def slow_decode(cls, data):
        began = time.thread_time()
        while time.thread_time() - began < 0.2:  # burn this thread's CPU
            pass
        return decode(data)

    monkeypatch.setattr(CuckooFilter, "from_bytes", classmethod(slow_decode))
    client, server = build_pair(ProtocolId.CUCKOO)
    fill(client, range(1, 11))
    fill(server, range(2, 12))
    assert run_sync(client, server) == (True, True)
    assert client.get_observation().computation_time >= 0.2


def test_computation_time_leaves_out_waiting_for_the_peer():
    client, server = build_pair(ProtocolId.IBLT)
    fill(client, range(1, 11))
    fill(server, range(2, 12))
    t = threading.Thread(target=client.sync_begin)
    t.start()
    time.sleep(0.3)  # the client sends its sketch and waits for the late server
    assert server.sync_begin()
    t.join(timeout=10)
    assert not t.is_alive()
    assert client.get_observation().success
    assert client.get_observation().computation_time < 0.3


def test_computation_time_leaves_out_another_threads_cpu():
    client, server = build_pair(ProtocolId.CUCKOO)
    fill(client, range(1, 20_001))
    fill(server, range(2, 20_002))
    stop = threading.Event()
    cpu = {}

    def spin():  # pure Python, so it takes the GIL whenever it can
        while not stop.is_set():
            pass

    def timed_sync(gs):
        began = time.thread_time()
        ok = gs.sync_begin()
        cpu[gs] = (ok, time.thread_time() - began)

    spinner = threading.Thread(target=spin)
    spinner.start()
    try:
        t = threading.Thread(target=timed_sync, args=(server,))
        t.start()
        timed_sync(client)
        t.join(timeout=30)
    finally:
        stop.set()
        spinner.join(timeout=5)
    assert not t.is_alive()
    for gs in (client, server):
        ok, spent = cpu[gs]
        assert ok
        assert gs.get_observation().computation_time <= spent + 0.001


def test_cpi_retries_count_one_turn_each_on_both_sides():
    a, b = seeded_sets(6, 100, 6, 6)  # 12 differences, initial bound 4
    params = ProtocolParams(cpi_mbar=4, cpi_retry_limit=3)
    client_end, server_end = memory_channel_pair(ChannelParams(latency_ms=100))
    client = Builder().set("protocol", "CPI").set("communicant", client_end).set("protocol-params", params).build()
    server = Builder().set("protocol", "CPI").set("communicant", server_end).set("protocol-params", params).build()
    fill(client, a)
    fill(server, b)
    assert run_sync(client, server) == (True, True)
    # the sketch exchange, two bound doublings (4 -> 8 -> 16), the differences
    assert client_end.turns == server_end.turns == 4
    comm = client.get_observation().communication_time
    assert server.get_observation().communication_time == comm
    assert comm == pytest.approx(0.4, abs=0.005)


def test_late_server_still_counts_two_turns():
    client, server = build_pair(ProtocolId.IBLT, channel_params=ChannelParams(latency_ms=100))
    fill(client, range(1, 11))
    fill(server, range(2, 12))
    t, result = start(client)
    time.sleep(0.2)  # the client's first turn is sent before the server starts
    assert server.sync_begin()
    t.join(timeout=10)
    assert result == {"ok": True}
    for gs in (client, server):
        assert gs.get_observation().communication_time >= 0.2  # two turns at 100 ms


def test_roles_follow_endpoint_sides():
    client_end, server_end = memory_channel_pair()
    c = Builder().set("protocol", "IBLT").set("communicant", client_end).build()
    s = Builder().set("protocol", "IBLT").set("communicant", server_end).build()
    assert c.role is SyncRole.CLIENT
    assert s.role is SyncRole.SERVER
    with pytest.raises(ConfigError):
        Builder().set("protocol", "IBLT").set("communicant", client_end).set("role", "server").build()


# -- the handshake record ----------------------------------------------------


def test_default_params_record_is_pinned():
    record = ProtocolParams().to_bytes()
    assert record.hex() == "00000040000800000000404000000000000000040c0401f40000000000000000"
    assert ProtocolParams.from_bytes(record) == ProtocolParams()


def test_params_record_keeps_every_field_in_place():
    # every field off its default and distinct from its neighbours, so a
    # reordered dataclass field changes these bytes
    params = ProtocolParams(
        cpi_mbar=300,
        cpi_verification_points=5,
        cpi_retry_limit=3,
        iblt_expected_diffs=77,
        iblt_hedge=2.5,
        iblt_num_hashes=6,
        cuckoo_fingerprint_bits=16,
        cuckoo_bucket_size=2,
        cuckoo_max_kicks=1000,
        rng_seed=0x0123456789ABCDEF,
    )
    record = params.to_bytes()
    assert record.hex() == "0000012c0005030000004d400400000000000006100203e80123456789abcdef"
    assert ProtocolParams.from_bytes(record) == params


# the first value each field's format in the handshake record cannot carry
RECORD_LIMITS = {
    "cpi_mbar": 2**32,
    "iblt_expected_diffs": 2**32,
    "cpi_verification_points": 2**16,
    "cuckoo_max_kicks": 2**16,
    "iblt_num_hashes": 2**8,
    "cuckoo_bucket_size": 2**8,
}


@pytest.mark.parametrize("name", sorted(RECORD_LIMITS))
def test_params_the_record_cannot_carry_are_rejected(name):
    limit = RECORD_LIMITS[name]
    with pytest.raises(ConfigError):
        ProtocolParams(**{name: limit})
    params = ProtocolParams(**{name: limit - 1})
    assert ProtocolParams.from_bytes(params.to_bytes()) == params


@pytest.mark.parametrize("hedge", [float("inf"), float("nan")])
def test_hedge_must_be_finite(hedge):
    with pytest.raises(ConfigError):
        ProtocolParams(iblt_hedge=hedge)


def test_builder_refuses_a_fractional_bound():
    # it was accepted, and sync_begin then raised struct.error out of the
    # client while the server waited out its whole timeout
    with pytest.raises(ConfigError, match="iblt_expected_diffs expects an integer, got 10.5"):
        Builder().set("protocol-params", {"iblt_expected_diffs": 10.5})


def test_a_record_out_of_range_cannot_be_built():
    # GenSync took it, and sync_begin then raised ValueError out of the
    # client while the server waited out its whole timeout
    with pytest.raises(ConfigError, match=r"^cpi_mbar must lie in \[1, 2\^32\), got 0$"):
        ProtocolParams(cpi_mbar=0)


@pytest.mark.parametrize(
    "make",
    [lambda: ChannelParams(latency_ms="5"), lambda: ProtocolParams(cpi_mbar="64")],
    ids=["channel", "protocol"],
)
def test_a_setting_of_another_type_is_a_config_error(make):
    # the link raised a bare TypeError from a comparison, and the record
    # was built
    with pytest.raises(ConfigError, match="expects"):
        make()


@pytest.mark.parametrize("side", ["client", "server"])
def test_a_peer_record_out_of_range_aborts_at_once_as_malformed(side):
    # cpi_retry_limit=9 fits its byte but lies outside [0, 3]; the peer
    # answered it as a mere parameter mismatch (R_HANDSHAKE)
    hello = bytearray(handshake_payload(ProtocolId.CPI, ProtocolParams()))
    hello[1 + 4 + 2] = 9  # after the protocol id, cpi_mbar and cpi_verification_points
    client_end, server_end = memory_channel_pair(timeout=5)
    real, fake = (client_end, server_end) if side == "client" else (server_end, client_end)
    peer = Builder().set("protocol", "CPI").set("communicant", real).build()
    fill(peer, range(1, 51))
    t, result = start(peer)
    if side == "client":
        assert fake.recv_frame().kind == HANDSHAKE
    began = time.perf_counter()
    fake.send_frame(Frame(HANDSHAKE, bytes(hello)))
    reply = fake.recv_frame()
    assert time.perf_counter() - began < 1
    assert (reply.kind, reply.payload[:1]) == (ABORT, bytes([R_PROTOCOL]))
    assert b"cpi_retry_limit must lie in [0, 3], got 9" in reply.payload
    t.join(timeout=5)
    assert result == {"ok": False}


@pytest.mark.parametrize("side", ["client", "server"])
def test_a_peer_on_another_wire_version_is_refused(side):
    params = ProtocolParams()
    old_hello = handshake_payload(ProtocolId.IBLT, params)[:-2] + (1).to_bytes(2, "big")
    client_end, server_end = memory_channel_pair(timeout=5)
    real, old = (client_end, server_end) if side == "client" else (server_end, client_end)
    peer = Builder().set("protocol", "IBLT").set("communicant", real).build()
    fill(peer, range(1, 51))
    t, result = start(peer)
    if side == "client":
        assert [old.recv_frame().kind for _ in range(2)] == [HANDSHAKE, SKETCH]
    old.send_frame(Frame(HANDSHAKE, old_hello))
    reply = old.recv_frame()
    assert (reply.kind, reply.payload[:1]) == (ABORT, bytes([R_VERSION]))
    assert reply.payload[1:] == b"wire version 1 != 2"
    t.join(timeout=5)
    assert result == {"ok": False}
    assert peer.get_observation().failure_reason == "wire version mismatch"


def test_a_table_that_puts_a_peeled_key_back_ends_both_sides():
    # a server that knows the client's set sends the client's table minus
    # one with a lone key in its first cell: the client's difference is
    # that table, whose peel would put the key back for ever
    params, elements = ProtocolParams(), set(range(1, 51))
    k = params.iblt_num_hashes
    m = cell_count(params.iblt_expected_diffs, params.iblt_hedge, k)
    table = build_table(elements, m, k, params.rng_seed)
    alone = build_table([2**40], m, k, params.rng_seed)
    first = alone.counts.index(1)
    looping = Iblt(m, k, params.rng_seed)
    looping.counts[first], looping.words[first] = 1, alone.words[first]
    crafted = table.subtract(looping)

    client_end, server_end = memory_channel_pair(timeout=5)
    outcomes = {}

    def run(name, role, end, sketch):
        outcomes[name] = role(end, ProtocolId.IBLT, params, elements, lambda: sketch)

    threads = [
        threading.Thread(target=run, args=("client", run_client, client_end, table), daemon=True),
        threading.Thread(target=run, args=("server", run_server, server_end, crafted), daemon=True),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert not outcomes["client"].success and not outcomes["server"].success
    assert outcomes["client"].failure_reason.startswith("peel failed")
    assert outcomes["server"].failure_reason.startswith("peer aborted (3)")


# -- the cached sketch ---------------------------------------------------------

CACHE_PARAMS = ProtocolParams(cpi_mbar=48, iblt_expected_diffs=48, iblt_hedge=3.0, iblt_num_hashes=6)


def sketch_of(protocol, p, elements):
    """The CPI or IBLT sketch of ``elements``, built from scratch."""
    if protocol is ProtocolId.CPI:
        return make_sketch(elements, p.cpi_mbar, p.cpi_verification_points)
    cells = cell_count(p.iblt_expected_diffs, p.iblt_hedge, p.iblt_num_hashes)
    return build_table(elements, cells, p.iblt_num_hashes, p.rng_seed)


def fresh_sketch(gs):
    return sketch_of(gs.protocol, gs.params, gs.elements)


def next_sketch(gs):
    """The sketch ``gs`` would hand its next sync."""
    return gs._local_sketch()


CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("add", "remove")), st.booleans(), st.integers(1, 40)),
        st.just(("sync", None, None)),
    ),
    max_size=30,
)


@pytest.mark.parametrize("protocol", [ProtocolId.CPI, ProtocolId.IBLT])
@settings(max_examples=25, deadline=None)
@given(ops=CACHE_OPS)
def test_cached_sketch_matches_a_fresh_build(protocol, ops):
    client, server = build_pair(protocol, CACHE_PARAMS)
    for op, on_client, x in ops:
        gs = client if on_client else server
        if op == "add":
            gs.add_element(x)
        elif op == "remove":
            gs.remove_element(x)
        else:
            assert run_sync(client, server) == (True, True)
            assert client.elements == server.elements
    for gs in (client, server):
        assert next_sketch(gs).to_bytes() == fresh_sketch(gs).to_bytes()


def test_removing_a_sample_point_rebuilds_the_sketch(monkeypatch):
    client, server = build_pair(ProtocolId.CPI, CACHE_PARAMS)
    point = sample_point(3)
    fill(client, range(1, 201))
    fill(client, [point])
    fill(server, range(1, 201))
    assert run_sync(client, server) == (True, True)
    assert point in client.elements

    sizes = []
    build = cpi.make_sketch

    def counted(elements, *args, **kwargs):
        sizes.append(len(elements))
        return build(elements, *args, **kwargs)

    monkeypatch.setattr(cpi, "make_sketch", counted)
    client.add_element(7_000)
    client.remove_element(point)
    sketch = next_sketch(client)
    # the update of one add and one remove fails on the zero factor, and
    # the rebuild evaluates every element
    assert sizes == [1, 1, len(client)]
    assert sketch.to_bytes() == fresh_sketch(client).to_bytes()


def tcp_pair(protocol, params):
    server = (
        Builder()
        .set("protocol", protocol)
        .set("communicant", "socket")
        .set("role", "server")
        .set("host", "127.0.0.1")
        .set("port", 0)
        .set("protocol-params", params)
        .build()
    )
    client = (
        Builder()
        .set("protocol", protocol)
        .set("communicant", "socket")
        .set("role", "client")
        .set("host", "127.0.0.1")
        .set("port", server.bound_port)
        .set("protocol-params", params)
        .build()
    )
    return client, server


def test_cpi_sync_after_one_beyond_its_bound_ends_in_the_union():
    a, b = seeded_sets(71, 300, 20, 20)
    only_a, only_b = sorted(a - b), sorted(b - a)
    client, server = tcp_pair(ProtocolId.CPI, ProtocolParams(cpi_mbar=10, cpi_retry_limit=0))
    try:
        fill(client, a)
        fill(server, b)
        assert run_sync(client, server) == (False, False)  # 40 differences, bound 10
        fill(client, only_b[:15])
        for x in only_a[:15]:
            client.remove_element(x)
        assert run_sync(client, server) == (True, True)  # 10 differences
        expected = frozenset(x % MODULUS for x in (a | b) - set(only_a[:15]))
        assert client.elements == server.elements == expected
        for gs in (client, server):
            assert next_sketch(gs).to_bytes() == fresh_sketch(gs).to_bytes()
    finally:
        client.close()
        server.close()


@pytest.mark.parametrize("protocol", [ProtocolId.CPI, ProtocolId.IBLT])
def test_session_leaves_the_handed_sketch_unchanged(protocol):
    # at CPI two bound-doubling retries graft extra points onto the client's sketch
    a, b = seeded_sets(72, 200, 6, 6)
    params = ProtocolParams(cpi_mbar=4, cpi_retry_limit=2, iblt_expected_diffs=12)
    sets = [{x % MODULUS for x in s} for s in (a, b)]
    sketches = [sketch_of(protocol, params, s) for s in sets]
    before = [sk.to_bytes() for sk in sketches]
    client_end, server_end = memory_channel_pair(timeout=5)
    outcomes = {}
    t = threading.Thread(
        target=lambda: outcomes.setdefault(
            "server", run_server(server_end, protocol, params, sets[1], lambda: sketches[1])
        )
    )
    t.start()
    client = run_client(client_end, protocol, params, sets[0], lambda: sketches[0])
    t.join(timeout=10)
    assert not t.is_alive()
    assert client.success and outcomes["server"].success
    assert [sk.to_bytes() for sk in sketches] == before


# -- whole transcripts ------------------------------------------------------------

TRANSCRIPTS = {
    # name -> (protocol, params, sha256 of the frames of two syncs, each direction apart)
    "cpi": (
        ProtocolId.CPI,
        ProtocolParams(cpi_mbar=24),
        "0769d07490f48c9fbba2919cfe162860e04d0f33dff97c9dde5c0cc73fdf930c",
    ),
    "cpi-retry": (
        ProtocolId.CPI,
        ProtocolParams(cpi_mbar=8, cpi_retry_limit=1),
        "956c2b255cb3e1fec1679bb0085b516c84de27744c6030b672ceaef966fc5eb3",
    ),
    "iblt": (
        ProtocolId.IBLT,
        ProtocolParams(iblt_expected_diffs=24),
        "2e3ae099efb73e343f094d769c6976fd2c003a6fd1bed28fbbfda58ecf7178ed",
    ),
    "cuckoo": (
        ProtocolId.CUCKOO,
        ProtocolParams(cuckoo_fingerprint_bits=16),
        "c565407c776c177c1f21e3b8e5a526bfa4e9b6af172ca6dbd24c0611995a0f14",
    ),
}


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_sync_transcripts_are_pinned(name, monkeypatch):
    # a first sync that builds each sketch, then one that updates the
    # cached sketch after adds and removes; at cpi-retry the first sync
    # doubles the bound once
    protocol, params, digest = TRANSCRIPTS[name]
    frames = {True: [], False: []}
    send = MemoryEndpoint.send_frame

    def recorded(endpoint, frame):
        frames[endpoint.is_client].append((frame.kind, frame.payload))
        return send(endpoint, frame)

    monkeypatch.setattr(MemoryEndpoint, "send_frame", recorded)
    a, b = seeded_sets(81, 300, 6, 6)
    client, server = build_pair(protocol, params)
    fill(client, a)
    fill(server, b)
    assert run_sync(client, server) == (True, True)
    fill(client, range(1, 4))
    client.remove_element(min(a & b))
    server.add_element(2**63)
    assert run_sync(client, server) == (True, True)
    recording = repr((frames[True], frames[False])).encode()
    assert hashlib.sha256(recording).hexdigest() == digest
