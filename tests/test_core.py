import random
import threading
import time

import pytest

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
from gensync.cuckoo import CuckooFilter
from gensync.field import MODULUS


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
        time.sleep(0.2)
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


def test_roles_follow_endpoint_sides():
    client_end, server_end = memory_channel_pair()
    c = Builder().set("protocol", "IBLT").set("communicant", client_end).build()
    s = Builder().set("protocol", "IBLT").set("communicant", server_end).build()
    assert c.role is SyncRole.CLIENT
    assert s.role is SyncRole.SERVER
    with pytest.raises(ConfigError):
        Builder().set("protocol", "IBLT").set("communicant", client_end).set("role", "server").build()
