"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines as they complete.
"""

import random
import threading
import time

from gensync import Builder, ProtocolId, ProtocolParams, memory_channel_pair
from gensync.benchmark import (
    BAD_NETWORK,
    GOOD_NETWORK,
    BenchConfig,
    generate_workload,
    parse_config,
    run_benchmark,
)
from gensync.cuckoo import CuckooFilter, build_filter, local_only
from gensync.errors import PeelError
from gensync.iblt import build_table, cell_count
from gensync.transport import UP, ChannelParams, simulate_cost


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} [{name}] failed: {detail}"


def sync_pair(protocol, params, server_set, client_set, channel_params=None):
    client_end, server_end = memory_channel_pair(channel_params)
    client = (
        Builder()
        .set("protocol", protocol)
        .set("communicant", client_end)
        .set("protocol-params", params)
        .build()
    )
    server = (
        Builder()
        .set("protocol", protocol)
        .set("communicant", server_end)
        .set("protocol-params", params)
        .build()
    )
    for v in client_set:
        client.add_element(v)
    for v in server_set:
        server.add_element(v)
    expected_union = set(client.elements) | set(server.elements)

    result = {}

    def serve():
        result["ok"] = server.sync_begin()

    t = threading.Thread(target=serve)
    t.start()
    client_ok = client.sync_begin()
    t.join()
    return client_ok and result["ok"], client, server, expected_union


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(0xACCE01)
    stats = {"cpi": 0, "iblt": 0, "iblt_failures": 0}
    instances = 500
    for i in range(instances):
        d = rng.randint(0, 50)
        set_size = rng.randint(max(1, (d + 1) // 2), 1000)
        server_set, client_set = generate_workload(set_size, d, 0.5, seed=i)
        params = ProtocolParams(
            cpi_mbar=max(1, d), iblt_expected_diffs=max(1, d), rng_seed=i
        )

        ok, client, server, union = sync_pair(ProtocolId.CPI, params, server_set, client_set)
        assert ok, f"CPI within the bound must decode (instance {i}, d={d})"
        assert set(client.elements) == set(server.elements) == union
        stats["cpi"] += 1

        ok, client, server, union = sync_pair(ProtocolId.IBLT, params, server_set, client_set)
        if ok:
            assert set(client.elements) == set(server.elements) == union
            stats["iblt"] += 1
        else:
            stats["iblt_failures"] += 1  # honest peel failure, never a wrong answer

    elapsed = time.perf_counter() - started
    report(
        1,
        "oracle equivalence",
        elapsed < 60.0,
        f"{instances} instances, CPI {stats['cpi']} exact, IBLT {stats['iblt']} exact / "
        f"{stats['iblt_failures']} failed decodes, {elapsed:.1f}s",
    )


def test_criterion_2_transfer_invariant_to_set_size():
    results = {}
    for protocol in (ProtocolId.CPI, ProtocolId.IBLT):
        for n in (10_000, 100_000):
            cfg = BenchConfig(protocol=protocol, set_size=n, diff_count=100, repeat=1, rng_seed=2)
            obs, _ = run_benchmark(cfg)
            assert obs[0].success
            results[(protocol, n)] = obs[0].bytes_transmitted
    spreads = {}
    for protocol in (ProtocolId.CPI, ProtocolId.IBLT):
        small, large = results[(protocol, 10_000)], results[(protocol, 100_000)]
        spreads[protocol.name] = abs(small - large) / large
    report(
        2,
        "CPI/IBLT bytes invariant to set size",
        all(v < 0.01 for v in spreads.values()),
        ", ".join(f"{k} spread {v:.4%}" for k, v in spreads.items()),
    )


def test_criterion_3_cuckoo_bytes_invariant_to_difference_count():
    n = 10_000
    seed = 14
    params = ProtocolParams(cuckoo_fingerprint_bits=16, rng_seed=seed)
    totals = {}
    server_filters = {}
    for d in (10, 100, 300):
        # split=0 keeps the server set identical across d at a fixed seed
        server_set, client_set = generate_workload(n, d, 0.0, seed=seed)
        ok, client, server, union = sync_pair(ProtocolId.CUCKOO, params, server_set, client_set)
        assert ok
        assert set(client.elements) == set(server.elements) == union, "seed must avoid FP misses"
        totals[d] = client.get_observation().bytes_transmitted
        server_filters[d] = build_filter(
            server_set, seed, params.cuckoo_bucket_size, params.cuckoo_fingerprint_bits
        ).to_bytes()

    identical = server_filters[10] == server_filters[100] == server_filters[300]
    growth_exact = all(totals[d] - totals[10] == 8 * (d - 10) for d in (100, 300))
    report(
        3,
        "cuckoo sketch invariant to difference count",
        identical and growth_exact,
        f"sketch {len(server_filters[10])} B constant, totals {totals}",
    )


def test_criterion_4_cpi_bandwidth_dominance():
    ratios = {}
    for d in (50, 100, 300):
        overrides = {"mbar": d, "expected_diffs": d}
        byte_counts = {}
        for protocol in (ProtocolId.CPI, ProtocolId.IBLT):
            cfg = BenchConfig(
                protocol=protocol, set_size=2_000, diff_count=d, repeat=1, rng_seed=4,
                overrides=overrides,
            )
            obs, _ = run_benchmark(cfg)
            assert obs[0].success, f"{protocol} at d={d} must sync"
            byte_counts[protocol] = obs[0].bytes_transmitted
        ratios[d] = byte_counts[ProtocolId.IBLT] / byte_counts[ProtocolId.CPI]
    report(
        4,
        "IBLT/CPI byte ratio at matched provisioning",
        all(r >= 3.0 for r in ratios.values()),
        ", ".join(f"d={d}: {r:.2f}x" for d, r in ratios.items()),
    )


def test_criterion_5_iblt_decode_reliability():
    successes = 0
    m = cell_count(100, 2.0, 4)
    for seed in range(100):
        rng = random.Random(0x1B17 + seed)
        drawn, seen = [], set()
        while len(drawn) < 400:
            v = rng.getrandbits(64)
            if v not in seen:
                seen.add(v)
                drawn.append(v)
        common = set(drawn[:300])
        a_only, b_only = set(drawn[300:350]), set(drawn[350:])
        ta = build_table(common | a_only, m, 4, seed=seed)
        tb = build_table(common | b_only, m, 4, seed=seed)
        try:
            pos, neg = ta.subtract(tb).peel()
        except PeelError:
            continue
        assert pos == a_only and neg == b_only, "every success must match the oracle"
        successes += 1
    report(5, "IBLT decode reliability at d=100", successes >= 99, f"{successes}/100 peels")


def test_criterion_6_cuckoo_soundness():
    rng = random.Random(0xC0C)
    n = 100_000
    elements, seen = [], set()
    while len(elements) < n + 10_000:
        v = rng.getrandbits(64)
        if v not in seen:
            seen.add(v)
            elements.append(v)
    members, absent = elements[:n], elements[n:]
    cf = build_filter(members, seed=0xC0C)  # f=12, b=4 defaults
    load = cf.occupancy / cf.capacity
    assert load <= 0.8

    # counted through local_only, the query a sync runs, against the decoded filter
    theirs = CuckooFilter.from_bytes(cf.to_bytes())
    false_negatives = len(local_only(cf, theirs))
    fp = len(absent) - len(local_only(build_filter(absent, seed=0xC0C), theirs))
    bound = 3 * (2 * 4 / 2**12)
    rate = fp / len(absent)
    report(
        6,
        "cuckoo zero false negatives and bounded false positives",
        false_negatives == 0 and rate <= bound,
        f"{n} member lookups, 0 FN expected got {false_negatives}; "
        f"FP {rate:.4%} vs bound {bound:.4%} at load {load:.0%}",
    )


def test_criterion_7_cost_model_determinism():
    params = ChannelParams(latency_ms=50, bandwidth_up_mbps=1, bandwidth_down_mbps=1)
    exact = simulate_cost(params, UP, 125_000) == 1.05

    replays = []
    for _ in range(2):
        run_bytes = []
        for protocol in ProtocolId:
            cfg = BenchConfig(protocol=protocol, set_size=500, diff_count=20, repeat=3, rng_seed=7)
            obs, _ = run_benchmark(cfg)
            run_bytes.extend((o.bytes_transmitted, o.communication_time) for o in obs)
        replays.append(run_bytes)
    report(
        7,
        "cost arithmetic exact and replay bit-identical",
        exact and replays[0] == replays[1],
        f"simulate_cost=1.05 exact: {exact}; {len(replays[0])} runs replayed",
    )


def test_criterion_8_good_network_strictly_faster():
    workloads = [(1_000, 40), (4_000, 100)]
    conditions = {
        "good": (GOOD_NETWORK.latency_ms, GOOD_NETWORK.bandwidth_up_mbps),
        "bad": (BAD_NETWORK.latency_ms, BAD_NETWORK.bandwidth_up_mbps),
    }
    failures = []
    details = []
    for protocol in ProtocolId:
        for n, d in workloads:
            means = {}
            for label, (latency, bw) in conditions.items():
                cfg = BenchConfig(
                    protocol=protocol, set_size=n, diff_count=d, repeat=3, rng_seed=8,
                    latency_ms=latency, bandwidth_up_mbps=bw, bandwidth_down_mbps=bw,
                )
                _, stats = run_benchmark(cfg)
                assert stats.success_count == 3
                means[label] = stats.total_time.mean
            if not means["bad"] > means["good"]:
                failures.append((protocol.name, n, d, means))
            details.append(f"{protocol.name}@n={n},d={d}: bad/good {means['bad']/means['good']:.2f}x")
    report(8, "bad network strictly slower than good", not failures, "; ".join(details))


def test_criterion_9_reference_config_round_trip():
    listing = (
        "# Protocol identifier\n"
        "protocol=CPI\n"
        "# Latency in milliseconds\n"
        "latency=20\n"
        "# Bandwidth in Mbps (in two directions)\n"
        'bandwidth="10/25"\n'
        "# Packet loss (percentage)\n"
        "packet_loss=0.01\n"
        "# Percentage of CPU cycles used for sync\n"
        "cpu_server=100\n"
        "cpu_client=20\n"
        "# Repeat each experiment\n"
        "repeat=100\n"
        "set_size=10000\n"
        "diff_count=100\n"
        "seed=1\n"
    )
    cfg = parse_config(listing)
    values_ok = (
        cfg.protocol is ProtocolId.CPI
        and cfg.latency_ms == 20
        and (cfg.bandwidth_up_mbps, cfg.bandwidth_down_mbps) == (10, 25)
        and cfg.packet_loss == 0.01
        and (cfg.cpu_server, cfg.cpu_client) == (100, 20)
        and cfg.repeat == 100
    )
    round_trip_ok = parse_config(cfg.to_script()) == cfg
    report(
        9,
        "reference config parses and round-trips",
        values_ok and round_trip_ok,
        f"values {'ok' if values_ok else 'WRONG'}, round trip {'ok' if round_trip_ok else 'WRONG'}",
    )
