"""Negative self-test of the oracle: every check must fire on a corrupted result.

    python3 perfbench/selftest.py

Runs one small genuine sync per protocol, confirms that the oracle
accepts it, then feeds the oracle corrupted copies of the result: an
element dropped from a peer, an element invented, the server's byte
count off by one, the client's recovered count off by one, and a cuckoo
miss total at the binomial tail limit. Exits 0 only when the genuine
results pass and every corruption breaks the rules expected of it.
"""

from __future__ import annotations

import dataclasses
import random
import sys

from run import HERE, import_gensync

SET_SIZE = 300
DIFFS = 20


def corruptions(protocol, before_client, before_server, after_client, after_server, obs_client, obs_server):
    """(label, arguments for check_sync, rules that must break) per corruption."""
    import oracle

    exact = protocol != "CUCKOO"
    held = next(iter(before_client))
    invented = max(before_client | before_server) + 1
    cases = [
        (
            "element dropped from the client",
            (after_client - {held}, after_server, obs_client, obs_server),
            {oracle.LOST} | ({oracle.NOT_UNION} if exact else set()),
        ),
        (
            "element invented on the server",
            (after_client, after_server | {invented}, obs_client, obs_server),
            {oracle.INVENTED} | ({oracle.NOT_UNION} if exact else set()),
        ),
        (
            "server byte count off by one",
            (
                after_client,
                after_server,
                obs_client,
                dataclasses.replace(obs_server, bytes_transmitted=obs_server.bytes_transmitted + 1),
            ),
            {oracle.BYTES},
        ),
    ]
    if exact:
        learned = next(iter(after_client - before_client))
        cases.append(
            (
                "learned element dropped from the client",
                (after_client - {learned}, after_server, obs_client, obs_server),
                {oracle.NOT_UNION},
            )
        )
        cases.append(
            (
                "recovered count off by one",
                (
                    after_client,
                    after_server,
                    dataclasses.replace(obs_client, differences_recovered=obs_client.differences_recovered + 1),
                    obs_server,
                ),
                {oracle.RECOVERED},
            )
        )
    return cases


def main() -> int:
    import_gensync()
    sys.path.insert(0, str(HERE))
    import oracle
    import workloads

    harness = workloads.Harness()
    failures = []
    try:
        rng = random.Random("selftest")
        client_ids, server_ids = workloads.fresh_inputs(rng, SET_SIZE, DIFFS)
        params = workloads.params_for(DIFFS)
        for protocol in workloads.PROTOCOLS:
            client, server = workloads.memory_pair(protocol, params)
            harness.ingest(client, client_ids)
            harness.ingest(server, server_ids)
            ok, _ = harness.exchange(client, server)
            before = (workloads.views(protocol, client_ids), workloads.views(protocol, server_ids))
            result = (client.elements, server.elements, client.get_observation(), server.get_observation())
            client.close()
            server.close()
            if not ok:
                failures.append(f"{protocol}: the genuine sync failed")
                continue
            genuine = oracle.check_sync(protocol, *before, *result)
            print(f"{protocol:6s} genuine result: {'accepted' if not genuine else genuine}")
            if genuine:
                failures.append(f"{protocol}: genuine result rejected: {genuine}")
            for label, args, expected in corruptions(protocol, *before, *result):
                fired = set(oracle.check_sync(protocol, *before, *args))
                missing = expected - fired
                print(f"{protocol:6s} {label}: fired {sorted(fired)}")
                if missing:
                    failures.append(f"{protocol}: {label}: {sorted(missing)} did not fire")
    finally:
        left = harness.close(10.0)
    failures += left

    rate = oracle.cuckoo_rate(4, 12)
    diffs = 10_000
    limit = oracle.binomial_tail_limit(diffs, rate)
    fired_at = oracle.check_missed_total(limit, diffs, rate)
    quiet_below = oracle.check_missed_total(limit - 1, diffs, rate)
    print(f"CUCKOO tail bound for {diffs} differences at rate {rate:.5f}: {limit}; fired at it: {fired_at}")
    if fired_at != [oracle.MISSED_TAIL] or quiet_below:
        failures.append("cuckoo tail bound does not fire exactly at its limit")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("selftest: " + ("every check fired" if not failures else f"{len(failures)} problem(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
